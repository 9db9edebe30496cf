"""How fast the host runs right now, from a fixed piece of standard-library
work.

The benchmark runs on small shared machines whose speed changes by tens
of percent over seconds to minutes, CPU by CPU, with no change to the
program. So the timed workloads calibrate between ops, outside the timed
region, and report each time scaled to a reference speed: a time ``t``
measured next to a calibration that took ``c`` seconds is reported as
``t * REFERENCE_SECONDS / c``. The raw times are kept beside the scaled
ones in every result file.

The calibration imports nothing from the program, so a change to the
program cannot change it. It does the kinds of work the program does --
expat XML parsing, attribute and dict access, graph search in
interpreted Python, sorting, string building, JSON encoding and hashing
-- on inputs built once at import.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import json
import os
import time
import xml.etree.ElementTree as ElementTree

#: What the calibration takes on the reference host (a 2-vCPU Xeon VM at
#: 2.0 GHz, Python 3.11) when it is not slowed down. Reported times are
#: seconds on a host where the calibration takes this long.
REFERENCE_SECONDS = 0.013

_NODES = 300


def _document() -> str:
    parts = ["<system>"]
    for node in range(_NODES):
        parts.append(f'<component id="c{node}" kind="k{node % 7}">')
        for offset in (1, 7, 31):
            parts.append(f'<link to="c{(node * 13 + offset) % _NODES}"/>')
        parts.append("</component>")
    parts.append("</system>")
    return "".join(parts)


_XML = _document()


class _Component:
    __slots__ = ("name", "kind", "links")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.links: list = []


def _work() -> str:
    components = {}
    for element in ElementTree.fromstring(_XML):
        component = _Component(element.get("id"), element.get("kind"))
        component.links = [link.get("to") for link in element]
        components[component.name] = component
    rows = []
    for start in list(components)[::6]:
        seen = {start: 0}
        queue = collections.deque([start])
        while queue:
            name = queue.popleft()
            for target in components[name].links:
                if target not in seen:
                    seen[target] = seen[name] + 1
                    queue.append(target)
        far = sorted(seen.items(), key=lambda item: (-item[1], item[0]))[:5]
        rows.append({"from": start, "far": [f"{n}@{d}" for n, d in far]})
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def calibrate() -> float:
    """Seconds the calibration work takes now, on the CPU this process
    is on. The garbage collector is paused meanwhile, so the program's
    heap does not decide when a collection falls into the calibration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def calibrate_slowest_cpu() -> float:
    """:func:`calibrate` on each CPU this process may run on, in turn:
    the slowest reading. An op spread over processes waits for its
    slowest part."""
    allowed = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            readings.append(calibrate())
    finally:
        os.sched_setaffinity(0, allowed)
    return max(readings)
