#!/usr/bin/env python3
"""One end-to-end benchmark of sosae: the CLI, serve at 1 and 2 workers,
and the job API.

Run every workload (each in its own fresh subprocess) and keep the
results::

    python3 benchmarks/harness/run.py --seed 0 --out results.json

One workload, as ``BENCHMARK.json``'s command is run (the last stdout
line is a JSON object with ``correct``/``attempted``/``failed``/
``metrics``)::

    python3 benchmarks/harness/run.py --workload cli_800 --seed 3 \\
        --seconds 10 --trace 0

``--trace 1`` replaces the timed phase with the traced pass: per-layer
self times from benchmark-side wrappers, written as a Chrome trace to
``--trace-dir`` (default ``.bench_traces/``). ``--smoke`` runs 3 ops
per workload to check the harness itself. Compare two sets of result
files (parent first, then the change)::

    python3 benchmarks/harness/run.py compare A1.json A2.json -- B1.json B2.json

The metrics, units, directions and regression bounds come from
``BENCHMARK.json`` at the repository root; see the README next to this
file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
DEFAULT_TRACE_DIR = ROOT / ".bench_traces"

#: Samples that must lie beyond a reported percentile.
PERCENTILE_TAIL = 10
#: Failures are compared in absolute terms: any increase is a regression.
FAIL_RATIO = {"name": "fail_ratio", "unit": "1", "better": "lower", "bound": 0.0}
#: How many failure messages a result keeps.
MAX_FAILURE_LINES = 20


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values, fraction: float, min_tail: int = PERCENTILE_TAIL) -> float:
    """The ``fraction`` quantile (linear interpolation between closest
    ranks), refused unless at least ``min_tail`` samples lie beyond it:
    a p90 needs 100 samples."""
    count = len(values)
    needed = max(1, math.ceil(min_tail / (1.0 - fraction) - 1e-9))
    if count < needed:
        raise ValueError(
            f"a p{fraction * 100:g} needs {needed} samples for {min_tail} "
            f"beyond it; got {count}"
        )
    ordered = sorted(values)
    rank = fraction * (count - 1)
    low = int(rank)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def classify(parent, change, better: str, bound: float, absolute: bool = False):
    """The verdict on one metric: ``worse``, ``better``, ``unchanged`` or
    ``unresolved``.

    ``worse``: the change's median is worse than the parent's by more
    than ``bound`` (a share of the parent's median, or an absolute
    amount). ``better``: the change wins at least nine tenths of the
    pairs (ties count for neither) and the medians differ by more than
    the parent's quartile spread. When either side's run-to-run spread
    exceeds the bound the metric is ``unresolved`` -- unless every run of
    the change reads better than every run of the parent."""
    sign = 1.0 if better == "lower" else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    scale = 1.0 if absolute else abs(parent_median) or 1.0
    worsening = (change_median - parent_median) * sign
    spread = max(quartile_spread(parent), quartile_spread(change)) / scale
    if spread > bound:
        if max(v * sign for v in change) < min(v * sign for v in parent):
            return "better"
        return "unresolved"
    if worsening > bound * scale:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if c * sign < p * sign)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and -worsening > quartile_spread(parent)
    ):
        return "better"
    return "unchanged"


# ----------------------------------------------------------------------
# The benchmark definition and result files
# ----------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def end_to_end_metrics(spec: dict) -> list:
    return list(spec["end_to_end"]) + [FAIL_RATIO]


def load_results(paths) -> dict:
    """``{workload: {metric: [value per file]}}`` from result files."""
    runs: dict = {}
    for path in paths:
        for result in json.loads(Path(path).read_text())["results"]:
            metrics = runs.setdefault(result["workload"], {})
            for name, entry in result["metrics"].items():
                metrics.setdefault(name, []).append(entry["value"])
    return runs


def compare(parent_paths, change_paths, spec: dict) -> int:
    parent = load_results(parent_paths)
    change = load_results(change_paths)
    print(
        f"{'workload':<18} {'metric':<15} {'parent':>11} {'change':>11} "
        f"{'delta':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        for metric in end_to_end_metrics(spec):
            name = metric["name"]
            before = parent[workload].get(name)
            after = change[workload].get(name)
            if not before or not after:
                continue
            absolute = metric is FAIL_RATIO
            verdict = classify(
                before, after, metric["better"], metric["bound"], absolute
            )
            worse += verdict == "worse"
            base = statistics.median(before)
            now = statistics.median(after)
            scale = 1.0 if absolute else abs(base) or 1.0
            spread = max(quartile_spread(before), quartile_spread(after)) / scale
            delta = (now - base) / scale
            print(
                f"{workload:<18} {name:<15} {base:>11.5g} {now:>11.5g} "
                f"{delta:>+8.2%} {spread:>7.2%} {metric['bound']:>6.0%}  "
                f"{verdict}"
            )
    return 1 if worse else 0


# ----------------------------------------------------------------------
# Running one workload (in this process)
# ----------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    trace_dir: Path,
    spec: dict,
) -> dict:
    """Run one workload here and return its result entry."""
    import layers
    import workloads

    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    result = {
        "workload": name,
        "seed": seed,
        "mode": "traced" if trace else "timed",
        "smoke": smoke,
        "metrics": {},
    }
    fixture = None
    if smoke:
        seconds = 0.0
    try:
        workload.prepare()
        # Each set-up is timed from a collected heap and scaled by the
        # calibration after it, like an op.
        setups = workloads.Phase()
        for index in range(1 if smoke else workloads.SETUPS):
            if fixture is not None:
                workload.teardown(fixture)
                fixture = None
            gc.collect()
            started = time.perf_counter()
            fixture = workload.setup(index)
            elapsed = time.perf_counter() - started
            setups.add([elapsed], elapsed, 0.0, workload.calibrate())
        warmup_ops = 1 if smoke else workload.warmup_ops
        failures = workload.timed_phase(fixture, warmup_ops, 0.0).failures
        if trace:
            traced = layers.traced_pass(
                workload,
                fixture,
                1 if smoke else workloads.TRACE_OPS,
                seconds,
                trace_dir / f"{name}.trace.json",
            )
            failures += traced["failures"]
            attempted = 2 * traced["ops"]
            result["layers"] = traced["metrics"]
            result["warning"] = traced["warning"]
            result["metrics"] = {
                metric["name"]: _metric(
                    traced["metrics"][metric["name"]], metric["unit"]
                )
                for metric in spec["per_layer"]
            }
        else:
            ops = workloads.SMOKE_OPS if smoke else workload.min_ops
            phase = workload.timed_phase(fixture, ops, seconds)
            failures += phase.failures
            attempted = phase.ops
            tail = 0 if smoke else PERCENTILE_TAIL

            def times(setup_times, latencies, wall, cpu) -> dict:
                return {
                    "setup_s": statistics.median(setup_times),
                    "op_p50_s": percentile(latencies, 0.5, tail),
                    "op_p75_s": percentile(latencies, 0.75, tail),
                    "ops_per_s": phase.ops / wall,
                    "cpu_s_per_op": cpu / phase.ops,
                }

            # The metrics are at the reference host speed (hostspeed.py).
            values = times(
                setups.scaled_latencies,
                phase.scaled_latencies,
                phase.scaled_wall,
                phase.scaled_cpu,
            )
            values["peak_rss_mb"] = phase.peak_rss_mb
            values["disk_kb_per_op"] = phase.disk_bytes / 1024.0 / phase.ops
            values["fail_ratio"] = len(phase.failures) / phase.ops
            result["metrics"] = {
                metric["name"]: _metric(values[metric["name"]], metric["unit"])
                for metric in end_to_end_metrics(spec)
            }
            result["raw"] = times(
                setups.latencies, phase.latencies, phase.wall, phase.cpu
            )
            result["samples"] = phase.ops
            result["latencies"] = phase.latencies
            result["calibrations"] = phase.calibrations
            result["setups"] = list(zip(setups.latencies, setups.calibrations))
            result["extra"] = phase.extra
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc(file=sys.stderr)
        failures = [f"benchmark aborted: {type(error).__name__}: {error}"]
        attempted = 1
        result["metrics"] = {}
    finally:
        if fixture is not None:
            workload.teardown(fixture)
        shutil.rmtree(workdir, ignore_errors=True)
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["correct"] = not failures
    result["failures"] = failures[:MAX_FAILURE_LINES]
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def print_result(result: dict, spec: dict) -> None:
    directions = {
        m["name"]: m["better"]
        for m in end_to_end_metrics(spec) + list(spec["per_layer"])
    }
    header = (
        f"== {result['workload']} (seed {result['seed']}, {result['mode']}"
        f"{', smoke' if result['smoke'] else ''}): "
        f"{result['attempted']} ops, {result['failed']} failed =="
    )
    print(header)
    for name, entry in result["metrics"].items():
        note = ""
        if name == "op_p75_s":
            note = f"  (n={result['samples']})"
        print(
            f"  {name:<32} {entry['value']:>14.6g} {entry['unit']:<6} "
            f"{directions.get(name, ''):<6}{note}"
        )
    for title, values in (
        ("raw times, before host-speed scaling", result.get("raw")),
        ("job timings", result.get("extra")),
        ("all layers", result.get("layers")),
    ):
        if values:
            print(f"  -- {title} --")
            for name in sorted(values):
                print(f"  {name:<32} {values[name]:>14.6g}")
    if result.get("warning"):
        print(f"  WARNING: {result['warning']}")
    for line in result["failures"]:
        print(f"  FAILED {result['workload']} {line}")


def summary_line(results: list) -> str:
    """The machine-read last line. With one workload its metrics are
    that workload's; with several, keyed ``<workload>/<metric>``."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": entry
            for r in results
            for name, entry in r["metrics"].items()
        }
    return json.dumps(
        {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        },
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=names, default=None,
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="minimum length of the timed phase")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="1: run the traced pass instead of the timed one")
    parser.add_argument("--trace-dir", type=Path, default=DEFAULT_TRACE_DIR)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the results as JSON to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops per workload, to test the harness")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(
            f"run.py: no program to benchmark (need {SRC / 'repro'} and "
            f"{SPEC_PATH})",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if "--" not in argv:
            print("usage: run.py compare A.json [...] -- B.json [...]",
                  file=sys.stderr)
            return 2
        split = argv.index("--")
        return compare(argv[1:split], argv[split + 1:], spec)
    args = parse_args(argv, spec)
    if args.workload is not None:
        sys.path[:0] = [str(SRC), str(HERE)]
        results = [
            run_workload(
                args.workload,
                args.seed,
                args.seconds,
                args.trace == "1",
                args.smoke,
                args.trace_dir,
                spec,
            )
        ]
    else:
        results = run_each_in_subprocess(args, spec)
    for result in results:
        print_result(result, spec)
    if args.out is not None:
        args.out.write_text(
            json.dumps({"results": results}, indent=1, sort_keys=True) + "\n"
        )
    print(summary_line(results), flush=True)
    return 0 if all(r["correct"] for r in results) else 1


def run_each_in_subprocess(args, spec: dict) -> list:
    """Each workload in a fresh process, so no workload's peak memory or
    caches leak into the next."""
    results = []
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        for workload in spec["workloads"]:
            out = Path(scratch) / f"{workload['name']}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload["name"],
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", args.trace,
                "--trace-dir", str(args.trace_dir),
                "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            completed = subprocess.run(
                command, stdout=subprocess.DEVNULL, check=False
            )
            if not out.exists():
                raise SystemExit(
                    f"run.py: workload {workload['name']} exited "
                    f"{completed.returncode} without a result"
                )
            results.extend(json.loads(out.read_text())["results"])
    return results


if __name__ == "__main__":
    sys.exit(main())
