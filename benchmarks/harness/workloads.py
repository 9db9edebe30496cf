"""The benchmark's four workloads and how one run of each is measured.

Every workload drives the program through a public entry point --
``repro.cli.main``, ``ServeDaemon.run_once``, or HTTP against a
``python -m repro serve --jobs`` subprocess -- and measures it from
outside: the harness times calls, reads CPU and memory from the
operating system, and sizes the state directory. Nothing under ``src/``
is instrumented for it.

A run has four parts:

1. **reference** (untimed): build the inputs once more and evaluate
   them in-process with a plain serial ``Sosae.evaluate``. That report's
   digest is what every op must reproduce; for ``--seed 0`` it must
   also equal the digest committed in ``expected.json``, and the
   known answers from construction and the paper must hold.
2. **set-up** (``setup_s``): input generation, spec files, the daemon or
   the server subprocess up to readiness. Done :data:`SETUPS` times;
   ``setup_s`` is the median, and the last fixture is kept.
3. **warm-up** (untimed): a few ops, so caches fill first.
4. **timed phase**: a closed loop of ops for at least ``--seconds``
   seconds and at least the workload's minimum op count, so
   ``op_p75_s`` always has ten samples beyond it.

Set-ups and ops are each followed by a host-speed calibration
(hostspeed.py) that scales their times.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import http.client
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

import hostspeed
from repro import cli
from repro.adl.xadl import parse_xadl, to_xadl_xml
from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.core.report_io import report_to_dict, report_to_json
from repro.obs import RunRegistry, ServeDaemon
from repro.obs.jobs import build_bundle_sosae
from repro.scenarioml.scenario import ScenarioSet
from repro.scenarioml.xml_io import parse_scenarioml, to_scenarioml_xml
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import GET_SHARE_PRICES, build_pims

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED_PATH = HERE / "expected.json"

#: Independent set-ups per run; ``setup_s`` is their median.
SETUPS = 7
#: Ops per traced pass (and per untraced pass it is compared with).
TRACE_OPS = 10
#: Ops per workload in ``--smoke`` mode.
SMOKE_OPS = 3
#: Copies of each top-level PIMS scenario in the serve workloads.
PIMS_REPLICAS = 40
#: How often a job client polls ``GET /jobs/<id>``.
POLL_SECONDS = 0.002
#: Give up on an HTTP call or a job after this long (counts as failed).
HTTP_TIMEOUT = 30.0
READY_TIMEOUT = 60.0


class BenchError(Exception):
    """The benchmark cannot run (as opposed to an op that failed)."""


# ----------------------------------------------------------------------
# Digests: the correctness gate
# ----------------------------------------------------------------------


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def report_digest(report) -> str:
    """sha256[:16] of the canonical report JSON -- the same digest the
    run registry stores as ``RunRecord.report_digest``."""
    return _sha16(json.dumps(report_to_dict(report), sort_keys=True).encode())


def text_digest(text) -> str:
    """The canonical digest of report JSON text, whatever its layout."""
    return _sha16(json.dumps(json.loads(text), sort_keys=True).encode())


@dataclasses.dataclass(frozen=True)
class Reference:
    """What every op of a run must reproduce."""

    #: canonical digest per input variant ("report" when there is one)
    digests: dict
    #: sha256 of the serial ``report_to_json`` text per variant, so a
    #: byte-identical output is recognised without re-parsing it
    raw: dict

    def check_text(self, variant: str, text) -> Optional[str]:
        """``None`` when ``text`` is the reference report, else a message
        naming both digests."""
        data = text if isinstance(text, bytes) else text.encode()
        if hashlib.sha256(data).hexdigest() == self.raw.get(variant):
            return None
        try:
            got = text_digest(data)
        except ValueError as error:
            return f"report is not JSON ({error})"
        expected = self.digests[variant]
        if got == expected:
            return None
        return f"report digest {got} != expected {expected}"


def _reference(
    reports: dict,
    expected: Optional[dict],
    render: Callable = report_to_json,
) -> Reference:
    """The reference for ``reports``; ``render`` is how the program under
    test writes a report, so its output can be matched byte for byte."""
    digests = {variant: report_digest(r) for variant, r in reports.items()}
    if expected is not None and expected != digests:
        raise BenchError(
            f"the serial reference no longer matches the committed seed-0 "
            f"digests: expected {expected}, got {digests}"
        )
    raw = {
        variant: hashlib.sha256(render(r).encode()).hexdigest()
        for variant, r in reports.items()
    }
    return Reference(digests=digests, raw=raw)


def load_expected(workload: str, seed: int) -> Optional[dict]:
    """The committed digests for ``--seed 0``; other seeds are checked
    against the serial reference only."""
    if seed != 0:
        return None
    return json.loads(EXPECTED_PATH.read_text())[workload]["digests"]


# ----------------------------------------------------------------------
# Operating-system readings
# ----------------------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped (pool
    workers end inside the op that started them)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def proc_cpu_seconds(pid: int) -> float:
    """User+system CPU of a live process (and its reaped children)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    utime, stime, cutime, cstime = (int(v) for v in fields[11:15])
    return (utime + stime + cutime + cstime) / _CLOCK_TICKS


def peak_rss_mb(pid: str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"/proc/{pid}/status has no VmHWM line")


def reaped_children_peak_mb() -> float:
    """The largest peak RSS among reaped children, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            with contextlib.suppress(OSError):
                total += os.path.getsize(os.path.join(folder, name))
    return total


# ----------------------------------------------------------------------
# One measured phase
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Phase:
    """The readings of one timed phase, raw and scaled to the reference
    host speed (see hostspeed.py)."""

    latencies: list = dataclasses.field(default_factory=list)
    scaled_latencies: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)
    #: time spent in ops, without the harness's own between-op work
    wall: float = 0.0
    scaled_wall: float = 0.0
    cpu: float = 0.0
    scaled_cpu: float = 0.0
    disk_bytes: int = 0
    peak_rss_mb: float = 0.0
    #: host-speed calibrations, one per :meth:`add`
    calibrations: list = dataclasses.field(default_factory=list)
    extra: dict = dataclasses.field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def add(
        self, latencies: list, wall: float, cpu: float, calibration: float
    ) -> None:
        """Ops measured next to one calibration."""
        scale = hostspeed.REFERENCE_SECONDS / calibration
        self.latencies.extend(latencies)
        self.scaled_latencies.extend(latency * scale for latency in latencies)
        self.wall += wall
        self.scaled_wall += wall * scale
        self.cpu += cpu
        self.scaled_cpu += cpu * scale
        self.calibrations.append(calibration)


def closed_loop(
    run: Callable[[int], object],
    check: Callable[[int, object], Optional[str]],
    min_ops: int,
    seconds: float,
    peak: Callable[[], float],
    calibrate: Callable[[], float],
) -> Phase:
    """One caller, waiting for each result: ``run(i)`` is the timed op.
    ``check`` (digest verification and clean-up) and ``calibrate()``
    run after it, outside the timed region; the op is scaled by that
    calibration.

    ``peak()`` is read when the ``min_ops``-th op is done: memory grows
    with history, so it is compared at the same op count on every run
    even when a fast program fits more ops into ``seconds``."""
    phase = Phase()
    index = 0
    while index < min_ops or phase.wall < seconds:
        cpu_before = cpu_seconds()
        op_started = time.perf_counter()
        try:
            artifact, error = run(index), None
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            artifact, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - op_started
        cpu = cpu_seconds() - cpu_before
        if error is None:
            error = check(index, artifact)
        if error is not None:
            phase.failures.append(f"op {index}: {error}")
        index += 1
        if index == min_ops:
            phase.peak_rss_mb = peak()
        phase.add([latency], latency, cpu, calibrate())
    return phase


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """One workload: how to build its reference, set it up, and run it."""

    name = ""
    #: Ops in the timed phase: enough for ten samples beyond the p75,
    #: and about ten seconds of work on a 2-core machine.
    min_ops = 40
    warmup_ops = 3
    #: Whether an op runs in processes beside this one (pool workers, a
    #: server), so its speed is that of the slowest CPU, not of ours.
    spans_processes = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.reference: Optional[Reference] = None

    def calibrate(self) -> float:
        """The host-speed calibration that matches how an op runs."""
        if self.spans_processes:
            return hostspeed.calibrate_slowest_cpu()
        return hostspeed.calibrate()

    def prepare(self) -> None:
        """Build the reference (untimed, harness-side)."""
        raise NotImplementedError

    def setup(self, index: int):
        """Build a fixture up to readiness; timed as ``setup_s``."""
        raise NotImplementedError

    def teardown(self, fixture) -> None:
        pass

    def timed_phase(self, fixture, min_ops: int, seconds: float) -> Phase:
        raise NotImplementedError

    @contextlib.contextmanager
    def trace_fixture(self, fixture):
        """The fixture the traced pass (layers.py) runs on: the timed
        one, unless the workload's layers live in another process."""
        yield fixture

    def op(self, fixture, index: int):
        """One in-process op; returns what :meth:`check` verifies."""
        raise NotImplementedError

    def check(self, fixture, index: int, artifact):
        """``(error or None, report bytes)`` for one op, untimed."""
        raise NotImplementedError


class CliWorkload(Workload):
    """``sosae evaluate`` on a generated 800-scenario system, from files."""

    name = "cli_800"

    def _spec_texts(self) -> dict:
        system = build_synthetic(
            SyntheticSpec(
                scenarios=800,
                events_per_scenario=8,
                components=15,
                event_types=60,
                components_per_event_type=3,
                reuse=1.0,
                seed=self.seed,
            )
        )
        return {
            "scenarios.xml": to_scenarioml_xml(system.scenarios),
            "architecture.xml": to_xadl_xml(system.architecture),
            "mapping.json": system.mapping.to_json(),
        }

    def prepare(self) -> None:
        texts = self._spec_texts()
        # The same parse path the CLI takes, then a plain serial evaluate.
        scenarios = parse_scenarioml(texts["scenarios.xml"])
        architecture = parse_xadl(texts["architecture.xml"])
        mapping = Mapping.from_json(
            texts["mapping.json"], scenarios.ontology, architecture
        )
        report = Sosae(scenarios, architecture, mapping).evaluate()
        failed = [v.scenario for v in report.scenario_verdicts if not v.passed]
        if failed or len(report.scenario_verdicts) != 800:
            raise BenchError(
                f"known answer broken: all 800 synthetic scenarios should "
                f"pass, {len(failed)} failed"
            )
        self.reference = _reference(
            {"report": report}, load_expected(self.name, self.seed)
        )

    def setup(self, index: int):
        folder = self.workdir / f"fixture-{index}"
        folder.mkdir(parents=True)
        for name, text in self._spec_texts().items():
            (folder / name).write_text(text)
        return folder

    def op(self, folder: Path, index: int) -> int:
        argv = [
            "evaluate",
            "--scenarios", str(folder / "scenarios.xml"),
            "--architecture", str(folder / "architecture.xml"),
            "--mapping", str(folder / "mapping.json"),
            "--save-report", str(folder / "report.json"),
        ]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(argv)

    def check(self, folder: Path, index: int, status: int):
        """Verify the saved report, then remove it and collect garbage:
        each op stands in for a fresh CLI process."""
        if status != 0:
            return f"sosae evaluate exited {status}", 0
        path = folder / "report.json"
        data = path.read_bytes()
        path.unlink()
        gc.collect()
        return self.reference.check_text("report", data), len(data)

    def timed_phase(self, folder: Path, min_ops: int, seconds: float) -> Phase:
        written = [0]

        def check(index: int, status: int) -> Optional[str]:
            error, size = self.check(folder, index, status)
            written[0] += size
            return error

        phase = closed_loop(
            lambda index: self.op(folder, index),
            check,
            min_ops,
            seconds,
            peak_rss_mb,
            self.calibrate,
        )
        phase.disk_bytes = written[0]
        return phase


def replicated_pims_scenarios(pims, copies: int, seed: int) -> ScenarioSet:
    """The PIMS scenarios plus ``copies - 1`` renamed replicas of every
    top-level scenario (alternatives stay with their originals), in an
    order drawn from ``seed``."""
    scenarios = list(pims.scenarios)
    for index in range(1, copies):
        scenarios.extend(
            dataclasses.replace(scenario, name=f"{scenario.name}+r{index}")
            for scenario in pims.scenarios
            if scenario.alternative_of is None
        )
    random.Random(seed).shuffle(scenarios)
    scaled = ScenarioSet(pims.ontology, name=f"pims-x{copies}")
    scaled.extend(scenarios)
    return scaled


class ServeWorkload(Workload):
    """Interval ticks of a warm ``sosae serve`` daemon on PIMS x40."""

    name = "serve_pims_x40"
    min_ops = 70
    workers = 1

    def _sosae_factory(self):
        pims = build_pims()
        scenarios = replicated_pims_scenarios(pims, PIMS_REPLICAS, self.seed)
        architecture = pims.excised_architecture()
        mapping = pims.mapping.rebind(architecture)

        def build() -> Sosae:
            return Sosae(
                scenarios,
                architecture,
                mapping,
                constraints=pims.constraints,
                walkthrough_options=pims.options,
            )

        return build

    def prepare(self) -> None:
        report = self._sosae_factory()().evaluate()
        failed = sorted(
            v.scenario for v in report.scenario_verdicts if not v.passed
        )
        copies = [GET_SHARE_PRICES] + [
            f"{GET_SHARE_PRICES}+r{index}" for index in range(1, PIMS_REPLICAS)
        ]
        if failed != sorted(copies):
            raise BenchError(
                f"known answer broken: exactly the {PIMS_REPLICAS} "
                f"{GET_SHARE_PRICES} copies should fail, got {failed[:5]}"
                f"{'...' if len(failed) > 5 else ''} ({len(failed)})"
            )
        self.reference = _reference(
            {"report": report}, load_expected(self.name, self.seed)
        )

    def setup(self, index: int):
        runs = self.workdir / f"fixture-{index}" / "runs"
        daemon = ServeDaemon(
            self._sosae_factory(),
            interval=1.0,
            registry=RunRegistry(runs),
            label="serve-pims-excised",
            workers=self.workers,
        )
        # Ready, as /readyz defines it: one evaluation has completed.
        outcome = daemon.run_once()
        if not outcome.ok:
            raise BenchError(f"first serve evaluation failed: {outcome.error}")
        return daemon

    def teardown(self, daemon) -> None:
        daemon.shutdown()

    def _peak_rss_mb(self) -> float:
        # A sharded tick's pool workers run beside this process and are
        # reaped after it; count each worker's peak alongside ours.
        peak = peak_rss_mb()
        if self.workers > 1:
            peak += self.workers * reaped_children_peak_mb()
        return peak

    def timed_phase(self, daemon, min_ops: int, seconds: float) -> Phase:
        runs = daemon.registry.root
        before = dir_bytes(runs)
        phase = closed_loop(
            lambda index: self.op(daemon, index),
            lambda index, outcome: self.check(daemon, index, outcome)[0],
            min_ops,
            seconds,
            self._peak_rss_mb,
            self.calibrate,
        )
        phase.disk_bytes = dir_bytes(runs) - before
        return phase

    def op(self, daemon, index: int):
        return daemon.run_once()

    def check(self, daemon, index: int, outcome):
        """The tick's recorded digest and the daemon's report text must
        both be the serial reference's."""
        report = daemon.report_json() or ""
        if not outcome.ok:
            return f"tick failed: {outcome.error}", 0
        record = daemon.registry.load()[-1]
        if record.run_id != outcome.run_id:
            return f"run {outcome.run_id} was not recorded", 0
        expected = self.reference.digests["report"]
        if record.report_digest != expected:
            return (
                f"recorded report digest {record.report_digest} != "
                f"expected {expected}",
                0,
            )
        return self.reference.check_text("report", report), len(report)


class ShardedServeWorkload(ServeWorkload):
    """The same ticks through the daemon's cached 2-worker evaluator."""

    name = "serve_pims_x40_w2"
    min_ops = 40
    workers = 2
    spans_processes = True


_PORT_LINE = re.compile(r"http://[^\s:]+:(\d+)")
_TERMINAL = ("done", "failed", "rejected")
TENANTS = ("t1", "t2")
#: Jobs each tenant's client runs per round of the timed phase.
ROUND_JOBS = 10


@dataclasses.dataclass
class JobServer:
    process: subprocess.Popen
    port: int
    runs: Path


def _http(port: int, method: str, path: str, body: Optional[bytes] = None):
    """One request on its own connection (the server speaks HTTP/1.0)."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=HTTP_TIMEOUT
    )
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class JobsWorkload(Workload):
    """Two tenants round-tripping PIMS bundles through ``POST /jobs``."""

    name = "jobs_pims"
    min_ops = 800
    warmup_ops = 20
    spans_processes = True

    def bundles(self) -> dict:
        pims = build_pims()
        excised = pims.excised_architecture()
        scenarioml = to_scenarioml_xml(pims.scenarios)
        return {
            "intact": {
                "scenarioml": scenarioml,
                "xadl": to_xadl_xml(pims.architecture),
                "mapping": pims.mapping.to_json(),
            },
            "excised": {
                "scenarioml": scenarioml,
                "xadl": to_xadl_xml(excised),
                "mapping": pims.mapping.rebind(excised).to_json(),
            },
        }

    def prepare(self) -> None:
        self._bundles = self.bundles()
        self._payloads = {
            (tenant, variant): json.dumps(
                {"tenant": tenant, "label": variant, "bundle": bundle}
            ).encode()
            for tenant in TENANTS
            for variant, bundle in self._bundles.items()
        }
        reports = {
            variant: build_bundle_sosae(bundle).evaluate()
            for variant, bundle in self._bundles.items()
        }
        inconsistent = [v for v, r in reports.items() if not r.consistent]
        if inconsistent:
            raise BenchError(
                f"known answer broken: both PIMS bundles should be "
                f"consistent under default options, not {inconsistent}"
            )
        # The job engine serves each report as canonical JSON.
        self.reference = _reference(
            reports,
            load_expected(self.name, self.seed),
            lambda report: json.dumps(report_to_dict(report), sort_keys=True),
        )

    def setup(self, index: int) -> JobServer:
        runs = self.workdir / f"fixture-{index}" / "runs"
        runs.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--system", "pims", "--jobs", "--record",
                "--runs-dir", str(runs), "--port", "0",
                "--tenant-quota", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=self.workdir,
        )
        server = JobServer(process, 0, runs)
        try:
            line = process.stdout.readline()
            match = _PORT_LINE.search(line)
            if match is None:
                raise BenchError(f"sosae serve did not start: {line!r}")
            server.port = int(match.group(1))
            deadline = time.monotonic() + READY_TIMEOUT
            while _http(server.port, "GET", "/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise BenchError("sosae serve never became ready")
                time.sleep(0.005)
        except BaseException:
            self.teardown(server)
            raise
        return server

    def teardown(self, server: JobServer) -> None:
        process = server.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def _job(self, port: int, tenant: str, variant: str) -> dict:
        """POST, poll to a terminal state, fetch the report. Returns the
        job's public fields, poll count and check result."""
        status, body = _http(
            port, "POST", "/jobs", self._payloads[(tenant, variant)]
        )
        if status != 202:
            return {
                "error": f"POST /jobs answered {status}: {body[:200]!r}",
                "rejected": status == 429,
            }
        job = json.loads(body)["job"]
        polls = 0
        deadline = time.monotonic() + HTTP_TIMEOUT
        while job["state"] not in _TERMINAL:
            if time.monotonic() > deadline:
                return {"error": f"job {job['job_id']} stuck {job['state']}"}
            time.sleep(POLL_SECONDS)
            status, body = _http(port, "GET", f"/jobs/{job['job_id']}")
            polls += 1
            if status != 200:
                return {"error": f"GET /jobs answered {status}"}
            job = json.loads(body)["job"]
        if job["state"] != "done":
            return {
                "error": f"job {job['job_id']} {job['state']}: "
                f"{job.get('error') or job.get('reason')}",
                "job": job,
            }
        status, body = _http(port, "GET", f"/report/{job['run_id']}")
        if status != 200:
            return {"error": f"GET /report answered {status}", "job": job}
        return {"job": job, "polls": polls, "report": body}

    def timed_phase(self, server: JobServer, min_ops: int, seconds: float) -> Phase:
        """Rounds of :data:`ROUND_JOBS` jobs per tenant, one client
        thread per tenant. Between rounds, with both clients idle, the
        harness calibrates the host; a round is scaled by the calibration
        after it."""
        phase = Phase()
        pid = server.process.pid
        lock = threading.Lock()
        samples: list = []
        draws = {
            tenant: random.Random(f"{self.seed}-{tenant}") for tenant in TENANTS
        }

        def client(tenant: str, jobs: int) -> None:
            for _ in range(jobs):
                variant = draws[tenant].choice(("intact", "excised"))
                op_started = time.perf_counter()
                try:
                    result = self._job(server.port, tenant, variant)
                except Exception as exc:  # noqa: BLE001 - a failed op is data
                    result = {"error": f"{type(exc).__name__}: {exc}"}
                latency = time.perf_counter() - op_started
                if "error" not in result:
                    problem = self.reference.check_text(
                        variant, result["report"]
                    )
                    if problem is not None:
                        result["error"] = f"job {result['job']['job_id']}: {problem}"
                with lock:
                    samples.append((latency, result))

        before_disk = dir_bytes(server.runs)
        while len(samples) < min_ops or phase.wall < seconds:
            short = min_ops - len(samples)
            jobs = ROUND_JOBS
            if short > 0:
                jobs = min(jobs, -(-short // len(TENANTS)))
            threads = [
                threading.Thread(target=client, args=(tenant, jobs))
                for tenant in TENANTS
            ]
            first = len(samples)
            cpu_before = proc_cpu_seconds(pid)
            round_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - round_started
            cpu = proc_cpu_seconds(pid) - cpu_before
            if not phase.peak_rss_mb and len(samples) >= min_ops:
                phase.peak_rss_mb = peak_rss_mb(str(pid))
            latencies = [latency for latency, _ in samples[first:]]
            phase.add(latencies, wall, cpu, self.calibrate())
        phase.disk_bytes = dir_bytes(server.runs) - before_disk
        queue_waits, execs, https, polls = [], [], [], []
        for index, (latency, result) in enumerate(samples):
            if "error" in result:
                phase.failures.append(f"op {index}: {result['error']}")
                continue
            job = result["job"]
            queue_waits.append(job["started_at"] - job["submitted_at"])
            execs.append(job["wall_seconds"])
            https.append(latency - (job["finished_at"] - job["submitted_at"]))
            polls.append(result["polls"])
        if execs:
            phase.extra = {
                "jobs.queue_wait_s": statistics.median(queue_waits),
                "jobs.exec_s": statistics.median(execs),
                "jobs.http_s": statistics.median(https),
                "jobs.polls_per_job": statistics.fmean(polls),
                "jobs.rejected_ratio": sum(
                    bool(result.get("rejected")) for _, result in samples
                ) / len(samples),
            }
        return phase

    # The traced pass runs the job engine in-process so its layers can be
    # wrapped: same JobManager, no HTTP and no executor thread.
    @contextlib.contextmanager
    def trace_fixture(self, server):
        pims = build_pims()
        daemon = ServeDaemon(
            lambda: Sosae(pims.scenarios, pims.architecture, pims.mapping),
            registry=RunRegistry(self.workdir / "traced" / "runs"),
            label="serve-pims-intact",
            jobs=True,
            job_executors=0,
        )
        try:
            daemon.run_once()
            yield daemon
        finally:
            daemon.shutdown()

    def op(self, daemon, index: int):
        # Alternate the bundles so no op reuses the previous op's report
        # (the job engine skips re-serializing an identical report).
        variant = ("intact", "excised")[index % 2]
        record = daemon.jobs.submit(self._bundles[variant], TENANTS[index % 2])
        daemon.jobs.run_pending()
        record = daemon.jobs.get(record.job_id)
        return variant, record, daemon.jobs.report_json(record.run_id)

    def check(self, daemon, index: int, artifact):
        variant, record, body = artifact
        if record.state != "done":
            return f"job {record.job_id} {record.state}: {record.error}", 0
        return self.reference.check_text(variant, body or ""), len(body or "")


WORKLOADS = {
    workload.name: workload
    for workload in (
        CliWorkload,
        ServeWorkload,
        ShardedServeWorkload,
        JobsWorkload,
    )
}
