"""A persistent registry of evaluation runs, for cross-run regression
diffing.

PR 2's spans and metrics vanish with the process; the ROADMAP's
"measurably faster" mandate needs an in-repo signal that survives it.
:class:`RunRegistry` appends one JSON line per evaluation to
``.repro-runs/runs.jsonl``: a :class:`RunRecord` snapshotting the
metrics registry, a per-stage span summary, the report digest, the git
SHA, and wall time. ``sosae runs list`` renders the history;
``sosae runs diff A B`` computes per-metric and per-stage-span deltas
and flags regressions beyond a configurable threshold.

Layout of ``.repro-runs/`` (documented in ``docs/RUNS.md``):

* ``runs.jsonl`` — append-only, one :meth:`RunRecord.to_dict` JSON
  object per line. Run ids are ``r0001``, ``r0002``, … in append order;
  ``latest`` and ``previous`` resolve positionally.
* ``costs/<digest>.json`` — a per-scenario counter table, stored once
  per content digest; each record carries the digest and its
  scenarios' wall and CPU times (see :class:`RunRecord`).
* ``profiles/<run_id>.folded`` — a profiled run's folded stacks.

Regressions: a *metric* regresses when its value increased by more than
``threshold`` (relative; any increase from zero counts). Stage wall
times jitter between runs, so they are reported but only flagged — and
only counted against the exit status — when an explicit
``time_threshold`` is given.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import time
from array import array
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import ReproError
from repro.obs.anomaly import DEFAULT_ANOMALY_THRESHOLD, detect_step
from repro.obs.events import RunRecorded
from repro.obs.instruments import current_instruments
from repro.obs.profiler import Profile
from repro.obs.spans import Span
from repro.obs.store import JsonlStore, registry_lock, short_digest

__all__ = [
    "DEFAULT_RUNS_DIR",
    "BisectResult",
    "MetricDelta",
    "RunAttribution",
    "RunDiff",
    "RunRecord",
    "RunRegistry",
    "ScenarioDelta",
    "StageDelta",
    "attribute_runs",
    "bisect_runs",
    "current_git_sha",
    "diff_runs",
    "record_metric_value",
    "registry_lock",
    "scenario_costs",
    "stage_summary",
]

DEFAULT_RUNS_DIR = ".repro-runs"
_RUNS_FILE = "runs.jsonl"
_PROFILES_DIR = "profiles"
_COSTS_DIR = "costs"
#: Format 1 carried the per-scenario costs inline (``scenarios``);
#: format 2 carries a counter-table digest and two ns arrays (``costs``).
_FORMAT_VERSION = 2


#: ``RunRegistry.record``'s ``git_sha`` default: look the sha up.
_LOOK_UP: Any = object()


def current_git_sha(cwd: Optional[Path] = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a repository (or
    when git itself is unavailable)."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def stage_summary(roots: Sequence[Span]) -> dict[str, dict]:
    """Aggregate a span forest by span name: count, total wall seconds,
    total CPU seconds per name. This is the run registry's durable form
    of the profile tree — flat, so two runs with differently shaped
    trees still diff name-by-name."""
    return _summarize_spans(roots)[0]


#: The work-unit counters persisted per scenario (from the ``cost.*``
#: span attributes the walkthrough engine records).
_COST_COUNTERS = ("steps", "index_queries", "bfs_expansions", "findings")
#: The span attributes a summary row adds up, in row order after the
#: wall and CPU seconds; ``walks`` and ``shard`` follow.
_ROW_KEYS = tuple(f"cost.{counter}" for counter in _COST_COUNTERS) + ("traces",)
#: A counter table's columns after ``names``; a scenario's summary row
#: is its wall and CPU seconds followed by these.
_TABLE_COLUMNS = _COST_COUNTERS + ("traces", "walks", "shard")


def scenario_costs(roots: Sequence[Span]) -> dict[str, dict]:
    """Per-scenario cost attribution harvested from a span forest.

    Each ``walkthrough.scenario`` span contributes its wall/CPU time and
    its ``cost.*`` work-unit attributes (walk steps, index queries, BFS
    expansions, findings), keyed by scenario name; repeated walks of the
    same scenario accumulate. ``shard`` records which worker walked it
    (0 = the single/parent process). A run record keeps these as a
    counter table plus nanosecond times (:attr:`RunRecord.scenarios`
    reads them back); ``sosae runs attribute`` ranks them.
    """
    return {
        name: _cost_entry(row[0], row[1], row[2:])
        for name, row in _summarize_spans(roots)[1].items()
    }


def _cost_entry(wall: float, cpu: float, counters: Sequence) -> dict:
    entry = {"wall_seconds": wall, "cpu_seconds": cpu}
    entry.update(zip(_TABLE_COLUMNS, counters))
    return entry


def _summarize_spans(
    roots: Sequence[Span],
) -> tuple[dict[str, dict], dict[str, list]]:
    """:func:`stage_summary` of ``roots`` and each scenario's summary
    row (wall, CPU, then the :data:`_TABLE_COLUMNS`), in first-walk
    order, from one walk of the forest (a run record needs both)."""
    # Iterative preorder walk: ``iter_spans`` is a recursive generator,
    # which bubbles every yield through O(depth) frames — measurable on
    # the serve loop, which summarizes ~1k spans per run.
    totals: dict[str, list] = {}
    rows: dict[str, list] = {}
    stack = list(reversed(roots))
    while stack:
        span = stack.pop()
        if span.children:
            stack.extend(reversed(span.children))
        name = span.name
        wall = span.end_wall - span.start_wall
        cpu = span.end_cpu - span.start_cpu
        total = totals.get(name)
        if total is None:
            totals[name] = [1, wall, cpu]
        else:
            total[0] += 1
            total[1] += wall
            total[2] += cpu
        if name != "walkthrough.scenario":
            continue
        attributes = span.attributes
        scenario = attributes.get("scenario")
        if not scenario:
            continue
        get = attributes.get
        row = [wall, cpu, *[get(key, 0) or 0 for key in _ROW_KEYS], 1]
        known = rows.get(scenario)
        if known is None:
            row.append(span.shard or 0)
            rows[scenario] = row
        else:
            for position, value in enumerate(row):
                known[position] += value
    stages = {
        name: {"count": count, "wall_seconds": wall, "cpu_seconds": cpu}
        for name, (count, wall, cpu) in totals.items()
    }
    return stages, rows


def _cost_table(rows: dict[str, list]) -> tuple[dict, list, list]:
    """Summary rows as a counter table (``names`` and the
    :data:`_TABLE_COLUMNS`, each a list in row order) and the rows'
    wall and CPU times as integer nanoseconds in the same order."""
    wall, cpu, *counters = zip(*rows.values())
    table = {"names": list(rows)}
    table.update(zip(_TABLE_COLUMNS, map(list, counters)))
    return table, _nanoseconds(wall), _nanoseconds(cpu)


def _nanoseconds(seconds: Sequence[float]) -> list[int]:
    return [round(value * 1e9) for value in seconds]


def _canonical(table: dict) -> str:
    """A counter table's stored text; its digest names the sidecar."""
    return json.dumps(table, sort_keys=True, separators=(",", ":"))


class _CostTable:
    """One counter table, by content digest: the columns
    ``costs/<digest>.json`` at ``path`` holds, read and checked on first
    use, unless they were known when the table was made (this process
    built them, or a format-1 record carried them)."""

    __slots__ = ("digest", "path", "known")

    def __init__(
        self,
        digest: str,
        columns: Optional[dict] = None,
        path: Optional[Path] = None,
    ) -> None:
        self.digest = digest
        self.known = columns
        self.path = path

    def columns(self) -> dict:
        if self.known is None:
            self.known = self._load()
        return self.known

    def _load(self) -> dict:
        if self.path is None:
            raise ReproError(
                f"cost table {self.digest} was not loaded from a registry"
            )
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            raise ReproError(f"cost table {self.path} is missing") from None
        if short_digest(text) != self.digest:
            raise ReproError(
                f"cost table {self.path} does not match its digest "
                f"{self.digest} (torn or edited)"
            )
        return json.loads(text)


_RUN_ID_RE = re.compile(r"^r(\d+)$")


def _next_run_number(records: Sequence["RunRecord"]) -> int:
    """One past the highest numeric run id (compaction-safe: survives
    records being dropped from the front of the file)."""
    highest = 0
    for record in records:
        match = _RUN_ID_RE.match(record.run_id)
        if match:
            highest = max(highest, int(match.group(1)))
    return highest + 1


def _report_digest(report) -> str:
    """A stable digest of a report's JSON form (ignores key order)."""
    # Imported lazily: repro.core imports repro.obs, not the reverse.
    from repro.core.report_io import report_to_dict

    return short_digest(json.dumps(report_to_dict(report), sort_keys=True))


class ReportMemo:
    """The rendered forms of the last report :meth:`update` saw.

    :meth:`update` builds the report's ``report_to_dict`` document on
    every call and renders again only when it differs from the last
    one (the document is the key because report equality ignores a
    finding's provenance, which the JSON carries): ``canonical``, the
    sorted compact text ``GET /report/<run_id>`` serves, and
    ``digest``, its :func:`_report_digest`. ``text``, the indent-2
    text of serve's ``/report``, is rendered on first read.

    The memo keeps each scenario verdict's document for as long as the
    verdict is in the last report (``report_to_dict``'s ``kept`` map), so
    a replayed evaluation, whose verdicts are the same objects, builds
    only the report-level parts, and the comparison meets each verdict's
    document as the same object. On an equal document it renders
    nothing and keeps the documents it holds, for new verdict objects
    too (a sharded tick's, a job's): the map points their entries at
    the held documents and the new ones are freed at once, so the memo
    holds one report's worth of state. The shared documents never leave
    it: it hands out only the rendered texts and the digest.

    The serve loop and the job executor each hold one and call it under
    their evaluation lock; it takes no lock of its own.
    """

    def __init__(self) -> None:
        self._document: Optional[dict] = None
        self._report = None
        self._text: Optional[str] = None
        # Verdict id -> (verdict, its document), for report_to_dict.
        self._kept: dict = {}
        self.canonical = ""
        self.digest = ""

    def update(self, report) -> None:
        # Looked up per call, like _report_digest's: core imports obs.
        from repro.core.report_io import report_to_dict

        kept = self._kept
        document = report_to_dict(report, kept)
        self._report = report
        if document != self._document:
            self._document = document
            self._text = None
            self.canonical = json.dumps(document, sort_keys=True)
            self.digest = short_digest(self.canonical)
            return
        # Equal content: the held documents stand for new verdict
        # objects too, and the new ones leave no survivors for the
        # cycle collector to scan.
        for verdict, held in zip(
            report.scenario_verdicts, self._document["scenario_verdicts"]
        ):
            if kept[id(verdict)][1] is not held:
                kept[id(verdict)] = (verdict, held)

    @property
    def text(self) -> str:
        if self._text is None:
            from repro.core.report_io import report_to_json

            self._text = report_to_json(self._report)
        return self._text


@dataclass(frozen=True)
class RunRecord:
    """One evaluation run, as persisted in ``runs.jsonl``.

    ``costs`` points at the run's per-scenario costs: ``digest`` names
    the counter table in ``costs/<digest>.json``, and ``wall_ns`` and
    ``cpu_ns`` hold each scenario's times in the table's row order
    (in memory as ``array("q")``). :attr:`scenarios` joins them."""

    run_id: str
    label: str
    timestamp: float               # seconds since the epoch
    git_sha: Optional[str]
    wall_seconds: float
    consistent: bool
    scenarios_passed: int
    scenarios_failed: int
    findings: int
    report_digest: str
    metrics: dict = field(default_factory=dict)   # name -> snapshot dict
    stages: dict = field(default_factory=dict)    # name -> count/wall/cpu
    costs: dict = field(default_factory=dict)     # digest, wall_ns, cpu_ns
    profile: dict = field(default_factory=dict)   # digest/samples/hz pointer
    tenant: str = ""                              # job-API tenant, or ""
    job_id: str = ""                              # job-API job id, or ""
    coverage: dict = field(default_factory=dict)  # CoverageMatrix.to_dict()
    # The counter table ``costs`` names; not persisted.
    cost_table: Optional[_CostTable] = field(
        default=None, compare=False, repr=False
    )

    def to_dict(self) -> dict:
        data = {name: getattr(self, name) for name in _PERSISTED}
        if self.costs:
            data["costs"] = {
                "digest": self.costs["digest"],
                "wall_ns": list(self.costs["wall_ns"]),
                "cpu_ns": list(self.costs["cpu_ns"]),
            }
        data["format"] = _FORMAT_VERSION
        return data

    @classmethod
    def from_dict(
        cls,
        data: dict,
        tables: Callable[[str, Optional[dict]], _CostTable] = _CostTable,
    ) -> "RunRecord":
        """Fields added after format 1 keep their defaults when a record
        lacks them — so records written before the profiler
        (``profile``: a pointer into ``profiles/<run_id>.folded``), the
        job API (``tenant``/``job_id``) or coverage telemetry
        (``coverage``; also empty for runs evaluated without a recorder)
        still load. A format-1 record's inline ``scenarios`` become a
        counter table and ns times like format 2's; ``tables(digest,
        columns)`` supplies the table object (a registry's: one per
        digest)."""
        version = data.get("format")
        if version not in (1, _FORMAT_VERSION):
            raise ReproError(
                f"unsupported run record format {version!r} "
                f"(expected 1 or {_FORMAT_VERSION})"
            )
        known = {name: data[name] for name in _PERSISTED if name in data}
        columns = None
        if version == 1:
            scenarios = data.get("scenarios")
            if scenarios:
                columns, wall_ns, cpu_ns = _cost_table({
                    name: [
                        entry.get("wall_seconds", 0.0) or 0.0,
                        entry.get("cpu_seconds", 0.0) or 0.0,
                        *(entry.get(column, 0) or 0 for column in _TABLE_COLUMNS),
                    ]
                    for name, entry in scenarios.items()
                })
                known["costs"] = {
                    "digest": short_digest(_canonical(columns)),
                    "wall_ns": wall_ns,
                    "cpu_ns": cpu_ns,
                }
        costs = known.get("costs")
        if not costs:
            return cls(**known)
        digest = costs["digest"]
        known["costs"] = {
            "digest": digest,
            "wall_ns": array("q", costs["wall_ns"]),
            "cpu_ns": array("q", costs["cpu_ns"]),
        }
        return cls(**known, cost_table=tables(digest, columns))

    @property
    def scenarios(self) -> dict[str, dict]:
        """Per-scenario costs, built on each read from the counter table
        and the ns times: ``{name: {"wall_seconds", "cpu_seconds",
        counters...}}`` in table order, as :func:`scenario_costs`
        harvests them (times rounded to the nanosecond). Empty when the
        run walked no scenario; a :class:`~repro.errors.ReproError`
        naming the run and the file when the table cannot be read."""
        if not self.costs:
            return {}
        wall_ns, cpu_ns = self.costs["wall_ns"], self.costs["cpu_ns"]
        table = self.cost_table or _CostTable(self.costs["digest"])
        try:
            columns = table.columns()
            names = columns["names"]
            if not len(names) == len(wall_ns) == len(cpu_ns):
                raise ReproError(
                    f"cost table {table.path or table.digest} has "
                    f"{len(names)} rows for {len(wall_ns)} times"
                )
        except ReproError as err:
            raise ReproError(f"run {self.run_id}: {err}") from None
        counters = [columns[column] for column in _TABLE_COLUMNS]
        return {
            name: _cost_entry(wall / 1e9, cpu / 1e9, values)
            for name, wall, cpu, *values in zip(
                names, wall_ns, cpu_ns, *counters
            )
        }


#: The fields a run record line carries (besides ``format``).
_PERSISTED = tuple(
    spec.name for spec in fields(RunRecord) if spec.name != "cost_table"
)


class RunRegistry:
    """The run log under ``.repro-runs/``: a view over one
    :class:`~repro.obs.store.JsonlStore` of :class:`RunRecord` rows.

    The store caches decoded records and extends the cache with each
    append, so the serve loop — which records a run and then reads the
    window back for SLO rules, every run — decodes each line once
    instead of re-parsing the whole history each cycle.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_RUNS_DIR) -> None:
        self.root = Path(root)
        # One table object per digest, so records share their columns
        # and each sidecar is read and checked at most once.
        self._tables: dict[str, _CostTable] = {}
        # Digests whose sidecar this instance wrote or checked.
        self._stored: set[str] = set()
        # The last recorded counter table, its text and its digest.
        self._last_table: tuple[dict, str, str] = ({}, "", "")
        # The last row a mint saw, the rows seen up to it and the
        # highest run number among them.
        self._minted: tuple[Optional[RunRecord], int, int] = (None, 0, 0)
        self._store = JsonlStore(self.root / _RUNS_FILE, self._decode)

    @property
    def path(self) -> Path:
        return self._store.path

    @property
    def profiles_dir(self) -> Path:
        return self.root / _PROFILES_DIR

    def profile_path(self, run_id: str) -> Path:
        return self.profiles_dir / f"{run_id}.folded"

    @property
    def costs_dir(self) -> Path:
        return self.root / _COSTS_DIR

    def cost_table_path(self, digest: str) -> Path:
        return self.costs_dir / f"{digest}.json"

    def _decode(self, data: dict) -> RunRecord:
        return RunRecord.from_dict(data, self._table)

    def _table(self, digest: str, columns: Optional[dict]) -> _CostTable:
        table = self._tables.get(digest)
        if table is None:
            table = self._tables[digest] = _CostTable(
                digest, columns, self.cost_table_path(digest)
            )
        elif table.known is None:
            table.known = columns
        return table

    def _store_table(self, digest: str, text: str) -> None:
        """Write ``costs/<digest>.json`` unless it is there: an existing
        sidecar is done once this instance has checked its bytes, and
        while its size stays ``len(text)`` (the text is ASCII JSON), so
        a sidecar torn after the check is replaced too. Called under the
        registry lock."""
        path = self.cost_table_path(digest)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = None
        if size != len(text) or (
            digest not in self._stored
            and path.read_text(encoding="utf-8") != text
        ):
            self.costs_dir.mkdir(parents=True, exist_ok=True)
            staging = path.with_name(path.name + ".tmp")
            staging.write_text(text, encoding="utf-8")
            os.replace(staging, path)
        self._stored.add(digest)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(
        self,
        label: str,
        report,
        recorder,
        git_sha: Optional[str] = _LOOK_UP,
        timestamp: Optional[float] = None,
        report_digest: Optional[str] = None,
        profile: Optional[Profile] = None,
        tenant: str = "",
        job_id: str = "",
    ) -> RunRecord:
        """Snapshot one evaluation (its report and its live
        :class:`~repro.obs.recorder.Recorder`) and append it.

        ``report_digest`` lets a caller that already digested the report
        (the serve loop caches the digest across runs with identical
        reports) skip re-canonicalizing it — the digest is O(report) and
        dominates recording cost on large evaluations.

        ``git_sha`` left out means "run ``git rev-parse`` now". A caller
        that already looked passes its result, ``None`` included: outside
        a checkout the lookup finds nothing, and repeating it on every
        record would spawn a process per run.

        ``profile`` (a sampled :class:`~repro.obs.profiler.Profile`)
        is persisted as a folded-text artifact under
        ``profiles/<run_id>.folded``; the record itself carries only a
        digest pointer, keeping ``runs.jsonl`` lines small.

        The per-scenario counters go into ``costs/<digest>.json``,
        written before the record line and only when no sidecar of that
        digest exists; the record keeps the digest and each scenario's
        wall and CPU nanoseconds.
        """
        roots = tuple(recorder.roots)
        stages, rows = _summarize_spans(roots)
        costs: dict = {}
        text = None
        if rows:
            table, wall_ns, cpu_ns = _cost_table(rows)
            # A tick of an unchanged spec repeats the last table:
            # comparing is ~50x cheaper than dumping it again.
            memo = self._last_table
            if table != memo[0]:
                text = _canonical(table)
                memo = self._last_table = (table, text, short_digest(text))
            table, text, digest = memo
            costs = {"digest": digest, "wall_ns": wall_ns, "cpu_ns": cpu_ns}
            self._table(digest, table)
        folded = profile.to_folded() if profile is not None else None
        draft = RunRecord(
            run_id="",
            label=label,
            timestamp=time.time() if timestamp is None else timestamp,
            git_sha=current_git_sha() if git_sha is _LOOK_UP else git_sha,
            wall_seconds=sum(root.wall_seconds for root in roots),
            consistent=report.consistent,
            scenarios_passed=len(report.passed_scenarios),
            scenarios_failed=len(report.failed_scenarios),
            findings=report.finding_count,
            report_digest=(
                report_digest
                if report_digest is not None
                else _report_digest(report)
            ),
            metrics=recorder.metrics.to_dict(),
            stages=stages,
            costs=costs,
            profile=(
                {
                    "digest": profile.digest(),
                    "samples": profile.samples,
                    "stacks": len(profile.counts),
                    "hz": profile.hz,
                }
                if profile is not None
                else {}
            ),
            tenant=tenant,
            job_id=job_id,
            # The evaluation pipeline attaches its finalized
            # CoverageMatrix to the live recorder; a run whose caller
            # installed (and finalizes) its own builder carries none.
            coverage=(
                recorder.coverage.to_dict()
                if recorder.coverage is not None
                else {}
            ),
        ).to_dict()

        def mint(records: tuple[RunRecord, ...]) -> dict:
            # Called under the append lock, against every process's
            # appends, so two recorders never mint the same id. Next id
            # = highest existing numeric id + 1, NOT line count: after
            # `runs compact` the file holds fewer lines than the
            # highest id, and counting would mint colliding ids.
            run_id = f"r{self._next_number(records):04d}"
            if text is not None:
                self._store_table(costs["digest"], text)
            if folded is not None:
                self.profiles_dir.mkdir(parents=True, exist_ok=True)
                self.profile_path(run_id).write_text(folded, encoding="utf-8")
            return dict(draft, run_id=run_id)

        record = self._store.append(mint)
        bus = current_instruments().events
        if bus.enabled:
            bus.emit(
                RunRecorded(
                    run_id=record.run_id,
                    label=record.label,
                    tenant=record.tenant,
                    job_id=record.job_id,
                )
            )
        return record

    def _next_number(self, records: tuple[RunRecord, ...]) -> int:
        """:func:`_next_run_number` over ``records``, scanning only the
        rows appended since the last mint when the row tuple extends
        the one it saw (the store's cache grows by appends); a reloaded
        or compacted tuple is scanned whole."""
        last, seen, highest = self._minted
        if last is None or len(records) < seen or records[seen - 1] is not last:
            seen = highest = 0
        number = max(highest + 1, _next_run_number(records[seen:]))
        if records:
            self._minted = (records[-1], len(records), number - 1)
        return number

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def compact(self, keep: int) -> dict:
        """Rewrite ``runs.jsonl`` keeping only the newest ``keep``
        records (atomic and serve-safe, see
        :meth:`~repro.obs.store.JsonlStore.rewrite`); profile artifacts
        of dropped runs are deleted, and so is every counter table no
        kept run references. Run ids are never reused — :meth:`record`
        derives the next id from the highest surviving id, not the line
        count."""
        if keep < 1:
            raise ReproError(f"runs compact needs keep >= 1, got {keep}")
        kept, dropped = self._store.rewrite(
            lambda records: range(max(0, len(records) - keep), len(records)),
            then=self._prune_tables,
        )
        for record in dropped:
            if record.profile:
                try:
                    self.profile_path(record.run_id).unlink()
                except OSError:
                    pass
        return {"kept": len(kept), "dropped": len(dropped)}

    def _prune_tables(self, kept: tuple[RunRecord, ...]) -> None:
        """Delete the counter tables no ``kept`` record references.
        Called under the registry lock, after the rewrite, so a record
        appended meanwhile cannot lose its table."""
        referenced = {record.costs["digest"] for record in kept if record.costs}
        for path in self.costs_dir.glob("*.json"):
            if path.stem not in referenced:
                path.unlink(missing_ok=True)
                self._stored.discard(path.stem)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def load(self, tenant: Optional[str] = None) -> tuple[RunRecord, ...]:
        """Every recorded run, oldest first.

        ``tenant`` narrows the history to that tenant's job runs —
        the scoping ``sosae runs list --tenant`` and tenant-scoped
        alert rules use."""
        records = self._store.rows()
        if tenant is None:
            return records
        return tuple(record for record in records if record.tenant == tenant)

    def get(self, reference: str, tenant: Optional[str] = None) -> RunRecord:
        """A run by id, or by the aliases ``latest`` / ``previous``.

        With ``tenant``, the aliases resolve positionally *within that
        tenant's runs* and an id must belong to the tenant."""
        records = self.load(tenant)
        if not records:
            scope = f" for tenant {tenant!r}" if tenant else ""
            raise ReproError(
                f"no runs recorded under {self.root}{scope} "
                "(record one with '--record')"
            )
        if reference == "latest":
            return records[-1]
        if reference == "previous":
            if len(records) < 2:
                raise ReproError(
                    "only one run recorded; 'previous' needs at least two"
                )
            return records[-2]
        for record in records:
            if record.run_id == reference:
                return record
        scope = f" for tenant {tenant!r}" if tenant else ""
        raise ReproError(
            f"no run {reference!r} under {self.root}{scope} "
            f"(have {', '.join(record.run_id for record in records)})"
        )

    def load_profile(self, reference: str) -> Profile:
        """The folded sampling profile recorded with a run. Fails
        loudly when the run was not profiled, the artifact is missing,
        or its content no longer matches the recorded digest."""
        record = self.get(reference)
        if not record.profile:
            raise ReproError(
                f"run {record.run_id} has no recorded profile "
                "(evaluate with '--profile-hz N --record')"
            )
        path = self.profile_path(record.run_id)
        try:
            folded = path.read_text(encoding="utf-8")
        except OSError:
            raise ReproError(
                f"profile artifact {path} for run {record.run_id} "
                "is missing"
            ) from None
        profile = Profile.from_folded(folded)
        expected = record.profile.get("digest")
        if expected and profile.digest() != expected:
            raise ReproError(
                f"profile artifact {path} does not match run "
                f"{record.run_id}'s recorded digest (expected {expected}, "
                f"got {profile.digest()})"
            )
        return profile

    def render_list(self, tenant: Optional[str] = None) -> str:
        """A table of the recorded runs, oldest first.

        ``walk p50``/``walk p95`` are the per-scenario walkthrough
        latency percentiles (from the ``walkthrough.scenario_seconds``
        histogram); ``-`` for runs recorded before percentiles existed.
        A ``tenant`` column appears whenever any listed record carries
        tenant scoping (or when the table is itself tenant-filtered).
        """
        records = self.load(tenant)
        if not records:
            scope = f" for tenant {tenant!r}" if tenant else ""
            return f"no runs recorded under {self.root}{scope}"
        tenanted = tenant is not None or any(
            record.tenant for record in records
        )
        tenant_header = f"{'tenant':<12} " if tenanted else ""
        header = (
            f"{'run':<6} {'label':<24} {tenant_header}{'when':<19} "
            f"{'git':<8} {'wall':>9} {'walk p50':>9} {'walk p95':>9} "
            f"{'verdict':<12} {'findings':>8}"
        )
        lines = [header, "-" * len(header)]
        for record in records:
            when = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(record.timestamp)
            )
            verdict = "consistent" if record.consistent else "INCONSISTENT"
            sha = (record.git_sha or "-")[:8]
            walk = record.metrics.get("walkthrough.scenario_seconds", {})
            tenant_cell = (
                f"{record.tenant or '-':<12} " if tenanted else ""
            )
            lines.append(
                f"{record.run_id:<6} {record.label:<24} {tenant_cell}"
                f"{when:<19} {sha:<8} "
                f"{record.wall_seconds * 1e3:>7.1f}ms "
                f"{_latency(walk.get('p50')):>9} "
                f"{_latency(walk.get('p95')):>9} "
                f"{verdict:<12} {record.findings:>8}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between two runs."""

    name: str
    before: Optional[float]
    after: Optional[float]
    regressed: bool

    @property
    def delta(self) -> Optional[float]:
        if self.before is None or self.after is None:
            return None
        return self.after - self.before

    @property
    def percent(self) -> Optional[float]:
        if self.delta is None or not self.before:
            return None
        return 100.0 * self.delta / self.before


@dataclass(frozen=True)
class StageDelta:
    """One stage's wall-time movement between two runs."""

    name: str
    before_wall: Optional[float]
    after_wall: Optional[float]
    regressed: bool

    @property
    def delta(self) -> Optional[float]:
        if self.before_wall is None or self.after_wall is None:
            return None
        return self.after_wall - self.before_wall


@dataclass(frozen=True)
class RunDiff:
    """Per-metric and per-stage deltas between two recorded runs."""

    before: RunRecord
    after: RunRecord
    threshold: float
    time_threshold: Optional[float]
    metrics: tuple[MetricDelta, ...]
    stages: tuple[StageDelta, ...]

    @property
    def metric_regressions(self) -> tuple[MetricDelta, ...]:
        return tuple(delta for delta in self.metrics if delta.regressed)

    @property
    def stage_regressions(self) -> tuple[StageDelta, ...]:
        return tuple(delta for delta in self.stages if delta.regressed)

    @property
    def clean(self) -> bool:
        """Whether no flagged regression exists (stage timings count
        only when a time threshold was set)."""
        return not self.metric_regressions and not self.stage_regressions

    def render(self) -> str:
        """The delta tables, changed rows only (all-zero diffs say so)."""
        lines = [
            f"run diff: {self.before.run_id} ({self.before.label}) -> "
            f"{self.after.run_id} ({self.after.label})",
            f"report digest: "
            + (
                "unchanged"
                if self.before.report_digest == self.after.report_digest
                else f"{self.before.report_digest} -> "
                f"{self.after.report_digest}"
            ),
        ]
        lines.append("")
        lines.append(
            f"{'metric':<36} {'before':>12} {'after':>12} "
            f"{'delta':>12} {'change':>9}"
        )
        for delta in self.metrics:
            flag = "  << regression" if delta.regressed else ""
            lines.append(
                f"{delta.name:<36} {_number(delta.before):>12} "
                f"{_number(delta.after):>12} {_number(delta.delta):>12} "
                f"{_percent(delta.percent):>9}{flag}"
            )
        if self.metrics and all(delta.delta == 0 for delta in self.metrics):
            lines.append("  (all metrics unchanged)")
        lines.append("")
        lines.append(
            f"{'stage':<36} {'before':>12} {'after':>12} {'delta':>12}"
        )
        for delta in self.stages:
            flag = "  << regression" if delta.regressed else ""
            lines.append(
                f"{delta.name:<36} {_seconds(delta.before_wall):>12} "
                f"{_seconds(delta.after_wall):>12} "
                f"{_seconds(delta.delta):>12}{flag}"
            )
        regressions = len(self.metric_regressions) + len(self.stage_regressions)
        lines.append("")
        lines.append(
            "no regressions"
            if self.clean
            else f"{regressions} regression(s) beyond threshold"
        )
        return "\n".join(lines)


def _number(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:g}"


def _percent(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:+.1f}%"


def _seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value * 1e3:+.3f}ms" if value < 0 else f"{value * 1e3:.3f}ms"


def _latency(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value * 1e3:.2f}ms"


def _metric_scalars(snapshot: dict) -> dict[str, tuple[float, bool]]:
    """Flatten a metrics-registry snapshot to comparable scalars.

    Counters and gauges contribute their value; histograms contribute
    ``<name>.count``, ``<name>.mean``, and (when recorded)
    ``<name>.p50``/``.p95``/``.p99``. Each scalar carries a ``timing``
    marker: histogram means and percentiles are observed durations
    (build seconds, latencies) that jitter between runs like stage wall
    times, so they are gated by ``time_threshold`` rather than
    ``threshold``."""
    scalars: dict[str, tuple[float, bool]] = {}
    for name, data in snapshot.items():
        if data.get("type") == "histogram":
            scalars[f"{name}.count"] = (float(data.get("count", 0)), False)
            for statistic in ("mean", "p50", "p95", "p99"):
                value = data.get(statistic)
                if value is not None:
                    scalars[f"{name}.{statistic}"] = (float(value), True)
        else:
            scalars[name] = (float(data.get("value", 0.0)), False)
    return scalars


#: RunRecord fields addressable directly as bisect/alert metrics.
_RECORD_FIELDS = (
    "findings",
    "wall_seconds",
    "scenarios_passed",
    "scenarios_failed",
)


def record_metric_value(record: RunRecord, metric: str) -> Optional[float]:
    """Resolve a metric name against one run record: a record field
    (``findings``, ``wall_seconds``, …), ``consistent`` (as 0/1), or
    any flattened metric scalar (see :func:`_metric_scalars`). ``None``
    when the record carries no such value — shared by ``runs bisect``
    and runs-source alert rules so both address history identically."""
    if metric in _RECORD_FIELDS:
        return float(getattr(record, metric))
    if metric == "consistent":
        return 1.0 if record.consistent else 0.0
    value = _metric_scalars(record.metrics).get(metric)
    return value[0] if value is not None else None


def diff_runs(
    before: RunRecord,
    after: RunRecord,
    threshold: float = 0.1,
    time_threshold: Optional[float] = None,
) -> RunDiff:
    """Compare two recorded runs.

    ``threshold`` is the relative metric increase tolerated before a
    delta is flagged (0.1 = 10%; any increase from zero is flagged).
    ``time_threshold`` enables the same flagging for per-stage wall
    times — off by default, because timings jitter between runs.
    """
    if threshold < 0:
        raise ReproError(f"threshold must be non-negative, got {threshold}")
    before_metrics = _metric_scalars(before.metrics)
    after_metrics = _metric_scalars(after.metrics)
    metric_deltas = []
    for name in sorted(set(before_metrics) | set(after_metrics)):
        old, _ = before_metrics.get(name, (None, False))
        new, timing = after_metrics.get(name, (None, False))
        limit = time_threshold if timing else threshold
        regressed = False
        if limit is not None and old is not None and new is not None and new > old:
            regressed = old == 0 or (new - old) / old > limit
        metric_deltas.append(
            MetricDelta(name=name, before=old, after=new, regressed=regressed)
        )
    stage_deltas = []
    for name in sorted(set(before.stages) | set(after.stages)):
        old = before.stages.get(name, {}).get("wall_seconds")
        new = after.stages.get(name, {}).get("wall_seconds")
        regressed = False
        if (
            time_threshold is not None
            and old is not None
            and new is not None
            and new > old
        ):
            regressed = old == 0 or (new - old) / old > time_threshold
        stage_deltas.append(
            StageDelta(
                name=name, before_wall=old, after_wall=new, regressed=regressed
            )
        )
    return RunDiff(
        before=before,
        after=after,
        threshold=threshold,
        time_threshold=time_threshold,
        metrics=tuple(metric_deltas),
        stages=tuple(stage_deltas),
    )


# ----------------------------------------------------------------------
# Per-scenario cost attribution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioDelta:
    """One scenario's cost movement between two runs, with the work-unit
    counter that best explains it."""

    name: str
    before_wall: Optional[float]
    after_wall: Optional[float]
    driver: str                       # human-readable cause, or ""
    counters: dict = field(default_factory=dict)  # counter -> (before, after)

    @property
    def delta(self) -> float:
        return (self.after_wall or 0.0) - (self.before_wall or 0.0)

    @property
    def percent(self) -> Optional[float]:
        if self.before_wall is None or self.after_wall is None:
            return None
        if not self.before_wall:
            return None
        return 100.0 * self.delta / self.before_wall


@dataclass(frozen=True)
class RunAttribution:
    """Where the time went between two runs: scenarios ranked by wall
    regression (biggest first), then stages the same way."""

    before: RunRecord
    after: RunRecord
    scenarios: tuple[ScenarioDelta, ...]
    stages: tuple[StageDelta, ...]

    @property
    def top(self) -> Optional[ScenarioDelta]:
        """The most-regressed scenario (the table's first row)."""
        return self.scenarios[0] if self.scenarios else None

    def render(self, limit: Optional[int] = None) -> str:
        lines = [
            f"cost attribution: {self.before.run_id} ({self.before.label})"
            f" -> {self.after.run_id} ({self.after.label})",
            "",
            f"{'scenario':<28} {'before':>10} {'after':>10} "
            f"{'delta':>11} {'change':>9}  cause",
        ]
        rows = self.scenarios[:limit] if limit else self.scenarios
        for row in rows:
            lines.append(
                f"{row.name:<28} {_attr_ms(row.before_wall):>10} "
                f"{_attr_ms(row.after_wall):>10} "
                f"{_seconds(row.delta):>11} {_percent(row.percent):>9}"
                f"  {row.driver}"
            )
        if not self.scenarios:
            lines.append(
                "  (neither run carries per-scenario costs; re-record "
                "with this version)"
            )
        lines.append("")
        lines.append(f"{'stage':<28} {'before':>10} {'after':>10} {'delta':>11}")
        stage_rows = self.stages[:limit] if limit else self.stages
        for stage in stage_rows:
            lines.append(
                f"{stage.name:<28} {_attr_ms(stage.before_wall):>10} "
                f"{_attr_ms(stage.after_wall):>10} "
                f"{_seconds(stage.delta):>11}"
            )
        return "\n".join(lines)


def _attr_ms(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value * 1e3:.3f}ms"


def _scenario_driver(
    before: Optional[dict],
    after: Optional[dict],
    before_id: str = "",
    after_id: str = "",
) -> tuple[str, dict]:
    """The work-unit counter that best explains a scenario's movement.

    Scenarios present on only one side get an explicit cause row — the
    whole wall time is the "delta", and the cause names which run has
    the scenario — instead of a spurious counter comparison against
    zeros."""
    if before is None:
        where = f" (only in {after_id})" if after_id else ""
        return f"new scenario{where}", {}
    if after is None:
        where = f" (only in {before_id})" if before_id else ""
        return f"scenario removed{where}", {}
    counters: dict = {}
    best: Optional[tuple[float, str]] = None
    for counter in _COST_COUNTERS + ("traces",):
        old = float(before.get(counter, 0) or 0)
        new = float(after.get(counter, 0) or 0)
        counters[counter] = (old, new)
        if new == old:
            continue
        growth = abs(new - old) / old if old else float("inf")
        if best is None or growth > best[0]:
            sign = "+" if new > old else "-"
            best = (
                growth,
                f"{counter} {old:g} -> {new:g} ({sign}{abs(new - old):g})",
            )
    if best is not None:
        return best[1], counters
    return "same work units (timing only)", counters


def attribute_runs(before: RunRecord, after: RunRecord) -> RunAttribution:
    """Rank which scenarios (and stages) regressed between two runs and
    why.

    Scenarios are ordered by wall-time delta, biggest regression first —
    an injected per-scenario slowdown surfaces as the top row — and each
    carries the work-unit counter whose movement best explains the
    delta (or "timing only" when the scenario did the same work
    slower). Runs recorded before per-scenario costs existed attribute
    at stage granularity only.
    """
    before_costs, after_costs = before.scenarios, after.scenarios
    deltas = []
    for name in sorted(set(before_costs) | set(after_costs)):
        old = before_costs.get(name)
        new = after_costs.get(name)
        driver, counters = _scenario_driver(
            old, new, before.run_id, after.run_id
        )
        deltas.append(
            ScenarioDelta(
                name=name,
                before_wall=None if old is None else old.get("wall_seconds"),
                after_wall=None if new is None else new.get("wall_seconds"),
                driver=driver,
                counters=counters,
            )
        )
    deltas.sort(key=lambda row: (-row.delta, row.name))
    stage_rows = []
    for name in sorted(set(before.stages) | set(after.stages)):
        stage_rows.append(
            StageDelta(
                name=name,
                before_wall=before.stages.get(name, {}).get("wall_seconds"),
                after_wall=after.stages.get(name, {}).get("wall_seconds"),
                regressed=False,
            )
        )
    stage_rows.sort(key=lambda row: (-(row.delta or 0.0), row.name))
    return RunAttribution(
        before=before,
        after=after,
        scenarios=tuple(deltas),
        stages=tuple(stage_rows),
    )


# ----------------------------------------------------------------------
# Regression bisection over run history
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BisectResult:
    """Where a metric stepped in run history.

    ``step`` is the first run whose value sits more than ``threshold``
    robust sigmas from the rolling baseline before it (``None`` when
    the series never steps); ``points`` carries every scored run for
    the rendered walk. Runs missing the metric are skipped (old
    records), not scored.
    """

    metric: str
    window: int
    threshold: float
    step: Optional[RunRecord]
    score: float
    points: tuple[tuple[RunRecord, float, float, bool], ...]
    skipped: tuple[str, ...]          # run ids missing the metric

    def render(self) -> str:
        lines = [
            f"bisect {self.metric}: window={self.window} "
            f"threshold={self.threshold:g}"
        ]
        if self.skipped:
            lines.append(
                f"  (skipped {len(self.skipped)} run(s) without the "
                f"metric: {', '.join(self.skipped)})"
            )
        header = (
            f"  {'run':<6} {'git':<8} {'value':>14} {'score':>8}"
        )
        lines.append(header)
        for record, value, score, stepped in self.points:
            sha = (record.git_sha or "-")[:8]
            marker = "  << step" if stepped else ""
            score_text = "baseline" if score < 0 else f"{score:8.2f}"
            lines.append(
                f"  {record.run_id:<6} {sha:<8} {value:>14g} "
                f"{score_text:>8}{marker}"
            )
        lines.append("")
        if self.step is None:
            lines.append(f"no step detected in {self.metric}")
        else:
            sha = self.step.git_sha or "unknown sha"
            lines.append(
                f"{self.metric} stepped at {self.step.run_id} "
                f"({self.step.label}) — git {sha} — "
                f"score {self.score:.2f} > {self.threshold:g}"
            )
        return "\n".join(lines)


def bisect_runs(
    records: Sequence[RunRecord],
    metric: str,
    window: int = 5,
    threshold: float = DEFAULT_ANOMALY_THRESHOLD,
) -> BisectResult:
    """Walk run history oldest-to-newest and name the first run where
    ``metric`` stepped, by the rolling median+MAD detector shared with
    ``mode = "anomaly"`` alert rules (:mod:`repro.obs.anomaly`).

    The first ``window`` runs (after dropping records without the
    metric) seed the baseline and are never flagged; history shorter
    than ``window + 1`` scored runs is an explicit error, not a silent
    all-clear.
    """
    scored = [
        (record, value)
        for record in records
        if (value := record_metric_value(record, metric)) is not None
    ]
    skipped = tuple(
        record.run_id
        for record in records
        if record_metric_value(record, metric) is None
    )
    if not scored and records:
        raise ReproError(
            f"no recorded run carries metric {metric!r} "
            "(see 'sosae runs list' and docs/PROFILING.md for names)"
        )
    if len(scored) < window + 1:
        raise ReproError(
            f"bisecting {metric!r} with window={window} needs at least "
            f"{window + 1} runs carrying the metric; have {len(scored)} "
            "(record more runs or pass a smaller --window)"
        )
    series = [value for _, value in scored]
    step_index, step_points = detect_step(series, window, threshold)
    by_index = {point.index: point for point in step_points}
    points = []
    for index, (record, value) in enumerate(scored):
        point = by_index.get(index)
        if point is None:
            points.append((record, value, -1.0, False))  # baseline seed
        else:
            points.append((record, value, point.score, point.stepped))
    step_record = scored[step_index][0] if step_index is not None else None
    score = by_index[step_index].score if step_index is not None else 0.0
    return BisectResult(
        metric=metric,
        window=window,
        threshold=threshold,
        step=step_record,
        score=score,
        points=tuple(points),
        skipped=skipped,
    )
