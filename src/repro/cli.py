"""The ``sosae`` command-line interface.

Subcommands:

* ``evaluate`` — load ScenarioML, xADL (or Acme), and a JSON mapping from
  files; run the full evaluation pipeline; print the report.
* ``demo`` — run a built-in case study (``pims`` or ``crash``), optionally
  on its fault-seeded variant, and print the report.
* ``table`` — print the event-type × component mapping table.
* ``export`` — print a case study's artifacts (ScenarioML XML, xADL XML,
  Acme text, or mapping JSON) for use as file inputs elsewhere.
* ``explain`` — show the provenance chain behind one finding (or list
  all finding ids) from a saved report or a freshly run demo.
* ``runs`` — inspect the persistent run registry: ``runs list`` shows
  recorded evaluations, ``runs diff A B`` compares two of them and
  flags metric regressions, ``runs attribute A B`` ranks which
  scenarios/stages moved, and ``runs bisect METRIC`` walks the whole
  history with a rolling median+MAD changepoint detector and names the
  first run (and git SHA) where the metric stepped.
* ``profile`` — work with sampled interpreter profiles captured via
  ``--profile-hz``: ``profile show REF`` prints a profile's hottest
  frames, ``profile diff A B`` computes differential folded stacks
  (self/cumulative share deltas, most-regressed first). References are
  run ids (or ``latest``/``previous``) or folded profile file paths.
* ``tail`` — pretty-print a telemetry event stream captured with
  ``--events`` (severity-colored, one aligned line per event);
  ``--follow`` keeps polling the file for appended events;
  ``--severity LEVEL`` keeps only events at or above a severity and
  ``--type PATTERN`` only kinds matching a glob (both compose).
* ``dashboard`` — render traces, run history, a report's findings, and
  an event stream into one self-contained offline HTML file;
  ``--live URL`` consumes a running daemon's ``/events`` SSE stream
  instead of a file.
* ``serve`` — the continuous evaluation daemon: watch spec files (or
  re-run on ``--interval``), expose ``/metrics`` (Prometheus),
  ``/healthz``, ``/readyz``, ``/report``, ``/alerts``, ``/events``
  (SSE), and — with ``--profile-hz`` — ``/profile`` (the merged folded
  sampling profile of recent intervals), and evaluate declarative
  alert/SLO rules (``--rules FILE``) after every run. ``--once
  --check`` runs a single evaluation and exits 1 when any alert fires
  — the CI gate. ``--jobs`` additionally opens the multi-tenant job
  API (``POST /jobs``, ``GET /jobs``, ``GET /jobs/<id>``,
  ``GET /report/<run_id>``) with per-tenant quotas
  (``--tenant-quota``), a bounded queue (``--queue-limit``), and
  tenant-labeled ``/metrics``.
* ``jobs`` — the job API's client: ``jobs submit`` POSTs a spec bundle
  under a tenant id (``--wait`` polls it to completion), ``jobs
  status`` fetches one job, ``jobs list`` shows a daemon's jobs (or a
  local ``--jobs-dir`` registry offline), and ``jobs tail`` follows
  the daemon's SSE stream, optionally scoped to one tenant.

``evaluate`` and ``demo`` accept observability flags: ``--profile``
prints a span profile summary tree after the report, ``--profile-hz N``
samples the evaluating thread's stack N times a second from a
background thread (workers of a ``--workers`` run sample themselves;
all partial profiles merge deterministically), ``--trace-out FILE``
writes a Chrome ``chrome://tracing``-compatible trace, ``--metrics-out
FILE`` dumps the metrics registry as JSON, ``--record`` snapshots
the evaluation into the run registry (``--runs-dir``, default
``.repro-runs/``; with ``--profile-hz`` the folded profile persists
under ``profiles/`` next to it), and ``--events FILE`` streams typed
telemetry events as JSON lines while the evaluation runs
(``--heartbeat N`` interleaves periodic metric-snapshot heartbeats).
The flags never change the report or the exit status.

Diagnostics go to stderr through the ``repro`` logger: ``-v`` / ``-vv``
raise verbosity, ``--quiet`` shows errors only. Report output on stdout
is unaffected.

Exit status is 0 when the evaluated architecture is consistent with its
scenarios, 1 when inconsistencies were found (or ``runs diff`` detected
a regression), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.adl.acme import parse_acme, to_acme
from repro.adl.dot import architecture_to_dot, mapping_to_dot
from repro.adl.xadl import parse_xadl, to_xadl_xml
from repro.core.consistency import EvaluationReport
from repro.core.evaluator import Sosae
from repro.core.implied import detect_implied_scenarios
from repro.core.mapping import Mapping
from repro.core.ranking import rank_scenarios
from repro.core.report import (
    render_explanation,
    render_findings_index,
    render_report,
    resolve_finding,
)
from repro.core.report_io import (
    compare_reports,
    report_from_json,
    report_to_json,
)
from repro.errors import ReproError
from repro.obs import (
    DEFAULT_ANOMALY_THRESHOLD,
    DEFAULT_PROFILE_HZ,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_RUNS_DIR,
    DEFAULT_TENANT_QUOTA,
    SEVERITY_LEVELS,
    AuditLog,
    CoverageMatrix,
    EventBus,
    JobRecord,
    JobRegistry,
    JsonlSink,
    Profile,
    Recorder,
    RunRegistry,
    SamplingProfiler,
    ServeDaemon,
    attribute_runs,
    bisect_runs,
    build_dashboard,
    chrome_trace_json,
    compact_job_logs,
    configure_logging,
    diff_coverage,
    diff_profiles,
    diff_runs,
    events_from_jsonl,
    format_event,
    get_logger,
    iter_sse_events,
    load_rules,
    load_trace_file,
    metrics_to_json,
    read_events,
    read_sse_events,
    render_job_list,
    render_profile,
    use,
    use_events,
    use_profiler,
)
from repro.obs.profiler import _short_frame
from repro.obs.events import event_from_dict, event_severity
from repro.scenarioml.lint import lint_scenario_set
from repro.shard import BatchEvaluator
from repro.scenarioml.owl import to_owl_xml
from repro.scenarioml.xml_io import parse_scenarioml, to_scenarioml_xml
from repro.sim.network import ChannelPolicy
from repro.sim.runtime import RuntimeConfig
from repro.systems.crash import build_crash, build_crash_mapping
from repro.systems.pims import build_pims

_LOG = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="sosae",
        description="Scenario and Ontology-based Software Architecture "
        "Evaluation",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase diagnostic verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress warnings; show errors only",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate an architecture against scenarios"
    )
    evaluate.add_argument(
        "--scenarios", required=True, type=Path, help="ScenarioML XML file"
    )
    evaluate.add_argument(
        "--architecture", required=True, type=Path,
        help="architecture file (xADL XML, or Acme with --acme)",
    )
    evaluate.add_argument(
        "--mapping", required=True, type=Path, help="mapping JSON file"
    )
    evaluate.add_argument(
        "--acme", action="store_true",
        help="parse the architecture file as Acme instead of xADL",
    )
    evaluate.add_argument(
        "--markdown", action="store_true", help="emit a markdown report"
    )
    evaluate.add_argument(
        "--save-report", type=Path, default=None,
        help="write the evaluation report as JSON to this path",
    )
    evaluate.add_argument(
        "--baseline", type=Path, default=None,
        help="compare against a previously saved report; exit 1 on "
        "regressions even if the current report is otherwise consistent",
    )
    evaluate.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard the walkthrough stage across N worker processes "
        "(BatchEvaluator; default: 1 = in-process). Telemetry from all "
        "workers is merged into one trace/metrics/event view.",
    )
    _add_observability_arguments(evaluate)

    demo = subparsers.add_parser("demo", help="run a built-in case study")
    demo.add_argument("system", choices=("pims", "crash"))
    demo.add_argument(
        "--variant",
        choices=("intact", "excised", "insecure"),
        default="intact",
        help="architecture variant (excised: PIMS fault seeding; "
        "insecure: CRASH rogue entity)",
    )
    demo.add_argument(
        "--markdown", action="store_true", help="emit a markdown report"
    )
    demo.add_argument(
        "--dynamic", action="store_true",
        help="also execute scenarios on the simulated architecture "
        "(crash: all quality scenarios; pims: the share-price flow)",
    )
    demo.add_argument(
        "--save-report", type=Path, default=None,
        help="write the evaluation report as JSON to this path",
    )
    demo.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard the walkthrough stage across N worker processes "
        "(default: 1 = in-process; --dynamic still runs in-process)",
    )
    _add_observability_arguments(demo)

    table = subparsers.add_parser(
        "table", help="print the mapping table of a case study"
    )
    table.add_argument("system", choices=("pims", "crash"))
    table.add_argument(
        "--markdown", action="store_true", help="emit a markdown table"
    )

    export = subparsers.add_parser(
        "export", help="print a case study artifact"
    )
    export.add_argument("system", choices=("pims", "crash"))
    export.add_argument(
        "artifact", choices=("scenarioml", "xadl", "acme", "mapping", "owl")
    )

    rank = subparsers.add_parser(
        "rank", help="rank a case study's scenarios by importance"
    )
    rank.add_argument("system", choices=("pims", "crash"))
    rank.add_argument(
        "--top", type=int, default=None, help="show only the N best"
    )

    implied = subparsers.add_parser(
        "implied", help="detect implied scenarios in a case study"
    )
    implied.add_argument("system", choices=("pims", "crash"))
    implied.add_argument(
        "--max-length", type=int, default=4, help="chain length bound"
    )
    implied.add_argument(
        "--limit", type=int, default=20, help="candidate cap"
    )

    dot = subparsers.add_parser(
        "dot", help="emit Graphviz DOT for a case study"
    )
    dot.add_argument("system", choices=("pims", "crash"))
    dot.add_argument(
        "--what",
        choices=("architecture", "mapping"),
        default="architecture",
    )

    lint = subparsers.add_parser(
        "lint", help="run scenario clarity lints over a case study"
    )
    lint.add_argument("system", choices=("pims", "crash"))

    explain = subparsers.add_parser(
        "explain",
        help="show the provenance chain behind a finding",
        description="Explain why the evaluator reached one finding: the "
        "scenario event it walked, the mapping resolution (including "
        "supertype fallback hops), and the communication-index queries "
        "whose answers produced the conclusion. Findings come from a "
        "saved JSON report (--report) or from running a built-in demo "
        "(--system/--variant). Without a finding id, all finding ids "
        "are listed.",
    )
    explain.add_argument(
        "finding_id", nargs="?", default=None,
        help="finding id (or unique prefix) to explain; omit to list",
    )
    explain.add_argument(
        "--list", action="store_true", dest="list_findings",
        help="list every finding with its id",
    )
    explain.add_argument(
        "--report", type=Path, default=None, metavar="FILE",
        help="load findings from a saved JSON report",
    )
    explain.add_argument(
        "--system", choices=("pims", "crash"), default=None,
        help="run this built-in case study to obtain the findings",
    )
    explain.add_argument(
        "--variant",
        choices=("intact", "excised", "insecure"),
        default="intact",
        help="architecture variant for --system",
    )

    runs = subparsers.add_parser(
        "runs",
        help="inspect the persistent run registry",
        description="Work with evaluations recorded via '--record': "
        "list them, or diff two of them to spot metric and stage-time "
        "regressions.",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    runs_list.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="registry directory (default: %(default)s)",
    )
    runs_list.add_argument(
        "--tenant", default=None, metavar="TENANT",
        help="only runs recorded for this tenant (job-API traffic)",
    )
    runs_diff = runs_sub.add_parser(
        "diff", help="compare two recorded runs"
    )
    runs_diff.add_argument(
        "before", help="run id, or the alias 'latest' / 'previous'"
    )
    runs_diff.add_argument(
        "after", help="run id, or the alias 'latest' / 'previous'"
    )
    runs_diff.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="registry directory (default: %(default)s)",
    )
    runs_diff.add_argument(
        "--threshold", type=float, default=0.1,
        help="relative metric increase tolerated before flagging a "
        "regression (default: %(default)s)",
    )
    runs_diff.add_argument(
        "--time-threshold", type=float, default=None,
        help="also flag stage wall-time (and timing-metric) increases "
        "beyond this relative threshold; off by default because wall "
        "times jitter between machines",
    )
    runs_attr = runs_sub.add_parser(
        "attribute",
        help="rank which scenarios/stages regressed between two runs",
        description="Per-scenario cost attribution between two recorded "
        "runs: scenarios ranked by wall-time regression (biggest "
        "first), each with the work-unit counter (walk steps, index "
        "queries, BFS expansions) whose movement best explains the "
        "delta, followed by the per-stage wall breakdown.",
    )
    runs_attr.add_argument(
        "before", help="run id, or the alias 'latest' / 'previous'"
    )
    runs_attr.add_argument(
        "after", help="run id, or the alias 'latest' / 'previous'"
    )
    runs_attr.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="registry directory (default: %(default)s)",
    )
    runs_attr.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N most-regressed scenarios/stages",
    )
    runs_bisect = runs_sub.add_parser(
        "bisect",
        help="find the first run where a metric stepped",
        description="Walk the recorded run history oldest-to-newest "
        "with a rolling median+MAD changepoint detector and name the "
        "first run (and its git SHA) whose metric value sits more than "
        "--threshold robust sigmas from the preceding --window runs' "
        "baseline. Exit 1 when a step is found, 0 when the history is "
        "clean.",
    )
    runs_bisect.add_argument(
        "metric",
        help="metric to scan: a record field (findings, wall_seconds, "
        "scenarios_passed, scenarios_failed, consistent) or any "
        "flattened metric scalar (e.g. walkthrough.steps)",
    )
    runs_bisect.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="registry directory (default: %(default)s)",
    )
    runs_bisect.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="rolling baseline size in runs (default: %(default)s)",
    )
    runs_bisect.add_argument(
        "--threshold", type=float, default=DEFAULT_ANOMALY_THRESHOLD,
        metavar="SIGMAS",
        help="robust z-score above which a value is a step "
        "(default: %(default)s)",
    )
    runs_compact = runs_sub.add_parser(
        "compact",
        help="drop all but the newest N recorded runs",
        description="Rewrite runs.jsonl keeping only the newest --keep "
        "runs (atomically, via temp file + rename, under the same lock "
        "appenders take) and delete the dropped runs' profile "
        "artifacts. Run ids stay monotonic: new runs continue from the "
        "highest id ever minted, never reuse a compacted one.",
    )
    runs_compact.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="registry directory (default: %(default)s)",
    )
    runs_compact.add_argument(
        "--keep", type=int, required=True, metavar="N",
        help="how many of the newest runs to keep",
    )

    coverage = subparsers.add_parser(
        "coverage",
        help="inspect element-coverage matrices of recorded runs",
        description="Work with the element-coverage matrix an "
        "evaluation records under '--record': which event types "
        "exercised which components, which architecture links "
        "walkthrough witness paths crossed, which constraints fired, "
        "and which mapping entries are dead. A run reference is a run "
        "id (e.g. r0003) or the alias 'latest' / 'previous'.",
    )
    coverage_sub = coverage.add_subparsers(
        dest="coverage_command", required=True
    )
    coverage_show = coverage_sub.add_parser(
        "show", help="print one run's coverage matrix"
    )
    coverage_show.add_argument(
        "run", nargs="?", default="latest",
        help="run reference (default: %(default)s)",
    )
    coverage_show.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="registry directory (default: %(default)s)",
    )
    coverage_diff = coverage_sub.add_parser(
        "diff",
        help="compare two runs' coverage; exit 1 on regression",
        description="Rank what the 'after' run no longer covers "
        "relative to 'before': newly untouched components, newly "
        "unexercised event types, newly uncovered links, new dead "
        "mappings, and ratio drops. Exits 1 when coverage regressed "
        "past --threshold.",
    )
    coverage_diff.add_argument(
        "before", nargs="?", default="previous",
        help="run reference (default: %(default)s)",
    )
    coverage_diff.add_argument(
        "after", nargs="?", default="latest",
        help="run reference (default: %(default)s)",
    )
    coverage_diff.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="registry directory (default: %(default)s)",
    )
    coverage_diff.add_argument(
        "--threshold", type=float, default=0.0, metavar="DROP",
        help="tolerated coverage-ratio drop (0..1) before the exit "
        "status flags a regression; at 0 any newly-uncovered element "
        "regresses (default: %(default)s)",
    )
    coverage_gaps = coverage_sub.add_parser(
        "gaps", help="print only what a run left uncovered"
    )
    coverage_gaps.add_argument(
        "run", nargs="?", default="latest",
        help="run reference (default: %(default)s)",
    )
    coverage_gaps.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="registry directory (default: %(default)s)",
    )

    profile = subparsers.add_parser(
        "profile",
        help="work with sampled interpreter profiles",
        description="Inspect and compare statistical sampling profiles "
        "captured with '--profile-hz N'. A profile reference is a run "
        "id recorded with '--record' (or the aliases 'latest'/"
        "'previous'), or the path of a folded-stacks text file.",
    )
    profile_sub = profile.add_subparsers(
        dest="profile_command", required=True
    )
    profile_show = profile_sub.add_parser(
        "show", help="print a profile's hottest frames"
    )
    profile_show.add_argument(
        "reference",
        help="run id / latest / previous, or a folded profile file",
    )
    profile_show.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="registry directory for run references "
        "(default: %(default)s)",
    )
    profile_show.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="show the N hottest frames by self time "
        "(default: %(default)s)",
    )
    profile_diff = profile_sub.add_parser(
        "diff",
        help="differential folded stacks between two profiles",
        description="Compare two sampled profiles frame by frame: self "
        "and cumulative share in each, ranked by self-share regression. "
        "Shares (fractions of total samples) make profiles of different "
        "lengths or sampling rates comparable.",
    )
    profile_diff.add_argument(
        "before",
        help="run id / latest / previous, or a folded profile file",
    )
    profile_diff.add_argument(
        "after",
        help="run id / latest / previous, or a folded profile file",
    )
    profile_diff.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="registry directory for run references "
        "(default: %(default)s)",
    )
    profile_diff.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="show the N biggest self-share movements "
        "(default: %(default)s)",
    )

    tail = subparsers.add_parser(
        "tail",
        help="pretty-print a telemetry event stream",
        description="Render an events JSONL file (captured with "
        "'evaluate --events' or 'demo --events') as aligned, "
        "severity-colored, human-readable lines: offset into the "
        "stream, sequence number, event kind, and a summary.",
    )
    tail.add_argument(
        "path", help="events JSONL file, or '-' to read stdin"
    )
    tail.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI severity coloring (also off when stdout is "
        "not a terminal)",
    )
    tail.add_argument(
        "-f", "--follow", action="store_true",
        help="keep polling the file and print events as they are "
        "appended (a live stream written with --events and a flushing "
        "sink, e.g. by 'sosae serve'); stop with Ctrl-C",
    )
    tail.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="polling period for --follow (default: %(default)s)",
    )
    tail.add_argument(
        "--max-events", type=int, default=None, metavar="N",
        help="with --follow: stop after printing N events (for "
        "scripting)",
    )
    tail.add_argument(
        "--severity", choices=SEVERITY_LEVELS, default=None,
        metavar="LEVEL",
        help="only events at or above this severity "
        f"({', '.join(SEVERITY_LEVELS)})",
    )
    tail.add_argument(
        "--type", dest="type_pattern", default=None, metavar="PATTERN",
        help="only events whose kind matches this glob (e.g. 'job-*', "
        "'scenario-*'); composes with --severity (both must match)",
    )

    dashboard = subparsers.add_parser(
        "dashboard",
        help="render the unified offline HTML observability dashboard",
        description="Combine whatever observability artifacts exist — "
        "a trace (--trace), the run registry's history (--runs-dir), a "
        "saved report's findings with provenance (--report), and a "
        "telemetry event stream (--events) — into one self-contained "
        "HTML file with no external references.",
    )
    dashboard.add_argument(
        "--out", type=Path, default=Path("dashboard.html"),
        help="output HTML path (default: %(default)s)",
    )
    dashboard.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="span trace: Chrome trace JSON (--trace-out) or span JSONL",
    )
    dashboard.add_argument(
        "--events", type=Path, default=None, metavar="FILE",
        help="telemetry events JSONL (from 'evaluate --events')",
    )
    dashboard.add_argument(
        "--report", type=Path, default=None, metavar="FILE",
        help="saved evaluation report JSON (from --save-report)",
    )
    dashboard.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="run registry directory for metric trends "
        "(default: %(default)s; skipped when absent)",
    )
    dashboard.add_argument(
        "--title", default="SOSAE observability",
        help="dashboard page title (default: %(default)s)",
    )
    dashboard.add_argument(
        "--tenant", default=None, metavar="TENANT",
        help="render the tenant view: run history, job table, and "
        "scenario costs narrowed to this tenant's traffic",
    )
    dashboard.add_argument(
        "--jobs-dir", type=Path, default=None, metavar="DIR",
        help="job registry directory for the tenant-jobs section "
        "(default: --runs-dir; skipped when no jobs.jsonl exists)",
    )
    dashboard.add_argument(
        "--live", default=None, metavar="URL",
        help="consume a running 'sosae serve' daemon's /events SSE "
        "stream as the event source (base URL or full /events URL); "
        "mutually exclusive with --events",
    )
    dashboard.add_argument(
        "--live-duration", type=float, default=10.0, metavar="SECONDS",
        help="with --live: collect for at most this long "
        "(default: %(default)s)",
    )
    dashboard.add_argument(
        "--live-limit", type=int, default=None, metavar="N",
        help="with --live: stop after N events",
    )
    dashboard.add_argument(
        "--profile-before", default=None, metavar="REF",
        help="'before' side of the differential flamegraph: a profiled "
        "run id (latest/previous work) or a folded profile file",
    )
    dashboard.add_argument(
        "--profile-after", default=None, metavar="REF",
        help="'after' side of the differential flamegraph (same forms "
        "as --profile-before); without either flag the newest two "
        "profiled runs in --runs-dir are used, and --live also asks "
        "the daemon's /profile endpoint",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the continuous evaluation daemon",
        description="Evaluate continuously and expose the results over "
        "HTTP: re-run when a watched spec file changes (mtime polling) "
        "or on a fixed --interval, record each run to the run registry "
        "(--record), evaluate declarative alert/SLO rules after every "
        "run, and answer /metrics (Prometheus text exposition), "
        "/healthz, /readyz, /report, /alerts, /events (SSE), and — "
        "with --profile-hz — /profile (folded sampling profile). The "
        "spec is either three files (--scenarios/--architecture/"
        "--mapping, watched for changes) or a built-in case study "
        "(--system, re-run on --interval). '--once --check' performs "
        "one evaluation and exits 1 when any alert fires, for CI "
        "gating.",
    )
    serve.add_argument(
        "--scenarios", type=Path, default=None, help="ScenarioML XML file"
    )
    serve.add_argument(
        "--architecture", type=Path, default=None,
        help="architecture file (xADL XML, or Acme with --acme)",
    )
    serve.add_argument(
        "--mapping", type=Path, default=None, help="mapping JSON file"
    )
    serve.add_argument(
        "--acme", action="store_true",
        help="parse the architecture file as Acme instead of xADL",
    )
    serve.add_argument(
        "--system", choices=("pims", "crash"), default=None,
        help="serve a built-in case study instead of spec files",
    )
    serve.add_argument(
        "--variant",
        choices=("intact", "excised", "insecure"),
        default="intact",
        help="architecture variant for --system",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8787,
        help="bind port, 0 picks a free one (default: %(default)s)",
    )
    serve.add_argument(
        "--interval", type=float, default=None, metavar="SECONDS",
        help="also re-evaluate on this fixed cadence (default: only on "
        "spec change)",
    )
    serve.add_argument(
        "--poll", type=float, default=1.0, metavar="SECONDS",
        help="spec-file mtime polling period (default: %(default)s)",
    )
    serve.add_argument(
        "--rules", type=Path, default=None, metavar="FILE",
        help="alert/SLO rules (TOML or JSON; see docs/SERVE.md)",
    )
    serve.add_argument(
        "--record", action="store_true",
        help="snapshot every evaluation into the run registry (enables "
        "runs-window SLO rules)",
    )
    serve.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="run registry directory (default: %(default)s)",
    )
    serve.add_argument(
        "--events", type=Path, default=None, metavar="FILE",
        help="also stream telemetry events to this JSONL file",
    )
    serve.add_argument(
        "--flush-every", type=int, default=16, metavar="N",
        help="flush the --events sink every N events so it can be "
        "tailed live (default: %(default)s)",
    )
    serve.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="interleave heartbeat events at this interval",
    )
    serve.add_argument(
        "--label", default=None,
        help="run-registry label (default: derived from the spec source)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="evaluate once, print a summary, and exit without serving "
        "HTTP",
    )
    serve.add_argument(
        "--check", action="store_true",
        help="with --once: exit 1 when any alert rule fires",
    )
    serve.add_argument(
        "--max-runs", type=int, default=None, metavar="N",
        help="stop the serve loop after N evaluations (for CI smoke "
        "runs)",
    )
    serve.add_argument(
        "--full-eval", action="store_true",
        help="always run the full pipeline on spec changes instead of "
        "the incremental re-evaluation path",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard full evaluations across N worker processes "
        "(per-shard serve.shard.* gauges appear on /metrics; "
        "default: 1 = in-process)",
    )
    serve.add_argument(
        "--profile-hz", type=float, default=None, metavar="HZ",
        help="continuously sample each evaluation's interpreter stack "
        "at HZ and expose the merged recent-interval profile at "
        "/profile (folded stacks text; with --record each run's "
        "profile also persists in the registry)",
    )
    serve.add_argument(
        "--profile-history", type=int, default=8, metavar="N",
        help="with --profile-hz: how many recent interval profiles the "
        "/profile ring keeps (default: %(default)s)",
    )
    serve.add_argument(
        "--jobs", action="store_true",
        help="open the multi-tenant job API: POST /jobs accepts spec "
        "bundles, GET /jobs[/<id>] polls them, and /metrics grows "
        "tenant-labeled job counters",
    )
    serve.add_argument(
        "--tenant-quota", type=int, default=DEFAULT_TENANT_QUOTA,
        metavar="N",
        help="with --jobs: max in-flight (queued+running) jobs per "
        "tenant before submissions 429 (default: %(default)s)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=DEFAULT_QUEUE_LIMIT,
        metavar="N",
        help="with --jobs: global bound on the queued backlog before "
        "submissions 429 (default: %(default)s)",
    )
    serve.add_argument(
        "--job-executors", type=int, default=1, metavar="N",
        help="with --jobs: executor threads draining the job queue "
        "(evaluations still serialize behind the daemon's evaluation "
        "lock; default: %(default)s)",
    )

    jobs = subparsers.add_parser(
        "jobs",
        help="submit and inspect multi-tenant evaluation jobs",
        description="Client verbs for a 'sosae serve --jobs' daemon: "
        "submit a spec bundle under a tenant id, poll a job, list a "
        "daemon's (or a local registry's) jobs, or follow the live "
        "event stream scoped to one tenant.",
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    jobs_submit = jobs_sub.add_parser(
        "submit", help="POST a spec bundle as a new job"
    )
    jobs_submit.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="daemon base URL (default: %(default)s)",
    )
    jobs_submit.add_argument(
        "--tenant", required=True, help="tenant id to submit under"
    )
    jobs_submit.add_argument(
        "--label", default="", help="free-form job label"
    )
    jobs_submit.add_argument(
        "--actor", default="",
        help="who submits, for the audit trail (default: the daemon "
        "records the client address)",
    )
    jobs_submit.add_argument(
        "--scenarios", type=Path, required=True,
        help="ScenarioML XML file",
    )
    jobs_submit.add_argument(
        "--architecture", type=Path, required=True,
        help="architecture file (xADL XML, or Acme with --acme)",
    )
    jobs_submit.add_argument(
        "--mapping", type=Path, required=True, help="mapping JSON file"
    )
    jobs_submit.add_argument(
        "--acme", action="store_true",
        help="submit the architecture file as Acme instead of xADL",
    )
    jobs_submit.add_argument(
        "--wait", action="store_true",
        help="poll the job until it reaches a terminal state; exit 0 "
        "only for a consistent 'done'",
    )
    jobs_submit.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="with --wait: give up after this long (default: %(default)s)",
    )
    jobs_submit.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="with --wait: polling period (default: %(default)s)",
    )
    jobs_submit.add_argument(
        "--report", type=Path, default=None, metavar="FILE",
        help="with --wait: also fetch the finished job's report JSON "
        "from /report/<run_id> and write it here",
    )
    jobs_status = jobs_sub.add_parser(
        "status", help="fetch one job's record"
    )
    jobs_status.add_argument("job_id", help="job id (e.g. j0001)")
    jobs_status.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="daemon base URL (default: %(default)s)",
    )
    jobs_list = jobs_sub.add_parser(
        "list", help="list jobs from a daemon or a local registry"
    )
    jobs_list.add_argument(
        "--url", default=None,
        help="daemon base URL; without it the local --jobs-dir "
        "registry is read offline",
    )
    jobs_list.add_argument(
        "--jobs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="local job registry directory for offline listing "
        "(default: %(default)s)",
    )
    jobs_list.add_argument(
        "--tenant", default=None, help="only this tenant's jobs"
    )
    jobs_tail = jobs_sub.add_parser(
        "tail", help="follow a daemon's live event stream"
    )
    jobs_tail.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="daemon base URL (default: %(default)s)",
    )
    jobs_tail.add_argument(
        "--tenant", default=None,
        help="only events carrying this tenant id (job lifecycle, "
        "tenant-scoped run records)",
    )
    jobs_tail.add_argument(
        "--replay", type=int, default=64, metavar="N",
        help="start with up to N buffered events (default: %(default)s)",
    )
    jobs_tail.add_argument(
        "--max-events", type=int, default=None, metavar="N",
        help="stop after printing N events (for scripting)",
    )
    jobs_tail.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop after this long (default: until the daemon closes "
        "the stream or Ctrl-C)",
    )
    jobs_tail.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI severity coloring",
    )
    jobs_compact = jobs_sub.add_parser(
        "compact",
        help="collapse terminal jobs' log history past a horizon",
        description="Rewrite jobs.jsonl and audit.jsonl keeping only "
        "the latest line per job that reached a terminal state "
        "(done/failed/rejected) more than --keep-days ago. Non-"
        "terminal and recent jobs keep their full transition history. "
        "Atomic (temp file + rename) and safe against a live 'serve "
        "--jobs' daemon: the rewrite holds the same cross-process lock "
        "appenders take.",
    )
    jobs_compact.add_argument(
        "--jobs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="job registry directory (default: %(default)s)",
    )
    jobs_compact.add_argument(
        "--keep-days", type=float, required=True, metavar="DAYS",
        help="keep full history for jobs that finished within this "
        "many days",
    )
    bench_gate = subparsers.add_parser(
        "bench-gate",
        help="gate CI on the recorded incremental-vs-full speedup",
        description="Read the benchmark timing trajectory "
        "(BENCH_results.json, written by 'pytest benchmarks/') and fail "
        "unless the latest incremental re-evaluation ran at least "
        "--min-ratio times faster than the latest full re-evaluation. "
        "A missing or unparsable trajectory fails loudly: 'no data' "
        "must not read as 'nothing regressed'.",
    )
    bench_gate.add_argument(
        "--results", type=Path, default=None, metavar="FILE",
        help="timing trajectory to read (default: BENCH_results.json "
        "at the repository root, or $BENCH_RESULTS_PATH)",
    )
    bench_gate.add_argument(
        "--min-ratio", type=float, default=5.0, metavar="X",
        help="required full/incremental speedup (default: %(default)s)",
    )
    return parser


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="print a span profile summary tree after the report",
    )
    parser.add_argument(
        "--profile-hz", type=float, default=None, metavar="HZ",
        help="statistically sample the evaluating thread's stack HZ "
        "times a second (try %g) and print the hottest frames; with "
        "--record the folded profile persists in the run registry"
        % DEFAULT_PROFILE_HZ,
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="write a Chrome trace-viewer (chrome://tracing) JSON file",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="write the metrics registry as JSON",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="snapshot this evaluation into the run registry",
    )
    parser.add_argument(
        "--runs-dir", type=Path, default=Path(DEFAULT_RUNS_DIR),
        help="run registry directory (default: %(default)s)",
    )
    parser.add_argument(
        "--events", type=Path, default=None, metavar="FILE",
        help="stream typed telemetry events to this JSONL file while "
        "the evaluation runs",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="with --events: interleave heartbeat events (carrying a "
        "metrics snapshot) at this interval",
    )


class _Observed:
    """The live observability handles of one CLI evaluation: the
    recorder (``None`` when every flag is off) and, after the
    :meth:`profiling` block exits, the sampled profile."""

    def __init__(
        self, recorder: Optional[Recorder], profile_hz: Optional[float]
    ) -> None:
        self.recorder = recorder
        self.profile_hz = profile_hz
        self.profile: Optional[Profile] = None

    @contextmanager
    def profiling(self) -> Iterator[None]:
        """Sample the block at ``--profile-hz`` (no-op without the
        flag). Installing the profiler also makes a sharded run's
        workers sample themselves at the same rate; their partials
        merge into ``self.profile``."""
        if self.profile_hz is None:
            yield
            return
        profiler = SamplingProfiler(hz=self.profile_hz).start()
        try:
            with use_profiler(profiler):
                yield
        finally:
            self.profile = profiler.stop()


@contextmanager
def _observed(args: argparse.Namespace) -> Iterator[_Observed]:
    """Install a live recorder (and, with ``--events``, a live event bus
    streaming to a JSONL sink) for the block when any observability flag
    was given; yields the :class:`_Observed` bundle (its recorder is
    ``None`` when observability is off)."""
    if args.heartbeat is not None and args.events is None:
        raise ReproError("--heartbeat only makes sense with --events FILE")
    wanted = (
        args.profile
        or args.profile_hz is not None
        or args.trace_out
        or args.metrics_out
        or args.record
        or args.events
    )
    if not wanted:
        yield _Observed(None, None)
        return
    recorder = Recorder()
    observed = _Observed(recorder, args.profile_hz)
    if args.events is None:
        with use(recorder):
            yield observed
        return
    bus = EventBus(
        heartbeat_interval=args.heartbeat,
        metrics_source=recorder.metrics.to_dict,
    )
    with JsonlSink(args.events) as sink:
        bus.subscribe(sink)
        with use(recorder), use_events(bus):
            yield observed
    _LOG.info("wrote event stream to %s", args.events)


def _render_sampled_profile(profile: Profile, top: int = 15) -> str:
    """A terminal table of a profile's hottest frames by self time."""
    lines = [
        f"sampled profile: {profile.samples} sample(s), "
        f"{len(profile.counts)} stack(s), {profile.hz:g} Hz, "
        f"{profile.wall_seconds:.3f}s wall"
    ]
    if not profile:
        lines.append(
            "  (no samples captured — the run finished between sampler "
            "ticks; raise --profile-hz)"
        )
        return "\n".join(lines)
    total = profile.samples
    cumulative = profile.cumulative_counts()
    ranked = sorted(
        profile.self_counts().items(), key=lambda item: (-item[1], item[0])
    )[:top]
    width = max(len(_short_frame(frame)) for frame, _ in ranked)
    width = min(max(width, 5), 64)
    lines.append(
        f"  {'frame':<{width}}  {'self':>6}  {'self%':>6}  {'cum%':>6}"
    )
    for frame, count in ranked:
        lines.append(
            f"  {_short_frame(frame):<{width}}  {count:>6}  "
            f"{100.0 * count / total:>5.1f}%  "
            f"{100.0 * cumulative[frame] / total:>5.1f}%"
        )
    return "\n".join(lines)


def _emit_observability(args: argparse.Namespace, obs: _Observed) -> None:
    """Print/write the observability outputs the flags asked for."""
    recorder = obs.recorder
    if recorder is None:
        return
    if args.profile:
        print()
        print("=== profile ===")
        print(render_profile(recorder.roots, recorder.metrics))
    if obs.profile is not None:
        print()
        print("=== sampled profile ===")
        print(_render_sampled_profile(obs.profile))
    if args.trace_out is not None:
        args.trace_out.write_text(chrome_trace_json(recorder.roots))
        _LOG.info("wrote Chrome trace to %s", args.trace_out)
    if args.metrics_out is not None:
        args.metrics_out.write_text(metrics_to_json(recorder.metrics))
        _LOG.info("wrote metrics snapshot to %s", args.metrics_out)


def _record_run(
    args: argparse.Namespace, label: str, report, obs: _Observed
) -> None:
    """Snapshot the evaluation into the run registry when asked (the
    sampled profile, if any, persists as a folded artifact next to it).
    """
    if not args.record or obs.recorder is None:
        return
    registry = RunRegistry(args.runs_dir)
    record = registry.record(label, report, obs.recorder, profile=obs.profile)
    _LOG.info(
        "recorded run %s (%s) under %s", record.run_id, label, registry.root
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    verbosity = -1 if args.quiet else args.verbose
    configure_logging(verbosity, stream=sys.stderr)
    try:
        if args.command == "evaluate":
            return _run_evaluate(args)
        if args.command == "demo":
            return _run_demo(args)
        if args.command == "table":
            return _run_table(args)
        if args.command == "export":
            return _run_export(args)
        if args.command == "rank":
            return _run_rank(args)
        if args.command == "implied":
            return _run_implied(args)
        if args.command == "dot":
            return _run_dot(args)
        if args.command == "lint":
            return _run_lint(args)
        if args.command == "explain":
            return _run_explain(args)
        if args.command == "runs":
            return _run_runs(args)
        if args.command == "coverage":
            return _run_coverage(args)
        if args.command == "profile":
            return _run_profile(args)
        if args.command == "tail":
            return _run_tail(args)
        if args.command == "dashboard":
            return _run_dashboard(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "jobs":
            return _run_jobs(args)
        if args.command == "bench-gate":
            return _run_bench_gate(args)
    except ReproError as error:
        _LOG.error("error: %s", error)
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that stopped reading (head,
        # less, ...); that is not an error of ours.
        return 0
    except OSError as error:
        _LOG.error("error: %s", error)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


def _build_spec_sosae(
    scenarios: Path, architecture: Path, mapping: Path, acme: bool
) -> Sosae:
    """A fresh pipeline from the three spec files (the ``evaluate``
    inputs; ``serve`` re-invokes this whenever a watched file changes)."""
    scenario_set = parse_scenarioml(scenarios.read_text())
    architecture_text = architecture.read_text()
    parsed = (
        parse_acme(architecture_text)
        if acme
        else parse_xadl(architecture_text)
    )
    return Sosae(
        scenario_set,
        parsed,
        Mapping.from_json(mapping.read_text(), scenario_set.ontology, parsed),
    )


def _evaluate(sosae: Sosae, workers: int, **options) -> EvaluationReport:
    """``sosae.evaluate(**options)``, with the walkthrough stage sharded
    across ``workers`` processes when there is more than one."""
    if workers > 1:
        return BatchEvaluator(workers=workers).evaluate(sosae, **options)
    return sosae.evaluate(**options)


def _run_evaluate(args: argparse.Namespace) -> int:
    sosae = _build_spec_sosae(
        args.scenarios, args.architecture, args.mapping, args.acme
    )
    with _observed(args) as obs:
        with obs.profiling():
            report = _evaluate(sosae, args.workers)
        # Recording happens while the event bus (if any) is still live,
        # so the run-recorded event reaches the stream before it closes.
        _record_run(
            args, f"evaluate-{args.architecture.stem}", report, obs
        )
    print(render_report(report, markdown=args.markdown))
    _emit_observability(args, obs)
    if args.save_report is not None:
        args.save_report.write_text(report_to_json(report))
        _LOG.info("wrote report to %s", args.save_report)
    status = 0 if report.consistent else 1
    if args.baseline is not None:
        baseline = report_from_json(args.baseline.read_text())
        comparison = compare_reports(baseline, report)
        print(f"baseline comparison: {comparison.summary()}")
        if not comparison.clean:
            status = 1
    return status


class _Demo:
    """Everything a demo subcommand needs, bundled."""

    def __init__(
        self,
        scenarios,
        architecture,
        mapping,
        options,
        bindings,
        runtime_config,
        dynamic_scenarios=None,
        constraints=(),
    ) -> None:
        self.scenarios = scenarios
        self.architecture = architecture
        self.mapping = mapping
        self.options = options
        self.bindings = bindings
        self.runtime_config = runtime_config
        self.dynamic_scenarios = dynamic_scenarios
        self.constraints = constraints


def _build_demo(system: str, variant: str) -> _Demo:
    if system == "pims":
        pims = build_pims()
        if variant == "insecure":
            raise ReproError("the insecure variant belongs to the crash demo")
        architecture = (
            pims.excised_architecture() if variant == "excised" else pims.architecture
        )
        mapping = pims.mapping.rebind(architecture)
        return _Demo(
            pims.scenarios,
            architecture,
            mapping,
            pims.options,
            pims.bindings,
            RuntimeConfig(policy=ChannelPolicy(latency=1.0)),
            dynamic_scenarios=("get-share-prices",),
            constraints=pims.constraints,
        )
    crash = build_crash()
    if variant == "excised":
        raise ReproError("the excised variant belongs to the pims demo")
    architecture = (
        crash.insecure_architecture() if variant == "insecure" else crash.architecture
    )
    mapping = build_crash_mapping(crash.ontology, architecture)
    return _Demo(
        crash.scenarios,
        architecture,
        mapping,
        crash.options,
        crash.bindings,
        RuntimeConfig(policy=ChannelPolicy(latency=1.0, failure_detection=True)),
    )


def _run_demo(args: argparse.Namespace) -> int:
    demo = _build_demo(args.system, args.variant)
    sosae = Sosae(
        demo.scenarios,
        demo.architecture,
        demo.mapping,
        bindings=demo.bindings,
        constraints=demo.constraints,
        walkthrough_options=demo.options,
        runtime_config=demo.runtime_config,
    )
    include_dynamic = args.dynamic and demo.bindings is not None
    with _observed(args) as obs:
        with obs.profiling():
            report = _evaluate(
                sosae,
                args.workers,
                include_dynamic=include_dynamic,
                dynamic_scenarios=(
                    demo.dynamic_scenarios if include_dynamic else None
                ),
            )
        _record_run(
            args, f"demo-{args.system}-{args.variant}", report, obs
        )
    print(render_report(report, markdown=args.markdown))
    _emit_observability(args, obs)
    if args.save_report is not None:
        args.save_report.write_text(report_to_json(report))
        _LOG.info("wrote report to %s", args.save_report)
    return 0 if report.consistent else 1


def _run_table(args: argparse.Namespace) -> int:
    demo = _build_demo(args.system, "intact")
    table = demo.mapping.table(demo.scenarios)
    print(table.render_markdown() if args.markdown else table.render())
    return 0


def _run_export(args: argparse.Namespace) -> int:
    demo = _build_demo(args.system, "intact")
    if args.artifact == "scenarioml":
        print(to_scenarioml_xml(demo.scenarios))
    elif args.artifact == "xadl":
        print(to_xadl_xml(demo.architecture))
    elif args.artifact == "acme":
        print(to_acme(demo.architecture))
    elif args.artifact == "owl":
        print(to_owl_xml(demo.scenarios.ontology))
    else:
        print(demo.mapping.to_json())
    return 0


def _run_rank(args: argparse.Namespace) -> int:
    demo = _build_demo(args.system, "intact")
    ranked = rank_scenarios(demo.scenarios, demo.mapping)
    if args.top is not None:
        ranked = ranked[: args.top]
    for position, score in enumerate(ranked, start=1):
        print(f"{position:>3}. {score}")
    return 0


def _run_implied(args: argparse.Namespace) -> int:
    demo = _build_demo(args.system, "intact")
    report = detect_implied_scenarios(
        demo.scenarios,
        demo.mapping,
        max_length=args.max_length,
        limit=args.limit,
    )
    if report.closed:
        print("the specification is closed: no implied scenarios found")
        return 0
    suffix = " (truncated)" if report.truncated else ""
    print(f"{len(report.implied)} implied scenario(s){suffix}:")
    for implied in report.implied:
        print(f"  {implied.render()}")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    demo = _build_demo(args.system, "intact")
    findings = lint_scenario_set(demo.scenarios)
    if not findings:
        print("no lint findings")
        return 0
    for finding in findings:
        print(f"  {finding}")
    print(f"{len(findings)} finding(s) (advisory)")
    return 0


def _explained_report(args: argparse.Namespace):
    """The report whose findings ``explain`` works on: a saved JSON
    report, or a fresh (quiet) run of a built-in demo."""
    if args.report is not None and args.system is not None:
        raise ReproError("explain takes --report or --system, not both")
    if args.report is not None:
        return report_from_json(args.report.read_text())
    if args.system is None:
        raise ReproError(
            "explain needs a findings source: --report FILE or "
            "--system pims|crash"
        )
    demo = _build_demo(args.system, args.variant)
    _LOG.info("evaluating %s (%s) for explanation", args.system, args.variant)
    return Sosae(
        demo.scenarios,
        demo.architecture,
        demo.mapping,
        bindings=demo.bindings,
        constraints=demo.constraints,
        walkthrough_options=demo.options,
        runtime_config=demo.runtime_config,
    ).evaluate()


def _run_explain(args: argparse.Namespace) -> int:
    report = _explained_report(args)
    if args.list_findings or args.finding_id is None:
        print(render_findings_index(report))
        return 0
    finding = resolve_finding(report, args.finding_id)
    print(render_explanation(finding))
    return 0


def _run_runs(args: argparse.Namespace) -> int:
    registry = RunRegistry(args.runs_dir)
    if args.runs_command == "list":
        print(registry.render_list(tenant=args.tenant))
        return 0
    if args.runs_command == "compact":
        stats = registry.compact(args.keep)
        print(
            f"kept {stats['kept']} run(s), dropped {stats['dropped']} "
            f"({registry.path})"
        )
        return 0
    if args.runs_command == "attribute":
        attribution = attribute_runs(
            registry.get(args.before), registry.get(args.after)
        )
        print(attribution.render(limit=args.top))
        return 0
    if args.runs_command == "bisect":
        result = bisect_runs(
            registry.load(),
            args.metric,
            window=args.window,
            threshold=args.threshold,
        )
        print(result.render())
        return 1 if result.step is not None else 0
    diff = diff_runs(
        registry.get(args.before),
        registry.get(args.after),
        threshold=args.threshold,
        time_threshold=args.time_threshold,
    )
    print(diff.render())
    return 0 if diff.clean else 1


def _coverage_matrix(registry: RunRegistry, reference: str) -> CoverageMatrix:
    """The digest-verified coverage matrix of a recorded run."""
    record = registry.get(reference)
    if not record.coverage:
        raise ReproError(
            f"run {record.run_id} carries no coverage matrix (it was "
            "recorded on the incremental fast path, or by a version "
            "without coverage)"
        )
    try:
        return CoverageMatrix.from_dict(record.coverage)
    except ValueError as error:
        raise ReproError(f"run {record.run_id}: {error}") from None


def _run_coverage(args: argparse.Namespace) -> int:
    registry = RunRegistry(args.runs_dir)
    if args.coverage_command == "show":
        print(_coverage_matrix(registry, args.run).render())
        return 0
    if args.coverage_command == "gaps":
        print(_coverage_matrix(registry, args.run).render_gaps())
        return 0
    diff = diff_coverage(
        _coverage_matrix(registry, args.before),
        _coverage_matrix(registry, args.after),
    )
    print(diff.render())
    return 1 if diff.regressed(args.threshold) else 0


def _resolve_profile(reference: str, runs_dir: Path) -> Profile:
    """A profile by reference: a folded file path when one exists at
    the reference, else a profiled run in the registry."""
    path = Path(reference)
    if path.is_file():
        return Profile.from_folded(path.read_text(encoding="utf-8"))
    return RunRegistry(runs_dir).load_profile(reference)


def _run_profile(args: argparse.Namespace) -> int:
    if args.profile_command == "show":
        profile = _resolve_profile(args.reference, args.runs_dir)
        print(_render_sampled_profile(profile, top=args.top))
        return 0
    before = _resolve_profile(args.before, args.runs_dir)
    after = _resolve_profile(args.after, args.runs_dir)
    print(diff_profiles(before, after).render(top=args.top))
    return 0


# ANSI severity coloring for `tail`: errors red, warnings yellow,
# debug dimmed, info plain. Never the only channel — the severity is
# also implied by the event kind and summary text on every line.
_TAIL_COLORS = {
    "error": "\x1b[31m",
    "warning": "\x1b[33m",
    "debug": "\x1b[2m",
}
_TAIL_RESET = "\x1b[0m"


def _print_event(event, base: Optional[float], colored: bool) -> None:
    line = format_event(event, base=base)
    code = _TAIL_COLORS.get(event_severity(event))
    if colored and code:
        line = f"{code}{line}{_TAIL_RESET}"
    print(line, flush=True)


def _event_filter(severity: Optional[str], type_pattern: Optional[str]):
    """The tail predicate: minimum severity AND kind glob, both
    optional; an event must satisfy every given filter to print."""
    floor = SEVERITY_LEVELS.index(severity) if severity else None

    def keep(event) -> bool:
        if floor is not None and (
            SEVERITY_LEVELS.index(event_severity(event)) < floor
        ):
            return False
        if type_pattern is not None and not fnmatch.fnmatch(
            event.kind, type_pattern
        ):
            return False
        return True

    return keep


def _follow_lines(
    path: Path, poll: float, max_lines: Optional[int] = None
) -> Iterator[str]:
    """Complete JSONL lines of ``path`` as they are appended, polling
    every ``poll`` seconds; a partial final line stays buffered until
    its newline arrives. Never returns on its own unless ``max_lines``
    is given — the caller stops it (Ctrl-C).

    Truncation and rotation are detected: when the file's inode changes
    (a writer replaced it) or its size shrinks below the read offset (a
    writer truncated it — per-worker telemetry partials are rewritten
    between runs), the stale handle is dropped and the new file is read
    from the start instead of waiting forever at the old offset.
    """
    yielded = 0
    buffer = ""
    handle = None
    try:
        while max_lines is None or yielded < max_lines:
            if handle is None:
                try:
                    handle = path.open("r", encoding="utf-8")
                    opened_inode = os.fstat(handle.fileno()).st_ino
                    buffer = ""
                except OSError:
                    time.sleep(poll)
                    continue
            chunk = handle.read()
            if not chunk:
                try:
                    stat = path.stat()
                    rotated = stat.st_ino != opened_inode
                    truncated = stat.st_size < handle.tell()
                except OSError:
                    # Deleted out from under us: treat as rotation and
                    # wait for the path to reappear.
                    rotated, truncated = True, False
                if rotated or truncated:
                    handle.close()
                    handle = None
                    continue
                time.sleep(poll)
                continue
            buffer += chunk
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                if line.strip():
                    yield line
                    yielded += 1
                    if max_lines is not None and yielded >= max_lines:
                        return
    finally:
        if handle is not None:
            handle.close()


def _tail_follow(args: argparse.Namespace, colored: bool) -> int:
    if args.path == "-":
        raise ReproError("--follow needs a file path, not stdin")
    keep = _event_filter(args.severity, args.type_pattern)
    base: Optional[float] = None
    printed = 0
    try:
        # max_events bounds *printed* events, so the line cap only
        # applies when no filter can drop lines.
        unfiltered = args.severity is None and args.type_pattern is None
        for line in _follow_lines(
            Path(args.path),
            args.poll,
            max_lines=args.max_events if unfiltered else None,
        ):
            try:
                event = event_from_dict(json.loads(line))
            except (ReproError, json.JSONDecodeError) as error:
                _LOG.warning("skipping malformed event line: %s", error)
                continue
            if base is None:
                base = event.timestamp
            if not keep(event):
                continue
            _print_event(event, base, colored)
            printed += 1
            if args.max_events is not None and printed >= args.max_events:
                break
    except KeyboardInterrupt:
        pass
    _LOG.info("rendered %d event(s)", printed)
    return 0


def _run_tail(args: argparse.Namespace) -> int:
    colored = not args.no_color and sys.stdout.isatty()
    if args.follow:
        return _tail_follow(args, colored)
    if args.path == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.path).read_text(encoding="utf-8")
    events = events_from_jsonl(text)
    if not events:
        _LOG.warning("no events in %s", args.path)
        return 0
    # Offsets stay relative to the stream's first event even when a
    # filter hides it — filtered views of one stream align.
    base = events[0].timestamp
    keep = _event_filter(args.severity, args.type_pattern)
    shown = 0
    for event in events:
        if keep(event):
            _print_event(event, base, colored)
            shown += 1
    _LOG.info("rendered %d of %d event(s)", shown, len(events))
    return 0


def _live_profile(live: str) -> Optional[Profile]:
    """The merged continuous-profiling ring of a running daemon, when
    it serves one (404/503 — profiling off or not yet sampled — reads
    as "no profile", not an error)."""
    base = live.rstrip("/").split("?")[0]
    if base.endswith("/events"):
        base = base[: -len("/events")]
    url = f"{base}/profile"
    try:
        from urllib.request import urlopen

        with urlopen(url, timeout=5) as response:
            folded = response.read().decode("utf-8")
    except OSError as error:
        _LOG.info("no live profile at %s (%s)", url, error)
        return None
    try:
        profile = Profile.from_folded(folded)
    except ReproError as error:
        _LOG.warning("live profile at %s is unparsable: %s", url, error)
        return None
    _LOG.info("collected live profile from %s", url)
    return profile


def _run_dashboard(args: argparse.Namespace) -> int:
    if args.live is not None and args.events is not None:
        raise ReproError("dashboard takes --events or --live, not both")
    spans = load_trace_file(args.trace) if args.trace is not None else ()
    if args.live is not None:
        url = args.live.rstrip("/")
        if not url.split("?")[0].endswith("/events"):
            url = f"{url}/events"
        if "?" not in url:
            # Replay the daemon's buffered history so a dashboard built
            # off an idle daemon still has the last evaluation's events.
            url = f"{url}?replay=2048"
        _LOG.info(
            "collecting live events from %s (up to %.1fs)",
            url,
            args.live_duration,
        )
        events = read_sse_events(
            url, limit=args.live_limit, duration=args.live_duration
        )
    else:
        events = read_events(args.events) if args.events is not None else ()
    report = (
        report_from_json(args.report.read_text())
        if args.report is not None
        else None
    )
    registry = RunRegistry(args.runs_dir)
    runs = registry.load() if registry.path.exists() else ()
    jobs_registry = JobRegistry(
        args.jobs_dir if args.jobs_dir is not None else args.runs_dir
    )
    jobs = (
        jobs_registry.jobs(args.tenant)
        if jobs_registry.path.exists()
        else ()
    )
    profile_before = (
        _resolve_profile(args.profile_before, args.runs_dir)
        if args.profile_before is not None
        else None
    )
    profile_after = (
        _resolve_profile(args.profile_after, args.runs_dir)
        if args.profile_after is not None
        else None
    )
    if args.live is not None and profile_after is None:
        profile_after = _live_profile(args.live)
    if profile_before is None and profile_after is None:
        # No explicit profile inputs: fall back to the newest two
        # profiled runs in the registry (one gives a single-profile
        # flamegraph, two give the differential view).
        profiled = [record for record in runs if record.profile]
        if profiled:
            profile_after = registry.load_profile(profiled[-1].run_id)
            if len(profiled) >= 2:
                profile_before = registry.load_profile(
                    profiled[-2].run_id
                )
            _LOG.info(
                "dashboard profiles: auto-detected %s from run history",
                " and ".join(
                    record.run_id for record in profiled[-2:]
                ),
            )
    for name, count in (
        ("spans", sum(root.count() for root in spans)),
        ("runs", len(runs)),
        ("events", len(events)),
        ("jobs", len(jobs)),
        (
            "profile samples",
            sum(
                profile.samples
                for profile in (profile_before, profile_after)
                if profile is not None
            ),
        ),
    ):
        _LOG.info("dashboard input: %d %s", count, name)
    document = build_dashboard(
        spans=spans,
        runs=runs,
        report=report,
        events=events,
        jobs=jobs,
        tenant=args.tenant,
        profile_before=profile_before,
        profile_after=profile_after,
        title=args.title,
    )
    args.out.write_text(document, encoding="utf-8")
    print(f"wrote dashboard to {args.out}")
    return 0


def _serve_builder(args: argparse.Namespace):
    """The (re)build callable and watch paths for the serve daemon."""
    spec_paths = (args.scenarios, args.architecture, args.mapping)
    if args.system is not None:
        if any(path is not None for path in spec_paths):
            raise ReproError(
                "serve takes --system or spec files, not both"
            )
        _build_demo(args.system, args.variant)  # reject bad combos now

        def build():
            built = _build_demo(args.system, args.variant)
            return Sosae(
                built.scenarios,
                built.architecture,
                built.mapping,
                bindings=built.bindings,
                constraints=built.constraints,
                walkthrough_options=built.options,
                runtime_config=built.runtime_config,
            )

        return build, (), f"serve-{args.system}-{args.variant}"
    if any(path is None for path in spec_paths):
        raise ReproError(
            "serve needs --scenarios, --architecture, and --mapping "
            "(or --system for a built-in case study)"
        )

    def build():
        return _build_spec_sosae(
            args.scenarios, args.architecture, args.mapping, args.acme
        )

    return build, spec_paths, f"serve-{args.architecture.stem}"


def _run_serve(args: argparse.Namespace) -> int:
    if args.check and not args.once:
        raise ReproError("--check only makes sense with --once")
    build, watch_paths, label = _serve_builder(args)
    rules = load_rules(args.rules) if args.rules is not None else ()
    registry = RunRegistry(args.runs_dir) if args.record else None
    # Only architecture-file edits are incremental-safe: a dependency
    # tracker can invalidate scenarios against a structural diff, but
    # scenario/mapping edits change artifacts it cannot vouch for.
    incremental_safe = (
        (args.architecture,) if args.architecture is not None else ()
    )
    daemon = ServeDaemon(
        build,
        rules=rules,
        watch_paths=watch_paths,
        interval=args.interval,
        registry=registry,
        label=args.label or label,
        heartbeat=args.heartbeat,
        host=args.host,
        port=args.port,
        incremental=not args.full_eval,
        incremental_safe_paths=incremental_safe,
        workers=args.workers,
        profile_hz=args.profile_hz,
        profile_history=args.profile_history,
        jobs=args.jobs,
        tenant_quota=args.tenant_quota,
        queue_limit=args.queue_limit,
        job_executors=args.job_executors,
    )
    sink = None
    if args.events is not None:
        sink = JsonlSink(args.events, flush_every=args.flush_every)
        daemon.bus.subscribe(sink)
    try:
        if args.once:
            outcome = daemon.run_once()
            if not outcome.ok:
                _LOG.error("evaluation failed: %s", outcome.error)
                return 2
            verdict = "CONSISTENT" if outcome.consistent else "INCONSISTENT"
            print(
                f"serve --once: {verdict}, {outcome.findings} finding(s), "
                f"{len(outcome.fired)} alert(s) fired"
            )
            for event in outcome.fired:
                print(f"  {event.summary()}")
            for event in outcome.resolved:
                print(f"  {event.summary()}")
            # Windows the registry cannot fill yet are called out, so
            # a green gate with an under-filled window is never silent.
            for line in outcome.insufficient:
                print(f"  insufficient history: {line}")
            if args.check and outcome.fired:
                return 1
            return 0
        daemon.start_http()
        endpoints = "metrics, healthz, readyz, report, alerts, events"
        if args.profile_hz is not None:
            endpoints += ", profile"
        if args.jobs:
            endpoints += ", jobs"
        print(
            f"sosae serve: http://{args.host}:{daemon.port} "
            f"({endpoints})",
            flush=True,
        )
        try:
            daemon.serve_loop(poll=args.poll, max_runs=args.max_runs)
            if args.max_runs is not None:
                _LOG.info("reached --max-runs; shutting down")
        except KeyboardInterrupt:
            _LOG.info("interrupted; shutting down")
        return 0
    finally:
        daemon.shutdown()
        if sink is not None:
            sink.close()
        if args.events is not None:
            _LOG.info("wrote event stream to %s", args.events)


_TERMINAL_JOB_STATES = ("done", "failed", "rejected")


def _http_json(
    url: str, payload: Optional[dict] = None, timeout: float = 10.0
) -> tuple[int, dict]:
    """One JSON request against the job API; ``(status, body)``.

    Error statuses carrying a JSON body (the API's 4xx answers) are
    returned for the caller to interpret, not raised; transport
    failures and non-JSON answers become :class:`ReproError`.
    """
    from urllib.error import HTTPError, URLError
    from urllib.request import Request, urlopen

    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = Request(url, data=data, headers=headers)
    try:
        with urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(
                response.read().decode("utf-8")
            )
    except HTTPError as error:
        body = error.read().decode("utf-8", errors="replace")
        try:
            return error.code, json.loads(body)
        except json.JSONDecodeError:
            raise ReproError(
                f"{url} answered HTTP {error.code}: {body[:200]}"
            ) from None
    except URLError as error:
        raise ReproError(f"cannot reach {url}: {error.reason}") from None
    except json.JSONDecodeError as error:
        raise ReproError(f"{url} answered non-JSON: {error}") from None


def _run_jobs_submit(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    bundle = {
        "scenarioml": args.scenarios.read_text(encoding="utf-8"),
        "mapping": args.mapping.read_text(encoding="utf-8"),
        ("acme" if args.acme else "xadl"):
            args.architecture.read_text(encoding="utf-8"),
    }
    payload = {
        "tenant": args.tenant,
        "label": args.label,
        "bundle": bundle,
    }
    if args.actor:
        payload["actor"] = args.actor
    status, data = _http_json(f"{base}/jobs", payload=payload)
    if status == 429:
        print(
            f"rejected ({data.get('reason', '?')}): "
            f"{data.get('error', 'quota exceeded')}"
        )
        return 1
    if status != 202 or "job" not in data:
        raise ReproError(
            f"job submission failed (HTTP {status}): "
            f"{data.get('error', data)}"
        )
    record = data["job"]
    print(
        f"submitted {record['job_id']} ({record['state']}) "
        f"tenant={record['tenant']} digest={record['spec_digest']}"
    )
    if not args.wait:
        return 0
    deadline = time.monotonic() + args.timeout
    while True:
        status, data = _http_json(f"{base}/jobs/{record['job_id']}")
        if status != 200 or "job" not in data:
            raise ReproError(
                f"polling {record['job_id']} failed (HTTP {status}): "
                f"{data.get('error', data)}"
            )
        record = data["job"]
        if record["state"] in _TERMINAL_JOB_STATES:
            break
        if time.monotonic() >= deadline:
            raise ReproError(
                f"job {record['job_id']} still {record['state']} after "
                f"{args.timeout:g}s"
            )
        time.sleep(args.poll)
    if record["state"] != "done":
        print(
            f"{record['job_id']}: {record['state']} — "
            f"{record.get('error') or record.get('reason') or '?'}"
        )
        return 1
    verdict = "CONSISTENT" if record["consistent"] else "INCONSISTENT"
    print(
        f"{record['job_id']}: done — {verdict}, "
        f"{record['findings']} finding(s), run {record['run_id'] or '-'}, "
        f"{record['wall_seconds'] * 1e3:.1f}ms"
    )
    if args.report is not None and record["run_id"]:
        status, report = _http_json(f"{base}/report/{record['run_id']}")
        if status == 200:
            args.report.write_text(
                json.dumps(report, indent=2, sort_keys=True),
                encoding="utf-8",
            )
            print(f"wrote report to {args.report}")
        else:
            _LOG.warning(
                "no report for run %s (HTTP %d): %s",
                record["run_id"], status, report.get("error", ""),
            )
    return 0 if record["consistent"] else 1


def _run_jobs_status(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    status, data = _http_json(f"{base}/jobs/{args.job_id}")
    if status != 200 or "job" not in data:
        raise ReproError(
            f"no job {args.job_id!r} (HTTP {status}): "
            f"{data.get('error', data)}"
        )
    print(json.dumps(data["job"], indent=2, sort_keys=True))
    return 0


def _run_jobs_list(args: argparse.Namespace) -> int:
    if args.url is not None:
        from urllib.parse import urlencode

        base = args.url.rstrip("/")
        query = f"?{urlencode({'tenant': args.tenant})}" if args.tenant else ""
        status, data = _http_json(f"{base}/jobs{query}")
        if status != 200 or "jobs" not in data:
            raise ReproError(
                f"listing jobs failed (HTTP {status}): "
                f"{data.get('error', data)}"
            )
        records = tuple(
            JobRecord.from_dict(entry) for entry in data["jobs"]
        )
    else:
        records = JobRegistry(args.jobs_dir).jobs(args.tenant)
    print(render_job_list(records))
    return 0


def _run_jobs_tail(args: argparse.Namespace) -> int:
    from urllib.parse import urlencode

    base = args.url.rstrip("/")
    params = {"replay": max(0, args.replay)}
    if args.tenant:
        params["tenant"] = args.tenant
    url = f"{base}/events?{urlencode(params)}"
    colored = not args.no_color and sys.stdout.isatty()
    first: Optional[float] = None
    printed = 0
    try:
        for event in iter_sse_events(
            url, limit=args.max_events, duration=args.duration
        ):
            if first is None:
                first = event.timestamp
            _print_event(event, first, colored)
            printed += 1
    except KeyboardInterrupt:
        pass
    _LOG.info("rendered %d event(s)", printed)
    return 0


def _run_jobs(args: argparse.Namespace) -> int:
    if args.jobs_command == "submit":
        return _run_jobs_submit(args)
    if args.jobs_command == "status":
        return _run_jobs_status(args)
    if args.jobs_command == "list":
        return _run_jobs_list(args)
    if args.jobs_command == "compact":
        stats = compact_job_logs(
            JobRegistry(args.jobs_dir),
            AuditLog(args.jobs_dir),
            keep_days=args.keep_days,
        )
        print(
            f"collapsed {stats['stale_jobs']} terminal job(s): kept "
            f"{stats['jobs_kept']} job line(s) (dropped "
            f"{stats['jobs_dropped']}), kept {stats['audit_kept']} "
            f"audit line(s) (dropped {stats['audit_dropped']})"
        )
        return 0
    return _run_jobs_tail(args)


_BENCH_INCREMENTAL = "incremental_reevaluation.incremental"
_BENCH_FULL = "incremental_reevaluation.full"


def _latest_timing(entries: list, name: str) -> dict:
    for entry in reversed(entries):
        if isinstance(entry, dict) and entry.get("name") == name:
            return entry
    raise ReproError(
        f"no {name!r} entry in the benchmark trajectory; run "
        "'pytest benchmarks/test_bench_incremental_reevaluation.py' first"
    )


def _run_bench_gate(args: argparse.Namespace) -> int:
    path = args.results
    if path is None:
        override = os.environ.get("BENCH_RESULTS_PATH")
        path = Path(override) if override else Path("BENCH_results.json")
    # A missing or malformed trajectory fails the gate instead of
    # skipping it: "no data" must not read as "nothing regressed".
    if not path.exists():
        raise ReproError(
            f"benchmark results file {path} does not exist; run the "
            "benchmarks first (pytest benchmarks/) or point --results/"
            "BENCH_RESULTS_PATH at an existing trajectory"
        )
    try:
        entries = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ReproError(
            f"benchmark results file {path} is not valid JSON: {error}"
        )
    if not isinstance(entries, list):
        raise ReproError(
            f"benchmark results file {path} must contain a JSON list, "
            f"got {type(entries).__name__}"
        )
    incremental = _latest_timing(entries, _BENCH_INCREMENTAL)
    full = _latest_timing(entries, _BENCH_FULL)
    if incremental["seconds"] <= 0:
        raise ReproError(
            f"nonsensical incremental timing {incremental['seconds']!r}s "
            f"in {path}"
        )
    ratio = full["seconds"] / incremental["seconds"]
    print(
        f"bench-gate: incremental {incremental['seconds'] * 1000:.2f} ms, "
        f"full {full['seconds'] * 1000:.2f} ms -> {ratio:.1f}x "
        f"(required: {args.min_ratio:.1f}x)"
    )
    if ratio < args.min_ratio:
        _LOG.error(
            "incremental re-evaluation regressed: %.1fx < required %.1fx",
            ratio,
            args.min_ratio,
        )
        return 1
    return 0


def _run_dot(args: argparse.Namespace) -> int:
    demo = _build_demo(args.system, "intact")
    if args.what == "architecture":
        print(architecture_to_dot(demo.architecture))
    else:
        print(mapping_to_dot(demo.mapping, demo.scenarios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
