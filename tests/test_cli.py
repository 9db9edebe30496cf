"""Tests for the sosae command-line interface."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import read_events


class TestDemo:
    def test_pims_intact_exits_zero(self, capsys):
        assert main(["demo", "pims"]) == 0
        out = capsys.readouterr().out
        assert "overall: CONSISTENT" in out

    def test_pims_excised_exits_nonzero(self, capsys):
        assert main(["demo", "pims", "--variant", "excised"]) == 1
        out = capsys.readouterr().out
        assert "FAIL get-share-prices" in out

    def test_crash_intact(self, capsys):
        assert main(["demo", "crash"]) == 0

    def test_crash_insecure_flags_negative_scenario(self, capsys):
        assert main(["demo", "crash", "--variant", "insecure"]) == 1
        out = capsys.readouterr().out
        assert "unauthorized-network-access" in out

    def test_crash_dynamic(self, capsys):
        assert main(["demo", "crash", "--dynamic"]) == 0
        out = capsys.readouterr().out
        assert "PASS entity-availability" in out
        assert "PASS message-sequence" in out

    def test_markdown_output(self, capsys):
        assert main(["demo", "pims", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Evaluation of `pims`")

    def test_wrong_variant_for_system_errors(self, capsys):
        assert main(["demo", "pims", "--variant", "insecure"]) == 2
        assert main(["demo", "crash", "--variant", "excised"]) == 2


class TestTableAndExport:
    def test_table_pims(self, capsys):
        assert main(["table", "pims"]) == 0
        out = capsys.readouterr().out
        assert "authenticateUser" in out
        assert "Master Controller" in out

    def test_table_markdown(self, capsys):
        assert main(["table", "crash", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| event type")

    def test_export_scenarioml(self, capsys):
        assert main(["export", "pims", "scenarioml"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("<scenarioml")

    def test_export_xadl(self, capsys):
        assert main(["export", "crash", "xadl"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("<xArch")

    def test_export_acme(self, capsys):
        assert main(["export", "pims", "acme"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("System pims")

    def test_export_mapping(self, capsys):
        assert main(["export", "pims", "mapping"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "entries" in data

    def test_export_owl(self, capsys):
        assert main(["export", "crash", "owl"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("<rdf:RDF")
        assert "owl:Class" in out


class TestAnalysisCommands:
    def test_rank(self, capsys):
        assert main(["rank", "pims", "--top", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].lstrip().startswith("1.")

    def test_rank_crash_puts_dependability_first(self, capsys):
        assert main(["rank", "crash", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "entity-availability" in out or "message-sequence" in out

    def test_implied(self, capsys):
        assert main(["implied", "pims", "--max-length", "3", "--limit", "4"]) == 0
        out = capsys.readouterr().out
        assert "implied scenario" in out
        assert "stitched from" in out

    def test_implied_closed_specification(self, capsys):
        # CRASH's scenarios share no stitchable hand-offs at length 2.
        assert main(["implied", "crash", "--max-length", "2"]) == 0
        out = capsys.readouterr().out
        assert out  # either closed or candidates; command succeeds

    def test_dot_architecture(self, capsys):
        assert main(["dot", "pims"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('graph "pims"')

    def test_dot_mapping(self, capsys):
        assert main(["dot", "crash", "--what", "mapping"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "crash-fig8"')

    def test_lint(self, capsys):
        assert main(["lint", "pims"]) == 0
        out = capsys.readouterr().out
        assert "finding(s) (advisory)" in out or "no lint findings" in out


class TestEvaluateFromFiles:
    @pytest.fixture
    def artifact_files(self, tmp_path: Path, capsys) -> dict[str, Path]:
        paths = {}
        for artifact, filename in (
            ("scenarioml", "scenarios.xml"),
            ("xadl", "architecture.xml"),
            ("acme", "architecture.acme"),
            ("mapping", "mapping.json"),
        ):
            assert main(["export", "pims", artifact]) == 0
            content = capsys.readouterr().out
            path = tmp_path / filename
            path.write_text(content)
            paths[artifact] = path
        return paths

    def test_evaluate_xadl_inputs(self, artifact_files, capsys):
        status = main(
            [
                "evaluate",
                "--scenarios", str(artifact_files["scenarioml"]),
                "--architecture", str(artifact_files["xadl"]),
                "--mapping", str(artifact_files["mapping"]),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0, out
        assert "overall: CONSISTENT" in out

    def test_evaluate_acme_inputs(self, artifact_files, capsys):
        status = main(
            [
                "evaluate",
                "--scenarios", str(artifact_files["scenarioml"]),
                "--architecture", str(artifact_files["acme"]),
                "--mapping", str(artifact_files["mapping"]),
                "--acme",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0, out

    def test_evaluate_missing_file_is_usage_error(self, tmp_path, capsys):
        status = main(
            [
                "evaluate",
                "--scenarios", str(tmp_path / "missing.xml"),
                "--architecture", str(tmp_path / "missing2.xml"),
                "--mapping", str(tmp_path / "missing.json"),
            ]
        )
        assert status == 2

    def test_evaluate_malformed_scenarioml_is_usage_error(
        self, tmp_path, artifact_files, capsys
    ):
        bad = tmp_path / "bad.xml"
        bad.write_text("<not-scenarioml/>")
        status = main(
            [
                "evaluate",
                "--scenarios", str(bad),
                "--architecture", str(artifact_files["xadl"]),
                "--mapping", str(artifact_files["mapping"]),
            ]
        )
        assert status == 2

    def test_evaluate_save_and_baseline_roundtrip(
        self, tmp_path, artifact_files, capsys
    ):
        saved = tmp_path / "report.json"
        base_args = [
            "evaluate",
            "--scenarios", str(artifact_files["scenarioml"]),
            "--architecture", str(artifact_files["xadl"]),
            "--mapping", str(artifact_files["mapping"]),
        ]
        assert main([*base_args, "--save-report", str(saved)]) == 0
        assert saved.exists()
        capsys.readouterr()
        # Comparing the same inputs against the saved baseline: clean.
        assert main([*base_args, "--baseline", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "no verdict changes" in out


class TestObservabilityFlags:
    def test_profile_prints_summary_after_identical_report(self, capsys):
        assert main(["demo", "pims"]) == 0
        plain = capsys.readouterr().out
        assert main(["demo", "pims", "--profile"]) == 0
        profiled = capsys.readouterr().out
        # Observability must not change the report text, only append to it.
        assert profiled.startswith(plain)
        extra = profiled[len(plain):]
        assert "=== profile ===" in extra
        for stage in (
            "evaluate.validation",
            "evaluate.style_check",
            "evaluate.coverage",
            "evaluate.constraints",
            "evaluate.walkthrough",
        ):
            assert stage in extra
        assert "metrics:" in extra

    def test_trace_and_metrics_files(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        status = main(
            [
                "demo", "pims",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert status == 0
        document = json.loads(trace.read_text())
        events = document["traceEvents"]
        assert {event["ph"] for event in events} == {"M", "X"}
        assert any(event["name"] == "evaluate" for event in events)
        snapshot = json.loads(metrics.read_text())
        assert snapshot["walkthrough.steps"]["value"] > 0
        assert snapshot["index.hits"]["value"] > 0

    def test_exit_code_unchanged_on_inconsistent_variant(self, capsys):
        assert main(["demo", "pims", "--variant", "excised"]) == 1
        plain = capsys.readouterr().out
        assert main(["demo", "pims", "--variant", "excised", "--profile"]) == 1
        profiled = capsys.readouterr().out
        assert profiled.startswith(plain)
        assert "=== profile ===" in profiled

    def test_evaluate_subcommand_accepts_the_flags(
        self, tmp_path, capsys
    ):
        assert main(["export", "pims", "scenarioml"]) == 0
        scenarios = tmp_path / "scenarios.xml"
        scenarios.write_text(capsys.readouterr().out)
        assert main(["export", "pims", "xadl"]) == 0
        architecture = tmp_path / "architecture.xml"
        architecture.write_text(capsys.readouterr().out)
        assert main(["export", "pims", "mapping"]) == 0
        mapping = tmp_path / "mapping.json"
        mapping.write_text(capsys.readouterr().out)

        metrics = tmp_path / "metrics.json"
        status = main(
            [
                "evaluate",
                "--scenarios", str(scenarios),
                "--architecture", str(architecture),
                "--mapping", str(mapping),
                "--profile",
                "--metrics-out", str(metrics),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "=== profile ===" in out
        assert json.loads(metrics.read_text())["walkthrough.traces"]["value"] > 0


class TestEventStreamFlags:
    def test_events_file_is_a_parseable_stream(self, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        assert main(["demo", "pims", "--events", str(stream)]) == 0
        events = read_events(stream)
        kinds = [event.kind for event in events]
        assert kinds[0] == "evaluation-started"
        assert kinds[-1] == "evaluation-finished"
        assert "stage-started" in kinds and "scenario-finished" in kinds
        # Sequence numbers are contiguous from 1.
        assert [event.seq for event in events] == list(
            range(1, len(events) + 1)
        )

    def test_heartbeat_requires_events(self, capsys):
        assert main(["demo", "pims", "--heartbeat", "5"]) == 2
        assert "--heartbeat" in capsys.readouterr().err

    def test_heartbeats_carry_metric_snapshots(self, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        assert main(
            ["demo", "pims", "--events", str(stream),
             "--heartbeat", "0.000001"]
        ) == 0
        beats = [e for e in read_events(stream) if e.kind == "heartbeat"]
        assert beats
        assert beats[-1].metrics.get("walkthrough.steps", {}).get("value")

    def test_exit_code_unchanged_with_event_stream(self, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        assert main(
            ["demo", "pims", "--variant", "excised", "--events", str(stream)]
        ) == 1
        events = read_events(stream)
        assert any(event.kind == "finding-emitted" for event in events)
        finished = events[-1]
        assert finished.kind == "evaluation-finished"
        assert not finished.consistent

    def test_record_emits_run_recorded_into_the_stream(
        self, tmp_path, capsys
    ):
        stream = tmp_path / "events.jsonl"
        assert main(
            ["demo", "pims", "--events", str(stream),
             "--record", "--runs-dir", str(tmp_path / "runs")]
        ) == 0
        recorded = [
            event for event in read_events(stream)
            if event.kind == "run-recorded"
        ]
        assert [event.run_id for event in recorded] == ["r0001"]

    def test_save_report_round_trips(self, tmp_path, capsys):
        saved = tmp_path / "report.json"
        assert main(["demo", "pims", "--save-report", str(saved)]) == 0
        data = json.loads(saved.read_text())
        assert data["architecture"]


class TestTailAndDashboard:
    @pytest.fixture
    def event_stream(self, tmp_path, capsys) -> Path:
        stream = tmp_path / "events.jsonl"
        assert main(["demo", "pims", "--events", str(stream)]) == 0
        capsys.readouterr()
        return stream

    def test_tail_pretty_prints_every_event(self, event_stream, capsys):
        assert main(["tail", str(event_stream), "--no-color"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == len(read_events(event_stream))
        assert "evaluation-started" in out
        assert "evaluation-finished" in out
        assert "\x1b[" not in out

    def test_tail_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dashboard_from_stream_and_trace(
        self, tmp_path, event_stream, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main(["demo", "pims", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        out = tmp_path / "dash.html"
        status = main(
            ["dashboard", "--out", str(out),
             "--events", str(event_stream),
             "--trace", str(trace),
             "--runs-dir", str(tmp_path / "no-runs")]
        )
        assert status == 0
        assert str(out) in capsys.readouterr().out
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "http://" not in html and "https://" not in html
        assert "evaluation-finished" in html
        assert "evaluate.walkthrough" in html

    def test_dashboard_with_no_inputs_is_usage_error(self, tmp_path, capsys):
        status = main(
            ["dashboard", "--out", str(tmp_path / "d.html"),
             "--runs-dir", str(tmp_path / "empty")]
        )
        assert status == 2
        assert "nothing to render" in capsys.readouterr().err

    def test_dashboard_rejects_events_and_live_together(
        self, tmp_path, event_stream, capsys
    ):
        status = main(
            ["dashboard", "--out", str(tmp_path / "d.html"),
             "--events", str(event_stream),
             "--live", "http://127.0.0.1:1/events"]
        )
        assert status == 2
        assert "not both" in capsys.readouterr().err

    def test_tail_follow_bounded_by_max_events(self, event_stream, capsys):
        status = main(
            ["tail", str(event_stream), "--follow", "--no-color",
             "--poll", "0.01", "--max-events", "3"]
        )
        assert status == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert "evaluation-started" in lines[0]

    def test_tail_follow_rejects_stdin(self, capsys):
        assert main(["tail", "-", "--follow"]) == 2
        assert "not stdin" in capsys.readouterr().err


class TestServe:
    def _rules_file(self, tmp_path, threshold=0):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [{
            "name": "no-findings",
            "metric": "report.findings",
            "op": ">",
            "threshold": threshold,
            "severity": "critical",
        }]}))
        return rules

    def test_once_on_intact_demo(self, capsys):
        assert main(["serve", "--system", "pims", "--once"]) == 0
        out = capsys.readouterr().out
        assert "serve --once: CONSISTENT, 0 finding(s)" in out
        assert "0 alert(s) fired" in out

    def test_once_check_exits_one_when_a_rule_fires(
        self, tmp_path, capsys
    ):
        rules = self._rules_file(tmp_path)
        events = tmp_path / "serve-events.jsonl"
        status = main(
            ["serve", "--system", "pims", "--variant", "excised",
             "--once", "--check", "--rules", str(rules),
             "--events", str(events)]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "INCONSISTENT" in out
        assert "ALERT no-findings" in out
        kinds = [event.kind for event in read_events(events)]
        assert "alert-fired" in kinds
        assert "evaluation-finished" in kinds

    def test_once_check_passes_quiet_rules(self, tmp_path, capsys):
        rules = self._rules_file(tmp_path, threshold=1000)
        status = main(
            ["serve", "--system", "pims", "--variant", "excised",
             "--once", "--check", "--rules", str(rules)]
        )
        assert status == 0

    def test_check_without_once_is_usage_error(self, capsys):
        assert main(["serve", "--system", "pims", "--check"]) == 2
        assert "--once" in capsys.readouterr().err

    def test_system_and_spec_files_conflict(self, tmp_path, capsys):
        assert main(
            ["serve", "--system", "pims",
             "--scenarios", str(tmp_path / "s.xml"), "--once"]
        ) == 2
        assert "not both" in capsys.readouterr().err

    def test_partial_spec_files_are_rejected(self, tmp_path, capsys):
        assert main(
            ["serve", "--scenarios", str(tmp_path / "s.xml"), "--once"]
        ) == 2
        assert "--mapping" in capsys.readouterr().err

    def test_bad_rules_file_is_usage_error(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text("{}")
        assert main(
            ["serve", "--system", "pims", "--once",
             "--rules", str(rules)]
        ) == 2
        assert "rules" in capsys.readouterr().err

    def test_once_records_into_the_registry(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        status = main(
            ["serve", "--system", "pims", "--once", "--record",
             "--runs-dir", str(runs_dir)]
        )
        assert status == 0
        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "serve-pims-intact" in out

    def test_serve_loop_with_max_runs_answers_http(self, tmp_path, capsys):
        import threading
        import urllib.request

        events = tmp_path / "events.jsonl"
        status_box = {}

        def run():
            status_box["status"] = main(
                ["serve", "--system", "pims", "--port", "0",
                 "--interval", "0.2", "--poll", "0.05",
                 "--max-runs", "50", "--events", str(events),
                 "--flush-every", "1"]
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        # The CLI picks a free port; recover it from the banner line.
        deadline = time.monotonic() + 30
        url = None
        while time.monotonic() < deadline and url is None:
            out = capsys.readouterr().out
            for token in out.split():
                if token.startswith("http://"):
                    url = token
            time.sleep(0.05)
        assert url is not None, "serve never printed its URL"
        with urllib.request.urlopen(f"{url}/metrics", timeout=10) as resp:
            body = resp.read().decode("utf-8")
        assert "sosae_serve_up 1" in body
        assert 'quantile="0.95"' in body
        with urllib.request.urlopen(f"{url}/healthz", timeout=10) as resp:
            health = json.loads(resp.read())
        assert health["status"] == "ok"
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert status_box["status"] == 0
        assert events.exists()


class TestExplain:
    def test_list_shows_ids_for_every_finding(self, capsys):
        assert main(
            ["explain", "--system", "pims", "--variant", "excised", "--list"]
        ) == 0
        out = capsys.readouterr().out
        assert "missing-link" in out
        assert "constraint-violation" in out

    def test_omitted_id_also_lists(self, capsys):
        assert main(["explain", "--system", "pims", "--variant", "excised"]) == 0
        assert "missing-link" in capsys.readouterr().out

    def test_explain_by_id_prefix_renders_the_chain(self, capsys):
        assert main(
            ["explain", "--system", "pims", "--variant", "excised", "--list"]
        ) == 0
        first_id = capsys.readouterr().out.split()[0]
        assert main(
            ["explain", first_id[:6], "--system", "pims",
             "--variant", "excised"]
        ) == 0
        out = capsys.readouterr().out
        assert f"finding {first_id}" in out
        assert "causal chain:" in out
        assert "conclusion:" in out

    def test_unknown_id_is_a_usage_error(self, capsys):
        assert main(
            ["explain", "zzzzzzzz", "--system", "pims",
             "--variant", "excised"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_file_source(self, tmp_path, capsys):
        assert main(
            ["explain", "--system", "pims", "--variant", "excised", "--list"]
        ) == 0
        listed = capsys.readouterr().out
        # Round-trip through a saved report: same ids, same explanations.
        from repro.cli import _build_demo
        from repro.core.evaluator import Sosae
        from repro.core.report_io import report_to_json

        demo = _build_demo("pims", "excised")
        report = Sosae(
            demo.scenarios, demo.architecture, demo.mapping,
            bindings=demo.bindings, constraints=demo.constraints,
            walkthrough_options=demo.options,
            runtime_config=demo.runtime_config,
        ).evaluate()
        report_path = tmp_path / "report.json"
        report_path.write_text(report_to_json(report))
        assert main(["explain", "--report", str(report_path), "--list"]) == 0
        assert capsys.readouterr().out == listed

    def test_both_sources_is_an_error(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        report_path.write_text("{}")
        assert main(
            ["explain", "--report", str(report_path), "--system", "pims"]
        ) == 2

    def test_no_source_is_an_error(self, capsys):
        assert main(["explain"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRuns:
    def _record_demo(self, runs_dir, variant="intact"):
        return main(
            ["demo", "pims", "--variant", variant,
             "--record", "--runs-dir", str(runs_dir)]
        )

    def test_record_list_diff_roundtrip(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._record_demo(runs_dir) == 0
        assert self._record_demo(runs_dir) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        listing = capsys.readouterr().out
        assert "r0001" in listing and "r0002" in listing
        assert "demo-pims-intact" in listing
        assert main(
            ["runs", "diff", "previous", "latest",
             "--runs-dir", str(runs_dir)]
        ) == 0
        diffed = capsys.readouterr().out
        assert "report digest: unchanged" in diffed
        assert "no regressions" in diffed
        assert "index.hits" in diffed

    def test_diff_flags_regression_with_nonzero_exit(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._record_demo(runs_dir) == 0
        # The excised variant walks into dead ends: misses and
        # missing-link counters rise, which a diff must flag.
        assert self._record_demo(runs_dir, variant="excised") == 1
        capsys.readouterr()
        assert main(
            ["runs", "diff", "r0001", "r0002", "--runs-dir", str(runs_dir)]
        ) == 1
        out = capsys.readouterr().out
        assert "<< regression" in out

    def test_diff_missing_run_is_usage_error(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._record_demo(runs_dir) == 0
        capsys.readouterr()
        assert main(
            ["runs", "diff", "r0001", "r0099", "--runs-dir", str(runs_dir)]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_empty_registry(self, tmp_path, capsys):
        assert main(["runs", "list", "--runs-dir", str(tmp_path / "no")]) == 0
        assert "no runs recorded" in capsys.readouterr().out


class TestVerbosityFlags:
    def test_verbose_logs_recording_to_stderr(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert main(
            ["-v", "demo", "pims", "--record", "--runs-dir", str(runs_dir)]
        ) == 0
        err = capsys.readouterr().err
        assert "recorded run r0001" in err

    def test_default_is_silent_on_stderr(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert main(
            ["demo", "pims", "--record", "--runs-dir", str(runs_dir)]
        ) == 0
        assert capsys.readouterr().err == ""

    def test_quiet_still_shows_errors(self, capsys):
        assert main(["--quiet", "demo", "pims", "--variant", "insecure"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_errors_go_through_the_logger(self, capsys):
        assert main(["demo", "pims", "--variant", "insecure"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "insecure variant belongs to the crash demo" in err


class TestFollowRotation:
    """``sosae tail --follow`` across truncation and rotation."""

    def _drain(self, path, count):
        from repro.cli import _follow_lines

        return list(_follow_lines(Path(path), poll=0.01, max_lines=count))

    def test_truncation_reopens_from_the_start(self, tmp_path):
        from repro.cli import _follow_lines

        stream = tmp_path / "events.jsonl"
        stream.write_text("one\ntwo\nthree\n")
        follow = _follow_lines(stream, poll=0.01, max_lines=5)
        assert [next(follow) for _ in range(3)] == ["one", "two", "three"]
        # A writer truncates and starts over: the follower must notice
        # the size shrink and reopen instead of waiting forever.
        stream.write_text("fresh\nstart\n")
        assert [next(follow) for _ in range(2)] == ["fresh", "start"]

    def test_rotation_reopens_the_new_file(self, tmp_path):
        import os

        from repro.cli import _follow_lines

        stream = tmp_path / "events.jsonl"
        stream.write_text("old-a\nold-b\n")
        follow = _follow_lines(stream, poll=0.01, max_lines=4)
        assert [next(follow) for _ in range(2)] == ["old-a", "old-b"]
        # Log rotation: the path now names a different inode.
        replacement = tmp_path / "events.jsonl.new"
        replacement.write_text("new-a\nnew-b\n")
        os.replace(replacement, stream)
        assert [next(follow) for _ in range(2)] == ["new-a", "new-b"]

    def test_plain_append_still_streams(self, tmp_path):
        from repro.cli import _follow_lines

        stream = tmp_path / "events.jsonl"
        stream.write_text("a\n")
        follow = _follow_lines(stream, poll=0.01, max_lines=2)
        assert next(follow) == "a"
        with stream.open("a") as handle:
            handle.write("b\n")
        assert next(follow) == "b"


class TestWorkersFlag:
    def test_demo_workers_matches_single_process_output(self, capsys):
        assert main(["demo", "pims"]) == 0
        single = capsys.readouterr().out
        assert main(["demo", "pims", "--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        assert sharded == single

    def test_demo_workers_dynamic_matches_single_process_output(
        self, capsys
    ):
        # The dynamic stage runs in the parent after the sharded walk.
        assert main(["demo", "pims", "--dynamic"]) == 0
        single = capsys.readouterr().out
        assert "dynamic execution:" in single
        assert main(["demo", "pims", "--dynamic", "--workers", "2"]) == 0
        assert capsys.readouterr().out == single

    def test_evaluate_workers_from_spec_files(self, tmp_path, capsys):
        scenarios = tmp_path / "s.xml"
        architecture = tmp_path / "a.xml"
        mapping = tmp_path / "m.json"
        for flag, path in (
            ("scenarioml", scenarios),
            ("xadl", architecture),
            ("mapping", mapping),
        ):
            assert main(["export", "pims", flag]) == 0
            path.write_text(capsys.readouterr().out)
        status = main(
            ["evaluate", "--scenarios", str(scenarios),
             "--architecture", str(architecture),
             "--mapping", str(mapping), "--workers", "2"]
        )
        assert status == 0
        assert "CONSISTENT" in capsys.readouterr().out


class TestRunsAttribute:
    def test_attributes_between_recorded_runs(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "runs")
        for _ in range(2):
            assert main(
                ["demo", "pims", "--record", "--runs-dir", runs_dir]
            ) == 0
        capsys.readouterr()
        status = main(
            ["runs", "attribute", "r0001", "r0002", "--runs-dir", runs_dir]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "cost attribution: r0001" in out
        assert "scenario" in out and "cause" in out

    def test_top_limits_scenario_rows(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "runs")
        for _ in range(2):
            assert main(
                ["demo", "pims", "--record", "--runs-dir", runs_dir]
            ) == 0
        capsys.readouterr()
        assert main(
            ["runs", "attribute", "r0001", "r0002",
             "--runs-dir", runs_dir, "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        header = next(
            index for index, line in enumerate(out.splitlines())
            if line.startswith("scenario")
        )
        scenario_rows = []
        for line in out.splitlines()[header + 1:]:
            if not line.strip():
                break
            scenario_rows.append(line)
        assert len(scenario_rows) == 3

    def test_unknown_run_is_usage_error(self, tmp_path, capsys):
        assert main(
            ["runs", "attribute", "r0001", "r0002",
             "--runs-dir", str(tmp_path / "none")]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestProfileCommands:
    def _profiled_demo(self, runs_dir, variant="intact", hz="2000"):
        return main(
            ["demo", "pims", "--variant", variant, "--profile-hz", hz,
             "--record", "--runs-dir", str(runs_dir)]
        )

    def test_profile_hz_prints_a_sampled_profile(self, capsys):
        assert main(["demo", "pims", "--profile-hz", "2000"]) == 0
        out = capsys.readouterr().out
        assert "=== sampled profile ===" in out

    def test_record_persists_the_folded_artifact(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._profiled_demo(runs_dir) == 0
        artifact = runs_dir / "profiles" / "r0001.folded"
        assert artifact.exists()
        assert artifact.read_text().startswith("# sosae-profile format=1 ")

    def test_show_renders_hot_frames(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._profiled_demo(runs_dir) == 0
        capsys.readouterr()
        assert main(
            ["profile", "show", "latest", "--runs-dir", str(runs_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "self%" in out

    def test_show_reads_a_folded_file_directly(self, tmp_path, capsys):
        folded = tmp_path / "p.folded"
        folded.write_text("main;work 10\nmain;idle 2\n")
        assert main(["profile", "show", str(folded)]) == 0
        out = capsys.readouterr().out
        assert "work" in out

    def test_diff_between_recorded_runs(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._profiled_demo(runs_dir) == 0
        assert self._profiled_demo(runs_dir) == 0
        capsys.readouterr()
        assert main(
            ["profile", "diff", "previous", "latest",
             "--runs-dir", str(runs_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "profile diff:" in out

    def test_diff_against_unprofiled_run_is_usage_error(
        self, tmp_path, capsys
    ):
        runs_dir = tmp_path / "runs"
        assert main(
            ["demo", "pims", "--record", "--runs-dir", str(runs_dir)]
        ) == 0
        assert self._profiled_demo(runs_dir) == 0
        capsys.readouterr()
        assert main(
            ["profile", "diff", "r0001", "r0002",
             "--runs-dir", str(runs_dir)]
        ) == 2
        assert "no recorded profile" in capsys.readouterr().err

    def test_dashboard_accepts_profile_flags(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._profiled_demo(runs_dir) == 0
        assert self._profiled_demo(runs_dir) == 0
        capsys.readouterr()
        out_html = tmp_path / "dash.html"
        assert main(
            ["dashboard",
             "--profile-before", "r0001", "--profile-after", "r0002",
             "--runs-dir", str(runs_dir), "--out", str(out_html)]
        ) == 0
        assert "Differential profile" in out_html.read_text()

    def test_dashboard_autodetects_profiled_runs(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._profiled_demo(runs_dir) == 0
        assert self._profiled_demo(runs_dir) == 0
        capsys.readouterr()
        out_html = tmp_path / "dash.html"
        assert main(
            ["dashboard", "--runs-dir", str(runs_dir),
             "--out", str(out_html)]
        ) == 0
        html = out_html.read_text()
        assert "Differential profile" in html


class TestRunsBisect:
    def _record(self, runs_dir, variant="intact"):
        return main(
            ["demo", "pims", "--variant", variant,
             "--record", "--runs-dir", str(runs_dir)]
        )

    def test_names_the_step_run_and_exits_one(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        for _ in range(4):
            assert self._record(runs_dir) == 0
        for _ in range(2):
            assert self._record(runs_dir, variant="excised") == 1
        capsys.readouterr()
        assert main(
            ["runs", "bisect", "findings",
             "--runs-dir", str(runs_dir), "--window", "3"]
        ) == 1
        out = capsys.readouterr().out
        assert "stepped at r0005" in out
        assert "<< step" in out

    def test_clean_history_exits_zero(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        for _ in range(5):
            assert self._record(runs_dir) == 0
        capsys.readouterr()
        assert main(
            ["runs", "bisect", "findings",
             "--runs-dir", str(runs_dir), "--window", "3"]
        ) == 0
        assert "no step" in capsys.readouterr().out

    def test_unknown_metric_is_usage_error(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        for _ in range(5):
            assert self._record(runs_dir) == 0
        capsys.readouterr()
        assert main(
            ["runs", "bisect", "not-a-metric",
             "--runs-dir", str(runs_dir), "--window", "3"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestTailFilters:
    @pytest.fixture
    def noisy_stream(self, tmp_path, capsys) -> Path:
        """An event stream containing warnings (failed scenario +
        findings) alongside the usual info chatter."""
        stream = tmp_path / "events.jsonl"
        assert main(
            ["demo", "crash", "--variant", "insecure",
             "--events", str(stream)]
        ) == 1
        capsys.readouterr()
        return stream

    def test_severity_floor_drops_info_chatter(self, noisy_stream, capsys):
        assert main(
            ["tail", str(noisy_stream), "--no-color",
             "--severity", "warning"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines, "warnings expected from the insecure variant"
        # info-level chatter is gone; only warning-grade kinds remain
        assert not any("scenario-started" in line for line in lines)
        assert not any("stage-" in line for line in lines)
        assert any("finding-emitted" in line for line in lines)
        assert len(lines) < len(read_events(noisy_stream))

    def test_type_glob_narrows_to_matching_kinds(
        self, noisy_stream, capsys
    ):
        assert main(
            ["tail", str(noisy_stream), "--no-color",
             "--type", "scenario-*"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(
            "scenario-started" in line or "scenario-finished" in line
            for line in lines
        )

    def test_severity_and_type_compose_as_and(self, noisy_stream, capsys):
        assert main(
            ["tail", str(noisy_stream), "--no-color",
             "--severity", "warning", "--type", "scenario-finished"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        # only the *failed* scenario-finished events clear the floor
        assert all("scenario-finished" in line for line in lines)
        assert all("FAIL" in line for line in lines)

    def test_filters_apply_in_follow_mode(self, noisy_stream, capsys):
        status = main(
            ["tail", str(noisy_stream), "--follow", "--no-color",
             "--poll", "0.01", "--max-events", "2",
             "--type", "scenario-finished"]
        )
        assert status == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("scenario-finished" in line for line in lines)

    def test_unfiltered_output_is_unchanged(self, noisy_stream, capsys):
        assert main(["tail", str(noisy_stream), "--no-color"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(read_events(noisy_stream))


class TestJobsCli:
    @pytest.fixture
    def spec_files(self, tmp_path, capsys):
        """Spec files exported through the CLI itself."""
        paths = {}
        for key, argv in (
            ("scenarios", ["export", "pims", "scenarioml"]),
            ("architecture", ["export", "pims", "xadl"]),
            ("mapping", ["export", "pims", "mapping"]),
        ):
            assert main(argv) == 0
            path = tmp_path / f"{key}.spec"
            path.write_text(capsys.readouterr().out)
            paths[key] = path
        return paths

    @pytest.fixture
    def job_server(self, tmp_path):
        from repro.obs import RunRegistry, ServeDaemon
        from repro.systems.pims import build_pims
        from repro.core.evaluator import Sosae

        pims = build_pims()
        daemon = ServeDaemon(
            lambda: Sosae(pims.scenarios, pims.architecture, pims.mapping),
            registry=RunRegistry(tmp_path / "server-runs"),
            jobs=True,
            tenant_quota=2,
            job_executors=1,
        )
        host, port = daemon.start_http()
        yield daemon, f"http://{host}:{port}"
        daemon.shutdown()

    def test_submit_wait_round_trip(
        self, job_server, spec_files, tmp_path, capsys
    ):
        _, base = job_server
        report_path = tmp_path / "report.json"
        status = main(
            ["jobs", "submit", "--url", base, "--tenant", "acme",
             "--label", "cli-test", "--actor", "tester",
             "--scenarios", str(spec_files["scenarios"]),
             "--architecture", str(spec_files["architecture"]),
             "--mapping", str(spec_files["mapping"]),
             "--wait", "--report", str(report_path)]
        )
        out = capsys.readouterr().out
        assert status == 0, out
        assert "submitted j0001" in out
        assert "done" in out
        report = json.loads(report_path.read_text())
        assert report["architecture"]

    def test_status_and_list_over_http(
        self, job_server, spec_files, capsys
    ):
        daemon, base = job_server
        assert main(
            ["jobs", "submit", "--url", base, "--tenant", "beta",
             "--scenarios", str(spec_files["scenarios"]),
             "--architecture", str(spec_files["architecture"]),
             "--mapping", str(spec_files["mapping"]), "--wait"]
        ) == 0
        capsys.readouterr()
        assert main(["jobs", "status", "j0001", "--url", base]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["state"] == "done"
        assert main(["jobs", "list", "--url", base, "--tenant", "beta"]) == 0
        out = capsys.readouterr().out
        assert "j0001" in out and "beta" in out

    def test_list_offline_reads_the_registry(self, tmp_path, capsys):
        from repro.obs import JobRecord, JobRegistry

        registry = JobRegistry(tmp_path)
        registry.append(
            JobRecord(job_id="j0001", tenant="acme", state="done",
                      run_id="r0001")
        )
        registry.append(
            JobRecord(job_id="j0002", tenant="beta", state="queued")
        )
        assert main(["jobs", "list", "--jobs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "j0001" in out and "j0002" in out
        assert main(
            ["jobs", "list", "--jobs-dir", str(tmp_path),
             "--tenant", "acme"]
        ) == 0
        out = capsys.readouterr().out
        assert "j0001" in out and "j0002" not in out

    def test_runs_list_scopes_by_tenant(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert main(
            ["demo", "pims", "--record", "--runs-dir", str(runs_dir)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["runs", "list", "--runs-dir", str(runs_dir),
             "--tenant", "ghost"]
        ) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_dashboard_tenant_view(self, tmp_path, capsys):
        from repro.obs import JobRecord, JobRegistry

        registry = JobRegistry(tmp_path / "jobs")
        registry.append(
            JobRecord(job_id="j0001", tenant="acme", state="done",
                      submitted_at=1.0, finished_at=2.0,
                      wall_seconds=0.5)
        )
        out_path = tmp_path / "tenant.html"
        status = main(
            ["dashboard", "--out", str(out_path),
             "--runs-dir", str(tmp_path / "no-runs"),
             "--jobs-dir", str(tmp_path / "jobs"),
             "--tenant", "acme"]
        )
        assert status == 0
        html = out_path.read_text()
        assert "Tenant jobs" in html
        assert "j0001" in html
        assert "tenant acme" in html
