"""Self-tests of the benchmark harness.

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks/harness
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402  (the harness entry point, imported as a module)

SPEC = run.load_spec()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    return completed, json.loads(out.read_text())["results"]


def test_smoke_prints_every_end_to_end_metric_with_its_unit(smoke):
    completed, results = smoke
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert [r["workload"] for r in results] == [
        w["name"] for w in SPEC["workloads"]
    ]
    printed = completed.stdout.splitlines()
    for result in results:
        assert result["correct"], result["failures"]
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0
        block = printed[printed.index(next(
            line for line in printed if line.startswith(f"== {result['workload']} ")
        )):]
        for metric in SPEC["end_to_end"]:
            assert any(
                line.split()[:1] == [metric["name"]]
                and line.split()[2] == metric["unit"]
                for line in block
            ), metric["name"]
    last = json.loads(printed[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_percentile_refuses_a_p90_below_100_samples():
    with pytest.raises(ValueError, match="100 samples"):
        run.percentile([float(v) for v in range(99)], 0.9)
    assert run.percentile([float(v) for v in range(100)], 0.9) == pytest.approx(
        89.1
    )
    assert run.percentile([float(v) for v in range(40)], 0.75) == pytest.approx(
        29.25
    )


BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([v * 1.3 for v in BASE], "lower", "worse"),
        ([v * 0.8 for v in BASE], "lower", "better"),
        ([v * 1.05 for v in BASE], "lower", "unchanged"),
        ([v * 0.8 for v in BASE], "higher", "worse"),
        ([v * 1.3 for v in BASE], "higher", "better"),
        ([0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 0.7, 1.3], "lower", "unresolved"),
    ],
)
def test_classify(change, better, expected):
    assert run.classify(BASE, change, better, 0.10) == expected


def test_wide_spread_is_better_only_when_every_run_is_better():
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 0.7, 1.3]
    assert run.classify(noisy, [v * 0.3 for v in noisy], "lower", 0.1) == "better"


def test_fail_ratio_compares_in_absolute_terms():
    clean = [0.0] * 10
    assert run.classify(clean, clean, "lower", 0.0, absolute=True) == "unchanged"
    assert (
        run.classify(clean, [0.1] * 10, "lower", 0.0, absolute=True) == "worse"
    )


def _result_files(path: Path, p50_values: list) -> list:
    """One result file per run, each holding one cli_800 result."""
    path.mkdir()
    files = []
    for index, value in enumerate(p50_values):
        file = path / f"run{index}.json"
        file.write_text(
            json.dumps(
                {
                    "results": [
                        {
                            "workload": "cli_800",
                            "metrics": {
                                "op_p50_s": {"value": value, "unit": "s"},
                                "fail_ratio": {"value": 0.0, "unit": "1"},
                            },
                        }
                    ]
                }
            )
        )
        files.append(str(file))
    return files


def test_compare_exits_1_on_a_regression(tmp_path, capsys):
    parent = _result_files(tmp_path / "parent", BASE)
    same = _result_files(tmp_path / "same", BASE)
    slower = _result_files(tmp_path / "slower", [v * 1.5 for v in BASE])
    assert run.compare(parent, same, SPEC) == 0
    assert "unchanged" in capsys.readouterr().out
    assert run.compare(parent, slower, SPEC) == 1
    assert "worse" in capsys.readouterr().out


def test_times_are_scaled_to_the_reference_host_speed(monkeypatch, tmp_path):
    import hostspeed

    # A host at half the reference speed: every time reads half its raw value.
    monkeypatch.setattr(
        hostspeed, "calibrate", lambda: 2 * hostspeed.REFERENCE_SECONDS
    )
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run_workload(
        "serve_pims_x40", 1, 0.0, False, True, tmp_path / "traces", SPEC
    )
    assert result["correct"], result["failures"]
    metrics, raw = result["metrics"], result["raw"]
    for name in ("setup_s", "op_p50_s", "op_p75_s", "cpu_s_per_op"):
        assert metrics[name]["value"] == pytest.approx(raw[name] / 2)
    assert metrics["ops_per_s"]["value"] == pytest.approx(raw["ops_per_s"] * 2)


def test_a_changed_verdict_is_caught_as_a_failure(monkeypatch, tmp_path):
    import repro.cli

    original = repro.cli.report_to_json

    def one_verdict_flipped(report, indent=2):
        data = json.loads(original(report, indent))
        verdict = data["scenario_verdicts"][0]
        verdict["passed"] = not verdict["passed"]
        return json.dumps(data, indent=indent)

    monkeypatch.setattr(repro.cli, "report_to_json", one_verdict_flipped)
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run_workload(
        "cli_800", 0, 0.0, False, True, tmp_path / "traces", SPEC
    )
    assert not result["correct"]
    assert result["metrics"]["fail_ratio"]["value"] == 1.0
    assert "report digest" in result["failures"][0]
    assert "!= expected 6782303847ff6204" in result["failures"][0]
