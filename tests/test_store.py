"""The one append-only JSONL store (``repro.obs.store``) behind
``runs.jsonl``, ``jobs.jsonl`` and ``audit.jsonl``: torn-tail recovery,
run ids minted under the append lock, and a row cache that decodes each
line once."""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path

import pytest

import repro.obs.runs as runs_module
from repro.errors import ReproError
from repro.obs import (
    AuditLog,
    JobManager,
    JobRecord,
    JobRegistry,
    Profile,
    RunRecord,
    RunRegistry,
)
from repro.obs.store import JsonlStore, short_digest


def _tear(path: Path) -> int:
    """Append the first half of the file's first line, without a
    newline: what a writer killed mid-append leaves behind. Returns
    the fragment's length in bytes."""
    line = path.read_bytes().split(b"\n", 1)[0]
    fragment = line[: len(line) // 2]
    with path.open("ab") as handle:
        handle.write(fragment)
    return len(fragment)


def _job(job_id: str, state: str = "queued", **fields) -> JobRecord:
    return JobRecord(job_id=job_id, tenant="acme", state=state, **fields)


def _audit(log: AuditLog, job_id: str, transition: str) -> None:
    log.append(
        timestamp=1.0, actor="dev", tenant="acme", job_id=job_id,
        transition=transition,
    )


def _ends_whole(path: Path) -> bool:
    """Every line of the file is valid JSON and ends in a newline."""
    text = path.read_text(encoding="utf-8")
    for line in text.splitlines():
        json.loads(line)
    return text.endswith("\n")


class TestTornTail:
    def test_runs_load_and_record_survive(
        self, tmp_path, recorded_evaluation, caplog
    ):
        report, recorder = recorded_evaluation
        writer = RunRegistry(tmp_path)
        writer.record("a", report, recorder, git_sha="x")
        writer.record("b", report, recorder, git_sha="x")
        torn = _tear(writer.path)
        registry = RunRegistry(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.obs.store"):
            assert [r.run_id for r in registry.load()] == ["r0001", "r0002"]
        assert str(registry.path) in caplog.text
        assert f"{torn} bytes" in caplog.text
        third = registry.record("c", report, recorder, git_sha="x")
        assert third.run_id == "r0003"
        assert [r.label for r in RunRegistry(tmp_path).load()] == [
            "a", "b", "c",
        ]
        assert _ends_whole(registry.path)

    def test_jobs_append_and_restart_survive(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.append(_job("j0001"))
        registry.append(_job("j0001", state="done", finished_at=1.0))
        registry.append(_job("j0002"))
        _tear(registry.path)
        JobRegistry(tmp_path).append(_job("j0003"))
        assert [
            (r.job_id, r.state) for r in JobRegistry(tmp_path).load()
        ] == [("j0001", "done"), ("j0002", "queued"), ("j0003", "queued")]
        # A restarted manager adopts the history and fails the orphans.
        manager = JobManager(
            registry=JobRegistry(tmp_path), executors=0, clock=lambda: 2.0
        )
        assert [(r.job_id, r.state) for r in manager.jobs()] == [
            ("j0001", "done"), ("j0002", "failed"), ("j0003", "failed"),
        ]
        assert [
            (r.job_id, r.state) for r in JobRegistry(tmp_path).load()
        ] == [("j0001", "done"), ("j0002", "failed"), ("j0003", "failed")]
        assert _ends_whole(registry.path)

    def test_audit_entries_survive(self, tmp_path):
        log = AuditLog(tmp_path)
        _audit(log, "j0001", "queued")
        _audit(log, "j0001", "queued->running")
        _tear(log.path)
        reader = AuditLog(tmp_path)
        assert [e["transition"] for e in reader.entries()] == [
            "queued", "queued->running",
        ]
        _audit(reader, "j0001", "running->done")
        assert [e["transition"] for e in AuditLog(tmp_path).entries()] == [
            "queued", "queued->running", "running->done",
        ]
        assert _ends_whole(log.path)

    def test_final_line_missing_only_its_newline_is_kept(self, tmp_path):
        store = JsonlStore(tmp_path / "rows.jsonl", dict)
        store.path.write_text('{"n": 1}\n{"n": 2}')
        assert [row["n"] for row in store.rows()] == [1, 2]
        JsonlStore(store.path, dict).append({"n": 3})
        assert store.path.read_text() == '{"n": 1}\n{"n": 2}\n{"n": 3}\n'

    def test_malformed_line_with_its_newline_stays_loud(self, tmp_path):
        store = JsonlStore(tmp_path / "rows.jsonl", dict)
        store.path.write_text('{"n": 1}\n{"n": \n{"n": 3}\n')
        with pytest.raises(ReproError, match=r"rows\.jsonl line 2"):
            store.rows()


class TestRunIdMinting:
    def test_concurrent_recorders_mint_distinct_ids(
        self, tmp_path, recorded_evaluation, monkeypatch
    ):
        """A second registry records between the first one's read of
        the history and its write. Minting under the append lock makes
        the second wait, then number past the first."""
        report, recorder = recorded_evaluation
        first, second = RunRegistry(tmp_path), RunRegistry(tmp_path)
        first.load()  # a warm cache, as in a serve daemon
        profiles = {
            "mine": Profile({("main", "mine"): 3}, hz=97.0),
            "theirs": Profile({("main", "theirs"): 5}, hz=97.0),
        }
        theirs: list = []
        other = threading.Thread(
            target=lambda: theirs.append(
                second.record(
                    "theirs", report, recorder, git_sha="x",
                    profile=profiles["theirs"],
                )
            )
        )
        mint = runs_module._next_run_number

        def mint_then_race(records):
            number = mint(records)
            if other.ident is None:
                other.start()
                other.join(timeout=0.3)
            return number

        monkeypatch.setattr(runs_module, "_next_run_number", mint_then_race)
        mine = first.record(
            "mine", report, recorder, git_sha="x", profile=profiles["mine"]
        )
        other.join(timeout=10)
        assert not other.is_alive()
        assert {mine.run_id, theirs[0].run_id} == {"r0001", "r0002"}
        assert sorted(r.label for r in first.load()) == ["mine", "theirs"]
        for record in (mine, theirs[0]):
            assert (
                first.load_profile(record.run_id).digest()
                == profiles[record.label].digest()
            )

    def test_a_long_history_numbers_on(self, tmp_path, recorded_evaluation):
        """Ids number on through a long history, a compacted one,
        another registry's append and a non-numeric run id."""
        report, recorder = recorded_evaluation

        def mint(registry):
            return registry.record("tick", report, recorder, git_sha="x").run_id

        registry = RunRegistry(tmp_path)
        ids = [mint(registry) for _ in range(1000)]
        assert ids == [f"r{number:04d}" for number in range(1, 1001)]
        assert registry.compact(keep=3) == {"kept": 3, "dropped": 997}
        assert mint(registry) == "r1001"
        other = RunRegistry(tmp_path)
        assert mint(other) == "r1002"
        line = json.loads(registry.path.read_text().splitlines()[-1])
        with registry.path.open("a") as handle:
            handle.write(json.dumps(dict(line, run_id="baseline")) + "\n")
        assert mint(registry) == "r1003"
        assert mint(other) == "r1004"

    def test_a_mint_scans_only_the_new_rows(
        self, tmp_path, recorded_evaluation, monkeypatch
    ):
        report, recorder = recorded_evaluation
        registry = RunRegistry(tmp_path)
        for _ in range(5):
            registry.record("tick", report, recorder, git_sha="x")
        scanned: list = []
        mint = runs_module._next_run_number

        def counting_mint(records):
            scanned.append(len(records))
            return mint(records)

        monkeypatch.setattr(runs_module, "_next_run_number", counting_mint)
        for _ in range(3):
            registry.record("tick", report, recorder, git_sha="x")
        assert scanned == [1, 1, 1]
        # A reloaded registry scans its history once.
        reloaded = RunRegistry(tmp_path)
        assert (
            reloaded.record("tick", report, recorder, git_sha="x").run_id
            == "r0009"
        )
        assert scanned[-1] == 8


class TestCostTableRace:
    def test_two_registries_recording_one_table_leave_one_valid_file(
        self, tmp_path, recorded_evaluation
    ):
        """Two registries on one directory record the same counter
        table from two threads: one sidecar, whole, and every record
        resolves through it."""
        report, recorder = recorded_evaluation
        registries = (RunRegistry(tmp_path), RunRegistry(tmp_path))
        errors: list = []

        def record(registry):
            try:
                for _ in range(8):
                    registry.record("tick", report, recorder, git_sha="x")
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=record, args=(registry,))
            for registry in registries
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        records = RunRegistry(tmp_path).load()
        assert len({record.run_id for record in records}) == 16
        (sidecar,) = (tmp_path / "costs").iterdir()
        assert sidecar.name == f"{records[0].costs['digest']}.json"
        assert short_digest(sidecar.read_text()) == sidecar.stem
        assert all(record.scenarios for record in records)


class TestDecodeOnce:
    ROUNDS = 6

    def test_run_record_then_load_decodes_each_line_once(
        self, tmp_path, recorded_evaluation, monkeypatch
    ):
        report, recorder = recorded_evaluation
        decoded: list = []
        original = RunRecord.from_dict.__func__

        def counting(cls, data, *tables):
            decoded.append(data["run_id"])
            return original(cls, data, *tables)

        monkeypatch.setattr(RunRecord, "from_dict", classmethod(counting))
        registry = RunRegistry(tmp_path)
        for _ in range(self.ROUNDS):
            registry.record("tick", report, recorder, git_sha="x")
            registry.load()
        ids = [record.run_id for record in registry.load()]
        assert len(ids) == self.ROUNDS
        assert decoded == ids

    def test_job_append_then_load_decodes_each_line_once(
        self, tmp_path, monkeypatch
    ):
        decoded: list = []
        original = JobRecord.from_dict.__func__

        def counting(cls, data):
            decoded.append(data["job_id"])
            return original(cls, data)

        monkeypatch.setattr(JobRecord, "from_dict", classmethod(counting))
        registry = JobRegistry(tmp_path)
        for number in range(1, self.ROUNDS + 1):
            registry.append(_job(f"j{number:04d}"))
            registry.load()
        ids = [record.job_id for record in registry.load()]
        assert len(ids) == self.ROUNDS
        assert decoded == ids
