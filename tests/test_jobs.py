"""Tests for the multi-tenant job API engine (``repro.obs.jobs``)."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.adl.xadl import to_xadl_xml
from repro.errors import ReproError
from repro.obs import (
    AuditLog,
    EventBus,
    JobManager,
    JobRecord,
    JobRegistry,
    RunRegistry,
    ServeDaemon,
    build_bundle_sosae,
    render_job_list,
    spec_bundle_digest,
    tenant_samples,
    validate_bundle,
)
from repro.core.evaluator import Sosae
from repro.obs.serve import MAX_JOB_BODY_BYTES
from repro.scenarioml.xml_io import to_scenarioml_xml


def _append_during_compaction(monkeypatch, append, compact) -> None:
    """Run ``compact()`` and, between its read and its rename, start
    ``append()`` on another thread. An append that honors the registry
    lock waits for the rename; one that does not lands first and is
    overwritten."""
    appender = threading.Thread(target=append)
    rename = Path.replace

    def replace_after_append(self, target):
        appender.start()
        appender.join(timeout=0.3)
        return rename(self, target)

    monkeypatch.setattr(Path, "replace", replace_after_append)
    compact()
    monkeypatch.setattr(Path, "replace", rename)
    appender.join(timeout=10)
    assert not appender.is_alive()


@pytest.fixture
def bundle(small_scenarios, chain_architecture, chain_mapping):
    return {
        "scenarioml": to_scenarioml_xml(small_scenarios),
        "xadl": to_xadl_xml(chain_architecture),
        "mapping": chain_mapping.to_json(),
    }


@pytest.fixture
def manager(tmp_path, bundle):
    """An inline (executors=0) manager over temp registries."""
    bus = EventBus()
    mgr = JobManager(
        registry=JobRegistry(tmp_path),
        audit=AuditLog(tmp_path),
        run_registry=RunRegistry(tmp_path),
        bus=bus,
        executors=0,
    )
    mgr.test_bus = bus  # the tests read emitted events back
    return mgr


class TestBundle:
    def test_valid_bundle_passes(self, bundle):
        assert validate_bundle(bundle) is bundle

    def test_non_object_is_rejected(self):
        with pytest.raises(ReproError, match="JSON object"):
            validate_bundle(["not", "a", "bundle"])

    def test_missing_pieces_are_named(self, bundle):
        for key in ("scenarioml", "mapping"):
            broken = dict(bundle)
            del broken[key]
            with pytest.raises(ReproError, match=key):
                validate_bundle(broken)
        no_arch = dict(bundle)
        del no_arch["xadl"]
        with pytest.raises(ReproError, match="architecture"):
            validate_bundle(no_arch)

    def test_both_architectures_are_rejected(self, bundle):
        doubled = dict(bundle)
        doubled["acme"] = "System both = {}"
        with pytest.raises(ReproError, match="both"):
            validate_bundle(doubled)

    def test_digest_is_stable_and_content_sensitive(self, bundle):
        first = spec_bundle_digest(bundle)
        assert first == spec_bundle_digest(dict(bundle))
        changed = dict(bundle)
        changed["mapping"] = changed["mapping"] + " "
        assert spec_bundle_digest(changed) != first

    def test_build_produces_an_evaluable_pipeline(self, bundle):
        sosae = build_bundle_sosae(bundle)
        assert isinstance(sosae, Sosae)
        assert sosae.evaluate().consistent is True


class TestJobRegistry:
    def _record(self, job_id="j0001", state="queued", **kw):
        return JobRecord(job_id=job_id, tenant="acme", state=state, **kw)

    def test_latest_transition_wins(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.append(self._record())
        registry.append(self._record(state="running"))
        registry.append(self._record(state="done", run_id="r0001"))
        (record,) = registry.load()
        assert record.state == "done"
        assert record.run_id == "r0001"

    def test_submission_order_is_preserved(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.append(self._record("j0001"))
        registry.append(self._record("j0002"))
        registry.append(self._record("j0001", state="done"))
        assert [r.job_id for r in registry.load()] == ["j0001", "j0002"]

    def test_tenant_filter_and_get(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.append(self._record("j0001"))
        registry.append(
            JobRecord(job_id="j0002", tenant="beta", state="queued")
        )
        assert [r.job_id for r in registry.jobs("beta")] == ["j0002"]
        assert registry.get("j0001").tenant == "acme"
        with pytest.raises(ReproError, match="j9999"):
            registry.get("j9999")

    def test_malformed_line_is_a_loud_error(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.append(self._record())
        with registry.path.open("a") as handle:
            handle.write("{broken\n")
        with pytest.raises(ReproError, match="line 2"):
            registry.load()

    def test_append_from_another_registry_survives_compaction(
        self, tmp_path, monkeypatch
    ):
        compactor, appender = JobRegistry(tmp_path), JobRegistry(tmp_path)
        compactor.append(self._record())
        compactor.append(self._record(state="done", finished_at=1.0))
        _append_during_compaction(
            monkeypatch,
            lambda: appender.append(self._record("j0002")),
            lambda: compactor.compact(keep_days=0, now=10.0),
        )
        assert [r.job_id for r in JobRegistry(tmp_path).load()] == [
            "j0001", "j0002",
        ]

    def test_unknown_format_or_state_is_rejected(self):
        with pytest.raises(ReproError, match="format"):
            JobRecord.from_dict({"format": 99, "job_id": "j1", "state": "done"})
        with pytest.raises(ReproError, match="state"):
            JobRecord.from_dict(
                {"format": 1, "job_id": "j1", "tenant": "t", "state": "limbo"}
            )


class TestAuditLog:
    def test_entries_round_trip(self, tmp_path):
        audit = AuditLog(tmp_path)
        audit.append(
            timestamp=1.0, actor="dev", tenant="acme", job_id="j0001",
            transition="queued", spec_digest="abc", detail="accepted",
        )
        audit.append(
            timestamp=2.0, actor="", tenant="acme", job_id="j0001",
            transition="queued->running",
        )
        first, second = audit.entries()
        assert first["actor"] == "dev"
        assert first["spec_digest"] == "abc"
        assert second["actor"] == "anonymous"
        assert second["transition"] == "queued->running"

    def test_append_from_another_log_survives_compaction(
        self, tmp_path, monkeypatch
    ):
        compactor, appender = AuditLog(tmp_path), AuditLog(tmp_path)
        for transition in ("queued", "queued->running"):
            compactor.append(
                timestamp=1.0, actor="dev", tenant="acme", job_id="j0001",
                transition=transition,
            )
        _append_during_compaction(
            monkeypatch,
            lambda: appender.append(
                timestamp=2.0, actor="dev", tenant="acme", job_id="j0002",
                transition="queued",
            ),
            lambda: compactor.compact(frozenset({"j0001"})),
        )
        assert [e["job_id"] for e in AuditLog(tmp_path).entries()] == [
            "j0001", "j0002",
        ]


class TestJobManagerInline:
    def test_submit_execute_records_everything(self, manager, bundle):
        record = manager.submit(bundle, "acme", label="demo", actor="dev")
        assert record.state == "queued"
        assert manager.run_pending() == 1
        done = manager.get(record.job_id)
        assert done.state == "done"
        assert done.consistent is True
        assert done.wall_seconds > 0
        # the run registry carries tenant/job scoping
        run = manager.run_registry.get(done.run_id)
        assert run.tenant == "acme"
        assert run.job_id == record.job_id
        # the report cache answers for the run id
        assert json.loads(manager.report_json(done.run_id))["findings"] == []
        # lifecycle events in order
        kinds = [e.kind for e in manager.test_bus.events()]
        assert kinds[0] == "job-submitted"
        assert "job-started" in kinds
        assert kinds[-1] == "job-finished"
        # a complete audit trail: who/what/when per transition
        transitions = [
            entry["transition"] for entry in manager.audit.entries()
        ]
        assert transitions == ["queued", "queued->running", "running->done"]
        assert manager.audit.entries()[0]["actor"] == "dev"

    def test_quota_rejects_without_exception(self, manager, bundle):
        first = manager.submit(bundle, "acme")
        second = manager.submit(bundle, "acme")
        third = manager.submit(bundle, "acme")
        assert (first.state, second.state) == ("queued", "queued")
        assert third.state == "rejected"
        assert third.reason == "quota"
        assert third.terminal
        stats = manager.tenant_stats()["acme"]
        assert stats["rejected"] == 1
        assert stats["submitted"] == 3
        kinds = [e.kind for e in manager.test_bus.events()]
        assert kinds.count("job-rejected") == 1
        # the rejection persists and audits like any other outcome
        assert manager.registry.get(third.job_id).state == "rejected"
        assert any(
            entry["transition"] == "rejected"
            for entry in manager.audit.entries()
        )

    def test_queue_limit_rejects_across_tenants(self, tmp_path, bundle):
        manager = JobManager(
            registry=JobRegistry(tmp_path),
            executors=0,
            tenant_quota=10,
            queue_limit=2,
        )
        manager.submit(bundle, "a")
        manager.submit(bundle, "b")
        third = manager.submit(bundle, "c")
        assert third.state == "rejected"
        assert third.reason == "queue-full"

    def test_bad_tenant_is_a_shape_error(self, manager, bundle):
        for tenant in ("", "a b", "x" * 65, "sneaky/../path"):
            with pytest.raises(ReproError, match="tenant id"):
                manager.submit(bundle, tenant)

    def test_failed_build_is_recorded_not_raised(self, manager, bundle):
        broken = dict(bundle)
        broken["xadl"] = "<not really xadl>"
        record = manager.submit(broken, "acme")
        manager.run_pending()
        failed = manager.get(record.job_id)
        assert failed.state == "failed"
        assert failed.error
        finished = [
            e for e in manager.test_bus.events()
            if e.kind == "job-finished"
        ]
        assert finished[-1].state == "failed"

    def test_wait_times_out_on_a_queued_job(self, manager, bundle):
        record = manager.submit(bundle, "acme")
        with pytest.raises(ReproError, match="still queued"):
            manager.wait(record.job_id, timeout=0.05)

    def test_unknown_job_raises(self, manager):
        with pytest.raises(ReproError, match="j4242"):
            manager.get("j4242")

    def test_report_cache_is_bounded(self, tmp_path, bundle):
        manager = JobManager(
            registry=JobRegistry(tmp_path), executors=0, report_cache=2
        )
        for index in range(3):
            manager.stash_report(f"r{index}", "{}")
        assert manager.report_json("r0") is None
        assert manager.report_json("r2") == "{}"


class TestOrphanAdoption:
    def test_non_terminal_jobs_fail_on_restart(self, tmp_path, bundle):
        registry = JobRegistry(tmp_path)
        manager = JobManager(registry=registry, executors=0)
        record = manager.submit(bundle, "acme")
        # a new manager over the same registry: the bundle is gone
        reborn = JobManager(registry=JobRegistry(tmp_path), executors=0)
        adopted = reborn.get(record.job_id)
        assert adopted.state == "failed"
        assert "orphaned" in adopted.error
        # ids keep counting past history
        fresh = reborn.submit(bundle, "acme")
        assert fresh.job_id > record.job_id

    def test_terminal_history_just_loads(self, tmp_path, bundle):
        manager = JobManager(registry=JobRegistry(tmp_path), executors=0)
        record = manager.submit(bundle, "acme")
        manager.run_pending()
        reborn = JobManager(registry=JobRegistry(tmp_path), executors=0)
        assert reborn.get(record.job_id).state == "done"
        assert reborn.tenant_stats()["acme"]["done"] == 1


class TestThreadedExecution:
    def test_executor_thread_completes_a_job(self, tmp_path, bundle):
        manager = JobManager(
            registry=JobRegistry(tmp_path),
            run_registry=RunRegistry(tmp_path),
            executors=1,
        )
        try:
            record = manager.submit(bundle, "acme")
            done = manager.wait(record.job_id, timeout=30.0)
            assert done.state == "done"
        finally:
            manager.close()

    def test_two_tenants_complete_concurrently(self, tmp_path, bundle):
        manager = JobManager(
            registry=JobRegistry(tmp_path),
            run_registry=RunRegistry(tmp_path),
            executors=2,
        )
        try:
            first = manager.submit(bundle, "acme")
            second = manager.submit(bundle, "beta")
            assert manager.wait(first.job_id, timeout=30.0).state == "done"
            assert manager.wait(second.job_id, timeout=30.0).state == "done"
            stats = manager.tenant_stats()
            assert stats["acme"]["done"] == 1
            assert stats["beta"]["done"] == 1
        finally:
            manager.close()

    def test_audit_order_survives_a_slow_queued_append(
        self, tmp_path, bundle
    ):
        """Regression: the executor must not see a job before its
        'queued' registry/audit lines are persisted — a stalled append
        once let 'queued->running' land first in audit.jsonl."""
        audit = AuditLog(tmp_path)
        original = audit.append

        def slow_append(**entry):
            if entry.get("transition") == "queued":
                time.sleep(0.1)
            return original(**entry)

        audit.append = slow_append
        manager = JobManager(
            registry=JobRegistry(tmp_path),
            audit=audit,
            run_registry=RunRegistry(tmp_path),
            executors=1,
        )
        try:
            record = manager.submit(bundle, "acme")
            assert manager.wait(record.job_id, timeout=30.0).state == "done"
        finally:
            manager.close()
        trail = [entry["transition"] for entry in audit.entries()]
        assert trail == ["queued", "queued->running", "running->done"]


class TestTenantSamples:
    def _stats(self, tenants):
        return {
            tenant: {
                "submitted": weight, "rejected": 0, "done": weight,
                "failed": 0, "running": 0, "queued": 0,
                "wall_seconds": 0.1 * weight,
            }
            for tenant, weight in tenants.items()
        }

    def test_empty_stats_render_nothing(self):
        assert tenant_samples({}) == []

    def test_samples_carry_tenant_labels(self):
        samples = tenant_samples(self._stats({"acme": 3}))
        names = {sample.name for sample in samples}
        assert "serve.quota_rejections" in names
        assert all(
            sample.labels.get("tenant") == "acme" for sample in samples
        )

    def test_cardinality_is_bounded_to_top_k_plus_other(self):
        stats = self._stats({f"t{i:02d}": i + 1 for i in range(12)})
        samples = tenant_samples(stats, top=3)
        labels = {sample.labels["tenant"] for sample in samples}
        # 3 kept tenants + the overflow bucket
        assert labels == {"t11", "t10", "t09", "other"}
        submitted = {
            sample.labels["tenant"]: sample.value
            for sample in samples
            if sample.name == "serve.jobs"
            and sample.labels["state"] == "submitted"
        }
        # the other-bucket aggregates everything folded into it
        assert submitted["other"] == sum(range(1, 10))


class TestRenderJobList:
    def test_empty(self):
        assert render_job_list(()) == "no jobs recorded"

    def test_table_has_header_and_rows(self):
        records = (
            JobRecord(
                job_id="j0001", tenant="acme", state="done",
                run_id="r0001", wall_seconds=0.5, findings=2,
            ),
            JobRecord(
                job_id="j0002", tenant="beta", state="rejected",
                reason="quota",
            ),
        )
        text = render_job_list(records)
        lines = text.splitlines()
        assert lines[0].startswith("job")
        assert "j0001" in lines[1] and "r0001" in lines[1]
        assert "quota" in lines[2]


def _post_json(url, payload):
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get_json(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def job_daemon(small_scenarios, chain_architecture, chain_mapping, tmp_path):
    build = lambda: Sosae(  # noqa: E731
        small_scenarios, chain_architecture, chain_mapping
    )
    daemon = ServeDaemon(
        build,
        registry=RunRegistry(tmp_path),
        jobs=True,
        tenant_quota=2,
        queue_limit=8,
        job_executors=2,
    )
    host, port = daemon.start_http()
    yield daemon, f"http://{host}:{port}", tmp_path
    daemon.shutdown()


class TestJobsHttp:
    def test_two_tenant_round_trip(self, job_daemon, bundle):
        """The acceptance scenario: two tenants submit concurrently,
        poll to completion, fetch their reports, and the metrics carry
        both tenant labels."""
        daemon, base, root = job_daemon
        results = {}

        def submit(tenant):
            results[tenant] = _post_json(
                f"{base}/jobs",
                {"tenant": tenant, "label": f"{tenant}-job",
                 "actor": tenant, "bundle": bundle},
            )

        threads = [
            threading.Thread(target=submit, args=(tenant,))
            for tenant in ("acme", "beta")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        jobs = {}
        for tenant, (status, body) in results.items():
            assert status == 202, body
            jobs[tenant] = body["job"]["job_id"]
        # poll both to done
        for tenant, job_id in jobs.items():
            record = daemon.jobs.wait(job_id, timeout=30.0)
            assert record.state == "done", record.error
            status, body = _get_json(f"{base}/jobs/{job_id}")
            assert status == 200
            assert body["job"]["state"] == "done"
            run_id = body["job"]["run_id"]
            status, report = _get_json(f"{base}/report/{run_id}")
            assert status == 200
            assert report["findings"] == []
        # tenant-labeled metrics on /metrics
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
            text = r.read().decode("utf-8")
        assert 'sosae_serve_jobs_total{tenant="acme",state="done"} 1' in text
        assert 'sosae_serve_jobs_total{tenant="beta",state="done"} 1' in text
        assert "sosae_serve_job_queue_depth 0" in text
        # the audit trail on disk covers every transition of both jobs
        audit = AuditLog(root).entries()
        for job_id in jobs.values():
            trail = [
                entry["transition"] for entry in audit
                if entry["job_id"] == job_id
            ]
            assert trail == ["queued", "queued->running", "running->done"]
        # and the registries survived on disk
        listed = JobRegistry(root).jobs()
        assert {record.state for record in listed} == {"done"}

    def test_quota_rejection_is_429_with_metric(
        self, small_scenarios, chain_architecture, chain_mapping,
        tmp_path, bundle,
    ):
        build = lambda: Sosae(  # noqa: E731
            small_scenarios, chain_architecture, chain_mapping
        )
        # executors=0: submissions stay queued, so the quota check is
        # deterministic — no race against fast evaluations.
        daemon = ServeDaemon(
            build, jobs=True, tenant_quota=1, job_executors=0,
            registry=RunRegistry(tmp_path),
        )
        host, port = daemon.start_http()
        base = f"http://{host}:{port}"
        try:
            status, _ = _post_json(
                f"{base}/jobs", {"tenant": "acme", "bundle": bundle}
            )
            assert status == 202
            status, body = _post_json(
                f"{base}/jobs", {"tenant": "acme", "bundle": bundle}
            )
            assert status == 429
            assert body["reason"] == "quota"
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
                text = r.read().decode("utf-8")
            assert (
                'sosae_serve_quota_rejections_total{tenant="acme"} 1'
                in text
            )
        finally:
            daemon.shutdown()

    def test_bad_submissions_are_400(self, job_daemon):
        _, base, _ = job_daemon
        status, body = _post_json(f"{base}/jobs", {"tenant": "acme"})
        assert status == 400
        status, body = _post_json(
            f"{base}/jobs", {"tenant": "no spaces!", "bundle": {}}
        )
        assert status == 400

    def test_oversized_body_is_413_before_reading(self, job_daemon, bundle):
        daemon, base, _ = job_daemon
        parts = urlsplit(base)
        with socket.create_connection(
            (parts.hostname, parts.port), timeout=10
        ) as conn:
            # The declared body is never sent: the server must answer
            # from the header alone.
            conn.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % (MAX_JOB_BODY_BYTES + 1)
            )
            response = conn.makefile("rb").read()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"413"
        assert b"connection: close" in head.lower()
        assert str(MAX_JOB_BODY_BYTES) in json.loads(body)["error"]
        assert daemon.jobs.jobs() == ()
        status, body = _post_json(
            f"{base}/jobs", {"tenant": "acme", "bundle": bundle}
        )
        assert status == 202
        record = daemon.jobs.wait(body["job"]["job_id"], timeout=30.0)
        assert record.state == "done"

    def test_disabled_job_api_is_404(
        self, small_scenarios, chain_architecture, chain_mapping, bundle
    ):
        build = lambda: Sosae(  # noqa: E731
            small_scenarios, chain_architecture, chain_mapping
        )
        daemon = ServeDaemon(build)
        host, port = daemon.start_http()
        base = f"http://{host}:{port}"
        try:
            status, body = _post_json(
                f"{base}/jobs", {"tenant": "acme", "bundle": bundle}
            )
            assert status == 404
            assert "--jobs" in body["error"]
            status, _ = _get_json(f"{base}/jobs")
            assert status == 404
        finally:
            daemon.shutdown()

    def test_jobs_listing_scopes_by_tenant(self, job_daemon, bundle):
        daemon, base, _ = job_daemon
        for tenant in ("acme", "beta"):
            status, body = _post_json(
                f"{base}/jobs", {"tenant": tenant, "bundle": bundle}
            )
            assert status == 202
            daemon.jobs.wait(body["job"]["job_id"], timeout=30.0)
        status, body = _get_json(f"{base}/jobs?tenant=beta")
        assert status == 200
        assert [job["tenant"] for job in body["jobs"]] == ["beta"]
        status, body = _get_json(f"{base}/jobs")
        assert len(body["jobs"]) == 2
