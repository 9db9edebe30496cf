"""The lock-free cached property the verdict and coverage models use."""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import dataclass

import pytest

from repro.caching import cached_property
from repro.core.consistency import EvaluationReport, ScenarioVerdict
from repro.core.evaluator import Sosae
from repro.obs.coverage import CoverageMatrix
from repro.systems.pims import build_pims


#: Every instance whose ``total`` was computed, in order.
calls: list = []


@dataclass(frozen=True)
class _Pair:
    left: int
    right: int

    @cached_property
    def total(self) -> int:
        """The sum of both sides."""
        calls.append(self)
        return self.left + self.right


@pytest.fixture(autouse=True)
def _no_calls():
    calls.clear()


@pytest.fixture(scope="module")
def excised_report() -> EvaluationReport:
    pims = build_pims()
    architecture = pims.excised_architecture()
    return Sosae(
        pims.scenarios,
        architecture,
        pims.mapping.rebind(architecture),
        constraints=pims.constraints,
        walkthrough_options=pims.options,
    ).evaluate()


class TestDescriptor:
    def test_computed_once_then_read_from_the_instance_dict(self):
        pair = _Pair(2, 3)
        assert "total" not in pair.__dict__
        assert pair.total == 5
        assert pair.__dict__["total"] == 5
        assert pair.total == 5
        assert calls == [pair]

    def test_class_access_returns_the_descriptor(self):
        descriptor = _Pair.total
        assert isinstance(descriptor, cached_property)
        assert descriptor.name == "total"
        assert descriptor.__doc__ == "The sum of both sides."
        for cls, name in (
            (ScenarioVerdict, "passed"),
            (EvaluationReport, "consistent"),
            (CoverageMatrix, "digest"),
        ):
            assert isinstance(getattr(cls, name), cached_property)

    def test_each_instance_caches_its_own_value(self):
        first, second = _Pair(1, 1), _Pair(1, 2)
        assert (first.total, second.total) == (2, 3)
        assert calls == [first, second]

    def test_equality_and_hash_ignore_cached_values(self):
        read, unread = _Pair(2, 3), _Pair(2, 3)
        assert read.total == 5
        assert read == unread
        assert hash(read) == hash(unread)
        assert "total" not in unread.__dict__

    def test_verdict_equality_and_hash_ignore_cached_values(
        self, excised_report
    ):
        verdict = excised_report.verdict("get-share-prices")
        copy = ScenarioVerdict(
            scenario=verdict.scenario,
            traces=verdict.traces,
            inconsistencies=verdict.inconsistencies,
            negative=verdict.negative,
            blocked=verdict.blocked,
        )
        assert not verdict.passed
        assert "passed" in verdict.__dict__
        assert "passed" not in copy.__dict__
        assert verdict == copy
        assert hash(verdict) == hash(copy)

    def test_finding_count_counts_every_level_once(self, excised_report):
        assert excised_report.finding_count == len(
            excised_report.all_inconsistencies()
        )
        assert excised_report.finding_count > 0
        assert "finding_count" in excised_report.__dict__
        assert EvaluationReport("empty").finding_count == 0

    def test_concurrent_first_reads_agree(self):
        # A lost race may compute twice; every reader still sees the
        # one pure value.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                pair = _Pair(20, 22)
                seen: list[int] = []
                threads = [
                    threading.Thread(target=lambda: seen.append(pair.total))
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert seen == [42] * 8
                assert pair.__dict__["total"] == 42
        finally:
            sys.setswitchinterval(interval)


class TestPickling:
    def test_verdict_round_trips_with_cached_values(self, excised_report):
        verdict = excised_report.verdict("get-share-prices")
        assert not verdict.passed and not verdict.walkthrough_succeeded
        clone = pickle.loads(pickle.dumps(verdict))
        assert clone == verdict
        assert clone.__dict__["passed"] is False
        assert clone.__dict__["walkthrough_succeeded"] is False
        assert clone.traces[0].__dict__["passed"] is False

    def test_unread_values_stay_lazy_across_a_round_trip(self):
        pair = pickle.loads(pickle.dumps(_Pair(4, 5)))
        assert "total" not in pair.__dict__
        assert pair.total == 9

    def test_report_round_trips_with_cached_values(self, excised_report):
        assert not excised_report.consistent
        failed = excised_report.failed_scenarios
        clone = pickle.loads(pickle.dumps(excised_report))
        assert clone == excised_report
        assert clone.__dict__["consistent"] is False
        assert clone.__dict__["failed_scenarios"] == failed == (
            "get-share-prices",
        )
        assert clone.passed_scenarios == excised_report.passed_scenarios
