"""Coverage summary questions (paper §3.2: is the chosen scenario subset
representative?) answered by the one coverage model, the
:class:`~repro.obs.coverage.CoverageMatrix` an evaluation derives from
its verdicts, on the shared fixtures and the two case studies."""

from __future__ import annotations

from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.obs import Recorder, use


def matrix_of(scenarios, mapping, options=None):
    recorder = Recorder()
    with use(recorder):
        Sosae(
            scenarios,
            mapping.architecture,
            mapping,
            walkthrough_options=options,
        ).evaluate()
    return recorder.coverage


class TestCoverage:
    def test_exercised_and_untouched_components(
        self, small_scenarios, chain_mapping
    ):
        matrix = matrix_of(small_scenarios, chain_mapping)
        assert set(matrix.exercised_components) == {"ui", "logic", "store"}
        assert matrix.untouched_components == ()
        assert matrix.component_coverage == 1.0

    def test_untouched_component_reported(
        self, small_scenarios, chain_mapping, chain_architecture
    ):
        chain_architecture.add_component("spare")
        mapping = Mapping(
            chain_mapping.ontology, chain_architecture
        )
        mapping.update(chain_mapping.entries)
        matrix = matrix_of(small_scenarios, mapping)
        assert "spare" in matrix.untouched_components
        assert matrix.component_coverage < 1.0

    def test_used_event_types_sorted_by_count(
        self, small_scenarios, chain_mapping
    ):
        matrix = matrix_of(small_scenarios, chain_mapping)
        assert set(matrix.event_type_counts) == {"create", "destroy", "notify"}

    def test_unused_event_types(self, small_scenarios, chain_mapping):
        chain_mapping.ontology.define_event_type("idle-type")
        matrix = matrix_of(small_scenarios, chain_mapping)
        assert "idle-type" in matrix.unexercised_event_types
        # Abstract event types are never reported unexercised.
        assert "act" not in matrix.unexercised_event_types

    def test_subtype_only_mapped_event_counts_as_mapped(
        self, small_scenarios, chain_mapping
    ):
        """Regression: an event type mapped only via a supertype hop
        must count as mapped/exercised, exactly as the walkthrough's
        ``resolution_for`` would place it."""
        mapping = Mapping(
            chain_mapping.ontology, chain_mapping.architecture
        )
        # Map ONLY the abstract supertype; create/destroy resolve
        # through the hierarchy, never from a direct entry.
        mapping.map_event("act", "logic")
        mapping.map_event("notify", "ui")
        matrix = matrix_of(small_scenarios, mapping)
        assert "logic" in matrix.exercised_components
        assert matrix.cells["create"] == {"logic": 1}
        assert matrix.unmapped_events == 0
        assert matrix.supertype_resolutions == 2
        assert "act" not in matrix.dead_mappings

    def test_render_mentions_key_facts(self, small_scenarios, chain_mapping):
        rendered = matrix_of(small_scenarios, chain_mapping).render()
        assert "components: 3/3 exercised" in rendered

    def test_nested_component_coverage_counts_top_level(self, crash):
        matrix = matrix_of(crash.scenarios, crash.mapping, crash.options)
        assert "Police Department Command and Control" in (
            matrix.exercised_components
        )

    def test_pims_full_component_coverage(self, pims):
        matrix = matrix_of(pims.scenarios, pims.mapping, pims.options)
        assert matrix.untouched_components == ()
