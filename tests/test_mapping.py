"""Unit tests for the ontology-to-architecture mapping."""

from __future__ import annotations

import pytest

from repro.adl.structure import Architecture
from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.core.report_io import report_to_json
from repro.errors import MappingError
from repro.scenarioml.events import TypedEvent
from repro.scenarioml.ontology import Ontology
from repro.scenarioml.scenario import Scenario, ScenarioSet
from repro.systems.pims import build_pims


class TestConstruction:
    def test_map_event_requires_known_event_type(
        self, small_ontology, chain_architecture
    ):
        mapping = Mapping(small_ontology, chain_architecture)
        with pytest.raises(MappingError):
            mapping.map_event("ghost", "ui")

    def test_map_event_requires_known_component(
        self, small_ontology, chain_architecture
    ):
        mapping = Mapping(small_ontology, chain_architecture)
        with pytest.raises(MappingError):
            mapping.map_event("create", "ghost")

    def test_map_event_requires_some_component(
        self, small_ontology, chain_architecture
    ):
        mapping = Mapping(small_ontology, chain_architecture)
        with pytest.raises(MappingError):
            mapping.map_event("create")

    def test_repeated_calls_accumulate(
        self, small_ontology, chain_architecture
    ):
        mapping = Mapping(small_ontology, chain_architecture)
        mapping.map_event("create", "ui")
        mapping.map_event("create", "logic", "ui")
        assert mapping.components_for("create") == ("ui", "logic")

    def test_unmap_event(self, chain_mapping):
        chain_mapping.unmap_event("create")
        assert chain_mapping.components_for("create") == ()

    def test_update_bulk(self, small_ontology, chain_architecture):
        mapping = Mapping(small_ontology, chain_architecture)
        mapping.update({"create": ["logic"], "notify": ["ui"]})
        assert mapping.mapped_event_types == ("create", "notify")

    def test_entries_are_copies(self, chain_mapping):
        entries = chain_mapping.entries
        entries["create"] = ("hacked",)
        assert chain_mapping.components_for("create") == ("logic", "store")


class TestResolution:
    def test_components_for_direct(self, chain_mapping):
        assert chain_mapping.components_for("notify") == ("ui",)

    def test_supertype_fallback(self, small_ontology, chain_architecture):
        mapping = Mapping(small_ontology, chain_architecture)
        mapping.map_event("act", "logic")  # abstract parent mapped once
        assert mapping.components_for("create") == ("logic",)
        assert mapping.components_for("destroy") == ("logic",)

    def test_supertype_fallback_disabled(
        self, small_ontology, chain_architecture
    ):
        mapping = Mapping(small_ontology, chain_architecture)
        mapping.map_event("act", "logic")
        assert mapping.components_for("create", use_supertypes=False) == ()

    def test_direct_mapping_beats_supertype(
        self, small_ontology, chain_architecture
    ):
        mapping = Mapping(small_ontology, chain_architecture)
        mapping.map_event("act", "logic")
        mapping.map_event("create", "store")
        assert mapping.components_for("create") == ("store",)

    def test_unknown_event_type_resolves_empty(self, chain_mapping):
        assert chain_mapping.components_for("ghost") == ()

    def test_event_types_for_component(self, chain_mapping):
        assert set(chain_mapping.event_types_for("store")) == {
            "create",
            "destroy",
        }
        assert chain_mapping.event_types_for("ui") == ("notify",)

    def test_is_mapped(self, chain_mapping):
        assert chain_mapping.is_mapped("create")
        assert not chain_mapping.is_mapped("act")  # no entry, no ancestor


class TestNestedComponents:
    def make_nested(self, small_ontology):
        inner = Architecture("inner")
        inner.add_component("worker")
        outer = Architecture("outer")
        outer.add_component("host", subarchitecture=inner)
        outer.add_component("flat")
        return Mapping(small_ontology, outer), outer

    def test_can_map_to_nested_component(self, small_ontology):
        mapping, _outer = self.make_nested(small_ontology)
        mapping.map_event("create", "worker")
        assert mapping.components_for("create") == ("worker",)

    def test_top_level_resolution(self, small_ontology):
        mapping, _outer = self.make_nested(small_ontology)
        assert mapping.top_level_component("worker") == "host"
        assert mapping.top_level_component("flat") == "flat"

    def test_unknown_component_resolution_raises(self, small_ontology):
        mapping, _outer = self.make_nested(small_ontology)
        with pytest.raises(MappingError):
            mapping.top_level_component("ghost")

    def test_nested_mapping_counts_for_coverage(self, small_ontology):
        mapping, _outer = self.make_nested(small_ontology)
        mapping.map_event("create", "worker")
        assert "host" not in mapping.unmapped_components()
        assert "flat" in mapping.unmapped_components()


class TestLiveArchitecture:
    """The mapping reads the architecture it was written against live:
    a component added after the mapping was built can be mapped."""

    def test_a_component_added_later_is_mapped_as_a_new_pipelines(self):
        pims = build_pims()

        def pipeline(architecture, mapping):
            return Sosae(
                pims.scenarios,
                architecture,
                mapping,
                constraints=pims.constraints,
                walkthrough_options=pims.options,
            )

        sosae = pipeline(pims.architecture, pims.mapping)
        before = report_to_json(sosae.evaluate())
        pims.architecture.add_component("Audit")
        assert "Audit" in pims.mapping.unmapped_components()
        pims.mapping.map_event("initiateFunction", "Audit")
        assert "Audit" not in pims.mapping.unmapped_components()
        after = report_to_json(sosae.evaluate())
        assert after != before
        copy = pims.architecture.clone()
        loaded = Mapping.from_json(pims.mapping.to_json(), pims.ontology, copy)
        assert after == report_to_json(pipeline(copy, loaded).evaluate())


class TestCoverageChecks:
    def test_unmapped_event_types_all(self, small_ontology, chain_architecture):
        mapping = Mapping(small_ontology, chain_architecture)
        mapping.map_event("create", "logic")
        unmapped = mapping.unmapped_event_types()
        assert "notify" in unmapped
        assert "destroy" in unmapped
        assert "act" not in unmapped  # abstract types are not expected

    def test_unmapped_event_types_restricted_to_scenarios(
        self, chain_mapping, small_scenarios
    ):
        assert chain_mapping.unmapped_event_types(small_scenarios) == ()

    def test_unmapped_components(self, small_ontology, chain_architecture):
        mapping = Mapping(small_ontology, chain_architecture)
        mapping.map_event("create", "logic")
        assert set(mapping.unmapped_components()) == {"ui", "store"}

    def test_validate_detects_stale_component(self, chain_mapping):
        chain_mapping._event_to_components["create"] = ("vanished",)
        with pytest.raises(MappingError):
            chain_mapping.validate()


class TestComplexityMetrics:
    def repeated_scenarios(self, small_ontology) -> ScenarioSet:
        scenarios = ScenarioSet(small_ontology)
        for index in range(5):
            scenarios.add(
                Scenario(
                    name=f"s{index}",
                    events=tuple(
                        TypedEvent(
                            type_name="create",
                            arguments={"subject": f"{index}-{j}"},
                        )
                        for j in range(4)
                    ),
                )
            )
        return scenarios

    def test_link_count(self, chain_mapping):
        assert chain_mapping.link_count() == 5  # 2 + 2 + 1

    def test_direct_link_count_scales_with_occurrences(
        self, chain_mapping, small_ontology
    ):
        scenarios = self.repeated_scenarios(small_ontology)
        # 20 occurrences of 'create', each linked to 2 components.
        assert chain_mapping.direct_link_count(scenarios) == 40

    def test_complexity_reduction_equals_reuse(
        self, chain_mapping, small_ontology
    ):
        scenarios = self.repeated_scenarios(small_ontology)
        # mediated: 2 links; direct: 40 -> factor 20 (the reuse count).
        assert chain_mapping.complexity_reduction(scenarios) == 20.0

    def test_no_reuse_means_no_reduction(
        self, chain_mapping, small_scenarios
    ):
        assert chain_mapping.complexity_reduction(small_scenarios) == 1.0

    def test_empty_scenarios_reduction_is_one(
        self, chain_mapping, small_ontology
    ):
        assert chain_mapping.complexity_reduction(ScenarioSet(small_ontology)) == 1.0


class TestTableAndPersistence:
    def test_table_rows_follow_scenario_usage(
        self, chain_mapping, small_scenarios
    ):
        table = chain_mapping.table(small_scenarios)
        assert table.rows == ("create", "notify", "destroy")
        assert table.columns == ("ui", "logic", "store")

    def test_table_marks(self, chain_mapping, small_scenarios):
        table = chain_mapping.table(small_scenarios)
        assert table.is_marked("create", "logic")
        assert table.is_marked("notify", "ui")
        assert not table.is_marked("notify", "store")

    def test_table_without_scenarios_lists_all_mapped(self, chain_mapping):
        table = chain_mapping.table()
        assert set(table.rows) == {"create", "destroy", "notify"}

    def test_table_render_contains_marks(self, chain_mapping):
        rendered = chain_mapping.table().render()
        assert "X" in rendered
        assert "create" in rendered

    def test_table_render_markdown(self, chain_mapping):
        rendered = chain_mapping.table().render_markdown()
        assert rendered.startswith("| event type")
        assert "| X |" in rendered

    def test_json_roundtrip(
        self, chain_mapping, small_ontology, chain_architecture
    ):
        text = chain_mapping.to_json()
        rebuilt = Mapping.from_json(text, small_ontology, chain_architecture)
        assert rebuilt.entries == chain_mapping.entries
        assert rebuilt.name == chain_mapping.name

    def test_from_dict_validates(self, small_ontology, chain_architecture):
        with pytest.raises(MappingError):
            Mapping.from_dict(
                {"entries": {"create": ["ghost"]}},
                small_ontology,
                chain_architecture,
            )

    def test_repr(self, chain_mapping):
        assert "3 event types" in repr(chain_mapping)
