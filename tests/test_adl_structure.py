"""Unit tests for the structural ADL."""

from __future__ import annotations

import pytest

from repro.adl.structure import (
    Architecture,
    Component,
    Connector,
    Direction,
    Endpoint,
    Interface,
    Link,
)
from repro.errors import ArchitectureError
from repro.systems.pims import build_pims


class TestDirections:
    def test_in_accepts_only(self):
        assert Direction.IN.accepts()
        assert not Direction.IN.initiates()

    def test_out_initiates_only(self):
        assert Direction.OUT.initiates()
        assert not Direction.OUT.accepts()

    def test_inout_does_both(self):
        assert Direction.INOUT.accepts()
        assert Direction.INOUT.initiates()


class TestElements:
    def test_interface_requires_name(self):
        with pytest.raises(ArchitectureError):
            Interface("")

    def test_component_requires_name(self):
        with pytest.raises(ArchitectureError):
            Component(name="")

    def test_add_interface_rejects_duplicates(self):
        component = Component(name="c")
        component.add_interface("port")
        with pytest.raises(ArchitectureError):
            component.add_interface("port")

    def test_interface_lookup(self):
        component = Component(name="c")
        component.add_interface("port", Direction.OUT)
        assert component.interface("port").direction is Direction.OUT
        with pytest.raises(ArchitectureError):
            component.interface("missing")

    def test_layer_property_roundtrip(self):
        component = Component(name="c")
        assert component.layer is None
        component.layer = 3
        assert component.layer == 3
        assert component.properties["layer"] == "3"
        component.layer = None
        assert component.layer is None

    def test_responsibilities_normalized_to_tuple(self):
        component = Component(name="c", responsibilities=["a", "b"])
        assert component.responsibilities == ("a", "b")


class TestLinks:
    def test_link_requires_name(self):
        with pytest.raises(ArchitectureError):
            Link("", Endpoint("a", "x"), Endpoint("b", "y"))

    def test_link_rejects_self_loop_interface(self):
        endpoint = Endpoint("a", "x")
        with pytest.raises(ArchitectureError):
            Link("l", endpoint, endpoint)

    def test_connects_and_touches(self):
        link = Link("l", Endpoint("a", "x"), Endpoint("b", "y"))
        assert link.connects("a", "b")
        assert link.connects("b", "a")
        assert not link.connects("a", "c")
        assert link.touches("a")
        assert not link.touches("c")

    def test_other_endpoint(self):
        link = Link("l", Endpoint("a", "x"), Endpoint("b", "y"))
        assert link.other("a") == Endpoint("b", "y")
        assert link.other("b") == Endpoint("a", "x")
        with pytest.raises(ArchitectureError):
            link.other("c")

    def test_endpoint_str(self):
        assert str(Endpoint("a", "x")) == "a.x"


class TestArchitecture:
    def test_requires_name(self):
        with pytest.raises(ArchitectureError):
            Architecture("")

    def test_element_names_unique_across_kinds(self):
        architecture = Architecture("arch")
        architecture.add_component("x")
        with pytest.raises(ArchitectureError):
            architecture.add_connector("x")

    def test_add_component_with_string_interfaces(self):
        architecture = Architecture("arch")
        component = architecture.add_component("c", interfaces=["p", "q"])
        assert set(component.interfaces) == {"p", "q"}
        assert component.interface("p").direction is Direction.INOUT

    def test_element_lookup(self, chain_architecture: Architecture):
        assert chain_architecture.component("ui").name == "ui"
        assert chain_architecture.connector("ui-logic").name == "ui-logic"
        assert chain_architecture.element("logic").name == "logic"
        assert chain_architecture.is_component("ui")
        assert chain_architecture.is_connector("ui-logic")
        assert chain_architecture.has_element("store")
        assert not chain_architecture.has_element("ghost")

    def test_lookup_errors(self, chain_architecture: Architecture):
        with pytest.raises(ArchitectureError):
            chain_architecture.component("ui-logic")
        with pytest.raises(ArchitectureError):
            chain_architecture.connector("ui")
        with pytest.raises(ArchitectureError):
            chain_architecture.element("ghost")

    def test_link_accepts_dotted_strings(self):
        architecture = Architecture("arch")
        architecture.add_component("a")
        architecture.add_component("b")
        link = architecture.link("a.out", "b.in")
        assert link.first == Endpoint("a", "out")
        assert link.second == Endpoint("b", "in")

    def test_link_rejects_undotted_string(self):
        architecture = Architecture("arch")
        architecture.add_component("a")
        with pytest.raises(ArchitectureError):
            architecture.link("a", ("a", "x"))

    def test_link_auto_creates_interfaces(self):
        architecture = Architecture("arch")
        architecture.add_component("a")
        architecture.add_component("b")
        architecture.link(("a", "fresh"), ("b", "fresh"))
        assert "fresh" in architecture.component("a").interfaces

    def test_link_names_unique(self):
        architecture = Architecture("arch")
        architecture.add_component("a")
        architecture.add_component("b")
        architecture.link(("a", "x"), ("b", "y"), name="l")
        with pytest.raises(ArchitectureError):
            architecture.link(("a", "x2"), ("b", "y2"), name="l")

    def test_link_rejects_incompatible_directions(self):
        architecture = Architecture("arch")
        architecture.add_component(
            "a", interfaces=[Interface("out1", Direction.OUT)]
        )
        architecture.add_component(
            "b", interfaces=[Interface("out2", Direction.OUT)]
        )
        with pytest.raises(ArchitectureError):
            architecture.link(("a", "out1"), ("b", "out2"))

    def test_link_accepts_out_to_in(self):
        architecture = Architecture("arch")
        architecture.add_component(
            "a", interfaces=[Interface("out", Direction.OUT)]
        )
        architecture.add_component(
            "b", interfaces=[Interface("in", Direction.IN)]
        )
        architecture.link(("a", "out"), ("b", "in"))

    def test_in_to_in_rejected(self):
        architecture = Architecture("arch")
        architecture.add_component(
            "a", interfaces=[Interface("in1", Direction.IN)]
        )
        architecture.add_component(
            "b", interfaces=[Interface("in2", Direction.IN)]
        )
        with pytest.raises(ArchitectureError):
            architecture.link(("a", "in1"), ("b", "in2"))

    def test_remove_link(self, chain_architecture: Architecture):
        before = len(chain_architecture.links)
        removed = chain_architecture.remove_link(
            chain_architecture.links[0].name
        )
        assert len(chain_architecture.links) == before - 1
        with pytest.raises(ArchitectureError):
            chain_architecture.remove_link(removed.name)

    def test_unnamed_links_are_numbered_by_count(self):
        architecture = Architecture("arch")
        for name in ("a", "b", "c"):
            architecture.add_component(name)
        names = [
            architecture.link(("a", f"x{i}"), (peer, f"y{i}")).name
            for i, peer in enumerate(("b", "c", "b"))
        ]
        assert names == ["link-1", "link-2", "link-3"]

    def test_unnamed_link_after_a_removal_takes_a_free_name(self):
        architecture = build_pims().architecture
        names = [link.name for link in architecture.links]
        removed = architecture.remove_link(names[3])
        relinked = architecture.link(
            (removed.first.element, removed.first.interface),
            (removed.second.element, removed.second.interface),
        )
        assert relinked.name == f"link-{len(names) + 1}"
        assert relinked.name not in names
        # Removing it frees its name for the next unnamed link.
        architecture.remove_link(relinked.name)
        again = architecture.link(
            (removed.first.element, removed.first.interface),
            (removed.second.element, removed.second.interface),
        )
        assert again.name == relinked.name
        assert [link.name for link in architecture.links] == (
            names[:3] + names[4:] + [again.name]
        )

    def test_excise_links_between(self, chain_architecture: Architecture):
        removed = chain_architecture.excise_links_between("ui", "ui-logic")
        assert len(removed) == 1
        assert chain_architecture.links_between("ui", "ui-logic") == ()

    def test_excise_unknown_element_raises(
        self, chain_architecture: Architecture
    ):
        with pytest.raises(ArchitectureError):
            chain_architecture.excise_links_between("ui", "ghost")

    def test_neighbors(self, chain_architecture: Architecture):
        assert chain_architecture.neighbors("logic") == (
            "ui-logic",
            "logic-store",
        )

    def test_links_of(self, chain_architecture: Architecture):
        assert len(chain_architecture.links_of("logic")) == 2

    def test_validate_detects_dangling_interface(self):
        architecture = Architecture("arch")
        architecture.add_component("a")
        architecture.add_component("b")
        architecture.link(("a", "x"), ("b", "y"))
        del architecture.component("a").interfaces["x"]
        with pytest.raises(ArchitectureError):
            architecture.validate()

    def test_clone_is_deep_and_renamable(
        self, chain_architecture: Architecture
    ):
        clone = chain_architecture.clone("copy")
        assert clone.name == "copy"
        clone.excise_links_between("ui", "ui-logic")
        assert chain_architecture.links_between("ui", "ui-logic")

    def test_component_names(self, chain_architecture: Architecture):
        assert chain_architecture.component_names() == ("ui", "logic", "store")

    def test_behavior_attachment(self, chain_architecture: Architecture):
        marker = object()
        chain_architecture.attach_behavior("ui", marker)
        assert chain_architecture.behavior("ui") is marker
        assert chain_architecture.behavior("logic") is None
        assert chain_architecture.behaviors == {"ui": marker}

    def test_behavior_requires_existing_element(
        self, chain_architecture: Architecture
    ):
        with pytest.raises(ArchitectureError):
            chain_architecture.attach_behavior("ghost", object())

    def test_subarchitecture_recursion(self):
        inner = Architecture("inner")
        inner.add_component("nested")
        outer = Architecture("outer")
        outer.add_component("host", subarchitecture=inner)
        names = [c.name for c in outer.all_components(recursive=True)]
        assert names == ["host", "nested"]
        shallow = [c.name for c in outer.all_components()]
        assert shallow == ["host"]

    def test_validate_recurses_into_subarchitecture(self):
        inner = Architecture("inner")
        inner.add_component("a")
        inner.add_component("b")
        inner.link(("a", "x"), ("b", "y"))
        del inner.component("a").interfaces["x"]
        outer = Architecture("outer")
        outer.add_component("host", subarchitecture=inner)
        with pytest.raises(ArchitectureError):
            outer.validate()

    def test_repr_counts(self, chain_architecture: Architecture):
        text = repr(chain_architecture)
        assert "3 components" in text
        assert "2 connectors" in text
        assert "4 links" in text
