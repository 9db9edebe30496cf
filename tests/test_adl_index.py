"""Property-style equivalence tests for the communication index.

The index memoizes graphs, BFS trees, and reachability sets; these tests
assert that every cached answer matches a fresh-BFS reference computed the
way the pre-index implementation did — across generated architectures,
direction-sensitivity, ``via``/``avoiding`` combinations, and after
structural mutations that must invalidate the fingerprint.
"""

from __future__ import annotations

import copy
import gc
import itertools
import weakref

import networkx as nx
import pytest

from repro.adl.graph import (
    can_communicate,
    communication_graph,
    communication_path,
    directed_communication_graph,
    reachable_elements,
)
import repro.adl.index as index_module
from repro.adl.index import (
    CommunicationIndex,
    communication_index,
    structural_fingerprint,
)
from repro.adl.structure import Architecture, Direction, Interface
from repro.errors import ArchitectureError
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import DATA_REPOSITORY, LOADER, build_pims


# ----------------------------------------------------------------------
# Fresh-BFS reference implementations (the historical algorithm)
# ----------------------------------------------------------------------


def reference_path(
    architecture, source, target, respect_directions=False, via=None, avoiding=None
):
    """The pre-index algorithm: fresh graph per query, pairwise BFS,
    node removal for ``avoiding`` (safe here: the graph is private)."""
    graph = (
        directed_communication_graph(architecture)
        if respect_directions
        else communication_graph(architecture)
    )
    if avoiding:
        graph.remove_nodes_from(
            [name for name in avoiding if name not in (source, target)]
        )
    waypoints = [source, *(via or ()), target]
    full_path = [source]
    for hop_source, hop_target in zip(waypoints, waypoints[1:]):
        if hop_source not in graph or hop_target not in graph:
            return None
        try:
            hop = nx.shortest_path(graph, hop_source, hop_target)
        except nx.NetworkXNoPath:
            return None
        full_path.extend(hop[1:])
    return tuple(full_path)


def reference_reachable(architecture, source, respect_directions=False):
    graph = (
        directed_communication_graph(architecture)
        if respect_directions
        else communication_graph(architecture)
    )
    if respect_directions:
        return frozenset(nx.descendants(graph, source))
    return frozenset(nx.node_connected_component(graph, source) - {source})


def assert_valid_path(architecture, path, source, target, respect_directions):
    """A reported path must start/end correctly and follow actual links."""
    assert path[0] == source and path[-1] == target
    graph = (
        directed_communication_graph(architecture)
        if respect_directions
        else communication_graph(architecture)
    )
    for step_from, step_to in zip(path, path[1:]):
        assert graph.has_edge(step_from, step_to), (step_from, step_to)


# ----------------------------------------------------------------------
# Architectures under test
# ----------------------------------------------------------------------


def hub_architecture(seed: int, components: int) -> Architecture:
    return build_synthetic(
        SyntheticSpec(components=components, scenarios=1, seed=seed)
    ).architecture


def layered_architecture() -> Architecture:
    """A three-tier chain with a side branch and one-way links — small
    enough to enumerate every element pair, rich enough to make the
    directed and undirected answers diverge."""
    architecture = Architecture("layered")
    architecture.add_component("ui", interfaces=[Interface("out", Direction.OUT)])
    architecture.add_component(
        "logic",
        interfaces=[
            Interface("in", Direction.IN),
            Interface("out", Direction.OUT),
        ],
    )
    architecture.add_component(
        "store", interfaces=[Interface("in", Direction.IN)]
    )
    architecture.add_component("audit")
    architecture.add_connector("rpc")
    architecture.add_connector("db-bus")
    architecture.link(("ui", "out"), ("rpc", "a"))
    architecture.link(("rpc", "b"), ("logic", "in"))
    architecture.link(("logic", "out"), ("db-bus", "a"))
    architecture.link(("db-bus", "b"), ("store", "in"))
    architecture.link(("logic", "audit-port"), ("audit", "port"))
    architecture.validate()
    return architecture


@pytest.fixture(params=["hub-small", "hub-large", "layered"])
def architecture(request) -> Architecture:
    builders = {
        "hub-small": lambda: hub_architecture(seed=1, components=4),
        "hub-large": lambda: hub_architecture(seed=2, components=12),
        "layered": layered_architecture,
    }
    return builders[request.param]()


def element_names(architecture) -> list[str]:
    return [c.name for c in architecture.components] + [
        c.name for c in architecture.connectors
    ]


# ----------------------------------------------------------------------
# Equivalence properties
# ----------------------------------------------------------------------


class TestIndexedAnswersMatchFreshBfs:
    @pytest.mark.parametrize("respect_directions", [False, True])
    def test_path_and_can_communicate_every_pair(
        self, architecture, respect_directions
    ):
        index = CommunicationIndex(architecture)
        names = element_names(architecture)
        for source, target in itertools.product(names, names):
            expected = reference_path(
                architecture, source, target, respect_directions
            )
            actual = index.path(
                source, target, respect_directions=respect_directions
            )
            assert (actual is None) == (expected is None), (source, target)
            assert index.can_communicate(
                source, target, respect_directions=respect_directions
            ) == (expected is not None)
            if actual is not None:
                # Several shortest paths may exist; require equal length
                # and that the reported one is genuinely walkable.
                assert len(actual) == len(expected)
                assert_valid_path(
                    architecture, actual, source, target, respect_directions
                )

    @pytest.mark.parametrize("respect_directions", [False, True])
    def test_reachable_every_source(self, architecture, respect_directions):
        index = CommunicationIndex(architecture)
        for source in element_names(architecture):
            assert index.reachable(
                source, respect_directions=respect_directions
            ) == reference_reachable(architecture, source, respect_directions)

    def test_via_and_avoiding_combinations(self, architecture):
        index = CommunicationIndex(architecture)
        names = element_names(architecture)
        source, target = names[0], names[-1]
        waypoints = names[1 : len(names) - 1]
        cases = [
            {"via": [w]} for w in waypoints[:3]
        ] + [
            {"avoiding": [w]} for w in waypoints[:3]
        ] + [
            {"via": [w], "avoiding": [x]}
            for w, x in itertools.product(waypoints[:2], waypoints[:2])
            if w != x
        ]
        for kwargs in cases:
            for respect_directions in (False, True):
                expected = reference_path(
                    architecture, source, target, respect_directions, **kwargs
                )
                actual = index.path(
                    source,
                    target,
                    respect_directions=respect_directions,
                    **kwargs,
                )
                assert (actual is None) == (expected is None), kwargs
                if actual is not None:
                    assert len(actual) == len(expected), kwargs

    def test_best_path_between_matches_pairwise_minimum(self, architecture):
        index = CommunicationIndex(architecture)
        names = element_names(architecture)
        groups = [names[:2], names[-2:], [names[0], names[-1]]]
        for sources, targets in itertools.product(groups, groups):
            pairwise = [
                reference_path(architecture, s, t)
                for s in sources
                for t in targets
            ]
            lengths = [len(p) for p in pairwise if p is not None]
            best = index.best_path_between(sources, targets)
            if not lengths:
                assert best is None
            else:
                assert best is not None
                assert len(best) == min(lengths)

    def test_memoized_and_unmemoized_answers_are_identical(self, architecture):
        """memoize=False rebuilds everything per query but runs the same
        search; answers must match the warm index tuple-for-tuple."""
        warm = CommunicationIndex(architecture, memoize=True)
        cold = CommunicationIndex(architecture, memoize=False)
        names = element_names(architecture)
        for source, target in itertools.product(names[:4], names[:4]):
            for respect_directions in (False, True):
                assert warm.path(
                    source, target, respect_directions=respect_directions
                ) == cold.path(
                    source, target, respect_directions=respect_directions
                )
                assert warm.reachable(
                    source, respect_directions=respect_directions
                ) == cold.reachable(
                    source, respect_directions=respect_directions
                )
        assert warm.best_path_between(names[:2], names[-2:]) == (
            cold.best_path_between(names[:2], names[-2:])
        )
        assert warm.articulation_components() == cold.articulation_components()
        assert warm.is_fully_connected() == cold.is_fully_connected()


class TestInvalidation:
    def test_mutation_invalidates_fingerprint(self):
        architecture = hub_architecture(seed=3, components=6)
        index = CommunicationIndex(architecture)
        before = index.path("component-0", "component-5")
        assert before is not None
        fingerprint_before = structural_fingerprint(architecture)

        architecture.excise_links_between("component-5", "bus")
        assert structural_fingerprint(architecture) != fingerprint_before
        assert index.path("component-0", "component-5") is None
        assert index.can_communicate("component-0", "component-5") is False
        assert "component-5" not in index.reachable("component-0")

    def test_mutated_index_matches_fresh_index(self):
        architecture = hub_architecture(seed=4, components=6)
        index = CommunicationIndex(architecture)
        names = element_names(architecture)
        for source in names:
            index.reachable(source)  # warm every cache entry

        architecture.excise_links_between("component-2", "bus")
        architecture.add_component("late")
        architecture.link(("late", "port"), ("bus", "slot-late"), name="late-link")

        fresh = CommunicationIndex(architecture)
        for source in element_names(architecture):
            assert index.reachable(source) == fresh.reachable(source)
            assert index.reachable(source, respect_directions=True) == (
                fresh.reachable(source, respect_directions=True)
            )
        assert index.articulation_components() == fresh.articulation_components()

    def test_interface_direction_change_invalidates(self):
        architecture = Architecture("flip")
        architecture.add_component(
            "a", interfaces=[Interface("p", Direction.OUT)]
        )
        architecture.add_component(
            "b", interfaces=[Interface("q", Direction.IN)]
        )
        architecture.link(("a", "p"), ("b", "q"))
        index = CommunicationIndex(architecture)
        assert index.can_communicate("a", "b", respect_directions=True)
        assert not index.can_communicate("b", "a", respect_directions=True)

        # Reverse the link's direction by replacing both interfaces.
        architecture.component("a").interfaces["p"] = Interface(
            "p", Direction.IN
        )
        architecture.component("b").interfaces["q"] = Interface(
            "q", Direction.OUT
        )
        assert not index.can_communicate("a", "b", respect_directions=True)
        assert index.can_communicate("b", "a", respect_directions=True)

    def test_module_api_invalidation_after_mutation(self):
        """The weakly-cached shared index behind graph.py answers stale-free
        after mutation through the public Architecture API."""
        architecture = hub_architecture(seed=5, components=5)
        assert can_communicate(architecture, "component-0", "component-4")
        architecture.excise_links_between("component-4", "bus")
        assert not can_communicate(architecture, "component-0", "component-4")
        assert (
            communication_path(architecture, "component-0", "component-4")
            is None
        )
        assert "component-4" not in reachable_elements(
            architecture, "component-0"
        )


class TestIndexStats:
    def test_warm_requery_is_a_hit(self):
        architecture = hub_architecture(seed=7, components=6)
        index = CommunicationIndex(architecture)
        index.can_communicate("component-0", "component-3")
        cold = index.stats()
        assert cold.misses > 0
        assert cold.build_seconds > 0.0

        index.can_communicate("component-0", "component-3")
        warm = index.stats()
        assert warm.hits == cold.hits + 1
        assert warm.misses == cold.misses
        assert warm.invalidations == 0

    def test_structural_mutation_records_invalidation(self):
        architecture = hub_architecture(seed=7, components=6)
        index = CommunicationIndex(architecture)
        index.can_communicate("component-0", "component-3")
        assert index.stats().invalidations == 0

        architecture.excise_links_between("component-3", "bus")
        index.can_communicate("component-0", "component-1")
        stats = index.stats()
        assert stats.invalidations == 1
        # The rebuild after invalidation is a fresh miss, not a hit.
        assert stats.misses > 1

    def test_unmemoized_index_only_misses(self):
        architecture = hub_architecture(seed=7, components=6)
        index = CommunicationIndex(architecture, memoize=False)
        index.path("component-0", "component-3")
        index.path("component-0", "component-3")
        stats = index.stats()
        assert stats.hits == 0
        assert stats.misses >= 2

    def test_misses_count_graph_builds(self, monkeypatch):
        builds = []
        build = index_module.build_communication_graph

        def counted(architecture):
            builds.append(architecture)
            return build(architecture)

        monkeypatch.setattr(index_module, "build_communication_graph", counted)
        architecture = build_pims().architecture
        components = [component.name for component in architecture.components]
        index = CommunicationIndex(architecture)
        for source, target in itertools.product(components[:6], repeat=2):
            index.path(source, target)
        stats = index.stats()
        # 36 queries compute six BFS trees, yet only the one graph build
        # misses; every later graph fetch (35 by the queries, six by the
        # tree computations) and the 30 cached trees are hits.
        assert stats.misses == len(builds) == 1
        assert stats.hits == 71

    def test_stats_snapshot_and_reset(self):
        architecture = hub_architecture(seed=7, components=4)
        index = CommunicationIndex(architecture)
        index.reachable("component-0")
        snapshot = index.stats()
        assert snapshot.to_dict()["misses"] == snapshot.misses
        assert 0.0 <= snapshot.hit_rate <= 1.0
        index.reset_stats()
        zeroed = index.stats()
        assert (zeroed.hits, zeroed.misses, zeroed.invalidations) == (0, 0, 0)
        assert zeroed.build_seconds == 0.0
        # Caches survive the reset: the next query is a pure hit.
        index.reachable("component-0")
        assert index.stats().hits == 1
        assert index.stats().misses == 0


class TestSharedIndex:
    def test_communication_index_is_cached_per_object(self):
        architecture = hub_architecture(seed=6, components=3)
        assert communication_index(architecture) is communication_index(
            architecture
        )

    def test_distinct_objects_get_distinct_indices(self):
        architecture = hub_architecture(seed=6, components=3)
        clone = architecture.clone()
        assert communication_index(architecture) is not communication_index(
            clone
        )

    def test_a_deep_copy_gets_its_own_fresh_index(self):
        architecture = hub_architecture(seed=6, components=3)
        index = communication_index(architecture)
        index.can_communicate("component-0", "component-1")
        duplicate = copy.deepcopy(architecture)
        fresh = communication_index(duplicate)
        assert fresh is not index
        assert fresh.architecture is duplicate
        assert fresh.stats().misses == 0

    def test_the_shared_index_refers_back_weakly(self):
        architecture = hub_architecture(seed=6, components=3)
        index = communication_index(architecture)
        assert index.can_communicate("component-0", "component-1")
        dropped = weakref.ref(architecture)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del architecture
            # Freed by its reference count: the pair is no cycle.
            assert dropped() is None
        finally:
            if enabled:
                gc.enable()
        with pytest.raises(ArchitectureError, match="is gone"):
            index.can_communicate("component-0", "component-1")

    def test_a_directly_built_index_holds_its_architecture(self):
        index = CommunicationIndex(hub_architecture(seed=6, components=3))
        assert index.can_communicate("component-0", "component-1")
        assert index.architecture.name

    def test_a_dropped_pipeline_frees_its_architecture(self):
        from repro.core.evaluator import Sosae

        pims = build_pims()
        architecture = pims.excised_architecture()
        sosae = Sosae(
            pims.scenarios,
            architecture,
            pims.mapping.rebind(architecture),
            constraints=pims.constraints,
            walkthrough_options=pims.options,
        )
        assert not sosae.evaluate().consistent
        dropped = weakref.ref(architecture)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del sosae, architecture
            assert dropped() is None
        finally:
            if enabled:
                gc.enable()

    def test_a_dropped_architecture_frees_its_index(self):
        indexes = []
        for _ in range(3):
            pims = build_pims()
            index = communication_index(pims.architecture)
            index.can_communicate(LOADER, DATA_REPOSITORY)
            indexes.append(weakref.ref(index))
            del pims, index
            gc.collect()
        assert [ref() for ref in indexes] == [None, None, None]

    def test_unknown_elements_raise(self):
        architecture = hub_architecture(seed=6, components=3)
        index = communication_index(architecture)
        with pytest.raises(ArchitectureError):
            index.path("ghost", "component-0")
        with pytest.raises(ArchitectureError):
            index.can_communicate("component-0", "ghost")
        with pytest.raises(ArchitectureError):
            index.reachable("ghost")

    def test_unknown_via_waypoint_returns_none(self):
        architecture = hub_architecture(seed=6, components=3)
        index = communication_index(architecture)
        assert (
            index.path("component-0", "component-1", via=["nonexistent"])
            is None
        )
