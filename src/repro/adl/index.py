"""Memoized communication index over an architecture's link graph.

The walkthrough engine (paper §3.5) reduces every scenario step to
connectivity questions over the architecture's link graph. Answering each
question from scratch means rebuilding the NetworkX graph and re-running a
BFS per query — quadratic in graph-construction cost once suites reach
hundreds of scenarios. :class:`CommunicationIndex` builds the undirected
and directed communication graphs **once** per architecture and memoizes

* single-source shortest-path trees (one BFS serves every later ``path``
  and ``can_communicate`` query from that source),
* per-source reachability sets (undirected components / directed
  descendant sets),
* articulation components and global connectivity,
* best inter-event paths between component groups (one multi-source BFS
  instead of pairwise shortest-path calls).

Correctness under mutation is preserved by keying every answer to a
*structural fingerprint* of the architecture — element names, interface
directions, and link endpoints. Each query recomputes the fingerprint
(cheap: one tuple build, no graph objects) and drops every cache the
moment it differs, so mutate-then-requery through the same index stays
correct without any registration protocol on :class:`Architecture`.

``avoiding``/``via`` queries never mutate cached graphs: excised elements
are hidden through :func:`networkx.restricted_view`, a read-only overlay,
and the hop search runs on the view. (The historical implementation called
``remove_nodes_from`` on the graph it searched, which corrupts any shared
graph — see ``tests/test_adl_graph.py::TestCachedGraphImmutability``.)

Constructed with ``memoize=False`` the index keeps no caches and rebuilds
a fresh graph per query — the exact cost profile of the historical
implementation, used as the baseline in
``benchmarks/test_bench_comm_index.py``. Both modes run the same search
code, so their answers are identical tuple-for-tuple.
"""

from __future__ import annotations

import time
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import networkx as nx

from repro.adl.structure import Architecture
from repro.errors import ArchitectureError

__all__ = [
    "CommunicationIndex",
    "IndexStats",
    "build_communication_graph",
    "build_directed_communication_graph",
    "communication_index",
    "structural_fingerprint",
]


@dataclass(frozen=True)
class IndexStats:
    """A snapshot of one index's cache behavior.

    ``hits`` counts answers served from a cache: a graph, a BFS tree, a
    reachability set, a best path, the articulation points or the
    connectivity verdict. ``misses`` counts communication-graph builds
    and nothing else: a tree, set or path computed afresh from a cached
    graph counts one hit (the graph) and no miss. ``invalidations``
    counts fingerprint changes that dropped the caches;
    ``build_seconds`` is the cumulative wall time spent constructing
    communication graphs. An unmemoized index builds a graph, so
    misses, on every query that needs one, and never hits.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    build_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Hits over hits plus graph builds (0.0 before either). Misses
        count only graph builds, so this is not the share of lookups a
        cache answered: one build followed by any cached answers reads
        close to 1.0."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "build_seconds": self.build_seconds,
            "hit_rate": self.hit_rate,
        }


def build_communication_graph(architecture: Architecture) -> nx.MultiGraph:
    """The undirected element-level link graph.

    Nodes are element names with a ``kind`` attribute (``"component"`` or
    ``"connector"``); each link contributes one edge keyed by link name.
    """
    graph = nx.MultiGraph()
    for component in architecture.components:
        graph.add_node(component.name, kind="component")
    for connector in architecture.connectors:
        graph.add_node(connector.name, kind="connector")
    for link in architecture.links:
        graph.add_edge(
            link.first.element, link.second.element, key=link.name, link=link
        )
    return graph


def build_directed_communication_graph(
    architecture: Architecture,
) -> nx.MultiDiGraph:
    """The directed element-level graph induced by interface directions.

    For each link, an edge ``a -> b`` is added when ``a``'s endpoint
    interface can initiate and ``b``'s can accept (and symmetrically)."""
    graph = nx.MultiDiGraph()
    for component in architecture.components:
        graph.add_node(component.name, kind="component")
    for connector in architecture.connectors:
        graph.add_node(connector.name, kind="connector")
    for link in architecture.links:
        first = architecture.element(link.first.element).interface(
            link.first.interface
        )
        second = architecture.element(link.second.element).interface(
            link.second.interface
        )
        if first.direction.initiates() and second.direction.accepts():
            graph.add_edge(
                link.first.element, link.second.element, key=link.name, link=link
            )
        if second.direction.initiates() and first.direction.accepts():
            graph.add_edge(
                link.second.element, link.first.element, key=link.name, link=link
            )
    return graph


_SECTION_BREAK = object()


def structural_fingerprint(architecture: Architecture) -> tuple:
    """An opaque value capturing everything the communication graphs
    depend on.

    Two architectures with equal fingerprints induce identical undirected
    *and* directed communication graphs: element names, per-element
    interface names and directions, and link endpoints all participate.
    So do subarchitectures, whose components decide
    :meth:`CommunicationIndex.top_levels`. Descriptions, properties and
    behaviors do not.

    This runs on the warm query path (every unpinned index query
    recomputes it to detect mutation), so it is a flat tuple of interned
    names and :class:`~repro.adl.structure.Direction` members (with a
    nested fingerprint per decomposed component), no enum ``.value``
    lookups.
    """
    parts: list = []
    append = parts.append
    for name, component in architecture._components.items():
        append(name)
        for interface_name, interface in component.interfaces.items():
            append(interface_name)
            append(interface.direction)
        if component.subarchitecture is not None:
            append(structural_fingerprint(component.subarchitecture))
    append(_SECTION_BREAK)
    for name, connector in architecture._connectors.items():
        append(name)
        for interface_name, interface in connector.interfaces.items():
            append(interface_name)
            append(interface.direction)
    append(_SECTION_BREAK)
    for name, link in architecture._links.items():
        append(name)
        first, second = link.first, link.second
        append(first.element)
        append(first.interface)
        append(second.element)
        append(second.interface)
    return tuple(parts)


class CommunicationIndex:
    """Cached connectivity answers for one architecture.

    All public methods validate staleness against the architecture's
    current :func:`structural_fingerprint` before answering, so the index
    may be held across mutations. Cached graphs are shared state: callers
    receiving one through :meth:`graph` must treat it as read-only.
    """

    def __init__(self, architecture: Architecture, memoize: bool = True) -> None:
        # The architecture, or a weak reference to it when the index is
        # the one kept on the architecture (see `communication_index`).
        self._architecture = architecture
        self.memoize = memoize
        self._fingerprint: Optional[tuple] = None
        self._graphs: dict[bool, nx.MultiGraph | nx.MultiDiGraph] = {}
        self._trees: dict[tuple[bool, str], dict[str, list[str]]] = {}
        self._reachable: dict[tuple[bool, str], frozenset[str]] = {}
        self._best_paths: dict[tuple, Optional[tuple[str, ...]]] = {}
        self._articulation: Optional[frozenset[str]] = None
        self._connected: Optional[bool] = None
        self._top_levels: Optional[dict[str, str]] = None
        self._pins: int = 0
        # Cache-behavior accounting (snapshotted by `stats()`); plain int
        # increments so the warm query path stays allocation-free.
        self._hits: int = 0
        self._misses: int = 0
        self._invalidations: int = 0
        self._build_seconds: float = 0.0

    @property
    def architecture(self) -> Architecture:
        held = self._architecture
        if held.__class__ is weakref.ref:
            held = held()
            if held is None:
                raise ArchitectureError(
                    "the architecture of this communication index is gone"
                )
        return held

    # ------------------------------------------------------------------
    # Cache lifecycle
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Drop every cache if the architecture's structure changed.

        Skipped while pinned: the pin holder vouches that no mutation
        happens for the pin's duration, so one fingerprint at pin entry
        covers every query inside."""
        if not self.memoize or self._pins:
            return
        self._validate_fingerprint()

    def _validate_fingerprint(self) -> None:
        fingerprint = structural_fingerprint(self.architecture)
        if fingerprint != self._fingerprint:
            if self._fingerprint is not None:
                # The first fingerprint is cache population, not a drop.
                self._invalidations += 1
            self._fingerprint = fingerprint
            self._graphs.clear()
            self._trees.clear()
            self._reachable.clear()
            self._best_paths.clear()
            self._articulation = None
            self._connected = None
            self._top_levels = None

    @contextmanager
    def pinned(self) -> Iterator["CommunicationIndex"]:
        """Validate the fingerprint once, then answer every query inside
        the ``with`` block without re-checking for mutation.

        The caller promises not to mutate the architecture while the pin
        is held — the natural unit is one scenario walk, during which the
        evaluation never mutates its inputs. Pins nest, and a nested pin
        is covered by the outer holder's promise, so only the outermost
        entry validates; queries made outside any pin always re-validate.
        """
        if self.memoize and not self._pins:
            self._validate_fingerprint()
        self._pins += 1
        try:
            yield self
        finally:
            self._pins -= 1

    def _build_graph(self, directed: bool) -> nx.MultiGraph | nx.MultiDiGraph:
        self._misses += 1
        start = time.perf_counter()
        graph = (
            build_directed_communication_graph(self.architecture)
            if directed
            else build_communication_graph(self.architecture)
        )
        self._build_seconds += time.perf_counter() - start
        return graph

    def _graph(self, directed: bool) -> nx.MultiGraph | nx.MultiDiGraph:
        if not self.memoize:
            return self._build_graph(directed)
        graph = self._graphs.get(directed)
        if graph is None:
            graph = self._build_graph(directed)
            self._graphs[directed] = graph
        else:
            self._hits += 1
        return graph

    def cached_graphs(self) -> tuple[bool, ...]:
        """The ``respect_directions`` of each cached communication
        graph, in the order they were built."""
        return tuple(self._graphs)

    def graph(self, respect_directions: bool = False):
        """The (cached) communication graph. **Read-only** — queries with
        ``avoiding`` overlay :func:`networkx.restricted_view` rather than
        mutating it, and callers must do likewise."""
        self._refresh()
        return self._graph(respect_directions)

    def _tree(self, directed: bool, source: str) -> dict[str, list[str]]:
        """Single-source shortest-path tree from ``source`` (forward BFS)."""
        if not self.memoize:
            return nx.single_source_shortest_path(self._graph(directed), source)
        key = (directed, source)
        tree = self._trees.get(key)
        if tree is None:
            tree = nx.single_source_shortest_path(self._graph(directed), source)
            self._trees[key] = tree
        else:
            self._hits += 1
        return tree

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def path(
        self,
        source: str,
        target: str,
        respect_directions: bool = False,
        via: Optional[Iterable[str]] = None,
        avoiding: Optional[Iterable[str]] = None,
    ) -> Optional[tuple[str, ...]]:
        """A shortest element path from ``source`` to ``target``, or
        ``None``. Semantics match
        :func:`repro.adl.graph.communication_path`."""
        self._require_element(source)
        self._require_element(target)
        self._refresh()
        directed = respect_directions
        removed: tuple[str, ...] = ()
        if avoiding:
            removed = tuple(
                name for name in avoiding if name not in (source, target)
            )
        graph = self._graph(directed)
        if removed:
            graph = nx.restricted_view(graph, removed, ())
        waypoints = [source, *(via or ()), target]
        full_path: list[str] = [source]
        for hop_source, hop_target in zip(waypoints, waypoints[1:]):
            if hop_source not in graph or hop_target not in graph:
                return None
            if removed:
                # A restricted view is query-specific; search it directly
                # instead of polluting the tree cache.
                hop = nx.single_source_shortest_path(graph, hop_source).get(
                    hop_target
                )
            else:
                hop = self._tree(directed, hop_source).get(hop_target)
            if hop is None:
                return None
            full_path.extend(hop[1:])
        return tuple(full_path)

    def can_communicate(
        self,
        source: str,
        target: str,
        respect_directions: bool = False,
        via: Optional[Iterable[str]] = None,
        avoiding: Optional[Iterable[str]] = None,
    ) -> bool:
        """Whether a communication path exists from ``source`` to
        ``target``. The unconstrained form answers from the cached
        reachability set without materializing a path."""
        if via or avoiding:
            return (
                self.path(
                    source,
                    target,
                    respect_directions=respect_directions,
                    via=via,
                    avoiding=avoiding,
                )
                is not None
            )
        self._require_element(source)
        self._require_element(target)
        if source == target:
            return True
        self._refresh()
        return target in self._reachable_set(respect_directions, source)

    def reachable(
        self, source: str, respect_directions: bool = False
    ) -> frozenset[str]:
        """Every element reachable from ``source`` (excluding itself)."""
        self._require_element(source)
        self._refresh()
        return self._reachable_set(respect_directions, source)

    def _reachable_set(self, directed: bool, source: str) -> frozenset[str]:
        key = (directed, source)
        if self.memoize:
            cached = self._reachable.get(key)
            if cached is not None:
                self._hits += 1
                return cached
        graph = self._graph(directed)
        if directed:
            reached = frozenset(nx.descendants(graph, source))
        else:
            reached = frozenset(
                nx.node_connected_component(graph, source) - {source}
            )
        if self.memoize:
            self._reachable[key] = reached
        return reached

    def best_path_between(
        self,
        sources: Sequence[str],
        targets: Sequence[str],
        respect_directions: bool = False,
    ) -> Optional[tuple[str, ...]]:
        """A shortest path from any of ``sources`` to any of ``targets``
        — one multi-source BFS instead of ``len(sources) × len(targets)``
        pairwise searches. A name occurring on both sides yields the
        trivial one-element path (first such ``sources`` entry wins,
        matching the historical pairwise scan order). Names absent from
        the architecture are ignored."""
        target_set = set(targets)
        for source in sources:
            if source in target_set:
                return (source,)
        self._refresh()
        key = (tuple(sources), tuple(targets), respect_directions)
        if self.memoize and key in self._best_paths:
            self._hits += 1
            return self._best_paths[key]
        result = self._multi_source_bfs(
            self._graph(respect_directions), sources, target_set
        )
        if self.memoize:
            self._best_paths[key] = result
        return result

    @staticmethod
    def _multi_source_bfs(
        graph, sources: Sequence[str], target_set: set[str]
    ) -> Optional[tuple[str, ...]]:
        parents: dict[str, Optional[str]] = {}
        queue: deque[str] = deque()
        for source in sources:
            if source in graph and source not in parents:
                parents[source] = None
                queue.append(source)
        while queue:
            node = queue.popleft()
            if node in target_set:
                hops: list[str] = []
                walk: Optional[str] = node
                while walk is not None:
                    hops.append(walk)
                    walk = parents[walk]
                return tuple(reversed(hops))
            for neighbor in graph.adj[node]:
                if neighbor not in parents:
                    parents[neighbor] = node
                    queue.append(neighbor)
        return None

    def articulation_components(self) -> frozenset[str]:
        """Components whose removal disconnects the communication graph."""
        self._refresh()
        if self.memoize and self._articulation is not None:
            self._hits += 1
            return self._articulation
        simple = nx.Graph(self._graph(False))
        result = frozenset(
            name
            for name in nx.articulation_points(simple)
            if self.architecture.is_component(name)
        )
        if self.memoize:
            self._articulation = result
        return result

    def is_fully_connected(self) -> bool:
        """Whether every element can (undirectedly) reach every other."""
        self._refresh()
        if self.memoize and self._connected is not None:
            self._hits += 1
            return self._connected
        graph = self._graph(False)
        result = graph.number_of_nodes() <= 1 or nx.is_connected(
            nx.Graph(graph)
        )
        if self.memoize:
            self._connected = result
        return result

    def top_levels(self) -> dict[str, str]:
        """Each component name, nested ones included (depth-first; the
        first declaration wins), to its top-level component. Read-only."""
        self._refresh()
        tops = self._top_levels
        if tops is None:
            tops = {}
            for component in self.architecture.components:
                tops.setdefault(component.name, component.name)
                inside = component.subarchitecture
                if inside is not None:
                    for nested in inside.all_components(recursive=True):
                        tops.setdefault(nested.name, component.name)
            if self.memoize:
                self._top_levels = tops
        return tops

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def misses(self) -> int:
        """The miss count of :meth:`stats`, read without building a
        snapshot."""
        return self._misses

    def stats(self) -> IndexStats:
        """A snapshot of cumulative cache behavior since construction
        (or the last :meth:`reset_stats`)."""
        return IndexStats(
            hits=self._hits,
            misses=self._misses,
            invalidations=self._invalidations,
            build_seconds=self._build_seconds,
        )

    def reset_stats(self) -> None:
        """Zero the statistics (caches are untouched)."""
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._build_seconds = 0.0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _require_element(self, name: str) -> None:
        if not self.architecture.has_element(name):
            raise ArchitectureError(
                f"architecture {self.architecture.name!r} has no element "
                f"{name!r}"
            )

    def __repr__(self) -> str:
        return (
            f"CommunicationIndex({self.architecture.name!r}, "
            f"memoize={self.memoize}, "
            f"trees={len(self._trees)}, paths={len(self._best_paths)})"
        )


def communication_index(architecture: Architecture) -> CommunicationIndex:
    """The shared per-architecture index.

    Kept on the architecture object itself, so the index neither
    outlives a discarded architecture nor is shared by distinct objects
    with equal names (e.g. an original and its fault-seeded clone,
    which copying leaves without one). Every consumer resolving through
    here — the ``graph.py`` module API, the walkthrough engine,
    constraints, incremental re-evaluation — shares one warm index per
    architecture object. The index reaches its architecture through a
    weak reference, so the pair is no reference cycle: a dropped
    architecture is freed, index and all, without the cycle collector.
    """
    index = architecture._communication_index
    if index is None:
        index = architecture._communication_index = CommunicationIndex(
            architecture
        )
        index._architecture = weakref.ref(architecture)
    return index
