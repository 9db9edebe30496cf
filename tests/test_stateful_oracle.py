"""A stateful oracle for the pipeline's reuse paths.

A kept :class:`~repro.core.evaluator.Sosae` reuses what its earlier
evaluations computed: the engine's step table and compiled suite, the
replayed verdicts and their observation parts, the coverage fold, the
communication index's caches and its top-level placement of nested
components. Each is keyed by what it depends on. This machine drives one
kept pipeline through a sequence of edits and, after every step, holds
it to a new pipeline built from a deep copy of the edited architecture
(a cold index) and the same entries written against that copy:

* the report JSON, byte for byte, of a plain and of an observed run;
* the observed run's coverage digest.

The systems are PIMS (with its constraints) and small generated ones.
The steps:

* the eight edits of ``EDITS`` in ``tests/test_kept_table.py`` (PIMS
  only, each at most once);
* a component added, linked and mapped; a component added inside a
  top-level component's subarchitecture and mapped; a nested component
  moved to another top-level component;
* a link removed, and a removed link added back, under its old name or
  unnamed;
* an event type mapped to one more component, or unmapped;
* the walkthrough options swapped;
* a new kept pipeline over a copy of the architecture, keeping the
  mapping written against the old one (later component additions reach
  both architectures, so the mapping can name them);
* ``reevaluate`` after a structural edit to a copy, against a full
  evaluation of it; the pipeline over the copy is kept after.

The tier-1 run is derandomized, so it checks the same sequences every
time; ``--hypothesis-profile deep`` (``tests/conftest.py``) explores
more and longer ones.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.adl.structure import Architecture
from repro.core.evaluator import Sosae
from repro.core.incremental import DependencyTracker, reevaluate
from repro.core.mapping import Mapping
from repro.core.report_io import report_to_json
from repro.obs import EventBus, Recorder, instrumented
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import DATA_BUS, LOADER, build_pims
from tests.test_kept_table import EDITS

#: Every distinct function of ``EDITS``, by name.
KEPT_TABLE_EDITS = {
    function.__name__: function
    for pair in EDITS.values()
    for function in pair
}

SYSTEMS = ("pims", "generated-0", "generated-1", "generated-2")


def _system(name: str):
    if name == "pims":
        return build_pims()
    seed = int(name.rsplit("-", 1)[1])
    system = build_synthetic(SyntheticSpec(
        seed=seed, scenarios=6, components=6, event_types=10,
        events_per_scenario=5,
    ))
    return SimpleNamespace(
        ontology=system.ontology,
        scenarios=system.scenarios,
        architecture=system.architecture,
        mapping=system.mapping,
        options=None,
        constraints=(),
    )


def _observed(sosae: Sosae) -> tuple[str, str]:
    """The report JSON and coverage digest of an observed evaluation."""
    recorder = Recorder()
    with instrumented(recorder=recorder, events=EventBus()):
        report = sosae.evaluate()
    return report_to_json(report), recorder.coverage.digest


def _nested(architecture: Architecture) -> dict[str, str]:
    """Each nested component name to its top-level component."""
    return {
        nested.name: component.name
        for component in architecture.components
        if component.subarchitecture is not None
        for nested in component.subarchitecture.all_components()
    }


def _nest(architecture: Architecture, host: str, name: str) -> None:
    component = architecture.component(host)
    if component.subarchitecture is None:
        component.subarchitecture = Architecture(f"{host}-inside")
    component.subarchitecture.add_component(name)


def _unnest(architecture: Architecture, host: str, name: str) -> None:
    """Rebuild ``host``'s subarchitecture without ``name`` (the oracle's
    nested components carry no interfaces or links)."""
    component = architecture.component(host)
    remaining = [
        nested.name
        for nested in component.subarchitecture.components
        if nested.name != name
    ]
    inside = None
    if remaining:
        inside = Architecture(component.subarchitecture.name)
        for nested in remaining:
            inside.add_component(nested)
    component.subarchitecture = inside


class PipelineOracle(RuleBasedStateMachine):
    @initialize(name=st.sampled_from(SYSTEMS))
    def build(self, name):
        self.name = name
        self.system = _system(name)
        self.architecture = self.system.architecture
        self.mapping = self.system.mapping
        self.sosae = self._pipeline(
            self.architecture, self.mapping, self.system.options
        )
        self.removed: list = []
        self.applied: set[str] = set()
        self.serial = 0

    # -- helpers -------------------------------------------------------

    def _pipeline(self, architecture, mapping, options) -> Sosae:
        return Sosae(
            self.system.scenarios,
            architecture,
            mapping,
            constraints=self.system.constraints,
            walkthrough_options=options,
        )

    def _new_pipeline(self) -> Sosae:
        """A new pipeline over a deep copy of the architecture, with the
        entries loaded against the copy."""
        copy = self.architecture.clone()
        mapping = Mapping.from_json(
            self.mapping.to_json(), self.system.ontology, copy
        )
        return self._pipeline(copy, mapping, self.sosae.walkthrough_options)

    def _architectures(self) -> list[Architecture]:
        """The pipeline's architecture, and the mapping's when the
        mapping was written against another one."""
        if self.mapping.architecture is self.architecture:
            return [self.architecture]
        return [self.architecture, self.mapping.architecture]

    def _fresh_name(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}-{self.serial}"

    def _components(self) -> list[str]:
        return [component.name for component in self.architecture.components]

    def _used_types(self) -> list[str]:
        return sorted(
            name
            for name in self.system.scenarios.event_type_names()
            if self.system.ontology.has_event_type(name)
        )

    # -- edits ---------------------------------------------------------

    @precondition(lambda self: self.name == "pims")
    @rule(edit=st.sampled_from(sorted(KEPT_TABLE_EDITS)))
    def kept_table_edit(self, edit):
        assume(edit not in self.applied)
        if edit == "_remove_a_link":
            assume(self.architecture.links_between(LOADER, DATA_BUS))
        self.applied.add(edit)
        pims = SimpleNamespace(
            architecture=self.architecture,
            mapping=self.mapping,
            scenarios=self.system.scenarios,
            ontology=self.system.ontology,
            options=self.system.options,
        )
        KEPT_TABLE_EDITS[edit](pims, self.sosae)

    @rule(data=st.data())
    def add_a_component(self, data):
        name = self._fresh_name("extra")
        peer = data.draw(st.sampled_from(self._components()))
        for architecture in self._architectures():
            architecture.add_component(name)
        self.architecture.link(
            (name, "port"), (peer, f"{name}-port"), name=f"{name}-link"
        )
        event_type = data.draw(st.sampled_from(self._used_types()))
        self.mapping.map_event(event_type, name)

    @rule(data=st.data())
    def add_a_nested_component(self, data):
        name = self._fresh_name("nested")
        host = data.draw(st.sampled_from(self._components()))
        for architecture in self._architectures():
            _nest(architecture, host, name)
        event_type = data.draw(st.sampled_from(self._used_types()))
        self.mapping.map_event(event_type, name)

    @precondition(lambda self: _nested(self.architecture))
    @rule(data=st.data())
    def move_a_nested_component(self, data):
        nested = _nested(self.architecture)
        name = data.draw(st.sampled_from(sorted(nested)))
        host = data.draw(st.sampled_from(self._components()))
        assume(host != nested[name])
        _unnest(self.architecture, nested[name], name)
        _nest(self.architecture, host, name)

    @precondition(lambda self: self.architecture.links)
    @rule(data=st.data())
    def remove_a_link(self, data):
        link = data.draw(st.sampled_from(self.architecture.links))
        self.architecture.remove_link(link.name)
        self.removed.append(link)

    @precondition(lambda self: self.removed)
    @rule(data=st.data())
    def add_a_removed_link_back(self, data):
        link = self.removed.pop(
            data.draw(st.integers(0, len(self.removed) - 1))
        )
        # Unnamed, the link takes the first free generated name, which
        # may be a removed link's: that one then comes back unnamed too.
        taken = {other.name for other in self.architecture.links}
        named = data.draw(st.booleans()) and link.name not in taken
        self.architecture.link(
            (link.first.element, link.first.interface),
            (link.second.element, link.second.interface),
            name=link.name if named else None,
        )

    @rule(data=st.data())
    def map_an_event_type(self, data):
        event_type = data.draw(st.sampled_from(self._used_types()))
        component = data.draw(st.sampled_from(self._components()))
        self.mapping.map_event(event_type, component)

    @rule(data=st.data())
    def unmap_an_event_type(self, data):
        self.mapping.unmap_event(
            data.draw(st.sampled_from(self._used_types()))
        )

    @rule(respect=st.booleans(), inter=st.sampled_from([None, False, True]))
    def swap_options(self, respect, inter):
        options = self.sosae.walkthrough_options
        self.sosae.walkthrough_options = dataclasses.replace(
            options,
            respect_directions=respect,
            inter_event_respect_directions=inter,
        )

    @rule()
    def pipeline_over_a_copy(self):
        """A new kept pipeline over a copy of the architecture, with the
        mapping written against the old one."""
        self.architecture = self.architecture.clone()
        self.sosae = self._pipeline(
            self.architecture, self.mapping, self.sosae.walkthrough_options
        )

    @rule(data=st.data(), edit=st.sampled_from(["link", "nested", "none"]))
    def reevaluate_after_an_edit(self, data, edit):
        options = self.sosae.walkthrough_options
        tracker = DependencyTracker.from_report(
            self.sosae.evaluate(), self.architecture, self.mapping, options
        )
        evolved = self.architecture.clone()
        nested = _nested(evolved)
        if edit == "link" and evolved.links:
            link = data.draw(st.sampled_from(evolved.links))
            evolved.remove_link(link.name)
        elif edit == "nested" and nested:
            name = data.draw(st.sampled_from(sorted(nested)))
            host = data.draw(st.sampled_from(self._components()))
            _unnest(evolved, nested[name], name)
            _nest(evolved, host, name)
        sosae = self._pipeline(evolved, self.mapping, options)
        recorder = Recorder()
        with instrumented(recorder=recorder):
            result = reevaluate(tracker, sosae)
        self.architecture, self.sosae = evolved, sosae
        assert (
            report_to_json(result.report), recorder.coverage.digest
        ) == _observed(self._new_pipeline())

    # -- the invariant -------------------------------------------------

    @invariant()
    def equals_a_new_pipeline(self):
        expected = _observed(self._new_pipeline())
        assert report_to_json(self.sosae.evaluate()) == expected[0]
        assert _observed(self.sosae) == expected


#: The tier-1 run; ``--hypothesis-profile deep`` replaces it.
TIER1 = settings(
    max_examples=120,
    stateful_step_count=15,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=list(HealthCheck),
)

PipelineOracle.TestCase.settings = (
    settings.default
    if settings.get_current_profile_name() == "deep"
    else TIER1
)
TestPipelineOracle = PipelineOracle.TestCase
