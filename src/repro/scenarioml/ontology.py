"""The ScenarioML domain-ontology sublanguage.

An ontology is a collection of interrelated definitions:

* :class:`Term` — a named domain concept with a prose definition.
* :class:`InstanceType` — a domain class; classes form a subclass forest
  through their ``super_name``.
* :class:`Instance` — a domain individual of some class whose existence is
  assumed or guaranteed.
* :class:`EventType` — a reusable template for events; event types may be
  parameterized (each :class:`Parameter` optionally constrained to a domain
  class) and may be specialized through ``super_name``.

The :class:`Ontology` container enforces unique names, resolves references,
and offers the structural reasoning the approach relies on: subsumption
closure over classes and event types, cycle detection, classification of
individuals, and conformance checking of typed-event arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import (
    ArityError,
    DuplicateDefinitionError,
    OntologyError,
    SubsumptionCycleError,
    UnknownDefinitionError,
)


@dataclass(frozen=True)
class Term:
    """A named domain concept with a natural-language definition."""

    name: str
    definition: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise OntologyError("a term must have a non-empty name")


@dataclass(frozen=True)
class InstanceType:
    """A domain class (ScenarioML ``instanceType``).

    ``super_name`` names the superclass, if any; subclass relationships are
    resolved and validated by the owning :class:`Ontology`.
    """

    name: str
    description: str = ""
    super_name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise OntologyError("an instance type must have a non-empty name")
        if self.super_name == self.name:
            raise SubsumptionCycleError(
                f"instance type {self.name!r} cannot be its own superclass"
            )


@dataclass(frozen=True)
class Instance:
    """A domain individual (ScenarioML ``instance``) of a domain class."""

    name: str
    type_name: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise OntologyError("an instance must have a non-empty name")
        if not self.type_name:
            raise OntologyError(
                f"instance {self.name!r} must name its instance type"
            )


@dataclass(frozen=True)
class Parameter:
    """A formal parameter of an :class:`EventType`.

    ``type_name`` optionally constrains arguments to individuals of a domain
    class (or any of its subclasses). An untyped parameter accepts any
    argument, including plain literals.
    """

    name: str
    type_name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise OntologyError("a parameter must have a non-empty name")


@dataclass(frozen=True)
class EventType:
    """A reusable event template (ScenarioML ``eventType``).

    ``text`` is the natural-language phrasing; occurrences of
    ``[parameter-name]`` in it are substituted with argument values when a
    :class:`~repro.scenarioml.events.TypedEvent` is rendered.

    ``actor`` records which scenario actor performs events of this type —
    the paper's step 1 ("identify actors of the scenarios and actions they
    perform") attaches each generalized action to an actor.

    ``abstract`` marks types that exist only to be specialized; scenarios
    must not instantiate them directly.
    """

    name: str
    text: str = ""
    actor: Optional[str] = None
    parameters: tuple[Parameter, ...] = ()
    super_name: Optional[str] = None
    abstract: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise OntologyError("an event type must have a non-empty name")
        if self.super_name == self.name:
            raise SubsumptionCycleError(
                f"event type {self.name!r} cannot be its own supertype"
            )
        seen: set[str] = set()
        for parameter in self.parameters:
            if parameter.name in seen:
                raise OntologyError(
                    f"event type {self.name!r} declares parameter "
                    f"{parameter.name!r} more than once"
                )
            seen.add(parameter.name)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        """The declared parameter names, in order."""
        return tuple(parameter.name for parameter in self.parameters)

    def render(self, arguments: Mapping[str, str]) -> str:
        """Render the type's text with ``[name]`` placeholders substituted."""
        rendered = self.text or self.name
        for parameter in self.parameters:
            value = arguments.get(parameter.name, f"[{parameter.name}]")
            rendered = rendered.replace(f"[{parameter.name}]", value)
        return rendered


class Ontology:
    """A collection of domain term, class, individual, and event-type
    definitions, with structural reasoning over them.

    Definitions are added through the ``add_*`` methods (or the ``define_*``
    conveniences, which construct and add in one call). Names are unique
    per definition kind.
    """

    def __init__(self, name: str = "ontology", description: str = "") -> None:
        if not name:
            raise OntologyError("an ontology must have a non-empty name")
        self.name = name
        self.description = description
        self._terms: dict[str, Term] = {}
        self._instance_types: dict[str, InstanceType] = {}
        self._instances: dict[str, Instance] = {}
        self._event_types: dict[str, EventType] = {}
        #: Bumped by every ``add_*``, so a cache of answers about the
        #: ontology can tell that it changed.
        self.version = 0

    # ------------------------------------------------------------------
    # Definition management
    # ------------------------------------------------------------------

    def add_term(self, term: Term) -> Term:
        """Register a :class:`Term`; raise on duplicate names."""
        if term.name in self._terms:
            raise DuplicateDefinitionError(
                f"term {term.name!r} is already defined in {self.name!r}"
            )
        self._terms[term.name] = term
        self.version += 1
        return term

    def add_instance_type(self, instance_type: InstanceType) -> InstanceType:
        """Register an :class:`InstanceType`; raise on duplicate names."""
        if instance_type.name in self._instance_types:
            raise DuplicateDefinitionError(
                f"instance type {instance_type.name!r} is already defined "
                f"in {self.name!r}"
            )
        self._instance_types[instance_type.name] = instance_type
        self.version += 1
        return instance_type

    def add_instance(self, instance: Instance) -> Instance:
        """Register an :class:`Instance`; raise on duplicate names."""
        if instance.name in self._instances:
            raise DuplicateDefinitionError(
                f"instance {instance.name!r} is already defined in {self.name!r}"
            )
        self._instances[instance.name] = instance
        self.version += 1
        return instance

    def add_event_type(self, event_type: EventType) -> EventType:
        """Register an :class:`EventType`; raise on duplicate names."""
        if event_type.name in self._event_types:
            raise DuplicateDefinitionError(
                f"event type {event_type.name!r} is already defined "
                f"in {self.name!r}"
            )
        self._event_types[event_type.name] = event_type
        self.version += 1
        return event_type

    def define_term(self, name: str, definition: str = "") -> Term:
        """Construct and register a :class:`Term`."""
        return self.add_term(Term(name, definition))

    def define_instance_type(
        self,
        name: str,
        description: str = "",
        super_name: Optional[str] = None,
    ) -> InstanceType:
        """Construct and register an :class:`InstanceType`."""
        return self.add_instance_type(InstanceType(name, description, super_name))

    def define_instance(
        self, name: str, type_name: str, description: str = ""
    ) -> Instance:
        """Construct and register an :class:`Instance`."""
        return self.add_instance(Instance(name, type_name, description))

    def define_event_type(
        self,
        name: str,
        text: str = "",
        actor: Optional[str] = None,
        parameters: Sequence[Parameter | str] = (),
        super_name: Optional[str] = None,
        abstract: bool = False,
        description: str = "",
    ) -> EventType:
        """Construct and register an :class:`EventType`.

        Parameters may be given as :class:`Parameter` objects or as bare
        names (untyped parameters).
        """
        normalized = tuple(
            parameter if isinstance(parameter, Parameter) else Parameter(parameter)
            for parameter in parameters
        )
        return self.add_event_type(
            EventType(
                name=name,
                text=text,
                actor=actor,
                parameters=normalized,
                super_name=super_name,
                abstract=abstract,
                description=description,
            )
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def terms(self) -> tuple[Term, ...]:
        """All registered terms, in definition order."""
        return tuple(self._terms.values())

    @property
    def instance_types(self) -> tuple[InstanceType, ...]:
        """All registered domain classes, in definition order."""
        return tuple(self._instance_types.values())

    @property
    def instances(self) -> tuple[Instance, ...]:
        """All registered domain individuals, in definition order."""
        return tuple(self._instances.values())

    @property
    def event_types(self) -> tuple[EventType, ...]:
        """All registered event types, in definition order."""
        return tuple(self._event_types.values())

    def term(self, name: str) -> Term:
        """Resolve a term by name; raise :class:`UnknownDefinitionError`."""
        try:
            return self._terms[name]
        except KeyError:
            raise UnknownDefinitionError(
                f"ontology {self.name!r} has no term {name!r}"
            ) from None

    def instance_type(self, name: str) -> InstanceType:
        """Resolve a domain class by name."""
        try:
            return self._instance_types[name]
        except KeyError:
            raise UnknownDefinitionError(
                f"ontology {self.name!r} has no instance type {name!r}"
            ) from None

    def instance(self, name: str) -> Instance:
        """Resolve a domain individual by name."""
        try:
            return self._instances[name]
        except KeyError:
            raise UnknownDefinitionError(
                f"ontology {self.name!r} has no instance {name!r}"
            ) from None

    def event_type(self, name: str) -> EventType:
        """Resolve an event type by name."""
        try:
            return self._event_types[name]
        except KeyError:
            raise UnknownDefinitionError(
                f"ontology {self.name!r} has no event type {name!r}"
            ) from None

    def has_term(self, name: str) -> bool:
        """Whether a term with this name is defined."""
        return name in self._terms

    def has_instance_type(self, name: str) -> bool:
        """Whether a domain class with this name is defined."""
        return name in self._instance_types

    def has_instance(self, name: str) -> bool:
        """Whether a domain individual with this name is defined."""
        return name in self._instances

    def has_event_type(self, name: str) -> bool:
        """Whether an event type with this name is defined."""
        return name in self._event_types

    # ------------------------------------------------------------------
    # Subsumption reasoning
    # ------------------------------------------------------------------

    def class_ancestors(self, name: str) -> tuple[str, ...]:
        """Superclass chain of a domain class, nearest first.

        Raises :class:`SubsumptionCycleError` if the chain revisits a class
        and :class:`UnknownDefinitionError` on dangling ``super_name``.
        """
        return self._ancestors(name, self._instance_types, "instance type")

    def event_type_ancestors(self, name: str) -> tuple[str, ...]:
        """Supertype chain of an event type, nearest first."""
        return self._ancestors(name, self._event_types, "event type")

    def _ancestors(
        self,
        name: str,
        definitions: Mapping[str, InstanceType] | Mapping[str, EventType],
        kind: str,
    ) -> tuple[str, ...]:
        if name not in definitions:
            raise UnknownDefinitionError(
                f"ontology {self.name!r} has no {kind} {name!r}"
            )
        chain: list[str] = []
        seen = {name}
        current = definitions[name].super_name
        while current is not None:
            if current in seen:
                raise SubsumptionCycleError(
                    f"{kind} subsumption cycle through {current!r} "
                    f"in ontology {self.name!r}"
                )
            if current not in definitions:
                raise UnknownDefinitionError(
                    f"{kind} {name!r} names unknown super {current!r}"
                )
            chain.append(current)
            seen.add(current)
            current = definitions[current].super_name
        return tuple(chain)

    def is_subclass_of(self, name: str, ancestor: str) -> bool:
        """Whether domain class ``name`` equals or specializes ``ancestor``."""
        return name == ancestor or ancestor in self.class_ancestors(name)

    def is_event_subtype_of(self, name: str, ancestor: str) -> bool:
        """Whether event type ``name`` equals or specializes ``ancestor``."""
        return name == ancestor or ancestor in self.event_type_ancestors(name)

    def class_descendants(self, name: str) -> tuple[str, ...]:
        """All domain classes that specialize ``name`` (excluding itself)."""
        self.instance_type(name)
        return tuple(
            candidate.name
            for candidate in self._instance_types.values()
            if candidate.name != name
            and name in self.class_ancestors(candidate.name)
        )

    def event_type_descendants(self, name: str) -> tuple[str, ...]:
        """All event types that specialize ``name`` (excluding itself)."""
        self.event_type(name)
        return tuple(
            candidate.name
            for candidate in self._event_types.values()
            if candidate.name != name
            and name in self.event_type_ancestors(candidate.name)
        )

    def least_common_event_supertype(
        self, first: str, second: str
    ) -> Optional[str]:
        """The nearest event type subsuming both, or ``None`` if unrelated.

        Used when generalizing related actions under one more-abstract
        event type (the paper's §5 save/update/delete example).
        """
        first_chain = (first, *self.event_type_ancestors(first))
        second_chain = set((second, *self.event_type_ancestors(second)))
        for candidate in first_chain:
            if candidate in second_chain:
                return candidate
        return None

    def instances_of(self, type_name: str, transitive: bool = True) -> tuple[Instance, ...]:
        """All individuals whose class equals (or specializes) ``type_name``."""
        self.instance_type(type_name)
        result = []
        for instance in self._instances.values():
            if instance.type_name == type_name:
                result.append(instance)
            elif transitive and self.has_instance_type(instance.type_name) and (
                type_name in self.class_ancestors(instance.type_name)
            ):
                result.append(instance)
        return tuple(result)

    def effective_parameters(self, event_type_name: str) -> tuple[Parameter, ...]:
        """Parameters of an event type including those inherited from
        supertypes. A subtype parameter with the same name overrides the
        inherited one."""
        event_type = self.event_type(event_type_name)
        chain = [event_type.name, *self.event_type_ancestors(event_type.name)]
        merged: dict[str, Parameter] = {}
        for type_name in reversed(chain):
            for parameter in self._event_types[type_name].parameters:
                merged[parameter.name] = parameter
        return tuple(merged.values())

    # ------------------------------------------------------------------
    # Conformance
    # ------------------------------------------------------------------

    def check_arguments(
        self, event_type_name: str, arguments: Mapping[str, str]
    ) -> None:
        """Validate a typed event's arguments against its event type.

        Every effective parameter must be bound; no extra arguments are
        allowed; an argument bound to a typed parameter must either be a
        known individual of a conforming class or a plain literal (literals
        are allowed so scenarios can introduce entities "newly created or
        identified during the course of a scenario", per ScenarioML).
        Raises the :class:`OntologyError` (an :class:`ArityError` for a
        binding that does not fit) :class:`ArgumentChecker` reports.
        """
        error = ArgumentChecker(self).error(event_type_name, arguments)
        if error is not None:
            raise error

    # ------------------------------------------------------------------
    # Whole-ontology validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check referential integrity and acyclicity of the ontology.

        * every ``super_name`` resolves and forms no cycle,
        * every instance's ``type_name`` resolves,
        * every typed parameter's ``type_name`` resolves.
        """
        for instance_type in self._instance_types.values():
            self.class_ancestors(instance_type.name)
        for event_type in self._event_types.values():
            self.event_type_ancestors(event_type.name)
            for parameter in event_type.parameters:
                if parameter.type_name is not None and not self.has_instance_type(
                    parameter.type_name
                ):
                    raise UnknownDefinitionError(
                        f"parameter {parameter.name!r} of event type "
                        f"{event_type.name!r} names unknown instance type "
                        f"{parameter.type_name!r}"
                    )
        for instance in self._instances.values():
            if not self.has_instance_type(instance.type_name):
                raise UnknownDefinitionError(
                    f"instance {instance.name!r} names unknown instance type "
                    f"{instance.type_name!r}"
                )

    def merge(self, other: "Ontology") -> "Ontology":
        """A new ontology containing this ontology's definitions plus
        ``other``'s. Identical duplicate definitions are tolerated;
        conflicting ones raise :class:`DuplicateDefinitionError`."""
        merged = Ontology(
            name=f"{self.name}+{other.name}",
            description=self.description or other.description,
        )
        for source in (self, other):
            for term in source.terms:
                _merge_one(merged._terms, term.name, term, "term")
            for instance_type in source.instance_types:
                _merge_one(
                    merged._instance_types,
                    instance_type.name,
                    instance_type,
                    "instance type",
                )
            for instance in source.instances:
                _merge_one(merged._instances, instance.name, instance, "instance")
            for event_type in source.event_types:
                _merge_one(
                    merged._event_types, event_type.name, event_type, "event type"
                )
        merged.validate()
        return merged

    def __contains__(self, name: str) -> bool:
        return (
            name in self._terms
            or name in self._instance_types
            or name in self._instances
            or name in self._event_types
        )

    def __repr__(self) -> str:
        return (
            f"Ontology({self.name!r}: {len(self._terms)} terms, "
            f"{len(self._instance_types)} classes, "
            f"{len(self._instances)} individuals, "
            f"{len(self._event_types)} event types)"
        )


@dataclass(frozen=True)
class ParameterTable:
    """What checking an event type's arguments needs to know about the
    type, computed once per type.

    ``parameters`` maps each effective parameter (inherited ones
    included) to the domain class its argument must conform to, or
    ``None`` when untyped; ``typed`` keeps only the typed ones.
    ``error`` is why the type cannot be instantiated at all: it is
    unknown, abstract, or its supertype chain is broken."""

    exists: bool
    parameters: Mapping[str, Optional[str]] = field(default_factory=dict)
    typed: Mapping[str, str] = field(default_factory=dict)
    error: Optional[OntologyError] = None


_UNCHECKED = object()


class ArgumentChecker:
    """Conformance of typed-event arguments to one ontology.

    The ontology collapses per-occurrence checks into per-type ones:
    the checker builds one :class:`ParameterTable` per event type and
    one superclass chain per domain class, and :meth:`check` answers
    once per distinct ``(type, arguments)`` binding. The ontology must
    not change while a checker is in use."""

    def __init__(self, ontology: Ontology) -> None:
        self.ontology = ontology
        self._tables: dict[str, ParameterTable] = {}
        self._class_chains: dict[str, tuple[str, ...] | OntologyError] = {}
        self._verdicts: dict[tuple, Optional[OntologyError]] = {}

    def table(self, event_type_name: str) -> ParameterTable:
        """The parameter table of one event type."""
        table = self._tables.get(event_type_name)
        if table is None:
            table = self._tables[event_type_name] = self._build_table(
                event_type_name
            )
        return table

    def _build_table(self, event_type_name: str) -> ParameterTable:
        ontology = self.ontology
        try:
            event_type = ontology.event_type(event_type_name)
        except UnknownDefinitionError as error:
            return ParameterTable(exists=False, error=error)
        if event_type.abstract:
            return ParameterTable(
                exists=True,
                error=OntologyError(
                    f"abstract event type {event_type_name!r} cannot be "
                    "instantiated directly"
                ),
            )
        try:
            parameters = ontology.effective_parameters(event_type_name)
        except OntologyError as error:
            return ParameterTable(exists=True, error=error)
        return ParameterTable(
            exists=True,
            parameters={
                parameter.name: parameter.type_name for parameter in parameters
            },
            typed={
                parameter.name: parameter.type_name
                for parameter in parameters
                if parameter.type_name is not None
            },
        )

    def check(
        self, event_type_name: str, arguments: Mapping[str, str]
    ) -> Optional[OntologyError]:
        """:meth:`error`, answered once per distinct binding."""
        key = (event_type_name, tuple(arguments.items()))
        verdict = self._verdicts.get(key, _UNCHECKED)
        if verdict is _UNCHECKED:
            verdict = self._verdicts[key] = self.error(
                event_type_name, arguments
            )
        return verdict

    def error(
        self, event_type_name: str, arguments: Mapping[str, str]
    ) -> Optional[OntologyError]:
        """Why ``arguments`` do not instantiate the event type (see
        :meth:`Ontology.check_arguments`), or ``None`` when they do."""
        table = self.table(event_type_name)
        if table.error is not None:
            return table.error
        parameters = table.parameters
        if parameters.keys() != arguments.keys():
            missing = sorted(set(parameters) - set(arguments))
            extra = sorted(set(arguments) - set(parameters))
            return ArityError(
                f"event type {event_type_name!r} arguments mismatch: "
                f"missing={missing} extra={extra}"
            )
        typed = table.typed
        if not typed:
            return None
        ontology = self.ontology
        for name, value in arguments.items():
            expected = typed.get(name)
            if expected is None or not ontology.has_instance(value):
                continue  # untyped, or a literal the scenario introduces
            actual = ontology.instance(value).type_name
            if actual == expected:
                continue
            chain = self._class_chain(actual)
            if isinstance(chain, OntologyError):
                return chain
            if expected not in chain:
                return ArityError(
                    f"argument {name}={value!r} of event type "
                    f"{event_type_name!r} is a {actual!r}, "
                    f"which is not a {expected!r}"
                )
        return None

    def _class_chain(self, class_name: str) -> tuple[str, ...] | OntologyError:
        chain = self._class_chains.get(class_name)
        if chain is None:
            try:
                chain = self.ontology.class_ancestors(class_name)
            except OntologyError as error:
                chain = error
            self._class_chains[class_name] = chain
        return chain


def _merge_one(target: dict, name: str, definition, kind: str) -> None:
    """Insert ``definition`` into ``target``, tolerating exact duplicates."""
    existing = target.get(name)
    if existing is None:
        target[name] = definition
    elif existing != definition:
        raise DuplicateDefinitionError(
            f"conflicting definitions of {kind} {name!r} during merge"
        )
