"""Instantiate an ADL architecture into the simulator.

:class:`ArchitectureRuntime` turns every component and connector of an
:class:`~repro.adl.structure.Architecture` into a simulated
:class:`~repro.sim.node.Node` and routes messages along the architecture's
links, so a scenario really is "executed on the architecture" (the paper's
intended SOSAE mechanism, §8):

* a component *emits* messages through its interfaces; each link attached
  to the emitting interface carries a copy one hop;
* a plain connector forwards an incoming message out of its other links
  (with a visited-set and TTL so cyclic topologies terminate); when the
  message carries an explicit destination and a neighbor is that
  destination, forwarding short-circuits to it;
* under C2 routing (``RuntimeConfig.c2_routing``), a connector forwards
  requests only to elements *above* it and notifications only to elements
  *below*, per the C2 style's message rules;
* a component that is the message's addressee (or that receives an
  unaddressed message) accepts it and, when a statechart is attached,
  fires the statechart with the message name as trigger and performs the
  resulting SEND/REPLY actions;
* per-hop delivery honours node liveness: hops into a dead element are
  rejected, and — when the channel policy enables failure detection — a
  failure notice travels back toward the message's origin.

The runtime is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import networkx as nx

from repro.adl.behavior import Action, ActionKind, Statechart, StatechartInstance
from repro.adl.c2 import above_graph
from repro.adl.structure import Architecture
from repro.errors import SimulationError
from repro.obs.instruments import current_instruments
from repro.sim.engine import Simulator
from repro.sim.failures import FailureInjector
from repro.sim.network import (
    FAILURE_MESSAGE,
    ChannelPolicy,
    NetworkChannel,
    _emit_message_fate,
)
from repro.sim.node import Message, Node
from repro.sim.trace import MessageTrace, TraceEventKind


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of an architecture runtime instance."""

    policy: ChannelPolicy = field(default_factory=ChannelPolicy)
    c2_routing: bool = False
    ttl: int = 16
    seed: int = 0
    guards: Mapping[str, bool] = field(default_factory=dict)


class ArchitectureRuntime:
    """A simulated, running instance of an architecture."""

    def __init__(
        self,
        architecture: Architecture,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        architecture.validate()
        self.architecture = architecture
        self.config = config or RuntimeConfig()
        self.simulator = Simulator()
        self.trace = MessageTrace()
        self.channel = NetworkChannel(
            self.simulator,
            self.trace,
            policy=self.config.policy,
            seed=self.config.seed,
        )
        self.injector = FailureInjector(self.simulator, self.channel)
        self._statecharts: dict[str, StatechartInstance] = {}
        self._above: Optional[nx.DiGraph] = (
            above_graph(architecture) if self.config.c2_routing else None
        )
        for component in architecture.components:
            node = Node(component.name, handler=self._component_handler, kind="component")
            self.channel.register(node)
            behavior = architecture.behavior(component.name)
            if isinstance(behavior, Statechart):
                self._statecharts[component.name] = StatechartInstance(behavior)
        for connector in architecture.connectors:
            node = Node(connector.name, handler=self._connector_handler, kind="connector")
            self.channel.register(node)

    # ------------------------------------------------------------------
    # External stimuli
    # ------------------------------------------------------------------

    def inject(
        self,
        source: str,
        message_name: str,
        kind: str = "request",
        destination: Optional[str] = None,
        payload: Optional[Mapping[str, Any]] = None,
        via: Optional[str] = None,
        at: float = 0.0,
    ) -> None:
        """Schedule a component to emit a message at virtual time ``at``.

        ``destination`` addresses a specific component (routed along
        links); ``None`` lets every reachable component accept the message.
        ``via`` restricts emission to one interface of the source.
        """
        component = self.architecture.component(source)  # components emit stimuli
        if destination is not None:
            self.architecture.element(destination)
        if via is not None:
            component.interface(via)
        base_payload = dict(payload or {})

        def emit() -> None:
            message = Message(
                name=message_name,
                source=source,
                destination=destination,
                kind=kind,
                payload={
                    **base_payload,
                    "origin": source,
                    "visited": (source,),
                    "ttl": self.config.ttl,
                },
                sequence=self.channel.node(source).next_sequence(),
                via_interface=via,
            )
            self._emit(source, message, via)

        self.simulator.schedule_at(max(at, self.simulator.now), emit)

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation; returns the final virtual time."""
        return self.simulator.run(until=until)

    def statechart(self, element: str) -> Optional[StatechartInstance]:
        """The running statechart instance of an element, if any."""
        return self._statecharts.get(element)

    def node(self, name: str) -> Node:
        """The simulated node of an element."""
        return self.channel.node(name)

    # ------------------------------------------------------------------
    # Emission and routing
    # ------------------------------------------------------------------

    def _emit(
        self, element: str, message: Message, via: Optional[str] = None
    ) -> None:
        """Send copies of ``message`` over the element's links (optionally
        restricted to one interface), skipping already-visited neighbors."""
        visited = set(message.payload.get("visited", ()))
        links = self.architecture.links_of(element)
        if via is not None:
            links = tuple(
                link
                for link in links
                if _interface_on(link, element) == via
            )
        sent_any = False
        for link in links:
            neighbor = link.other(element).element
            if neighbor in visited:
                continue
            if not self._hop_allowed(link, element, self._is_reply(message)):
                continue
            hop = message.forwarded(
                source=element,
                destination=message.destination,
                payload={
                    **message.payload,
                    "visited": (*message.payload.get("visited", ()), neighbor),
                },
                via_interface=_interface_on(link, element),
            )
            self.channel.send(hop, to=neighbor)
            sent_any = True
        if not sent_any:
            self.trace.record(
                self.simulator.now,
                TraceEventKind.DROP,
                element,
                message,
                detail="no outgoing link" + (f" on interface {via!r}" if via else ""),
            )
            current_instruments().recorder.counter("sim.messages.dropped").inc()
            _emit_message_fate("dropped", element, message, "no outgoing link")

    def _connector_handler(self, node: Node, message: Message) -> None:
        if message.name == FAILURE_MESSAGE and message.source == "network":
            self._route_failure_notice(node, message)
            return
        self._forward_from_connector(node, message)

    def _forward_from_connector(self, node: Node, message: Message) -> None:
        ttl = int(message.payload.get("ttl", self.config.ttl))
        if ttl <= 0:
            self.trace.record(
                self.simulator.now,
                TraceEventKind.DROP,
                node.name,
                message,
                detail="ttl exhausted",
            )
            current_instruments().recorder.counter("sim.messages.dropped").inc()
            _emit_message_fate("dropped", node.name, message, "ttl exhausted")
            return
        neighbors = self._forwarding_targets(node.name, message)
        visited = set(message.payload.get("visited", ()))
        if message.destination is not None and message.destination in neighbors:
            neighbors = (message.destination,)
        for neighbor in neighbors:
            if neighbor in visited and neighbor != message.destination:
                continue
            if not self._link_allows(node.name, neighbor, self._is_reply(message)):
                continue
            hop = message.forwarded(
                source=node.name,
                payload={
                    **message.payload,
                    "ttl": ttl - 1,
                    "visited": (*message.payload.get("visited", ()), neighbor),
                },
            )
            self.channel.send(hop, to=neighbor)

    def _forwarding_targets(self, connector: str, message: Message) -> tuple[str, ...]:
        """Which neighbors a connector may forward this message to."""
        visited = set(message.payload.get("visited", ()))
        candidates = [
            neighbor
            for neighbor in self.architecture.neighbors(connector)
            if neighbor != message.source
        ]
        if self._above is not None and message.kind in ("request", "notification"):
            if message.kind == "request":
                allowed = set(self._above.successors(connector))
            else:
                allowed = set(self._above.predecessors(connector))
            candidates = [c for c in candidates if c in allowed]
        return tuple(
            c for c in candidates if c not in visited or c == message.destination
        )

    def _route_failure_notice(self, node: Node, notice: Message) -> None:
        """Carry a network failure notice back toward the origin of the
        failed message, through the regular link topology."""
        origin = notice.payload.get("origin_node")
        if origin is None or origin == node.name:
            return
        carried = notice.forwarded(
            source=node.name,
            destination=origin,
            kind="failure-notice",
            payload={
                **notice.payload,
                "visited": (node.name,),
                "ttl": self.config.ttl,
            },
        )
        self._forward_from_connector(node, carried)

    def _hop_allowed(
        self, link, from_element: str, reply: bool = False
    ) -> bool:
        """Whether a message may traverse ``link`` starting at
        ``from_element``.

        A forward hop requires the source-side interface to initiate and
        the far-side interface to accept. Replies (notifications and
        failure notices) may also traverse links *backwards*: a response
        flows back along the connector its request used, so the reversed
        request direction suffices.
        """
        if link.first.element == from_element:
            source_endpoint, target_endpoint = link.first, link.second
        else:
            source_endpoint, target_endpoint = link.second, link.first
        source = self.architecture.element(source_endpoint.element).interface(
            source_endpoint.interface
        )
        target = self.architecture.element(target_endpoint.element).interface(
            target_endpoint.interface
        )
        forward = source.direction.initiates() and target.direction.accepts()
        if forward:
            return True
        if reply:
            return target.direction.initiates() and source.direction.accepts()
        return False

    def _link_allows(
        self, from_element: str, to_element: str, reply: bool = False
    ) -> bool:
        """Whether any link between the two elements permits a hop in this
        direction."""
        return any(
            self._hop_allowed(link, from_element, reply)
            for link in self.architecture.links_between(from_element, to_element)
        )

    @staticmethod
    def _is_reply(message: Message) -> bool:
        """Whether a message is response-like (may traverse links
        backwards)."""
        return message.kind in ("notification", "failure-notice")

    def _component_handler(self, node: Node, message: Message) -> None:
        if message.destination is not None and message.destination != node.name:
            return  # not the addressee; components do not route
        instance = self._statecharts.get(node.name)
        if instance is None:
            return
        actions = instance.fire(message.name, dict(self.config.guards))
        for action in actions:
            self._perform(node, message, action)

    def _perform(self, node: Node, incoming: Message, action: Action) -> None:
        if action.kind is ActionKind.INTERNAL:
            return
        if action.kind is ActionKind.LOG:
            self.trace.record(
                self.simulator.now,
                TraceEventKind.SEND,
                node.name,
                None,
                detail=f"log: {action.description or action.message}",
            )
            return
        if action.kind is ActionKind.SEND:
            destination = None
            if action.message_kind is not None:
                kind = action.message_kind
            elif action.via == "top":
                # Under C2, the emitting side determines the message kind:
                # out of the top travels up (request), out of the bottom
                # travels down (notification).
                kind = "request"
            elif action.via == "bottom":
                kind = "notification"
            else:
                kind = incoming.kind if incoming.kind != "message" else "request"
        else:  # REPLY: address the origin of the incoming message
            destination = incoming.payload.get("origin", incoming.source)
            if destination == node.name:
                return
            kind = "notification"
        outgoing = Message(
            name=action.message,
            source=node.name,
            destination=destination,
            kind=kind,
            payload={
                "origin": node.name,
                "visited": (node.name,),
                "ttl": self.config.ttl,
                "in_reply_to": incoming.message_id,
            },
            sequence=node.next_sequence(),
            via_interface=action.via,
        )
        self._emit(node.name, outgoing, action.via)


def _interface_on(link, element: str) -> str:
    """The interface name a link uses on the given element."""
    if link.first.element == element:
        return link.first.interface
    return link.second.interface
