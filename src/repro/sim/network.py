"""Simulated message channels.

A :class:`NetworkChannel` moves messages between nodes under a
:class:`ChannelPolicy`:

* ``latency``/``jitter`` — base delay plus uniform random extra delay;
* ``fifo`` — when true, deliveries between the same endpoints never
  overtake each other (order preservation, the reliable case of the
  "Message Sequence" scenario); when false, jitter may reorder messages;
* ``drop_rate`` — probability a message is silently lost;
* ``failure_detection`` — when delivery reaches a dead node, whether the
  network sends a failure message back to the sender (the availability
  mechanism the "Entity Availability" walkthrough probes: "if the
  architecture provides a mechanism for detecting the availability of the
  entities, then [the sender] will receive an error message", paper §4.2).

All randomness comes from an explicitly seeded generator, so runs are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.obs.events import SimMessageFate
from repro.obs.instruments import current_instruments
from repro.sim.engine import Simulator
from repro.sim.node import Message, Node
from repro.sim.trace import MessageTrace, TraceEventKind


def _emit_message_fate(
    fate: str, element: str, message: Message, detail: str = ""
) -> None:
    """Stream one message fate to the live event bus (free when off)."""
    bus = current_instruments().events
    if bus.enabled:
        bus.emit(
            SimMessageFate(
                fate=fate,
                element=element,
                message=message.name,
                detail=detail,
            )
        )

FAILURE_MESSAGE = "failure"


@dataclass(frozen=True)
class ChannelPolicy:
    """Delivery characteristics of a channel."""

    latency: float = 1.0
    jitter: float = 0.0
    fifo: bool = True
    drop_rate: float = 0.0
    failure_detection: bool = False
    detection_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise SimulationError("channel latency cannot be negative")
        if self.jitter < 0:
            raise SimulationError("channel jitter cannot be negative")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise SimulationError("drop_rate must be within [0, 1]")
        if self.detection_delay < 0:
            raise SimulationError("detection_delay cannot be negative")


class NetworkChannel:
    """Delivers messages between registered nodes through the simulator."""

    _FIFO_EPSILON = 1e-9

    def __init__(
        self,
        simulator: Simulator,
        trace: MessageTrace,
        policy: Optional[ChannelPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.simulator = simulator
        self.trace = trace
        self.policy = policy or ChannelPolicy()
        self._rng = random.Random(seed)
        self._nodes: dict[str, Node] = {}
        self._last_delivery: dict[tuple[str, str], float] = {}
        self._pair_policies: dict[tuple[str, str], ChannelPolicy] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def register(self, node: Node) -> Node:
        """Attach a node to the channel; names are unique."""
        if node.name in self._nodes:
            raise SimulationError(f"node {node.name!r} is already registered")
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> Node:
        """Resolve a registered node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise SimulationError(f"no registered node named {name!r}") from None

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All registered nodes."""
        return tuple(self._nodes.values())

    def set_pair_policy(
        self, source: str, destination: str, policy: ChannelPolicy
    ) -> None:
        """Override the channel policy for one directed node pair."""
        self._pair_policies[(source, destination)] = policy

    def _policy_for(self, source: str, destination: str) -> ChannelPolicy:
        return self._pair_policies.get((source, destination), self.policy)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def send(self, message: Message, to: Optional[str] = None) -> None:
        """Transmit a message one hop, from its source node to ``to``.

        ``to`` is the *physical* receiver of this hop; when omitted it
        defaults to ``message.destination`` (a direct send). The message's
        ``destination`` field remains the logical addressee, which may lie
        several hops away. Recording and scheduling happen immediately;
        delivery happens at the policy-determined future instant.
        """
        receiver = to or message.destination
        if receiver is None:
            raise SimulationError(f"message {message} has no receiver")
        source = self.node(message.source)
        destination = self.node(receiver)
        policy = self._policy_for(source.name, destination.name)
        source.sent.append(message)
        self.trace.record(
            self.simulator.now, TraceEventKind.SEND, source.name, message
        )
        current_instruments().recorder.counter("sim.messages.sent").inc()
        _emit_message_fate("sent", source.name, message)
        if policy.drop_rate and self._rng.random() < policy.drop_rate:
            drop_delay = policy.latency + self._rng.uniform(0.0, policy.jitter)
            self.simulator.schedule(
                drop_delay,
                lambda: self._record_transit_drop(message, destination),
            )
            return
        delay = policy.latency + (
            self._rng.uniform(0.0, policy.jitter) if policy.jitter else 0.0
        )
        arrival = self.simulator.now + delay
        if policy.fifo:
            key = (source.name, destination.name)
            floor = self._last_delivery.get(key)
            if floor is not None and arrival <= floor:
                arrival = floor + self._FIFO_EPSILON
            self._last_delivery[key] = arrival
        self.simulator.schedule_at(
            arrival, lambda: self._deliver(message, destination, policy)
        )

    def _record_transit_drop(self, message: Message, destination: Node) -> None:
        self.trace.record(
            self.simulator.now,
            TraceEventKind.DROP,
            destination.name,
            message,
            detail="lost in transit",
        )
        current_instruments().recorder.counter("sim.messages.dropped").inc()
        _emit_message_fate(
            "dropped", destination.name, message, "lost in transit"
        )

    def _deliver(
        self, message: Message, destination: Node, policy: ChannelPolicy
    ) -> None:
        if destination.alive:
            self.trace.record(
                self.simulator.now,
                TraceEventKind.DELIVER,
                destination.name,
                message,
            )
            current_instruments().recorder.counter("sim.messages.delivered").inc()
            _emit_message_fate("delivered", destination.name, message)
            destination.deliver(message)
            return
        self.trace.record(
            self.simulator.now,
            TraceEventKind.REJECT,
            destination.name,
            message,
            detail="destination is down",
        )
        current_instruments().recorder.counter("sim.messages.rejected").inc()
        _emit_message_fate(
            "rejected", destination.name, message, "destination is down"
        )
        # Never generate failure notices about failure notices (the ICMP
        # rule): error signalling must not feed back into itself.
        is_failure_signal = (
            message.name == FAILURE_MESSAGE or message.kind == "failure-notice"
        )
        if policy.failure_detection and not is_failure_signal:
            self._send_failure_notice(message, destination, policy)

    def _send_failure_notice(
        self, message: Message, destination: Node, policy: ChannelPolicy
    ) -> None:
        sender = self.node(message.source)
        notice = Message(
            name=FAILURE_MESSAGE,
            source="network",
            destination=sender.name,
            kind="notification",
            payload={
                "failed_node": destination.name,
                "original_message": message.name,
                "original_id": message.message_id,
                "origin_node": message.payload.get("origin", message.source),
            },
        )

        def deliver_notice() -> None:
            self.trace.record(
                self.simulator.now,
                TraceEventKind.FAILURE_NOTICE,
                sender.name,
                notice,
                detail=f"{destination.name} unavailable",
            )
            current_instruments().recorder.counter("sim.failure_notices").inc()
            _emit_message_fate(
                "failure-notice",
                sender.name,
                notice,
                f"{destination.name} unavailable",
            )
            sender.deliver(notice)

        self.simulator.schedule(policy.detection_delay, deliver_notice)

    # ------------------------------------------------------------------
    # Failure bookkeeping (used by the injector)
    # ------------------------------------------------------------------

    def mark_down(self, name: str) -> None:
        """Shut a node down and record it."""
        node = self.node(name)
        node.shut_down()
        self.trace.record(self.simulator.now, TraceEventKind.NODE_DOWN, name)

    def mark_up(self, name: str) -> None:
        """Restore a node and record it."""
        node = self.node(name)
        node.restore()
        self.trace.record(self.simulator.now, TraceEventKind.NODE_UP, name)
