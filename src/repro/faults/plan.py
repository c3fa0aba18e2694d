"""Fault plans: deterministic, seed-addressed failure schedules.

A :class:`FaultPlan` is a declarative list of scheduled fault events —
link loss bursts, Gilbert-Elliott loss phases, interface flaps, home-agent
restarts, DHCP outages, registration-reply drop windows.  Plans are plain
frozen dataclasses referencing components **by name**, so they pickle
cleanly into :class:`~repro.parallel.Trial` parameters and cross process
boundaries unchanged; the :class:`~repro.faults.inject.FaultInjector`
resolves names against a live testbed and arms the schedule.

Determinism contract: a plan contains no randomness of its own.  Where a
fault *behaves* randomly (loss probabilities, Gilbert-Elliott state
transitions) the injector draws from dedicated named RNG streams derived
from the simulator's master seed, so the same ``(seed, plan)`` pair
always injects the identical fault sequence — serially or sharded.  An
empty plan arms nothing, consumes no randomness, and creates no metrics,
keeping fault-free runs byte-identical to a build without this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union


@dataclass(frozen=True)
class LossBurst:
    """Drop frames on *link* with ``loss_rate`` during a window."""

    at: int
    link: str
    duration: int
    loss_rate: float = 1.0

    kind = "loss_burst"


@dataclass(frozen=True)
class GilbertElliottPhase:
    """Two-state bursty loss on *link* during a window.

    The classic Gilbert-Elliott channel: each frame advances a two-state
    Markov chain (good/bad) with transition probabilities ``p_good_bad``
    and ``p_bad_good``, then drops with the state's loss probability.
    The chain starts in the good state at window entry.
    """

    at: int
    link: str
    duration: int
    p_good_bad: float
    p_bad_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    kind = "gilbert_elliott"


@dataclass(frozen=True)
class InterfaceFlap:
    """Take *interface* down at ``at`` and bring it back ``down_for`` later."""

    at: int
    interface: str
    down_for: int

    kind = "interface_flap"


@dataclass(frozen=True)
class HomeAgentRestart:
    """Crash a home agent at ``at``, losing all bindings; recover later.

    ``agent`` selects a named replica on a
    :class:`~repro.core.binding_shard.BindingShardPlane` (the injector
    must then be built with a plane); the default empty string targets
    the topology's single home agent, exactly as before.
    """

    at: int
    down_for: int
    agent: str = ""

    kind = "home_agent_restart"


@dataclass(frozen=True)
class ReplicaJoin:
    """Add a spare replica named ``agent`` to the binding-shard plane.

    A crash-join: the joiner arrives empty and wins its arcs' bindings
    back through ordinary re-registration (the injector must be built
    with a plane whose ``spares`` map knows the name).
    """

    at: int
    agent: str

    kind = "replica_join"


@dataclass(frozen=True)
class ReplicaDrain:
    """Gracefully drain replica ``agent`` out of the plane at ``at``.

    Unlike a crash, a drain re-serves the leaving replica's addresses on
    their new owners and hands over its live bindings *before* departure,
    so no re-registration storm follows.
    """

    at: int
    agent: str

    kind = "replica_drain"


@dataclass(frozen=True)
class PlanePartition:
    """Make the named replica subset unreachable for ``duration``.

    The partitioned replicas are *not* crashed: their binding state
    survives and is stale by the time the partition heals — the nastier
    consistency case, which the plane reconciles at heal time.
    """

    at: int
    duration: int
    agents: Tuple[str, ...]

    kind = "plane_partition"


@dataclass(frozen=True)
class DhcpOutage:
    """Take the DHCP server offline for a window (requests are dropped)."""

    at: int
    duration: int

    kind = "dhcp_outage"


@dataclass(frozen=True)
class ReplyDropWindow:
    """Drop every registration reply the home agent emits in a window."""

    at: int
    duration: int

    kind = "reply_drop"


FaultEvent = Union[LossBurst, GilbertElliottPhase, InterfaceFlap,
                   HomeAgentRestart, ReplicaJoin, ReplicaDrain,
                   PlanePartition, DhcpOutage, ReplyDropWindow]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of fault events."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    @classmethod
    def empty(cls) -> "FaultPlan":
        """The no-fault plan (arming it is a no-op)."""
        return cls(events=())

    @classmethod
    def of(cls, *events: FaultEvent) -> "FaultPlan":
        """Build a plan from events in any order; stored sorted by time."""
        return cls(events=tuple(sorted(events, key=lambda event: event.at)))

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)
