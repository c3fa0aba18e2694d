"""The fault injector: arm a :class:`~repro.faults.plan.FaultPlan`.

The injector resolves the plan's component names against a live topology
and schedules each event through the simulator, so faults participate in
the deterministic event order like any other callback.  Injection sites:

* **links** — every :class:`~repro.net.link.Link` carries a
  ``fault_hook`` consulted before its own loss model; the injector
  installs one hook per targeted link that consults the active window
  (loss bursts and Gilbert-Elliott phases).
* **interfaces** — :meth:`~repro.net.interface.NetworkInterface.flap`
  models a carrier drop with the device's real down/up delays.
* **home agent** — :meth:`~repro.core.home_agent.HomeAgentService.crash`
  loses all bindings (state-loss restart); ``reply_filter`` drops
  registration replies during reply-drop windows.
* **DHCP server** — the ``online`` flag silences the server.

Randomized fault behaviour draws from per-link ``fault-link:<name>``
RNG streams, never from the link's own loss stream, so arming a plan
does not perturb the background loss sequence — and an empty plan arms
nothing at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faults.plan import (
    DhcpOutage,
    FaultPlan,
    GilbertElliottPhase,
    HomeAgentRestart,
    InterfaceFlap,
    LossBurst,
    PlanePartition,
    ReplicaDrain,
    ReplicaJoin,
    ReplyDropWindow,
)
from repro.sim.engine import Simulator
from repro.sim.randomness import bernoulli

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.binding_shard import BindingShardPlane
    from repro.core.home_agent import HomeAgentService
    from repro.net.dhcp import DHCPServer
    from repro.net.interface import NetworkInterface
    from repro.net.link import Link


class _LossWindow:
    """A flat per-frame loss probability between ``start`` and ``end``."""

    __slots__ = ("start", "end", "_rng", "_loss_rate")

    def __init__(self, event: LossBurst, rng) -> None:
        self.start = event.at
        self.end = event.at + event.duration
        self._rng = rng
        self._loss_rate = event.loss_rate

    def decide(self) -> bool:
        return bernoulli(self._rng, self._loss_rate)


class _GilbertElliottWindow:
    """Two-state Markov loss between ``start`` and ``end``."""

    __slots__ = ("start", "end", "_rng", "_event", "_bad")

    def __init__(self, event: GilbertElliottPhase, rng) -> None:
        self.start = event.at
        self.end = event.at + event.duration
        self._rng = rng
        self._event = event
        self._bad = False

    def decide(self) -> bool:
        event = self._event
        if self._bad:
            if bernoulli(self._rng, event.p_bad_good):
                self._bad = False
        else:
            if bernoulli(self._rng, event.p_good_bad):
                self._bad = True
        loss = event.loss_bad if self._bad else event.loss_good
        return bernoulli(self._rng, loss)


class FaultInjector:
    """Resolves a plan against live components and arms its schedule."""

    def __init__(self, sim: Simulator, plan: FaultPlan,
                 links: Optional[Dict[str, "Link"]] = None,
                 interfaces: Optional[Dict[str, "NetworkInterface"]] = None,
                 home_agent: Optional["HomeAgentService"] = None,
                 dhcp_server: Optional["DHCPServer"] = None,
                 plane: Optional["BindingShardPlane"] = None) -> None:
        self.sim = sim
        self.plan = plan
        self.links = links or {}
        self.interfaces = interfaces or {}
        self.home_agent = home_agent
        self.dhcp_server = dhcp_server
        self.plane = plane
        #: Activations so far, by event kind (reports read this).
        self.injected: Dict[str, int] = {}
        self._armed = False
        self._link_windows: Dict[str, List[object]] = {}
        self._reply_drop_windows: List[ReplyDropWindow] = []

    @classmethod
    def for_testbed(cls, testbed, plan: FaultPlan) -> "FaultInjector":
        """Wire an injector to everything a standard testbed exposes."""
        links: Dict[str, "Link"] = {}
        for link in (testbed.home_segment, testbed.dept_segment,
                     testbed.radio_channel):
            links[link.name] = link
        if testbed.remote_segment is not None:
            links[testbed.remote_segment.name] = testbed.remote_segment
        interfaces: Dict[str, "NetworkInterface"] = {
            iface.name: iface for iface in testbed.mobile.interfaces}
        return cls(testbed.sim, plan, links=links, interfaces=interfaces,
                   home_agent=testbed.home_agent,
                   dhcp_server=testbed.dhcp_server)

    @classmethod
    def for_plane(cls, plane: "BindingShardPlane",
                  plan: FaultPlan) -> "FaultInjector":
        """Wire an injector to a sharded home-agent plane.

        :class:`~repro.faults.plan.HomeAgentRestart` events carrying an
        ``agent`` name crash that replica through the plane (and its
        takeover path); other fault kinds need the component maps of the
        full constructor.
        """
        return cls(plane.sim, plan, plane=plane)

    # ---------------------------------------------------------------- arming

    def arm(self) -> None:
        """Schedule every event in the plan (idempotent per injector)."""
        if self._armed:
            raise RuntimeError("fault plan is already armed")
        self._armed = True
        for event in self.plan.events:
            self._arm_event(event)
        for name, windows in self._link_windows.items():
            self._install_link_hook(self._resolve_link(name), windows)
        if self._reply_drop_windows:
            self._install_reply_filter()

    def _arm_event(self, event) -> None:
        if isinstance(event, LossBurst):
            rng = self._link_rng(event.link)
            self._queue_window(event.link, _LossWindow(event, rng))
            self._schedule_activation(event, link=event.link)
        elif isinstance(event, GilbertElliottPhase):
            rng = self._link_rng(event.link)
            self._queue_window(event.link, _GilbertElliottWindow(event, rng))
            self._schedule_activation(event, link=event.link)
        elif isinstance(event, InterfaceFlap):
            interface = self._resolve_interface(event.interface)
            self.sim.post_at(
                event.at,
                lambda: (self._activate(event, interface=event.interface),
                         interface.flap(event.down_for)),
                label="fault:flap")
        elif isinstance(event, HomeAgentRestart):
            if event.agent:
                plane = self._require(self.plane, "binding-shard plane", event)
                # Spares are acceptable at arm time: a plan may join a
                # spare and crash it later; the plane still rejects a
                # crash of a non-member when the event actually fires.
                self._check_plane_member(plane, event.agent, "restarts")
                self.sim.post_at(
                    event.at,
                    lambda: (self._activate(event, agent=event.agent),
                             plane.crash(event.agent, event.down_for)),
                    label="fault:ha-restart")
            else:
                agent = self._require(self.home_agent, "home agent", event)
                self.sim.post_at(
                    event.at,
                    lambda: (self._activate(event),
                             agent.crash(event.down_for)),
                    label="fault:ha-restart")
        elif isinstance(event, ReplicaJoin):
            plane = self._require(self.plane, "binding-shard plane", event)
            self._check_plane_member(plane, event.agent, "joins")
            self.sim.post_at(
                event.at,
                lambda: (self._activate(event, agent=event.agent),
                         plane.add_replica(event.agent)),
                label="fault:replica-join")
        elif isinstance(event, ReplicaDrain):
            plane = self._require(self.plane, "binding-shard plane", event)
            self._check_plane_member(plane, event.agent, "drains")
            self.sim.post_at(
                event.at,
                lambda: (self._activate(event, agent=event.agent),
                         plane.drain_replica(event.agent)),
                label="fault:replica-drain")
        elif isinstance(event, PlanePartition):
            plane = self._require(self.plane, "binding-shard plane", event)
            for name in event.agents:
                self._check_plane_member(plane, name, "partitions")
            self.sim.post_at(
                event.at,
                lambda: (self._activate(event,
                                        agents=",".join(event.agents)),
                         plane.partition(event.agents, event.duration)),
                label="fault:plane-partition")
        elif isinstance(event, DhcpOutage):
            server = self._require(self.dhcp_server, "DHCP server", event)

            def outage_start() -> None:
                self._activate(event)
                server.online = False

            def outage_end() -> None:
                server.online = True
                self.sim.trace.emit("fault", "dhcp_restored",
                                    server=server.host.name)

            self.sim.post_at(event.at, outage_start, label="fault:dhcp-out")
            self.sim.post_at(event.at + event.duration, outage_end,
                             label="fault:dhcp-restore")
        elif isinstance(event, ReplyDropWindow):
            self._require(self.home_agent, "home agent", event)
            self._reply_drop_windows.append(event)
            self._schedule_activation(event)
        else:  # pragma: no cover - plan type is closed
            raise TypeError(f"unknown fault event {event!r}")

    # ----------------------------------------------------------- link faults

    def _queue_window(self, link_name: str, window) -> None:
        self._resolve_link(link_name)  # fail fast on unknown names
        self._link_windows.setdefault(link_name, []).append(window)

    def _install_link_hook(self, link: "Link", windows: List) -> None:
        if link.fault_hook is not None:
            raise RuntimeError(f"link {link.name} already has a fault hook")
        sim = self.sim

        def hook() -> bool:
            now = sim.now
            for window in windows:
                if window.start <= now < window.end:
                    return window.decide()
            return False

        link.fault_hook = hook

    def _link_rng(self, link_name: str):
        """A per-link stream separate from the link's own loss stream."""
        return self.sim.rng(f"fault-link:{link_name}")

    # ---------------------------------------------------------- reply drops

    def _install_reply_filter(self) -> None:
        agent = self.home_agent
        assert agent is not None
        if agent.reply_filter is not None:
            raise RuntimeError("home agent already has a reply filter")
        sim = self.sim
        windows = list(self._reply_drop_windows)

        def allow(reply) -> bool:
            now = sim.now
            for window in windows:
                if window.at <= now < window.at + window.duration:
                    return False
            return True

        agent.reply_filter = allow

    # ------------------------------------------------------------ accounting

    def _schedule_activation(self, event, **fields) -> None:
        self.sim.post_at(event.at,
                         lambda: self._activate(event, **fields),
                         label=f"fault:{event.kind}")

    def _activate(self, event, **fields) -> None:
        """Count and trace one fault firing (lazily creates its counter)."""
        self.injected[event.kind] = self.injected.get(event.kind, 0) + 1
        counter = self.sim.metrics.counter("faults", "injected",
                                           kind=event.kind)
        counter.value += 1
        self.sim.trace.emit("fault", event.kind, **fields)

    def total_injected(self) -> int:
        """Total fault activations so far."""
        return sum(self.injected.values())

    # ------------------------------------------------------------ resolution

    def _resolve_link(self, name: str) -> "Link":
        link = self.links.get(name)
        if link is None:
            raise ValueError(f"fault plan references unknown link {name!r}; "
                             f"known: {sorted(self.links)}")
        return link

    def _resolve_interface(self, name: str) -> "NetworkInterface":
        interface = self.interfaces.get(name)
        if interface is None:
            raise ValueError(
                f"fault plan references unknown interface {name!r}; "
                f"known: {sorted(self.interfaces)}")
        return interface

    def _require(self, component, description: str, event):
        if component is None:
            raise ValueError(
                f"fault plan schedules a {event.kind} event but the "
                f"topology has no {description}")
        return component

    @staticmethod
    def _check_plane_member(plane, name: str, verb: str) -> None:
        """Arm-time validation: the plan must name a replica the plane knows.

        A plane event may name a spare (a join promotes one; a restart,
        drain or partition may target a replica a preceding join adds),
        so names check against members *and* spares.
        """
        if name not in plane.agents and name not in plane.spares:
            raise ValueError(
                f"fault plan {verb} unknown agent {name!r}; "
                f"known replicas: {sorted(plane.agents)}, "
                f"spares: {sorted(plane.spares)}")
