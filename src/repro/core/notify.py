"""Network-change notification: the API Section 6 calls for (extension).

"We believe it may be advantageous to inform upper-layer network protocols
and some applications of these changes so they can adjust their behaviors
accordingly.  Part of our future work is to investigate ... what
application programming interface best enables applications to specify
their interests and receive notification of any relevant network changes.
Developing a clean interface for this is a major goal of our further
work."

This module is that interface, built on the facts the mobile host already
knows:

* applications **subscribe** with an interest specification: which event
  kinds they care about, and how large a bandwidth change is "relevant"
  to them;
* the mobile host **publishes** events when its attachment changes
  (device switch, new care-of address, coming home) and when connectivity
  is lost or restored;
* each event carries before/after :class:`LinkProfile` snapshots, so an
  application can adapt (e.g. a video stream dropping its rate when the
  10 Mbit/s Ethernet gives way to a 34 kbit/s radio).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.interface import NetworkInterface
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class LinkProfile:
    """What an application can know about one attachment."""

    interface_name: str
    technology: str            # "ethernet", "radio", "p2p", "loopback", ...
    bandwidth_bps: float       # 0.0 = unconstrained
    latency_ns: int
    is_up: bool
    #: The attachment's primary (care-of or home) address, as text.  The
    #: same NIC plugged into a different network is a *new attachment*.
    address: Optional[str] = None

    def describe(self) -> str:
        """One-line human-readable summary."""
        rate = ("unconstrained" if self.bandwidth_bps <= 0
                else f"{self.bandwidth_bps / 1000:.0f} kbit/s")
        where = f" as {self.address}" if self.address else ""
        return (f"{self.interface_name}{where} ({self.technology}, {rate}, "
                f"{self.latency_ns / 1_000_000:.1f} ms)")


class EventKind(enum.Enum):
    """The notification vocabulary."""

    ATTACHMENT_CHANGED = "attachment-changed"   # new device or care-of
    QUALITY_CHANGED = "quality-changed"         # same device, new numbers
    CONNECTIVITY_LOST = "connectivity-lost"
    CONNECTIVITY_RESTORED = "connectivity-restored"


@dataclass(frozen=True)
class NetworkEvent:
    """One published change."""

    kind: EventKind
    time: int
    old: Optional[LinkProfile]
    new: Optional[LinkProfile]

    @property
    def bandwidth_ratio(self) -> float:
        """new/old bandwidth; 1.0 when either side is unknown/unbounded."""
        if (self.old is None or self.new is None
                or self.old.bandwidth_bps <= 0 or self.new.bandwidth_bps <= 0):
            return 1.0
        return self.new.bandwidth_bps / self.old.bandwidth_bps


@dataclass
class Subscription:
    """One application's registered interest."""

    ident: int
    callback: Callable[[NetworkEvent], None]
    kinds: frozenset
    min_bandwidth_change: float          # fraction; 0.0 = any
    delivered: int = 0

    def wants(self, event: NetworkEvent) -> bool:
        """True if *event* passes this subscription's filters."""
        if event.kind not in self.kinds:
            return False
        if (self.min_bandwidth_change > 0.0
                and event.kind in (EventKind.ATTACHMENT_CHANGED,
                                   EventKind.QUALITY_CHANGED)):
            ratio = event.bandwidth_ratio
            change = abs(ratio - 1.0)
            if change < self.min_bandwidth_change:
                return False
        return True


class NetworkChangeNotifier:
    """Publish/subscribe hub for one mobile host."""

    _idents = itertools.count(1)

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._subscriptions: List[Subscription] = []
        self.events_published = 0
        self._last_profile: Optional[LinkProfile] = None

    # ------------------------------------------------------------- subscribe

    def subscribe(self, callback: Callable[[NetworkEvent], None],
                  kinds: List[EventKind],
                  min_bandwidth_change: float = 0.0) -> Subscription:
        """Register interest; returns a cancellable subscription."""
        subscription = Subscription(
            ident=next(self._idents), callback=callback,
            kinds=frozenset(kinds),
            min_bandwidth_change=min_bandwidth_change,
        )
        self._subscriptions.append(subscription)
        return subscription

    # --------------------------------------------------------------- publish

    def publish(self, kind: EventKind, old: Optional[LinkProfile],
                new: Optional[LinkProfile]) -> NetworkEvent:
        """Deliver an event to every matching subscription."""
        event = NetworkEvent(kind=kind, time=self.sim.now, old=old, new=new)
        self.events_published += 1
        self.sim.trace.emit("notify", kind.value, old=old, new=new)
        for subscription in list(self._subscriptions):
            if subscription.wants(event):
                subscription.delivered += 1
                subscription.callback(event)
        return event

    def attachment_changed(self, new_profile: LinkProfile) -> None:
        """Convenience used by the mobile host on every (re)attachment."""
        old = self._last_profile
        self._last_profile = new_profile
        if (old is not None
                and old.interface_name == new_profile.interface_name
                and old.address == new_profile.address):
            # Same device on the same network: only the numbers moved.
            if old != new_profile:
                self.publish(EventKind.QUALITY_CHANGED, old, new_profile)
            return
        self.publish(EventKind.ATTACHMENT_CHANGED, old, new_profile)

    def connectivity_lost(self) -> None:
        """Publish a CONNECTIVITY_LOST event for the last profile."""
        old = self._last_profile
        self.publish(EventKind.CONNECTIVITY_LOST, old, None)


def profile_of(iface: "NetworkInterface") -> LinkProfile:
    """Build a :class:`LinkProfile` from an interface's physical truth."""
    from repro.net.interface import (
        EthernetInterface,
        LoopbackInterface,
        PointToPointInterface,
        RadioInterface,
    )

    technology = "unknown"
    bandwidth = 0.0
    latency = 0
    if isinstance(iface, EthernetInterface):
        technology = "ethernet"
        if iface.segment is not None:
            bandwidth = iface.segment.timings.bandwidth_bps
            latency = iface.segment.timings.latency
    elif isinstance(iface, RadioInterface):
        technology = "radio"
        if iface.channel is not None:
            # The serial hop is the bottleneck's partner; report the air
            # link, which dominates both rate and latency.
            bandwidth = iface.channel.timings.bandwidth_bps
            latency = iface.channel.timings.latency
    elif isinstance(iface, PointToPointInterface):
        technology = "p2p"
        if iface.link is not None:
            bandwidth = iface.link.timings.bandwidth_bps
            latency = iface.link.timings.latency
    elif isinstance(iface, LoopbackInterface):
        technology = "loopback"
    return LinkProfile(interface_name=iface.name, technology=technology,
                       bandwidth_bps=bandwidth, latency_ns=latency,
                       is_up=iface.is_up,
                       address=str(iface.address) if iface.address else None)
