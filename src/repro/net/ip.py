"""The IP layer of a host: routing, local delivery, forwarding.

This module exposes the same three extension points the paper added to
Linux 1.2.13 (Section 3.3):

1. ``route_hook`` — a replacement for the route-lookup function
   ``ip_rt_route()``.  The mobile host installs a hook that consults the
   Mobile Policy Table *in addition to* the ordinary routing table; plain
   hosts leave it unset.
2. Protocol handler registration — the IP-in-IP (IPIP) module registers for
   protocol 4 exactly like TCP and UDP register for theirs.
3. ``forward_filter`` — routers use it for the "security-conscious" transit
   traffic filtering of Section 3.2 that defeats the plain triangle route.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Protocol

from repro.config import Config, HostTimings
from repro.net.addressing import IPAddress, UNSPECIFIED
from repro.net.packet import IPPacket
from repro.net.routing import RouteResult, RoutingTable
from repro.sim.engine import Simulator
from repro.sim.fifo import FifoDelay
from repro.sim.randomness import RandomStream, jittered, lazy_stream

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.interface import NetworkInterface

#: A protocol handler receives (packet, arriving_interface).
ProtocolHandler = Callable[[IPPacket, "NetworkInterface"], None]
#: A forward filter returns True to allow forwarding the packet.
ForwardFilter = Callable[[IPPacket, "NetworkInterface"], bool]


class RouteHook(Protocol):
    """Replacement for ``ip_rt_route()`` (the paper's single kernel hook).

    Called with the destination, the caller's source hint (possibly
    unspecified) and the default lookup function.  Return a
    :class:`RouteResult` to take over routing for this packet, or ``None``
    to fall through to the ordinary table.
    """

    def __call__(self, dst: IPAddress, src_hint: IPAddress,
                 default: Callable[[IPAddress, IPAddress], Optional[RouteResult]]
                 ) -> Optional[RouteResult]: ...


class IPStack:
    """Per-host IP: send, receive, deliver, forward."""

    #: Statistics reported as counters (``MetricsRegistry.register``).
    _METRIC_FIELDS = (
        ("ip", "forwards", (), "forwarded"),
    )

    def __init__(self, sim: Simulator, host: "Host", config: Config,
                 timings: HostTimings) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        self.timings = timings
        self.routes = RoutingTable()
        self.forwarding = False
        self.route_hook: Optional[RouteHook] = None
        self.forward_filter: Optional[ForwardFilter] = None
        #: Every address value :meth:`is_local` accepts besides loopback
        #: and limited broadcast: the addresses the host's interfaces own
        #: and their subnets' broadcast addresses, each with the number of
        #: interfaces claiming it.  Interfaces keep it current as their
        #: addresses and subnets change.
        self._local: Dict[int, int] = {}
        self._handlers: Dict[int, ProtocolHandler] = {}
        self._forward_fifo = FifoDelay(sim)
        # Statistics.
        self.sent = 0
        self.delivered = 0
        self.forwarded = 0
        sim.metrics.register(self, self._METRIC_FIELDS, host=host.name)

    @lazy_stream
    def _rng(self) -> RandomStream:
        """Jitter stream, created on first draw."""
        return self.sim.rng(f"ip:{self.host.name}")

    # --------------------------------------------------------------- plumbing

    def register_protocol(self, protocol: int, handler: ProtocolHandler) -> None:
        """Register the upper-layer handler for an IP protocol number."""
        if protocol in self._handlers:
            raise ValueError(f"protocol {protocol} already registered on {self.host.name}")
        self._handlers[protocol] = handler

    def claim_local(self, addr: IPAddress) -> None:
        """Count one more interface owning *addr* (or broadcasting on it)."""
        local = self._local
        local[addr.value] = local.get(addr.value, 0) + 1

    def release_local(self, addr: IPAddress) -> None:
        """Undo one :meth:`claim_local` of *addr*."""
        local = self._local
        remaining = local[addr.value] - 1
        if remaining:
            local[addr.value] = remaining
        else:
            del local[addr.value]

    def is_local(self, addr: IPAddress) -> bool:
        """True if *addr* is one of ours (incl. loopback/broadcast)."""
        value = addr.value
        return value in self._local or value >> 24 == 127 or value == 0xFFFFFFFF

    # ---------------------------------------------------------------- routing

    def ip_rt_route(self, dst: IPAddress,
                    src_hint: IPAddress = UNSPECIFIED) -> Optional[RouteResult]:
        """The paper's hooked route lookup: interface + source + gateway."""
        if self.route_hook is not None:
            result = self.route_hook(dst, src_hint, self._default_lookup)
            if result is not None:
                return result
        return self._default_lookup(dst, src_hint)

    def _default_lookup(self, dst: IPAddress,
                        src_hint: IPAddress) -> Optional[RouteResult]:
        entry = self.routes.lookup(dst)
        if entry is None:
            return None
        source = src_hint
        if source.is_unspecified and entry.interface.address is not None:
            source = entry.interface.address
        return RouteResult(interface=entry.interface, source=source,
                           gateway=entry.gateway)

    # ----------------------------------------------------------------- sending

    def send(self, packet: IPPacket,
             via: Optional["NetworkInterface"] = None) -> bool:
        """Route and transmit a fully formed packet.

        ``via`` bypasses routing for callers that already know
        the interface (DHCP broadcasts before an address exists, VIF
        re-injection onto a pinned physical interface).
        Returns False when the packet could not be sent (no route).
        """
        self.sent += 1
        trace = self.sim.trace
        if "ip" in trace.live:
            trace.emit("ip", "send", host=self.host.name, packet=packet)
        if via is not None:
            via.send_ip(packet, self._next_hop_via(packet.dst, via))
            return True
        if self.is_local(packet.dst):
            # Local destinations loop straight back up the stack.
            self.sim.post_later(0, lambda: self.deliver(packet, self.host.loopback),
                                label="ip-local")
            return True
        route = self.ip_rt_route(packet.dst, packet.src)
        if route is None:
            self.sim.drop("ip", "no_route", packet, host=self.host.name)
            return False
        route.interface.send_ip(packet, route.next_hop(packet.dst))
        return True

    def _next_hop_via(self, dst: IPAddress, via: "NetworkInterface") -> IPAddress:
        """Link-layer next hop for a send pinned to *via*.

        On-link (or broadcast) destinations are delivered directly; off-link
        destinations go through a gateway reachable over *via* — most
        specific matching route first, any gateway on the interface's
        subnet as a fallback.
        """
        if dst.is_limited_broadcast:
            return dst
        if via.subnet is not None and dst in via.subnet:
            return dst
        best = None
        for entry in self.routes:
            if entry.interface is not via or not entry.matches(dst):
                continue
            if best is None or entry.destination.prefix_len > best.destination.prefix_len:
                best = entry
        if best is not None:
            return best.gateway if best.gateway is not None else dst
        for entry in self.routes:
            if (entry.gateway is not None and via.subnet is not None
                    and entry.gateway in via.subnet):
                return entry.gateway
        return dst

    # --------------------------------------------------------------- receiving

    def receive_packet(self, packet: IPPacket, iface: "NetworkInterface") -> None:
        """Entry point for packets arriving from an interface."""
        trace = self.sim.trace
        if "ip" in trace.live:
            trace.emit("ip", "receive", host=self.host.name,
                       interface=iface.name, packet=packet)
        if self.is_local(packet.dst):
            self.deliver(packet, iface)
            return
        if self.forwarding:
            self._forward(packet, iface)
            return
        self.sim.drop("ip", "not_local", packet, host=self.host.name)

    def deliver(self, packet: IPPacket, iface: "NetworkInterface") -> None:
        """Demultiplex a locally destined packet to its protocol handler."""
        handler = self._handlers.get(packet.protocol)
        if handler is None:
            self.sim.drop("ip", "no_protocol", packet, host=self.host.name)
            return
        self.delivered += 1
        handler(packet, iface)

    # -------------------------------------------------------------- forwarding

    def _forward(self, packet: IPPacket, in_iface: "NetworkInterface") -> None:
        if packet.ttl <= 1:
            self.sim.drop("ip", "ttl", packet, host=self.host.name)
            self.host.icmp.send_time_exceeded(packet)
            return
        if self.forward_filter is not None and not self.forward_filter(packet, in_iface):
            self.sim.drop("ip", "filtered", packet, host=self.host.name)
            return
        route = self.ip_rt_route(packet.dst, packet.src)
        if route is None:
            self.sim.drop("ip", "no_route", packet, host=self.host.name)
            self.host.icmp.send_dest_unreachable(packet)
            return
        forwarded = packet.decremented()
        self.forwarded += 1
        delay = jittered(self._rng, self.timings.forward_cost, self.config.jitter)
        out_iface = route.interface
        hop = route.next_hop(forwarded.dst)
        if out_iface is in_iface and route.gateway is not None:
            # Same-interface forwarding: the sender could have gone direct.
            self.host.icmp.maybe_send_redirect(packet, route, in_iface)
        self._forward_fifo.post(
            delay,
            lambda: out_iface.send_ip(forwarded, hop),
            label="fwd",
        )
