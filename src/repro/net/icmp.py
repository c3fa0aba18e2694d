"""ICMP: echo (ping), destination unreachable, time exceeded, redirects.

MosquitoNet uses ICMP in two paper-visible ways.  First, the mobile host
probes correspondents with ping to discover whether the triangle route
survives a foreign network's transit filter, falling back to reverse
tunneling on failure (Section 3.2).  Second, answering foreign-network
pings is the canonical example of the mobile host's *local role*
(Section 5.2) — the echo reply must carry the care-of source address, not
the home address.  Routing redirects are the third design pressure the
paper cites against full transparency; hosts here honour them by
installing a host route, so tests can exercise that scenario.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from repro.config import Config, HostTimings
from repro.net.addressing import IPAddress, UNSPECIFIED
from repro.net.packet import ICMP_HEADER_BYTES, PROTO_ICMP, IPPacket
from repro.sim.engine import Event, Simulator
from repro.sim.fifo import FifoDelay
from repro.sim.randomness import RandomStream, jittered, lazy_stream
from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.interface import NetworkInterface
    from repro.net.routing import RouteResult

#: ICMP types (the subset we implement).
TYPE_ECHO_REPLY = 0
TYPE_DEST_UNREACHABLE = 3
TYPE_REDIRECT = 5
TYPE_ECHO_REQUEST = 8
TYPE_TIME_EXCEEDED = 11


@dataclass(frozen=True)
class ICMPMessage:
    """An ICMP message; ``body`` meaning depends on ``icmp_type``."""

    icmp_type: int
    code: int = 0
    ident: int = 0
    seq: int = 0
    #: For errors: the offending packet's description.  For redirects: the
    #: recommended gateway.  For echoes: opaque payload size only matters.
    body: object = None
    data_bytes: int = 0

    @property
    def size_bytes(self) -> int:
        """Wire size: header plus data."""
        return ICMP_HEADER_BYTES + self.data_bytes


@dataclass
class _PendingPing:
    on_reply: Callable[[int], None]
    on_timeout: Callable[[], None]
    sent_at: int
    timeout_event: Event


class ICMPService:
    """Per-host ICMP processing and the ping client."""

    _ident_counter = itertools.count(1)

    def __init__(self, sim: Simulator, host: "Host", config: Config,
                 timings: HostTimings) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        self.timings = timings
        self._tx_fifo = FifoDelay(sim)
        self._rx_fifo = FifoDelay(sim)
        self._pending: Dict[Tuple[int, int], _PendingPing] = {}
        self._seq = itertools.count(1)
        # Statistics.
        self.echoes_answered = 0
        self.redirects_received = 0
        host.ip.register_protocol(PROTO_ICMP, self._receive)

    @lazy_stream
    def _rng(self) -> RandomStream:
        """Jitter stream, created on first draw."""
        return self.sim.rng(f"icmp:{self.host.name}")

    # ------------------------------------------------------------------ ping

    def ping(self, dst: IPAddress,
             on_reply: Callable[[int], None],
             on_timeout: Callable[[], None],
             src: IPAddress = UNSPECIFIED,
             timeout: int = ms(3000),
             data_bytes: int = 56) -> None:
        """Send one echo request; exactly one of the callbacks fires.

        ``on_reply`` receives the round-trip time in nanoseconds.
        """
        ident = next(self._ident_counter)
        seq = next(self._seq)
        message = ICMPMessage(icmp_type=TYPE_ECHO_REQUEST, ident=ident, seq=seq,
                              data_bytes=data_bytes)
        key = (ident, seq)

        def timed_out() -> None:
            pending = self._pending.pop(key, None)
            if pending is not None:
                pending.on_timeout()

        event = self.sim.call_later(timeout, timed_out, label="ping-timeout")
        self._pending[key] = _PendingPing(on_reply=on_reply, on_timeout=on_timeout,
                                          sent_at=self.sim.now, timeout_event=event)
        self._send(dst, message, src)

    def _send(self, dst: IPAddress, message: ICMPMessage,
              src: IPAddress = UNSPECIFIED) -> None:
        route = self.host.ip.ip_rt_route(dst, src)
        source = src
        if source.is_unspecified:
            source = route.source if route is not None else UNSPECIFIED
        if source.is_unspecified:
            # Routes through address-less virtual interfaces leave no
            # source; fall back to any address this host owns rather than
            # emitting from 0.0.0.0.
            fallback = self.host.primary_address()
            if fallback is not None:
                source = fallback
        packet = IPPacket(src=source, dst=dst, protocol=PROTO_ICMP,
                          payload=message, ttl=self.config.default_ttl)
        delay = jittered(self._rng, self.timings.tx_cost, self.config.jitter)
        self._tx_fifo.post(delay, lambda: self.host.ip.send(packet),
                           label="icmp-tx")

    # ----------------------------------------------------------------- errors

    def send_dest_unreachable(self, offending: IPPacket) -> None:
        """Tell the sender its packet could not be routed."""
        if offending.protocol == PROTO_ICMP:
            return  # never ICMP about ICMP errors
        message = ICMPMessage(icmp_type=TYPE_DEST_UNREACHABLE,
                              body=offending.describe(), data_bytes=28)
        self._send(offending.src, message)

    def send_time_exceeded(self, offending: IPPacket) -> None:
        """Tell the sender its packet's TTL ran out."""
        if offending.protocol == PROTO_ICMP:
            return
        message = ICMPMessage(icmp_type=TYPE_TIME_EXCEEDED,
                              body=offending.describe(), data_bytes=28)
        self._send(offending.src, message)

    def maybe_send_redirect(self, packet: IPPacket, route: "RouteResult",
                            in_iface: "NetworkInterface") -> None:
        """Routers: advise an on-link sender of a better first hop."""
        if in_iface.subnet is None or packet.src not in in_iface.subnet:
            return
        message = ICMPMessage(icmp_type=TYPE_REDIRECT,
                              body={"destination": packet.dst,
                                    "gateway": route.next_hop(packet.dst)},
                              data_bytes=28)
        self._send(packet.src, message)

    # ---------------------------------------------------------------- receive

    def _receive(self, packet: IPPacket, iface: "NetworkInterface") -> None:
        message = packet.payload
        assert isinstance(message, ICMPMessage)
        delay = jittered(self._rng, self.timings.rx_cost, self.config.jitter)
        self._rx_fifo.post(delay, lambda: self._process(packet, message, iface),
                           label="icmp-rx")

    def _process(self, packet: IPPacket, message: ICMPMessage,
                 iface: "NetworkInterface") -> None:
        if message.icmp_type == TYPE_ECHO_REQUEST:
            self._answer_echo(packet, message, iface)
        elif message.icmp_type == TYPE_ECHO_REPLY:
            self._match_reply(message)
        elif message.icmp_type == TYPE_REDIRECT:
            self._handle_redirect(message, iface)
        elif message.icmp_type in (TYPE_DEST_UNREACHABLE, TYPE_TIME_EXCEEDED):
            self.sim.trace.emit("icmp", "error_received", host=self.host.name,
                                icmp_type=message.icmp_type,
                                body=message.body)

    def _answer_echo(self, packet: IPPacket, message: ICMPMessage,
                     iface: "NetworkInterface") -> None:
        self.echoes_answered += 1
        reply = ICMPMessage(icmp_type=TYPE_ECHO_REPLY, ident=message.ident,
                            seq=message.seq, data_bytes=message.data_bytes)
        # Local-role rule (Section 5.2): the reply's source is the address
        # the request was sent to — a ping of the care-of address is
        # answered from the care-of address, with no mobile-IP treatment.
        self._send(packet.src, reply, src=packet.dst)

    def _match_reply(self, message: ICMPMessage) -> None:
        key = (message.ident, message.seq)
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        pending.timeout_event.cancel()
        pending.on_reply(self.sim.now - pending.sent_at)

    def _handle_redirect(self, message: ICMPMessage, iface: "NetworkInterface") -> None:
        # Redirects are honoured by installing a host route (Linux default).
        self.redirects_received += 1
        self.sim.trace.emit("icmp", "redirect", host=self.host.name,
                            body=message.body)
        if not isinstance(message.body, dict):
            return
        destination = message.body.get("destination")
        gateway = message.body.get("gateway")
        if isinstance(destination, IPAddress) and isinstance(gateway, IPAddress):
            self.host.ip.routes.add_host_route(destination, iface, gateway=gateway,
                                               metric=-1)
