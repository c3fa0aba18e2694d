"""Packet model: IP datagrams and the payloads MosquitoNet moves around.

An IP-in-IP tunnel packet is simply an :class:`IPPacket` whose protocol is
:data:`PROTO_IPIP` and whose payload is the full inner :class:`IPPacket` —
exactly the RFC 2003 encapsulation the paper's VIF performs, including the
20-byte overhead the paper quotes ("encapsulation adds 20 bytes or more to
the packet length").

Sizes matter because link serialization delays derive from them; every
payload type therefore reports ``size_bytes``.

Packets used to be frozen dataclasses; they are now hand-rolled
``__slots__`` value classes because construction is the datapath's hottest
allocation (every hop of every packet builds at least one).  The slotted
layout skips the per-instance ``__dict__`` and the frozen-dataclass
``object.__setattr__`` round-trip, roughly halving construction cost.
Treat instances as immutable: nothing in the repository mutates a packet
after construction, and sharing below relies on that (``decremented()``
copies, tunnels nest the inner packet by reference).  Packets compare by
identity; nothing compares two of them by value.

``size_bytes`` is computed once at construction and stored in a slot —
the "cached header encode".  Packets are immutable, so the walk down the
payload chain never needs repeating; link serialization and TCP pacing
read a plain attribute.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Protocol, runtime_checkable

from repro.net.addressing import IPAddress

#: IANA protocol numbers (the subset we implement).
PROTO_ICMP = 1
PROTO_IPIP = 4
PROTO_TCP = 6
PROTO_UDP = 17

PROTOCOL_NAMES = {
    PROTO_ICMP: "ICMP",
    PROTO_IPIP: "IPIP",
    PROTO_TCP: "TCP",
    PROTO_UDP: "UDP",
}

#: Size of an IPv4 header without options, bytes.
IP_HEADER_BYTES = 20
#: Size of a UDP header, bytes.
UDP_HEADER_BYTES = 8
#: Size of a TCP header without options, bytes.
TCP_HEADER_BYTES = 20
#: Size of an ICMP echo header, bytes.
ICMP_HEADER_BYTES = 8

_packet_ids = itertools.count(1)
_next_packet_id = _packet_ids.__next__


@runtime_checkable
class Sized(Protocol):
    """Anything that can ride inside a packet must know its wire size."""

    @property
    def size_bytes(self) -> int: ...


class AppData:
    """Opaque application payload: a label plus an explicit wire size.

    Experiments tag datagrams with sequence numbers and timestamps by
    storing them in ``content``; only ``size_bytes`` affects the simulation.
    """

    __slots__ = ("content", "size_bytes")

    def __init__(self, content: Any = None, size_bytes: int = 0) -> None:
        if size_bytes < 0:
            raise ValueError("payload size cannot be negative")
        self.content = content
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return f"AppData(content={self.content!r}, size_bytes={self.size_bytes})"


class UDPDatagram:
    """A UDP header plus application payload.

    ``size_bytes`` (UDP header plus payload) is precomputed at
    construction; the payload is immutable so it can never go stale.
    """

    __slots__ = ("src_port", "dst_port", "payload", "size_bytes")

    def __init__(self, src_port: int, dst_port: int,
                 payload: AppData) -> None:
        if not 0 <= src_port <= 0xFFFF:
            raise ValueError(f"bad UDP port {src_port}")
        if not 0 <= dst_port <= 0xFFFF:
            raise ValueError(f"bad UDP port {dst_port}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        self.size_bytes = UDP_HEADER_BYTES + payload.size_bytes

    def __repr__(self) -> str:
        return (f"UDPDatagram(src_port={self.src_port}, "
                f"dst_port={self.dst_port}, payload={self.payload!r})")


class IPPacket:
    """An IPv4 datagram.

    ``payload`` is one of :class:`UDPDatagram`, :class:`TCPSegment` (see
    :mod:`repro.net.tcp`), :class:`ICMPMessage` (see :mod:`repro.net.icmp`)
    or, for tunneled packets, another :class:`IPPacket`.
    """

    __slots__ = ("src", "dst", "protocol", "payload", "ttl", "ident",
                 "size_bytes")

    def __init__(self, src: IPAddress, dst: IPAddress, protocol: int,
                 payload: Sized, ttl: int = 64,
                 ident: Optional[int] = None) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.ttl = ttl
        self.ident = ident if ident is not None else _next_packet_id()
        self.size_bytes = IP_HEADER_BYTES + payload.size_bytes

    @property
    def is_tunneled(self) -> bool:
        """True if this packet is an IP-in-IP encapsulation."""
        return self.protocol == PROTO_IPIP

    @property
    def inner(self) -> "IPPacket":
        """The encapsulated packet (only valid when :attr:`is_tunneled`)."""
        if not self.is_tunneled or not isinstance(self.payload, IPPacket):
            raise ValueError("not an IP-in-IP packet")
        return self.payload

    def decremented(self) -> "IPPacket":
        """Copy with TTL decremented (used when forwarding)."""
        return IPPacket(self.src, self.dst, self.protocol,
                        self.payload, self.ttl - 1, self.ident)

    def protocol_name(self) -> str:
        """Human-readable protocol number."""
        return PROTOCOL_NAMES.get(self.protocol, str(self.protocol))

    def describe(self) -> str:
        """One-line human-readable summary, used in traces and examples."""
        base = f"{self.src} -> {self.dst} {self.protocol_name()} {self.size_bytes}B"
        if self.is_tunneled and isinstance(self.payload, IPPacket):
            return f"{base} [{self.payload.describe()}]"
        return base

    def __repr__(self) -> str:
        return (f"IPPacket(src={self.src!r}, dst={self.dst!r}, "
                f"protocol={self.protocol}, payload={self.payload!r}, "
                f"ttl={self.ttl}, ident={self.ident})")


def encapsulate(inner: IPPacket, outer_src: IPAddress, outer_dst: IPAddress,
                ttl: int = 64) -> IPPacket:
    """Wrap *inner* in an IP-in-IP outer header (RFC 2003 style)."""
    return IPPacket(outer_src, outer_dst, PROTO_IPIP, inner, ttl)


def encapsulation_depth(packet: IPPacket) -> int:
    """Number of nested IP-in-IP layers (0 for a plain packet).

    The paper's VIF design guarantees this never exceeds 1: the outer source
    address is pinned to a physical interface so the policy lookup cannot
    route the encapsulated packet back into the VIF.  Property tests assert
    it.
    """
    depth = 0
    current = packet
    while current.is_tunneled and isinstance(current.payload, IPPacket):
        depth += 1
        current = current.payload
    return depth
