"""Ethernet framing.

Frames carry either an IPv4 packet or an ARP message across an
:class:`~repro.net.link.EthernetSegment`.  The 18-byte frame overhead
(header + FCS) is charged against the link's serialization rate.
"""

from __future__ import annotations

from typing import Union

from repro.net.addressing import MACAddress
from repro.net.arp import ARPMessage
from repro.net.packet import IPPacket

#: EtherType values.
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

#: Header (14) + frame check sequence (4).
FRAME_OVERHEAD_BYTES = 18
#: Minimum Ethernet payload; short payloads are padded on the wire.
MIN_PAYLOAD_BYTES = 46


class EthernetFrame:
    """One frame on an Ethernet segment.

    A ``__slots__`` value class, like the packets it carries: one is built
    for every frame sent, and its wire size (header, FCS and padding) is
    computed once here.  Treat instances as immutable.
    """

    __slots__ = ("src", "dst", "ethertype", "payload", "size_bytes")

    def __init__(self, src: MACAddress, dst: MACAddress, ethertype: int,
                 payload: Union[IPPacket, ARPMessage]) -> None:
        self.src = src
        self.dst = dst
        self.ethertype = ethertype
        self.payload = payload
        payload_size = payload.size_bytes
        if payload_size < MIN_PAYLOAD_BYTES:
            payload_size = MIN_PAYLOAD_BYTES
        self.size_bytes = FRAME_OVERHEAD_BYTES + payload_size

    def __repr__(self) -> str:
        return (f"EthernetFrame(src={self.src!r}, dst={self.dst!r}, "
                f"ethertype={self.ethertype:#06x}, payload={self.payload!r})")
