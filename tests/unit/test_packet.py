"""Unit tests for the packet model and IP-in-IP encapsulation."""

import pytest

from repro.net.addressing import ip
from repro.net.ethernet import (
    ETHERTYPE_IPV4,
    FRAME_OVERHEAD_BYTES,
    MIN_PAYLOAD_BYTES,
    EthernetFrame,
)
from repro.net.addressing import MACAddress
from repro.net.packet import (
    IP_HEADER_BYTES,
    PROTO_IPIP,
    PROTO_UDP,
    AppData,
    IPPacket,
    UDPDatagram,
    encapsulate,
    encapsulation_depth,
)


def make_packet(payload_bytes: int = 100) -> IPPacket:
    datagram = UDPDatagram(src_port=1000, dst_port=2000,
                           payload=AppData("x", payload_bytes))
    return IPPacket(src=ip("10.0.0.1"), dst=ip("10.0.0.2"),
                    protocol=PROTO_UDP, payload=datagram)


class TestSizes:
    def test_ip_packet_size_includes_header(self):
        packet = make_packet(100)
        assert packet.size_bytes == IP_HEADER_BYTES + 8 + 100

    def test_encapsulation_adds_exactly_20_bytes(self):
        # The paper: "encapsulation adds 20 bytes or more to the packet
        # length" — ours adds exactly the minimal IP header.
        inner = make_packet()
        outer = encapsulate(inner, ip("36.8.0.50"), ip("36.135.0.1"))
        assert outer.size_bytes == inner.size_bytes + IP_HEADER_BYTES

    def test_negative_payload_size_rejected(self):
        with pytest.raises(ValueError):
            AppData("x", -1)

    def test_bad_udp_port_rejected(self):
        with pytest.raises(ValueError):
            UDPDatagram(src_port=70000, dst_port=1, payload=AppData())

    def test_frame_pads_short_payloads(self):
        mac = MACAddress(1)
        small = make_packet(0)  # 28 bytes, below the 46-byte minimum
        frame = EthernetFrame(src=mac, dst=mac, ethertype=ETHERTYPE_IPV4,
                              payload=small)
        assert frame.size_bytes == FRAME_OVERHEAD_BYTES + MIN_PAYLOAD_BYTES


class TestEncapsulation:
    def test_roundtrip(self):
        inner = make_packet()
        outer = encapsulate(inner, ip("36.8.0.50"), ip("36.135.0.1"))
        assert outer.protocol == PROTO_IPIP
        assert outer.is_tunneled
        assert outer.inner is inner

    def test_depth_counting(self):
        inner = make_packet()
        assert encapsulation_depth(inner) == 0
        once = encapsulate(inner, ip("1.1.1.1"), ip("2.2.2.2"))
        assert encapsulation_depth(once) == 1
        twice = encapsulate(once, ip("3.3.3.3"), ip("4.4.4.4"))
        assert encapsulation_depth(twice) == 2

    def test_inner_of_plain_packet_raises(self):
        with pytest.raises(ValueError):
            make_packet().inner

    def test_ttl_decrement_copies(self):
        packet = make_packet()
        lower = packet.decremented()
        assert lower.ttl == packet.ttl - 1
        assert packet.ttl == 64  # original untouched

    def test_describe_shows_tunnel_nesting(self):
        outer = encapsulate(make_packet(), ip("36.8.0.50"), ip("36.135.0.1"))
        text = outer.describe()
        assert "IPIP" in text and "[" in text and "UDP" in text

    def test_packet_idents_are_unique(self):
        assert make_packet().ident != make_packet().ident
