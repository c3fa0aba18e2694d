"""Property tests for packets and encapsulation."""

from hypothesis import given, strategies as st

from repro.net.addressing import IPAddress
from repro.net.packet import (
    IP_HEADER_BYTES,
    AppData,
    IPPacket,
    PROTO_UDP,
    UDPDatagram,
    encapsulate,
    encapsulation_depth,
)

addresses = st.integers(min_value=1, max_value=0xFFFFFFFE).map(IPAddress)
payload_sizes = st.integers(min_value=0, max_value=65_000)
ports = st.integers(min_value=0, max_value=0xFFFF)


@st.composite
def packets(draw):
    return IPPacket(
        src=draw(addresses), dst=draw(addresses), protocol=PROTO_UDP,
        payload=UDPDatagram(draw(ports), draw(ports),
                            AppData("data", draw(payload_sizes))),
    )


@given(packets(), addresses, addresses)
def test_encap_decap_roundtrip(inner, outer_src, outer_dst):
    outer = encapsulate(inner, outer_src, outer_dst)
    assert outer.inner is inner
    assert outer.src == outer_src and outer.dst == outer_dst


@given(packets(), addresses, addresses)
def test_encapsulation_cost_is_exactly_one_header(inner, outer_src, outer_dst):
    outer = encapsulate(inner, outer_src, outer_dst)
    assert outer.size_bytes - inner.size_bytes == IP_HEADER_BYTES


@given(packets(), st.integers(min_value=0, max_value=5), st.data())
def test_depth_counts_nesting_exactly(packet, layers, data):
    current = packet
    for _ in range(layers):
        current = encapsulate(current, data.draw(addresses),
                              data.draw(addresses))
    assert encapsulation_depth(current) == layers


@given(packets(), st.integers(min_value=1, max_value=64))
def test_ttl_decrement_chain(packet, steps):
    current = packet
    for _ in range(min(steps, packet.ttl)):
        current = current.decremented()
    assert current.ttl == packet.ttl - min(steps, packet.ttl)


@given(packets())
def test_describe_mentions_endpoints(packet):
    text = packet.describe()
    assert str(packet.src) in text
    assert str(packet.dst) in text
