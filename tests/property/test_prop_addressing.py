"""Property tests for addressing: parsing, subnets, masks."""

from hypothesis import given, strategies as st

from repro.net.addressing import IPAddress, Subnet

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPAddress)
prefix_lengths = st.integers(min_value=0, max_value=32)


@given(addresses)
def test_parse_str_roundtrip(addr):
    assert IPAddress.parse(str(addr)) == addr


@given(addresses, prefix_lengths)
def test_membership_matches_mask_arithmetic(addr, prefix_len):
    mask = 0 if prefix_len == 0 else (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
    network = Subnet(IPAddress(addr.value & mask), prefix_len)
    assert addr in network
    assert (addr.value & mask) == network.network.value


@given(addresses, prefix_lengths)
def test_broadcast_is_member_and_maximal(addr, prefix_len):
    mask = 0 if prefix_len == 0 else (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
    network = Subnet(IPAddress(addr.value & mask), prefix_len)
    assert network.broadcast in network
    # No member exceeds the broadcast address.
    assert addr.value <= network.broadcast.value or addr not in network


@given(addresses, prefix_lengths, addresses)
def test_membership_is_exact(addr, prefix_len, other):
    mask = 0 if prefix_len == 0 else (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
    network = Subnet(IPAddress(addr.value & mask), prefix_len)
    expected = (other.value & mask) == network.network.value
    assert (other in network) is expected


@given(st.integers(min_value=8, max_value=30), st.data())
def test_host_indexing_yields_members(prefix_len, data):
    base = data.draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
    network = Subnet(IPAddress(base & mask), prefix_len)
    size = network.broadcast.value - network.network.value
    index = data.draw(st.integers(min_value=1, max_value=size - 1))
    host = network.host(index)
    assert host in network
    assert host != network.broadcast
    assert host != network.network
