"""Unit tests for IPv4/MAC addressing and subnets."""

import pytest

from repro.net.addressing import (
    LIMITED_BROADCAST,
    UNSPECIFIED,
    AddressError,
    IPAddress,
    MACAllocator,
    Subnet,
    ip,
    subnet,
)


class TestIPAddress:
    def test_parse_and_str_roundtrip(self):
        for text in ("36.135.0.10", "0.0.0.0", "255.255.255.255", "10.1.2.3"):
            assert str(IPAddress.parse(text)) == text

    @pytest.mark.parametrize("bad", ["36.135.0", "1.2.3.4.5", "256.0.0.1",
                                     "a.b.c.d", "1..2.3", ""])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            IPAddress.parse(bad)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(AddressError):
            IPAddress(1 << 32)
        with pytest.raises(AddressError):
            IPAddress(-1)

    def test_classification_flags(self):
        assert UNSPECIFIED.is_unspecified
        assert LIMITED_BROADCAST.is_limited_broadcast
        assert ip("127.0.0.1").is_loopback
        assert not ip("36.8.0.1").is_loopback

    def test_hashing(self):
        a, b = ip("10.0.0.1"), ip("10.0.0.2")
        assert len({a, b, ip("10.0.0.1")}) == 2

    def test_ip_coercion_helper(self):
        addr = ip("1.2.3.4")
        assert ip(addr) is addr


class TestSubnet:
    def test_parse_and_properties(self):
        net = subnet("36.135.0.0/24")
        assert str(net) == "36.135.0.0/24"
        assert str(net.broadcast) == "36.135.0.255"

    def test_membership(self):
        net = subnet("36.8.0.0/24")
        assert ip("36.8.0.50") in net
        assert ip("36.9.0.50") not in net
        assert "not an address" not in net

    def test_host_bits_set_rejected(self):
        with pytest.raises(AddressError):
            Subnet(ip("36.8.0.1"), 24)

    def test_bad_prefix_length_rejected(self):
        with pytest.raises(AddressError):
            Subnet(ip("36.8.0.0"), 33)
        with pytest.raises(AddressError):
            subnet("36.8.0.0")

    def test_host_indexing(self):
        net = subnet("10.0.0.0/24")
        assert net.host(1) == ip("10.0.0.1")
        assert net.host(254) == ip("10.0.0.254")
        with pytest.raises(AddressError):
            net.host(255)  # the broadcast address
        with pytest.raises(AddressError):
            net.host(300)

    def test_default_route_prefix(self):
        everything = subnet("0.0.0.0/0")
        assert ip("1.2.3.4") in everything
        assert ip("255.255.255.254") in everything

    def test_prefix_32_contains_only_itself(self):
        one = Subnet(ip("10.0.0.5"), 32)
        assert ip("10.0.0.5") in one
        assert ip("10.0.0.6") not in one


class TestMAC:
    def test_allocator_yields_unique_locally_administered(self):
        alloc = MACAllocator()
        seen = {alloc.allocate() for _ in range(100)}
        assert len(seen) == 100
        for mac in seen:
            assert (mac.value >> 40) == 0x02
