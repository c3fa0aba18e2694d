"""Unit tests for IPv4/MAC addressing and subnets."""

import copy
import pickle

import pytest

from repro.net.addressing import (
    LIMITED_BROADCAST,
    UNSPECIFIED,
    AddressError,
    IPAddress,
    MACAddress,
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


class TestValueSemantics:
    """The slotted address classes behave as the frozen dataclasses did."""

    VALUES = [ip("36.135.0.10"), UNSPECIFIED, subnet("36.8.0.0/24"),
              subnet("0.0.0.0/0"), Subnet(ip("10.0.0.5"), 32),
              MACAddress(0x02_00_00_00_00_2A)]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("roundtrip", [
        lambda value: pickle.loads(pickle.dumps(value)),
        copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_roundtrip_gives_an_equal_value(self, value, roundtrip):
        restored = roundtrip(value)
        assert type(restored) is type(value)
        assert restored == value and hash(restored) == hash(value)
        assert repr(restored) == repr(value)

    def test_broadcast_survives_a_roundtrip(self):
        net = subnet("36.135.0.0/24")
        assert net.broadcast == ip("36.135.0.255")
        restored = pickle.loads(pickle.dumps(net))
        assert restored.broadcast == net.broadcast
        assert restored.mask == net.mask == 0xFFFFFF00

    def test_hash_is_the_field_tuple_hash(self):
        value = 0x24870A0B
        assert hash(IPAddress(value)) == hash((value,))
        assert hash(MACAddress(value)) == hash((value,))
        net = subnet("36.135.0.0/24")
        assert hash(net) == hash((ip("36.135.0.0"), 24))

    @pytest.mark.parametrize("value, field", [
        (ip("1.2.3.4"), "value"), (MACAddress(7), "value"),
        (subnet("10.0.0.0/8"), "network"), (subnet("10.0.0.0/8"), "prefix_len"),
        (subnet("10.0.0.0/8"), "mask"), (ip("1.2.3.4"), "extra")])
    def test_assignment_raises(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)

    def test_equality_is_within_one_class(self):
        assert IPAddress(1) != 1
        assert IPAddress(1) != MACAddress(1)
        assert subnet("10.0.0.0/8") != (ip("10.0.0.0"), 8)
        assert subnet("10.0.0.0/8") != subnet("10.0.0.0/9")
        assert IPAddress(1) == IPAddress(1)

    def test_subnet_validation_messages(self):
        with pytest.raises(AddressError, match=r"^bad prefix length 33$"):
            Subnet(ip("36.8.0.0"), 33)
        with pytest.raises(AddressError,
                           match=r"^36\.8\.0\.1/24 has host bits set$"):
            Subnet(ip("36.8.0.1"), 24)
        with pytest.raises(AddressError,
                           match=r"^IPv4 address out of range: 0x100000000$"):
            IPAddress(1 << 32)
