"""Unit tests for the Host node wiring."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import MACAllocator, ip, subnet
from repro.net.host import Host
from repro.net.interface import EthernetInterface, InterfaceState


def test_host_is_born_with_full_stack(sim):
    host = Host(sim, "h", DEFAULT_CONFIG)
    assert host.ip is not None
    assert host.icmp is not None and host.udp is not None
    assert host.tcp is not None
    assert host.loopback in host.interfaces
    assert not host.ip.forwarding


def test_interface_lookup_by_name(sim, lan):
    iface = lan.a.interface("eth.a")
    assert iface.address == ip("10.0.0.1")
    with pytest.raises(KeyError):
        lan.a.interface("eth9")


def test_interface_cannot_belong_to_two_hosts(sim, lan):
    iface = lan.a.interfaces[1]
    with pytest.raises(ValueError):
        lan.b.add_interface(iface)


def test_add_interface_is_idempotent(sim, lan):
    iface = lan.a.interfaces[1]
    count = len(lan.a.interfaces)
    lan.a.add_interface(iface)
    assert len(lan.a.interfaces) == count


def test_configure_interface_is_immediate(sim):
    host = Host(sim, "h", DEFAULT_CONFIG)
    iface = EthernetInterface(sim, "eth", MACAllocator().allocate(),
                              DEFAULT_CONFIG)
    host.add_interface(iface)
    host.configure_interface(iface, ip("10.0.0.5"), subnet("10.0.0.0/24"))
    # No simulation time needed: it's a topology-construction helper.
    assert iface.address == ip("10.0.0.5")
    assert iface.state == InterfaceState.UP
    assert host.ip.routes.lookup(ip("10.0.0.9")) is not None


def test_configure_interface_without_route(sim):
    host = Host(sim, "h", DEFAULT_CONFIG)
    iface = EthernetInterface(sim, "eth", MACAllocator().allocate(),
                              DEFAULT_CONFIG)
    host.add_interface(iface)
    host.configure_interface(iface, ip("10.0.0.5"), subnet("10.0.0.0/24"),
                             connected_route=False)
    assert host.ip.routes.lookup(ip("10.0.0.9")) is None


def test_primary_address_skips_loopback(sim, lan):
    assert lan.a.primary_address() == ip("10.0.0.1")
    bare = Host(sim, "bare", DEFAULT_CONFIG)
    assert bare.primary_address() is None
