"""Duplicate-address detection: the client side of Section 5.1's hazard."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import ip
from repro.net.dhcp import DHCPClient, DHCPClientState, DHCPServer
from repro.net.host import Host
from repro.net.interface import EthernetInterface, InterfaceState
from repro.sim import s


@pytest.fixture
def dad_lan(lan):
    server = DHCPServer(lan.b, lan.b.interfaces[1], lan.net,
                        first_host=100, last_host=103,
                        gateway=ip("10.0.0.1"))
    return lan, server


def make_client(lan, name="mobile"):
    host = Host(lan.sim, name, DEFAULT_CONFIG)
    iface = EthernetInterface(lan.sim, f"eth.{name}", lan.macs.allocate(),
                              DEFAULT_CONFIG)
    host.add_interface(iface)
    iface.attach(lan.segment)
    iface.state = InterfaceState.UP
    return DHCPClient(host, iface, client_id=name), host, iface


def squat(lan, address):
    """Park a rogue host on *address* without the server knowing."""
    rogue = lan.host(address, name="squatter")
    return rogue


def test_probe_passes_when_address_is_free(dad_lan):
    lan, _server = dad_lan
    client, _host, _iface = make_client(lan)
    leases = []
    client.acquire(on_bound=leases.append)
    lan.sim.run_for(s(3))
    assert leases and leases[0].address == ip("10.0.0.100")
    assert client.declines_sent == 0
    assert client.state == DHCPClientState.BOUND
    # The probe really went out.
    assert lan.sim.trace.select("arp", "probe", address="10.0.0.100")


def test_squatted_address_is_declined_and_another_acquired(dad_lan):
    lan, server = dad_lan
    squat(lan, "10.0.0.100")  # first pool address is silently in use
    client, _host, _iface = make_client(lan)
    leases = []
    client.acquire(on_bound=leases.append)
    lan.sim.run_for(s(6))
    assert client.declines_sent == 1
    assert leases and leases[0].address == ip("10.0.0.101")
    # The server quarantined the bad address.
    quarantined = server._leases.get(ip("10.0.0.100"))
    assert quarantined is not None and quarantined.client_id == "<declined>"


def test_quarantined_address_not_reissued(dad_lan):
    lan, server = dad_lan
    squat(lan, "10.0.0.100")
    first, _h1, _i1 = make_client(lan, "one")
    first.acquire(on_bound=lambda lease: None)
    lan.sim.run_for(s(6))
    second, _h2, _i2 = make_client(lan, "two")
    leases = []
    second.acquire(on_bound=leases.append)
    lan.sim.run_for(s(6))
    assert leases
    assert leases[0].address not in (ip("10.0.0.100"), first.lease.address)

