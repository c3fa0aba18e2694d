"""Unit tests for the routing table, its prefix index, and RouteResult."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import MACAllocator, ip, subnet
from repro.net.interface import EthernetInterface, InterfaceState, NetworkInterface
from repro.net.routing import RouteEntry, RouteResult, RoutingTable


@pytest.fixture
def ifaces(sim):
    macs = MACAllocator()
    out = []
    for name in ("eth0", "eth1", "vif"):
        iface = EthernetInterface(sim, name, macs.allocate(), DEFAULT_CONFIG)
        iface.state = InterfaceState.UP
        out.append(iface)
    return out


def test_longest_prefix_wins(ifaces):
    table = RoutingTable()
    table.add(RouteEntry(subnet("10.0.0.0/8"), ifaces[0]))
    table.add(RouteEntry(subnet("10.1.0.0/16"), ifaces[1]))
    table.add(RouteEntry(subnet("10.1.2.0/24"), ifaces[2]))
    assert table.lookup(ip("10.1.2.3")).interface is ifaces[2]
    assert table.lookup(ip("10.1.9.9")).interface is ifaces[1]
    assert table.lookup(ip("10.9.9.9")).interface is ifaces[0]


def test_metric_breaks_prefix_ties(ifaces):
    table = RoutingTable()
    table.add(RouteEntry(subnet("10.0.0.0/24"), ifaces[0], metric=10))
    table.add(RouteEntry(subnet("10.0.0.0/24"), ifaces[1], metric=5))
    assert table.lookup(ip("10.0.0.1")).interface is ifaces[1]


def test_host_route_beats_everything(ifaces):
    table = RoutingTable()
    table.add_default(ifaces[0], gateway=ip("10.0.0.1"))
    table.add(RouteEntry(subnet("10.1.0.0/16"), ifaces[1]))
    table.add_host_route(ip("10.1.2.3"), ifaces[2])
    assert table.lookup(ip("10.1.2.3")).interface is ifaces[2]


def test_default_route_catches_everything(ifaces):
    table = RoutingTable()
    table.add_default(ifaces[0], gateway=ip("10.0.0.1"))
    entry = table.lookup(ip("200.1.2.3"))
    assert entry is not None and entry.gateway == ip("10.0.0.1")


def test_no_match_returns_none(ifaces):
    table = RoutingTable()
    table.add(RouteEntry(subnet("10.0.0.0/24"), ifaces[0]))
    assert table.lookup(ip("11.0.0.1")) is None


def test_down_interfaces_are_skipped(ifaces):
    table = RoutingTable()
    table.add(RouteEntry(subnet("10.0.0.0/24"), ifaces[0]))
    table.add(RouteEntry(subnet("10.0.0.0/16"), ifaces[1]))
    ifaces[0].state = InterfaceState.DOWN
    assert table.lookup(ip("10.0.0.1")).interface is ifaces[1]
    ifaces[0].state = InterfaceState.UP
    assert table.lookup(ip("10.0.0.1")).interface is ifaces[0]


def test_remove_matching_by_interface(ifaces):
    table = RoutingTable()
    table.add(RouteEntry(subnet("10.0.0.0/24"), ifaces[0]))
    table.add_default(ifaces[0], gateway=ip("10.0.0.1"))
    table.add(RouteEntry(subnet("10.1.0.0/24"), ifaces[1]))
    assert table.remove_matching(interface=ifaces[0]) == 2
    assert len(table) == 1


def test_remove_default_only(ifaces):
    table = RoutingTable()
    table.add(RouteEntry(subnet("10.0.0.0/24"), ifaces[0]))
    table.add_default(ifaces[0], gateway=ip("10.0.0.1"))
    assert table.remove_default() == 1
    assert table.lookup(ip("99.0.0.1")) is None
    assert table.lookup(ip("10.0.0.1")) is not None


def test_route_result_next_hop(ifaces):
    direct = RouteResult(interface=ifaces[0], source=ip("10.0.0.1"))
    assert direct.next_hop(ip("10.0.0.9")) == ip("10.0.0.9")
    via = RouteResult(interface=ifaces[0], source=ip("10.0.0.1"),
                      gateway=ip("10.0.0.254"))
    assert via.next_hop(ip("99.0.0.9")) == ip("10.0.0.254")


class FakeInterface:
    """Just enough interface for RoutingTable: a name and an up/down bit."""

    def __init__(self, name, up=True):
        self.name = name
        self.is_up = up


def make_table():
    table = RoutingTable()
    eth = FakeInterface("eth0")
    table.add(RouteEntry(destination=subnet("10.0.0.0/24"), interface=eth))
    table.add_default(eth, gateway=ip("10.0.0.1"))
    return table, eth


def test_mutations_update_lookups():
    table, eth = make_table()
    table.lookup(ip("10.0.0.5"))
    better = RouteEntry(destination=subnet("10.0.0.5/32"),
                        interface=FakeInterface("ppp0"))
    table.add(better)
    assert table.lookup(ip("10.0.0.5")) is better
    table.remove(better)
    assert table.lookup(ip("10.0.0.5")).destination == subnet("10.0.0.0/24")
    table.remove_matching(interface=eth)
    assert table.lookup(ip("10.0.0.5")) is None


def test_liveness_is_read_at_lookup_time():
    """An interface that drops with no notification at all still loses
    its routes to a shorter prefix."""
    table, eth = make_table()
    fallback = RouteEntry(destination=subnet("10.0.0.0/16"),
                          interface=FakeInterface("backup0"))
    table.add(fallback)
    assert table.lookup(ip("10.0.0.5")).interface is eth
    eth.is_up = False  # FakeInterface: a plain attribute, nothing notified
    assert table.lookup(ip("10.0.0.5")) is fallback


def test_equal_metric_ties_go_to_the_first_entry():
    table = RoutingTable()
    first = RouteEntry(subnet("10.0.0.0/24"), FakeInterface("eth0"))
    second = RouteEntry(subnet("10.0.0.0/24"), FakeInterface("eth1"))
    table.add(first)
    table.add(second)
    assert table.lookup(ip("10.0.0.9")) is first
    table.remove(first)
    assert table.lookup(ip("10.0.0.9")) is second
    table.add(first)
    assert table.lookup(ip("10.0.0.9")) is second


def test_removing_the_last_entry_of_a_length_drops_it():
    table, _ = make_table()
    host = table.add_host_route(ip("10.0.0.7"), FakeInterface("ppp0"))
    assert table.lookup(ip("10.0.0.7")) is host
    table.remove(host)
    assert table.lookup(ip("10.0.0.7")).destination == subnet("10.0.0.0/24")
    assert table.remove_default() == 1
    assert table.lookup(ip("99.0.0.1")) is None
    assert len(table) == 1


def test_interface_state_change_shows_in_next_lookup(sim, lan):
    host = lan.a
    iface = next(i for i in host.interfaces if i.name.startswith("eth"))
    assert isinstance(iface, NetworkInterface)
    dst = ip("10.0.0.2")
    assert host.ip.routes.lookup(dst) is not None
    iface.state = InterfaceState.DOWN
    assert host.ip.routes.lookup(dst) is None
    iface.state = InterfaceState.UP
    assert host.ip.routes.lookup(dst) is not None


def test_remove_takes_out_that_exact_entry():
    """Two rows equal in every field are still two rows: removing the
    second must leave the first."""
    eth = FakeInterface("eth0")
    a = RouteEntry(subnet("10.0.0.0/24"), eth)
    b = RouteEntry(subnet("10.0.0.0/24"), eth)
    table = RoutingTable()
    table.add(a)
    table.add(b)
    table.remove(b)
    assert len(table) == 1
    assert next(iter(table)) is a
    assert table.lookup(ip("10.0.0.9")) is a
    with pytest.raises(ValueError):
        table.remove(b)


def test_handoff_changes_show_in_the_next_lookups(testbed):
    mobile, addresses = testbed.mobile, testbed.addresses
    dst = addresses.ch_dept
    assert mobile.ip.routes.lookup(dst).destination.prefix_len == 0
    assert mobile.ip.ip_rt_route(dst).interface is testbed.mh_eth
    assert not mobile.ip.is_local(addresses.mh_dept_care_of)
    care_of = testbed.visit_dept()
    assert mobile.ip.is_local(care_of)
    entry = mobile.ip.routes.lookup(dst)
    assert entry.destination == addresses.dept_net
    assert entry.interface is testbed.mh_eth
    assert mobile.ip.ip_rt_route(dst).interface is mobile.vif
