"""Unit tests for UDP sockets and source-address semantics."""

import pytest

from repro.net.addressing import UNSPECIFIED, ip
from repro.net.packet import AppData
from repro.net.udp import UDPError
from tests.drops import dropped


def test_ephemeral_ports_are_unique(lan):
    first = lan.a.udp.open(0)
    second = lan.a.udp.open(0)
    assert first.port != second.port
    assert first.port >= lan.a.udp.EPHEMERAL_START


def test_port_conflict_rejected(lan):
    lan.a.udp.open(5000)
    with pytest.raises(UDPError):
        lan.a.udp.open(5000)


def test_close_releases_port(lan):
    sock = lan.a.udp.open(5000)
    sock.close()
    lan.a.udp.open(5000)  # no conflict now
    with pytest.raises(UDPError):
        sock.sendto(AppData(), ip("10.0.0.2"), 9)


def test_unbound_socket_source_is_stack_chosen(lan):
    seen = []
    lan.b.udp.open(9).on_datagram(lambda d, s, sp, dst: seen.append(str(s)))
    lan.a.udp.open(0).sendto(AppData("x", 1), ip("10.0.0.2"), 9)
    lan.run()
    assert seen == ["10.0.0.1"]


def test_bound_socket_source_sticks(lan):
    second = ip("10.0.0.42")
    lan.a.interfaces[1].add_address(second)
    seen = []
    lan.b.udp.open(9).on_datagram(lambda d, s, sp, dst: seen.append(str(s)))
    lan.a.udp.open(0, bound_address=second).sendto(AppData("x", 1),
                                                   ip("10.0.0.2"), 9)
    lan.run()
    assert seen == ["10.0.0.42"]


def test_bound_socket_rejects_foreign_destination_address(lan):
    """A socket bound to one alias must not hear datagrams for another."""
    primary_only = []
    lan.b.interfaces[1].add_address(ip("10.0.0.42"))
    lan.b.udp.open(9, bound_address=ip("10.0.0.42")).on_datagram(
        lambda d, s, sp, dst: primary_only.append(d))
    lan.a.udp.open(0).sendto(AppData("x", 1), ip("10.0.0.2"), 9)
    lan.run()
    assert primary_only == []
    assert dropped(lan.sim, "udp", "bound_mismatch", host="b") == 1


def test_bound_mismatch_is_not_billed_as_no_port(lan):
    lan.b.interfaces[1].add_address(ip("10.0.0.42"))
    lan.b.udp.open(9, bound_address=ip("10.0.0.42"))
    lan.a.udp.open(0).sendto(AppData("x", 1), ip("10.0.0.2"), 9)
    lan.run()
    assert dropped(lan.sim, "udp", "bound_mismatch", host="b") == 1
    assert dropped(lan.sim, "udp", "no_port", host="b") == 0


def test_datagram_to_unbound_port_is_dropped(lan):
    lan.a.udp.open(0).sendto(AppData("x", 1), ip("10.0.0.2"), 7777)
    lan.run()
    assert dropped(lan.sim, "udp", "no_port", host="b") == 1


def test_no_port_drops_are_reported(lan):
    # They were once a private int that no --metrics report printed.
    lan.a.udp.open(0).sendto(AppData("x", 1), ip("10.0.0.2"), 7777)
    lan.run()
    assert lan.sim.metrics.snapshot()["udp/dropped{host=b,reason=no_port}"] == 1


def test_broadcast_delivery(lan):
    heard = []
    lan.b.udp.open(9).on_datagram(lambda d, s, sp, dst: heard.append("b"))
    third = lan.host("10.0.0.3")
    third.udp.open(9).on_datagram(lambda d, s, sp, dst: heard.append("c"))
    sender = lan.a.udp.open(0)
    sender.sendto(AppData("x", 1), ip("255.255.255.255"), 9,
                  via=lan.a.interfaces[1])
    lan.run()
    assert sorted(heard) == ["b", "c"]


def test_subnet_broadcast_delivery(lan):
    heard = []
    lan.b.udp.open(9).on_datagram(lambda d, s, sp, dst: heard.append(str(dst)))
    lan.a.udp.open(0).sendto(AppData("x", 1), ip("10.0.0.255"), 9,
                             via=lan.a.interfaces[1])
    lan.run()
    assert heard == ["10.0.0.255"]


def test_reply_addressing_roundtrip(lan):
    """An echo implemented at the app layer ends up at the right socket."""
    server = lan.b.udp.open(9)
    server.on_datagram(lambda d, s, sp, dst: server.sendto(d, s, sp))
    got = []
    client = lan.a.udp.open(0).on_datagram(lambda d, s, sp, dst: got.append(d.content))
    client.sendto(AppData("ping", 4), ip("10.0.0.2"), 9)
    lan.run()
    assert got == ["ping"]


def test_counters(lan):
    server = lan.b.udp.open(9).on_datagram(lambda d, s, sp, dst: None)
    client = lan.a.udp.open(0)
    client.sendto(AppData("x", 1), ip("10.0.0.2"), 9)
    lan.run()
    assert client.datagrams_sent == 1
    assert server.datagrams_received == 1


def test_via_without_address_keeps_unspecified_source(sim, lan):
    """DHCP DISCOVER case: no address yet, source must stay 0.0.0.0."""
    from repro.config import DEFAULT_CONFIG
    from repro.net.host import Host
    from repro.net.interface import EthernetInterface, InterfaceState

    newcomer = Host(sim, "newcomer", DEFAULT_CONFIG)
    iface = EthernetInterface(sim, "eth.new", lan.macs.allocate(),
                              DEFAULT_CONFIG)
    newcomer.add_interface(iface)
    iface.attach(lan.segment)
    iface.state = InterfaceState.UP
    seen = []
    lan.b.udp.open(9).on_datagram(lambda d, s, sp, dst: seen.append(s))
    newcomer.udp.open(68).sendto(AppData("x", 1), ip("255.255.255.255"), 9,
                                 via=iface)
    lan.run()
    assert seen == [UNSPECIFIED]
