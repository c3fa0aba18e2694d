"""Unit tests for the VIF + IPIP pair and its invariants."""

import pytest

from repro.net.addressing import UNSPECIFIED, ip
from repro.net.packet import (
    AppData,
    IPPacket,
    PROTO_IPIP,
    PROTO_UDP,
    UDPDatagram,
)
from repro.core.tunnel import TunnelError, install_tunnel
from repro.sim import ms
from tests.drops import dropped


def make_inner(src="36.135.0.10", dst="36.8.0.20"):
    return IPPacket(src=ip(src), dst=ip(dst), protocol=PROTO_UDP,
                    payload=UDPDatagram(1, 2, AppData("x", 10)))


def test_install_tunnel_registers_vif_and_ipip(lan):
    vif = install_tunnel(lan.a)
    assert vif in lan.a.interfaces
    assert vif.is_up
    assert getattr(lan.a, "ipip", None) is not None


def test_second_vif_shares_the_ipip_module(lan):
    install_tunnel(lan.a, name="vif1")
    first_module = lan.a.ipip
    install_tunnel(lan.a, name="vif2")
    assert lan.a.ipip is first_module


def test_encapsulation_wraps_and_reinjects(lan):
    vif = install_tunnel(lan.a)
    sent = []
    original_send = lan.a.ip.send
    lan.a.ip.send = lambda packet, via=None, next_hop=None: sent.append(packet)
    vif.endpoint_selector = lambda inner: (ip("10.0.0.1"), ip("10.0.0.2"))
    inner = make_inner()
    vif.send_ip(inner, ip("10.0.0.2"))
    lan.run(100)
    lan.a.ip.send = original_send
    assert len(sent) == 1
    outer = sent[0]
    assert outer.protocol == PROTO_IPIP
    assert outer.src == ip("10.0.0.1")
    assert outer.dst == ip("10.0.0.2")
    assert outer.inner is inner
    assert vif.packets_encapsulated == 1


def test_unspecified_outer_source_is_rejected(lan):
    """The paper's re-encapsulation guard: the outer source must be a
    concrete physical address."""
    vif = install_tunnel(lan.a)
    vif.endpoint_selector = lambda inner: (UNSPECIFIED, ip("10.0.0.2"))
    with pytest.raises(TunnelError):
        vif.send_ip(make_inner(), ip("10.0.0.2"))


def test_missing_endpoint_drops_and_counts(lan):
    vif = install_tunnel(lan.a)
    vif.endpoint_selector = lambda inner: None
    vif.send_ip(make_inner(), ip("10.0.0.2"))
    assert dropped(lan.sim, "tunnel", "no_endpoint", iface=vif.name) == 1


def test_missing_endpoint_drops_are_reported(lan):
    # They were once a private int that no --metrics report printed.
    vif = install_tunnel(lan.a)
    vif.endpoint_selector = lambda inner: None
    vif.send_ip(make_inner(), ip("10.0.0.2"))
    key = f"tunnel/dropped{{iface={vif.name},reason=no_endpoint}}"
    assert lan.sim.metrics.snapshot()[key] == 1


def test_no_selector_raises(lan):
    vif = install_tunnel(lan.a)
    with pytest.raises(TunnelError):
        vif.send_ip(make_inner(), ip("10.0.0.2"))


def test_decapsulation_reinjects_inner(lan):
    install_tunnel(lan.b)
    got = []
    lan.b.udp.open(2).on_datagram(lambda d, s, sp, dst: got.append(d.content))
    inner = IPPacket(src=ip("10.0.0.1"), dst=ip("10.0.0.2"),
                     protocol=PROTO_UDP,
                     payload=UDPDatagram(1, 2, AppData("inner", 5)))
    outer = IPPacket(src=ip("10.0.0.1"), dst=ip("10.0.0.2"),
                     protocol=PROTO_IPIP, payload=inner)
    lan.b.ip.receive_packet(outer, lan.b.interfaces[1])
    lan.run(100)
    assert got == ["inner"]
    assert lan.b.ipip.packets_decapsulated == 1


def test_end_to_end_tunnel_over_the_wire(lan):
    """a tunnels a packet to b; b decapsulates and delivers it."""
    vif = install_tunnel(lan.a)
    install_tunnel(lan.b)
    vif.endpoint_selector = lambda inner: (ip("10.0.0.1"), ip("10.0.0.2"))
    got = []
    lan.b.udp.open(9).on_datagram(lambda d, s, sp, dst: got.append(d.content))
    inner = IPPacket(src=ip("10.0.0.1"), dst=ip("10.0.0.2"),
                     protocol=PROTO_UDP,
                     payload=UDPDatagram(1, 9, AppData("through", 7)))
    vif.send_ip(inner, ip("10.0.0.2"))
    lan.run(500)
    assert got == ["through"]


def test_encapsulation_depth_never_exceeds_one_in_practice(testbed):
    """Drive real traffic through the testbed and assert the paper's
    exactly-once-encapsulation invariant over every traced packet."""
    from repro.sim import s as seconds
    from repro.workloads import UdpEchoResponder, UdpEchoStream

    testbed.visit_dept()
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent,
                           testbed.addresses.mh_home, interval=ms(50))
    stream.start()
    testbed.sim.run_for(seconds(2))
    for record in testbed.sim.trace.select("tunnel", "encapsulated"):
        assert record["outer"].count("IPIP") == 1
