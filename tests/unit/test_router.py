"""Unit tests for routers and the transit-traffic filter."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import MACAllocator, ip, subnet
from repro.net.interface import EthernetInterface
from repro.net.packet import AppData, IPPacket, PROTO_UDP, UDPDatagram
from repro.net.router import Router
from tests.drops import drop_total, dropped


@pytest.fixture
def router(sim):
    node = Router(sim, "r", DEFAULT_CONFIG)
    macs = MACAllocator()
    left = EthernetInterface(sim, "left", macs.allocate(), DEFAULT_CONFIG)
    right = EthernetInterface(sim, "right", macs.allocate(), DEFAULT_CONFIG)
    node.add_interface(left)
    node.add_interface(right)
    from repro.net.link import EthernetSegment

    left.attach(EthernetSegment(sim, "seg-left", DEFAULT_CONFIG.ethernet))
    right.attach(EthernetSegment(sim, "seg-right", DEFAULT_CONFIG.ethernet))
    node.configure_interface(left, ip("10.1.0.1"), subnet("10.1.0.0/24"),
                             bring_up=True)
    node.configure_interface(right, ip("10.2.0.1"), subnet("10.2.0.0/24"),
                             bring_up=True)
    return node


def make(src, dst):
    return IPPacket(src=ip(src), dst=ip(dst), protocol=PROTO_UDP,
                    payload=UDPDatagram(1, 2, AppData("x", 10)))


def test_forwarding_enabled_by_default(router):
    assert router.ip.forwarding


def test_filter_disabled_forwards_everything(router, sim):
    left = router.interface("left")
    router.ip.receive_packet(make("99.0.0.1", "10.2.0.5"), left)
    sim.run()
    assert dropped(sim, "ip", "filtered", host="r") == 0


def test_transit_filter_semantics(router, sim):
    """Transit = neither endpoint local.  The four paper cases:

    * triangle-routed packet (foreign src, foreign dst): DROPPED;
    * tunneled packet to a local care-of (foreign src, local dst): passes;
    * local host sending out (local src, foreign dst): passes;
    * local-to-local forwarding: passes.
    """
    router.enable_transit_filter()
    left = router.interface("left")

    checks = [
        ("36.135.0.10", "36.8.0.20", False),  # transit: dropped
        ("36.135.0.1", "10.2.0.5", True),     # tunnel to local care-of
        ("10.1.0.5", "36.8.0.20", True),      # local source outbound
        ("10.1.0.5", "10.2.0.5", True),       # internal
    ]
    for src, dst, allowed in checks:
        packet = make(src, dst)
        assert router._check_transit(packet, left) is allowed
        before = dropped(sim, "ip", "filtered", host="r")
        router.ip.receive_packet(packet, left)
        assert (dropped(sim, "ip", "filtered", host="r") == before) is allowed


def test_exempt_prefixes_pass(router):
    router.enable_transit_filter(exempt=[subnet("36.135.0.0/24")])
    left = router.interface("left")
    assert router._check_transit(make("36.135.0.10", "99.0.0.1"), left)


def test_disable_restores_forwarding(router):
    router.enable_transit_filter()
    router.disable_transit_filter()
    assert router.ip.forward_filter is None


def test_drops_are_counted_and_traced(router, sim):
    router.enable_transit_filter()
    left = router.interface("left")
    router.ip.receive_packet(make("99.0.0.1", "88.0.0.1"), left)
    sim.run()
    assert dropped(sim, "ip", "filtered", host="r") == 1
    (record,) = sim.trace.select("drop", "filtered", host="r")
    assert record["layer"] == "ip"


def test_a_filtered_packet_is_one_drop(router, sim):
    # It was once counted (and traced) twice: by the router's own
    # transit counter and by IP's filtered counter.
    router.enable_transit_filter()
    left = router.interface("left")
    router.ip.receive_packet(make("99.0.0.1", "88.0.0.1"), left)
    sim.run()
    assert drop_total(sim) == 1
    assert len(sim.trace.select("drop")) == 1
