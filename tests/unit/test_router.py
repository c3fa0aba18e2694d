"""Unit tests for routers and the transit-traffic filter."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import MACAllocator, ip, subnet
from repro.net.interface import EthernetInterface
from repro.net.packet import AppData, IPPacket, PROTO_UDP, UDPDatagram
from repro.net.router import Router


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
    assert router.ip.dropped_filtered == 0


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
        before = router.transit_drops
        assert router._check_transit(make(src, dst), left) is allowed
        assert (router.transit_drops == before) is allowed


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
    assert router.ip.dropped_filtered == 1
    assert router.transit_drops == 1
    assert sim.trace.select("router", "transit_drop", router="r")
