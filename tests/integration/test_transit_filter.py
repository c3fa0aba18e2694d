"""Integration test for A2: triangle route vs transit filter, end to end."""

from repro.core.policy import RoutingMode
from repro.net.addressing import ip
from repro.sim import Simulator, ms, s
from repro.testbed import build_testbed
from repro.workloads import UdpEchoResponder, UdpEchoStream
from tests.drops import dropped


def build_filtered():
    sim = Simulator(seed=404)
    testbed = build_testbed(sim, with_dhcp=False)
    assert testbed.remote_router is not None
    testbed.remote_router.enable_transit_filter()
    testbed.visit_remote()
    sim.run_for(s(1))
    return testbed


def test_triangle_route_dies_behind_filter_tunnel_does_not():
    testbed = build_filtered()
    target = testbed.addresses.ch_dept
    UdpEchoResponder(testbed.correspondent)

    testbed.mobile.policy.default_mode = RoutingMode.TRIANGLE
    blocked = UdpEchoStream(testbed.mobile, target, interval=ms(100))
    blocked.start()
    testbed.sim.run_for(s(1))
    blocked.stop()
    testbed.sim.run_for(s(1))
    assert blocked.received == 0
    assert dropped(testbed.sim, "ip", "filtered",
                   host=testbed.remote_router.name) >= blocked.sent

    testbed.mobile.policy.default_mode = RoutingMode.TUNNEL
    tunneled = UdpEchoStream(testbed.mobile, target, interval=ms(100))
    tunneled.start()
    testbed.sim.run_for(s(1))
    tunneled.stop()
    testbed.sim.run_for(s(1))
    assert tunneled.received == tunneled.sent


def test_probe_failure_heals_connectivity_automatically():
    """Section 3.2's full loop: triangle -> filtered -> probe fails ->
    policy caches TUNNEL for that host -> traffic flows again."""
    testbed = build_filtered()
    target = testbed.addresses.ch_dept
    testbed.mobile.policy.default_mode = RoutingMode.TRIANGLE
    UdpEchoResponder(testbed.correspondent)

    outcomes = []
    testbed.mobile.probe_correspondent(target,
                                       on_result=lambda d, ok: outcomes.append(ok))
    testbed.sim.run_for(s(4))
    assert outcomes == [False]
    assert testbed.mobile.policy.lookup(target) is RoutingMode.TUNNEL

    healed = UdpEchoStream(testbed.mobile, target, interval=ms(100))
    healed.start()
    testbed.sim.run_for(s(1))
    healed.stop()
    testbed.sim.run_for(s(1))
    assert healed.received == healed.sent

    # Other destinations still default to the triangle (per-host caching).
    assert testbed.mobile.policy.lookup(ip("36.40.0.9")) is RoutingMode.TRIANGLE


def test_probe_success_restores_triangle_when_filter_lifts():
    testbed = build_filtered()
    target = testbed.addresses.ch_dept
    testbed.mobile.policy.default_mode = RoutingMode.TRIANGLE
    UdpEchoResponder(testbed.correspondent)
    outcomes = []
    testbed.mobile.probe_correspondent(target,
                                       on_result=lambda d, ok: outcomes.append(ok))
    testbed.sim.run_for(s(4))
    assert testbed.mobile.policy.lookup(target) is RoutingMode.TUNNEL

    # The operator turns the filter off; the next probe clears the cache.
    testbed.remote_router.disable_transit_filter()
    testbed.mobile.probe_correspondent(target,
                                       on_result=lambda d, ok: outcomes.append(ok))
    testbed.sim.run_for(s(4))
    assert outcomes == [False, True]
    assert testbed.mobile.policy.lookup(target) is RoutingMode.TRIANGLE


def test_encapsulated_direct_variant_passes_the_filter():
    """The paper's workaround: encapsulate but send direct — the outer
    source is the valid local care-of address, so the filter passes it."""
    from repro.core.tunnel import IPIPModule

    testbed = build_filtered()
    target = testbed.addresses.ch_dept
    IPIPModule(testbed.correspondent)  # CH can decapsulate transparently
    testbed.mobile.policy.set_policy(target, RoutingMode.ENCAP_DIRECT)
    UdpEchoResponder(testbed.correspondent)
    stream = UdpEchoStream(testbed.mobile, target, interval=ms(100))
    stream.start()
    testbed.sim.run_for(s(1))
    stream.stop()
    testbed.sim.run_for(s(1))
    assert stream.received == stream.sent
