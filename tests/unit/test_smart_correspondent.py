"""Unit tests for the smart-correspondent reverse-path optimization."""

import pytest

from repro.core.smart_correspondent import SmartCorrespondent
from repro.net.addressing import ip
from repro.sim import Simulator, ms, s
from repro.testbed import build_testbed
from repro.workloads import UdpEchoResponder, UdpEchoStream

HOME = ip("36.135.0.10")


@pytest.fixture
def smart_testbed():
    sim = Simulator(seed=91)
    testbed = build_testbed(sim, with_dhcp=False, separate_home_agent=True)
    smart = SmartCorrespondent(testbed.correspondent)
    testbed.mobile.add_smart_correspondent(testbed.addresses.ch_dept)
    return testbed, smart


def test_binding_update_reaches_the_correspondent(smart_testbed):
    testbed, smart = smart_testbed
    testbed.visit_dept()
    testbed.sim.run_for(s(2))
    assert smart.cached_care_of(HOME) == testbed.addresses.mh_dept_care_of
    assert smart.updates_accepted >= 1


def test_traffic_is_tunneled_directly_to_the_care_of(smart_testbed):
    testbed, smart = smart_testbed
    testbed.visit_dept()
    testbed.sim.run_for(s(2))
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent, HOME, interval=ms(100))
    stream.start()
    testbed.sim.run_for(s(2))
    stream.stop()
    testbed.sim.run_for(s(1))
    assert stream.received == stream.sent
    assert smart.packets_optimized >= stream.sent
    # The home agent saw none of it.
    assert testbed.home_agent.vif.packets_encapsulated == 0


def test_reverse_path_skips_home_agent_detour(smart_testbed):
    """With a separate home agent, the optimized path is measurably
    shorter than the default triangle (which detours via the HA host)."""
    testbed, smart = smart_testbed

    def mean_rtt():
        UdpEchoResponder(testbed.mobile)
        stream = UdpEchoStream(testbed.correspondent, HOME, interval=ms(100))
        stream.start()
        testbed.sim.run_for(s(2))
        stream.stop()
        testbed.sim.run_for(s(1))
        rtts = stream.rtts()
        stream.close()
        return sum(rtts) / len(rtts)

    testbed.visit_dept()
    testbed.sim.run_for(s(2))
    optimized = mean_rtt()

    # Same topology without the smart CH.
    plain_sim = Simulator(seed=91)
    plain = build_testbed(plain_sim, with_dhcp=False,
                          separate_home_agent=True)
    plain.visit_dept()
    plain_sim.run_for(s(2))
    UdpEchoResponder(plain.mobile)
    stream = UdpEchoStream(plain.correspondent, HOME, interval=ms(100))
    stream.start()
    plain_sim.run_for(s(2))
    stream.stop()
    plain_sim.run_for(s(1))
    baseline = sum(stream.rtts()) / len(stream.rtts())

    assert optimized < baseline * 0.8


def test_deregistration_invalidates_the_cache(smart_testbed):
    testbed, smart = smart_testbed
    testbed.visit_dept()
    testbed.sim.run_for(s(2))
    assert smart.cached_care_of(HOME) is not None
    testbed.move_mh_cable(testbed.home_segment)
    testbed.mobile.stop_visiting(testbed.mh_eth)
    testbed.mobile.come_home(testbed.mh_eth,
                             gateway=testbed.addresses.router_home)
    testbed.sim.run_for(s(2))
    assert smart.cached_care_of(HOME) is None
    # Traffic still works (basic protocol — no, direct: MH is home).
    results = []
    testbed.correspondent.icmp.ping(HOME, on_reply=results.append,
                                    on_timeout=lambda: results.append(None))
    testbed.sim.run_for(s(2))
    assert results and results[0] is not None


def test_cache_expires_with_binding_lifetime(smart_testbed):
    testbed, smart = smart_testbed
    testbed.visit_dept(register=False)
    testbed.mobile.register_current(lifetime=s(3))
    testbed.sim.run_for(s(1))
    assert smart.cached_care_of(HOME) is not None
    testbed.sim.run_for(s(4))
    assert smart.cached_care_of(HOME) is None


def test_second_route_hook_rejected(smart_testbed):
    testbed, _smart = smart_testbed
    with pytest.raises(ValueError):
        SmartCorrespondent(testbed.correspondent)
