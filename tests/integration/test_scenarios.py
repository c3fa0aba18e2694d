"""Integration tests for the canned movement scenarios."""

from repro.net.addressing import ip
from repro.sim import Simulator, ms, s
from repro.testbed import build_testbed
from tests.scenarios import commute, random_walk
from repro.workloads import UdpEchoResponder, UdpEchoStream

HOME = ip("36.135.0.10")


def streaming(testbed, interval=ms(250)):
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent, HOME, interval=interval)
    stream.start()
    return stream


def test_commute_scenario_end_to_end(testbed):
    stream = streaming(testbed)
    run = commute(testbed)
    testbed.sim.run_for(s(16))
    stream.stop()
    testbed.sim.run_for(s(3))

    assert run.steps_executed == [
        "arrive at the office",
        "leave the office (cold to radio)",
        "arrive home",
    ]
    assert run.all_switches_succeeded
    assert testbed.mobile.at_home
    assert testbed.home_agent.current_care_of(HOME) is None
    # The stream survived the whole commute with bounded loss (the cold
    # switch's bring-up window plus at most a couple of moving-day gaps).
    assert stream.lost_count() <= 8
    assert stream.received >= stream.sent * 0.75


def test_random_walk_binding_always_tracks(testbed):
    """Soak: after every dwell period, the home agent's binding points at
    wherever the walk put the mobile host."""
    run = random_walk(testbed, moves=6, dwell=s(3))
    observations = []

    def observe(index):
        care_of = testbed.home_agent.current_care_of(HOME)
        attached = testbed.mobile.care_of
        observations.append((index, care_of, attached))

    for index in range(6):
        testbed.sim.call_later(s(3) * index + s(2),
                               lambda index=index: observe(index))
    testbed.sim.run_for(s(20))
    assert len(run.steps_executed) == 6
    for index, registered, attached in observations:
        assert registered == attached, f"binding stale after move {index}"


def test_random_walk_is_reproducible():
    first = Simulator(seed=31)
    testbed_a = build_testbed(first, with_remote_correspondent=False,
                              with_dhcp=False)
    run_a = random_walk(testbed_a, moves=5)
    first.run_for(s(20))

    second = Simulator(seed=31)
    testbed_b = build_testbed(second, with_remote_correspondent=False,
                              with_dhcp=False)
    run_b = random_walk(testbed_b, moves=5)
    second.run_for(s(20))
    assert run_a.steps_executed == run_b.steps_executed
