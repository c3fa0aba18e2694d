"""Property tests for handoff timelines and mobility invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.handoff import AddressSwitcher, DeviceSwitcher
from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.sim import Simulator, s
from repro.testbed import build_testbed

HOME = ip("36.135.0.10")


def fresh_testbed(seed: int):
    sim = Simulator(seed=seed)
    return build_testbed(sim, with_remote_correspondent=False,
                         with_dhcp=False)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_address_switch_timeline_is_contiguous_and_ordered(seed):
    """Whatever the seed/jitter, the stages tile the switch exactly:
    each stage starts where the previous ended, and the total is the sum."""
    testbed = fresh_testbed(seed)
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    done = []
    AddressSwitcher(testbed.mobile).switch_address(
        testbed.addresses.mh_dept_care_of_2, on_done=done.append)
    testbed.sim.run_for(s(5))
    assert done and done[0].success
    timeline = done[0]
    assert timeline.stages[0].start == timeline.started_at
    for previous, current in zip(timeline.stages, timeline.stages[1:]):
        assert current.start == previous.end
    assert timeline.stages[-1].end == timeline.finished_at
    assert timeline.total == sum(stage.duration for stage in timeline.stages)
    assert all(stage.duration >= 0 for stage in timeline.stages)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_cold_switch_leaves_consistent_state(seed):
    """After any cold switch: exactly one active interface, the care-of
    is on it, the home address is on the VIF, the binding matches."""
    testbed = fresh_testbed(seed)
    testbed.visit_dept()
    testbed.mh_radio.subnet = testbed.addresses.radio_net
    testbed.mh_radio.add_address(testbed.addresses.mh_radio,
                                 make_primary=True)
    testbed.sim.run_for(s(1))
    done = []
    DeviceSwitcher(testbed.mobile).cold_switch(
        testbed.mh_eth, testbed.mh_radio, testbed.addresses.mh_radio,
        testbed.addresses.radio_net, testbed.addresses.router_radio,
        on_done=done.append)
    testbed.sim.run_for(s(8))
    assert done and done[0].success
    mobile = testbed.mobile
    assert mobile.active_interface is testbed.mh_radio
    assert testbed.mh_radio.owns_address(mobile.care_of)
    assert mobile.vif.owns_address(HOME)
    assert not testbed.mh_eth.owns_address(HOME)
    assert testbed.home_agent.current_care_of(HOME) == mobile.care_of


@given(st.lists(st.sampled_from(["dept", "radio"]), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_any_move_sequence_keeps_home_address_unique(moves, seed):
    """However the mobile host bounces around, exactly one interface owns
    the home address at any quiescent point (the VIF away, the home
    interface at home)."""
    testbed = fresh_testbed(seed)
    for move in moves:
        if move == "dept":
            testbed.visit_dept()
        else:
            testbed.connect_radio(register=True)
        testbed.sim.run_for(s(2))
        owners = [iface.name for iface in testbed.mobile.interfaces
                  if iface.owns_address(HOME)]
        assert owners == [testbed.mobile.vif.name]
    # And coming home restores the single physical owner.
    testbed.move_mh_cable(testbed.home_segment)
    testbed.mobile.stop_visiting(testbed.mh_eth)
    if not testbed.mh_eth.is_up:
        testbed.mh_eth.state = InterfaceState.UP
    testbed.mobile.come_home(testbed.mh_eth,
                             gateway=testbed.addresses.router_home)
    testbed.sim.run_for(s(2))
    owners = [iface.name for iface in testbed.mobile.interfaces
              if iface.owns_address(HOME)]
    assert owners == [testbed.mh_eth.name]
