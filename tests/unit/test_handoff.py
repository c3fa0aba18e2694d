"""Unit tests for the handoff engines (Section 4's procedures)."""

import pytest

from repro.core.handoff import (
    STAGE_ADD_ROUTE,
    STAGE_CONFIGURE,
    STAGE_DELETE_ROUTE,
    STAGE_IF_DOWN,
    STAGE_IF_UP,
    STAGE_POST,
    STAGE_REGISTRATION,
    STAGE_ROUTE_UPDATE,
    AddressSwitcher,
    DeviceSwitcher,
)
from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.sim import ms, s

HOME = ip("36.135.0.10")


def run_switch(testbed, action):
    timelines = []
    action(timelines.append)
    testbed.sim.run_for(s(8))
    assert timelines, "switch never completed"
    return timelines[0]


class TestAddressSwitcher:
    def test_stage_sequence_and_success(self, testbed):
        testbed.visit_dept()
        testbed.sim.run_for(s(1))
        switcher = AddressSwitcher(testbed.mobile)
        timeline = run_switch(
            testbed,
            lambda done: switcher.switch_address(
                testbed.addresses.mh_dept_care_of_2, on_done=done))
        assert timeline.success
        assert [stage.name for stage in timeline.stages] == [
            STAGE_CONFIGURE, STAGE_ROUTE_UPDATE, STAGE_REGISTRATION,
            STAGE_POST]
        assert timeline.kind == "same-subnet"

    def test_total_time_matches_figure7(self, testbed):
        testbed.visit_dept()
        testbed.sim.run_for(s(1))
        switcher = AddressSwitcher(testbed.mobile)
        timeline = run_switch(
            testbed,
            lambda done: switcher.switch_address(
                testbed.addresses.mh_dept_care_of_2, on_done=done))
        total_ms = timeline.total / 1e6
        assert 6.0 < total_ms < 9.5  # the paper's 7.39 ms, plus jitter/ARP
        assert 4.0 < timeline.registration_round_trip / 1e6 < 6.0

    def test_old_address_survives_until_route_update(self, testbed):
        """The new address is an alias first; the old one dies at the
        route-change stage — this is what bounds E1's loss window."""
        old = testbed.visit_dept()
        testbed.sim.run_for(s(1))
        switcher = AddressSwitcher(testbed.mobile)
        observations = []

        def observe():
            observations.append((testbed.sim.now,
                                 testbed.mh_eth.owns_address(old)))
            if observations[-1][1]:
                testbed.sim.call_later(ms(0.5), observe)

        switcher.switch_address(testbed.addresses.mh_dept_care_of_2,
                                on_done=lambda timeline: None)
        observe()
        testbed.sim.run_for(s(2))
        held_until = max(t for t, owned in observations if owned)
        # The old address was still valid ~1 ms in (during configure).
        assert held_until >= ms(1)
        assert testbed.mobile.care_of == testbed.addresses.mh_dept_care_of_2

    def test_switch_requires_visiting(self, testbed):
        with pytest.raises(ValueError):
            AddressSwitcher(testbed.mobile).switch_address(
                testbed.addresses.mh_dept_care_of, on_done=lambda t: None)


class TestColdSwitch:
    def test_stage_sequence(self, testbed):
        testbed.visit_dept()
        testbed.mh_radio.subnet = testbed.addresses.radio_net
        testbed.mh_radio.add_address(testbed.addresses.mh_radio,
                                     make_primary=True)
        testbed.sim.run_for(s(1))
        switcher = DeviceSwitcher(testbed.mobile)
        timeline = run_switch(
            testbed,
            lambda done: switcher.cold_switch(
                testbed.mh_eth, testbed.mh_radio,
                testbed.addresses.mh_radio, testbed.addresses.radio_net,
                testbed.addresses.router_radio, on_done=done))
        assert timeline.success
        names = [stage.name for stage in timeline.stages]
        assert names == [STAGE_DELETE_ROUTE, STAGE_IF_DOWN, STAGE_IF_UP,
                         STAGE_CONFIGURE, STAGE_ADD_ROUTE,
                         STAGE_REGISTRATION, STAGE_POST]
        # "The longer time interval is due to bringing up the new
        # interface" — interface_up dominates.
        up = timeline.duration_of(STAGE_IF_UP)
        assert up > timeline.total / 2
        assert timeline.total < s(1.6)

    def test_cold_switch_flips_interfaces(self, testbed):
        testbed.visit_dept()
        testbed.mh_radio.subnet = testbed.addresses.radio_net
        testbed.mh_radio.add_address(testbed.addresses.mh_radio,
                                     make_primary=True)
        testbed.sim.run_for(s(1))
        switcher = DeviceSwitcher(testbed.mobile)
        run_switch(
            testbed,
            lambda done: switcher.cold_switch(
                testbed.mh_eth, testbed.mh_radio,
                testbed.addresses.mh_radio, testbed.addresses.radio_net,
                testbed.addresses.router_radio, on_done=done))
        assert not testbed.mh_eth.is_up
        assert testbed.mh_radio.is_up
        assert testbed.mobile.care_of == testbed.addresses.mh_radio
        assert testbed.home_agent.current_care_of(HOME) == \
            testbed.addresses.mh_radio

    def test_cold_switch_with_dhcp_acquires_address(self, full_testbed):
        testbed = full_testbed
        testbed.connect_radio(register=True)
        testbed.move_mh_cable(testbed.dept_segment)
        testbed.mh_eth.remove_address(HOME)
        testbed.mobile.ip.routes.remove_matching(interface=testbed.mh_eth)
        testbed.mh_eth.state = InterfaceState.DOWN
        testbed.mh_eth.subnet = testbed.addresses.dept_net
        testbed.sim.run_for(s(2))

        switcher = DeviceSwitcher(testbed.mobile)
        timeline = run_switch(
            testbed,
            lambda done: switcher.cold_switch(
                testbed.mh_radio, testbed.mh_eth,
                care_of=ip("0.0.0.0"), net=testbed.addresses.dept_net,
                gateway=testbed.addresses.router_dept, on_done=done,
                dhcp=testbed.mh_dhcp))
        assert timeline.success
        assert timeline.stage("acquire_address") is not None
        leased = testbed.mobile.care_of
        assert leased in testbed.addresses.dept_net
        assert testbed.home_agent.current_care_of(HOME) == leased


class TestHotSwitch:
    def test_requires_new_interface_up(self, testbed):
        testbed.visit_dept()
        with pytest.raises(ValueError):
            DeviceSwitcher(testbed.mobile).hot_switch(
                testbed.mh_radio, testbed.addresses.mh_radio,
                testbed.addresses.radio_net, testbed.addresses.router_radio,
                on_done=lambda t: None)

    def test_hot_switch_is_fast_and_keeps_old_interface_up(self, testbed):
        testbed.visit_dept()
        testbed.connect_radio(register=False)
        testbed.sim.run_for(s(1))
        switcher = DeviceSwitcher(testbed.mobile)
        timeline = run_switch(
            testbed,
            lambda done: switcher.hot_switch(
                testbed.mh_radio, testbed.addresses.mh_radio,
                testbed.addresses.radio_net, testbed.addresses.router_radio,
                on_done=done))
        assert timeline.success
        names = [stage.name for stage in timeline.stages]
        assert names == [STAGE_ROUTE_UPDATE, STAGE_REGISTRATION, STAGE_POST]
        assert testbed.mh_eth.is_up  # "merely changes its route"
        # Registration over the radio dominates; the switch itself is
        # a route change plus one radio round trip.
        assert timeline.total < ms(600)
