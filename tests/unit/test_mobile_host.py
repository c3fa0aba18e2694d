"""Unit tests for the mobile host's routing hook and role machinery."""

import pytest

from repro.core.mobile_host import Location
from repro.core.policy import RoutingMode
from repro.net.addressing import UNSPECIFIED, ip
from repro.net.packet import AppData, IPPacket, PROTO_UDP, UDPDatagram
from repro.sim import ms, s

HOME = ip("36.135.0.10")


def hook(testbed, dst, src_hint=UNSPECIFIED):
    mobile = testbed.mobile
    return mobile.ip.ip_rt_route(ip(dst) if isinstance(dst, str) else dst,
                                 src_hint)


class TestAtHome:
    def test_hook_is_transparent_at_home(self, testbed):
        route = hook(testbed, "36.8.0.20")
        assert route is not None
        assert route.interface is testbed.mh_eth
        assert route.source == HOME  # the home interface's address

    def test_no_encapsulation_at_home(self, testbed):
        assert testbed.mobile.vif.packets_encapsulated == 0


class TestAwayRouting:
    def test_default_tunnel_routes_into_vif(self, testbed):
        testbed.visit_dept(register=False)
        route = hook(testbed, "36.40.0.9")
        assert route.interface is testbed.mobile.vif
        assert route.source == HOME

    def test_home_source_hint_also_gets_mobile_treatment(self, testbed):
        testbed.visit_dept(register=False)
        route = hook(testbed, "36.40.0.9", src_hint=HOME)
        assert route.interface is testbed.mobile.vif

    def test_bound_source_bypasses_mobile_ip(self, testbed):
        """Mobile-aware software that bound a care-of source is outside
        the scope of mobile IP (Figure 4's first branch)."""
        care_of = testbed.visit_dept(register=False)
        route = hook(testbed, "36.8.0.20", src_hint=care_of)
        assert route.interface is testbed.mh_eth
        assert route.source == care_of

    def test_triangle_mode_uses_physical_interface_with_home_source(self, testbed):
        testbed.visit_dept(register=False)
        testbed.mobile.policy.set_policy(ip("36.8.0.20"),
                                         RoutingMode.TRIANGLE)
        route = hook(testbed, "36.8.0.20")
        assert route.interface is testbed.mh_eth
        assert route.source == HOME

    def test_local_mode_uses_care_of_source(self, testbed):
        care_of = testbed.visit_dept(register=False)
        testbed.mobile.policy.set_policy(ip("36.8.0.20"), RoutingMode.LOCAL)
        route = hook(testbed, "36.8.0.20")
        assert route.interface is testbed.mh_eth
        assert route.source == care_of

    def test_encap_direct_selects_correspondent_as_outer_dst(self, testbed):
        care_of = testbed.visit_dept(register=False)
        testbed.mobile.policy.set_policy(ip("36.8.0.20"),
                                         RoutingMode.ENCAP_DIRECT)
        inner = IPPacket(src=HOME, dst=ip("36.8.0.20"), protocol=PROTO_UDP,
                         payload=UDPDatagram(1, 2, AppData("x", 1)))
        endpoints = testbed.mobile._select_endpoints(inner)
        assert endpoints == (care_of, ip("36.8.0.20"))

    def test_tunnel_selects_home_agent_as_outer_dst(self, testbed):
        care_of = testbed.visit_dept(register=False)
        inner = IPPacket(src=HOME, dst=ip("36.40.0.9"), protocol=PROTO_UDP,
                         payload=UDPDatagram(1, 2, AppData("x", 1)))
        endpoints = testbed.mobile._select_endpoints(inner)
        assert endpoints == (care_of, testbed.home_agent.address)


class TestAddressPlacement:
    def test_home_address_moves_to_vif_when_visiting(self, testbed):
        testbed.visit_dept(register=False)
        assert testbed.mobile.vif.owns_address(HOME)
        assert not testbed.mh_eth.owns_address(HOME)
        assert testbed.mobile.location == Location.FOREIGN

    def test_home_address_returns_to_interface_at_home(self, testbed):
        testbed.visit_dept(register=False)
        testbed.move_mh_cable(testbed.home_segment)
        testbed.mobile.stop_visiting(testbed.mh_eth)
        testbed.mobile.come_home(testbed.mh_eth,
                                 gateway=testbed.addresses.router_home)
        assert testbed.mh_eth.owns_address(HOME)
        assert not testbed.mobile.vif.owns_address(HOME)
        assert testbed.mobile.at_home

    def test_come_home_sends_gratuitous_arp(self, testbed):
        testbed.visit_dept(register=False)
        testbed.sim.trace.clear()
        testbed.move_mh_cable(testbed.home_segment)
        testbed.mobile.stop_visiting(testbed.mh_eth)
        testbed.mobile.come_home(testbed.mh_eth,
                                 gateway=testbed.addresses.router_home)
        assert testbed.sim.trace.select("arp", "gratuitous",
                                        interface=testbed.mh_eth.name,
                                        address=str(HOME))

    def test_stop_visiting_removes_care_of(self, testbed):
        care_of = testbed.visit_dept(register=False)
        testbed.mobile.stop_visiting(testbed.mh_eth)
        assert not testbed.mh_eth.owns_address(care_of)
        assert testbed.mobile.active_interface is None


class TestRegistration:
    def test_register_current_without_care_of_raises(self, testbed):
        with pytest.raises(ValueError):
            testbed.mobile.register_current()

    def test_visit_registers_and_binding_appears(self, testbed):
        outcomes = []
        testbed.visit_dept(on_registered=outcomes.append)
        testbed.sim.run_for(s(2))
        assert outcomes and outcomes[0].accepted
        assert testbed.home_agent.current_care_of(HOME) is not None


class TestForeignAgentMode:
    def test_encapsulating_modes_coerce_to_triangle(self, testbed):
        """With only the home address (FA mode) there is nothing to source
        an outer header from; TUNNEL/ENCAP_DIRECT degrade to the triangle."""
        testbed.mobile.location = Location.FOREIGN_WITH_FA
        testbed.mobile.foreign_agent = ip("36.8.0.4")
        testbed.mobile.ip.routes.remove_default()
        testbed.mobile.ip.routes.add_default(testbed.mh_eth,
                                             gateway=ip("36.135.0.1"))
        route = hook(testbed, "36.40.0.9")
        assert route.interface is not testbed.mobile.vif
        assert route.source == HOME


class TestLifetimeRenewal:
    def _renewing_testbed(self, lifetime, fraction, seed=88):
        from dataclasses import replace

        from repro.config import DEFAULT_CONFIG
        from repro.sim import Simulator
        from repro.testbed import build_testbed

        config = DEFAULT_CONFIG.with_overrides(
            registration=replace(DEFAULT_CONFIG.registration,
                                 default_lifetime=lifetime,
                                 renewal_fraction=fraction))
        sim = Simulator(seed=seed)
        return build_testbed(sim, config, with_remote_correspondent=False,
                             with_dhcp=False)

    def test_renewal_keeps_binding_alive_past_lifetime(self):
        testbed = self._renewing_testbed(lifetime=s(2), fraction=0.5)
        testbed.visit_dept()
        testbed.sim.run_for(s(7))
        assert testbed.mobile.renewals_sent >= 2
        assert testbed.home_agent.bindings.get(HOME) is not None
        assert testbed.home_agent.bindings_expired == 0

    def test_without_renewal_binding_expires(self):
        testbed = self._renewing_testbed(lifetime=s(2), fraction=0.0)
        testbed.visit_dept()
        testbed.sim.run_for(s(7))
        assert testbed.mobile.renewals_sent == 0
        assert testbed.home_agent.bindings.get(HOME) is None
        assert testbed.home_agent.bindings_expired == 1

    def test_renewal_survives_home_agent_restart(self):
        from repro.faults import FaultInjector, FaultPlan, HomeAgentRestart

        testbed = self._renewing_testbed(lifetime=s(2), fraction=0.5)
        testbed.visit_dept()
        plan = FaultPlan.of(HomeAgentRestart(at=s(2), down_for=ms(800)))
        FaultInjector.for_testbed(testbed, plan).arm()
        testbed.sim.run_for(ms(2500))
        assert testbed.home_agent.bindings.get(HOME) is None  # state lost
        testbed.sim.run_for(s(8))
        # A later renewal re-registered once the agent came back.
        assert testbed.home_agent.bindings.get(HOME) is not None

    def test_coming_home_cancels_renewal(self):
        testbed = self._renewing_testbed(lifetime=s(2), fraction=0.5)
        testbed.visit_dept()
        testbed.sim.run_for(ms(500))
        testbed.mobile.come_home(testbed.mh_eth,
                                 gateway=testbed.addresses.router_home)
        renewed_before = testbed.mobile.renewals_sent
        testbed.sim.run_for(s(6))
        assert testbed.mobile.renewals_sent == renewed_before


def test_describe_attachment_changes_with_location(testbed):
    at_home = testbed.mobile.describe_attachment()
    assert "at home" in at_home
    testbed.visit_dept(register=False)
    away = testbed.mobile.describe_attachment()
    assert "away" in away and "care-of" in away
