"""Unit tests for the calibrated config and the Figure-5 testbed builder."""

import pytest

from repro.config import DEFAULT_CONFIG, Config
from repro.sim import KBPS, Simulator, ms, s
from repro.sim.units import transmission_delay
from repro.testbed import Addresses, build_testbed


class TestConfig:
    def test_radio_throughput_in_papers_band(self):
        # "In theory, Metricom radios can send 100 Kbits/second ... but in
        # practice 30-40 Kbits/second is the best we achieve."
        bw = DEFAULT_CONFIG.radio.bandwidth_bps
        assert 30 * KBPS <= bw <= 40 * KBPS

    def test_registration_costs_add_up_to_figure7(self):
        """The configured costs must make the 4.79 ms arithmetic possible:
        HA-side (receive + processing + send) ~= the paper's 1.48 ms."""
        reg = DEFAULT_CONFIG.registration
        ha_side = (reg.ha_receive_overhead + reg.ha_processing_cost
                   + reg.ha_send_overhead)
        assert ms(1.3) < ha_side < ms(1.7)

    def test_cold_switch_budget_under_paper_bound(self):
        """Device delays must keep cold switches under ~1.25 s."""
        cfg = DEFAULT_CONFIG
        worst = (cfg.ethernet_device.down_delay + cfg.radio_device.up_delay
                 + cfg.radio_device.configure_delay)
        assert worst < ms(1100)  # leaves room for routing + registration

    def test_with_overrides_returns_modified_copy(self):
        custom = DEFAULT_CONFIG.with_overrides(jitter=0.0)
        assert custom.jitter == 0.0
        assert DEFAULT_CONFIG.jitter != 0.0
        assert isinstance(custom, Config)

    def test_serial_line_is_115200_bps(self):
        assert DEFAULT_CONFIG.serial.bandwidth_bps == 115_200

    def test_radio_rtt_lands_in_200_250ms_band(self):
        """Two air crossings of a small tunneled probe must land in the
        paper's 200-250 ms RTT band."""
        cfg = DEFAULT_CONFIG
        probe_bytes = 80  # echo probe + IPIP overhead
        one_way = (cfg.radio.latency
                   + transmission_delay(probe_bytes, cfg.radio.bandwidth_bps)
                   + cfg.serial.latency
                   + transmission_delay(probe_bytes, cfg.serial.bandwidth_bps))
        assert ms(95) < one_way < ms(125)


class TestTestbed:
    def test_default_build_matches_figure5(self, testbed):
        a = testbed.addresses
        assert testbed.mobile.home_address == a.mh_home
        assert testbed.home_agent.address == a.router_home  # collocated
        assert testbed.home_agent.serves(a.mh_home)
        assert testbed.mobile.at_home
        assert testbed.correspondent.primary_address() == a.ch_dept

    def test_separate_home_agent_variant(self):
        sim = Simulator(seed=9)
        testbed = build_testbed(sim, separate_home_agent=True,
                                with_remote_correspondent=False,
                                with_dhcp=False)
        assert testbed.home_agent_host is not testbed.router
        assert testbed.home_agent.address == testbed.addresses.home_agent_host

    def test_full_build_starts_at_home(self, full_testbed):
        assert full_testbed.mobile.at_home

    def test_remote_network_present_by_default(self, full_testbed):
        assert full_testbed.remote_correspondent is not None
        assert full_testbed.remote_router is not None
        assert full_testbed.remote_segment is not None

    def test_dhcp_server_and_client_wired(self, full_testbed):
        assert full_testbed.dhcp_server is not None
        assert full_testbed.mh_dhcp is not None
        assert full_testbed.dhcp_server.subnet == full_testbed.addresses.dept_net

    def test_home_connectivity_out_of_the_box(self, testbed):
        results = []
        testbed.correspondent.icmp.ping(
            testbed.addresses.mh_home, on_reply=results.append,
            on_timeout=lambda: results.append(None))
        testbed.sim.run_for(s(2))
        assert results and results[0] is not None

    def test_remote_correspondent_reachable(self, full_testbed):
        results = []
        full_testbed.correspondent.icmp.ping(
            full_testbed.addresses.ch_remote, on_reply=results.append,
            on_timeout=lambda: results.append(None))
        full_testbed.sim.run_for(s(2))
        assert results and results[0] is not None

    def test_visit_dept_helper(self, testbed):
        care_of = testbed.visit_dept(register=False)
        assert care_of == testbed.addresses.mh_dept_care_of
        assert testbed.mh_eth.segment is testbed.dept_segment
        assert not testbed.mobile.at_home

    def test_visit_remote_requires_remote_net(self, testbed):
        with pytest.raises(ValueError):
            testbed.visit_remote()

    def test_unplug_ethernet(self, testbed):
        testbed.unplug_ethernet()
        assert testbed.mh_eth.segment is None
        assert not testbed.mh_eth.is_up

    def test_connect_radio_publishes_an_address_already_on_the_radio(
            self, testbed):
        # Added while the radio was down, the address never reached the
        # channel; connecting must publish it, or the registration reply
        # never reaches the mobile host over the air.
        testbed.mh_radio.add_address(testbed.addresses.mh_radio)
        testbed.connect_radio(register=True)
        testbed.sim.run_for(s(3))
        client = testbed.mobile.registration
        assert client.replies_received == 1
        assert client.failures == 0

    def test_custom_addresses_respected(self):
        sim = Simulator(seed=9)
        custom = Addresses()
        testbed = build_testbed(sim, addresses=custom,
                                with_remote_correspondent=False,
                                with_dhcp=False)
        assert testbed.addresses is custom
