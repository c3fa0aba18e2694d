"""Unit tests for the fault-injection subsystem (repro.faults)."""

import pytest

from repro.faults import (
    DhcpOutage,
    FaultInjector,
    FaultPlan,
    GilbertElliottPhase,
    HomeAgentRestart,
    InterfaceFlap,
    LossBurst,
    ReplyDropWindow,
)
from repro.faults.inject import _GilbertElliottWindow
from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.sim import Simulator, ms, s
from tests.drops import dropped

HOME = ip("36.135.0.10")


class TestPlan:
    def test_of_sorts_events_by_time(self):
        plan = FaultPlan.of(
            HomeAgentRestart(at=s(9), down_for=s(1)),
            LossBurst(at=s(2), link="lan", duration=s(1)),
            InterfaceFlap(at=s(5), interface="eth0.mh", down_for=ms(500)),
        )
        assert [event.at for event in plan.events] == [s(2), s(5), s(9)]
        assert len(plan) == 3

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.empty()

    def test_plans_are_picklable(self):
        import pickle

        plan = FaultPlan.of(
            GilbertElliottPhase(at=s(1), link="lan", duration=s(2),
                                p_good_bad=0.1, p_bad_good=0.3),
            ReplyDropWindow(at=s(4), duration=ms(500)),
        )
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestLinkFaults:
    def test_loss_burst_drops_only_inside_window(self, lan):
        plan = FaultPlan.of(LossBurst(at=s(2), link="lan", duration=s(1),
                                      loss_rate=1.0))
        injector = FaultInjector(lan.sim, plan,
                                 links={"lan": lan.segment})
        injector.arm()
        results = {}

        def ping_at(when, key):
            lan.sim.call_at(when, lambda: lan.a.icmp.ping(
                ip("10.0.0.2"),
                on_reply=lambda rtt: results.setdefault(key, "ok"),
                on_timeout=lambda: results.setdefault(key, "lost")))

        ping_at(s(1), "before")
        ping_at(ms(2500), "during")
        ping_at(s(4), "after")
        lan.sim.run_for(s(10))
        assert results == {"before": "ok", "during": "lost", "after": "ok"}
        assert injector.injected == {"loss_burst": 1}
        assert injector.total_injected() == 1

    def test_gilbert_elliott_decisions_are_seed_deterministic(self):
        event = GilbertElliottPhase(at=0, link="x", duration=s(10),
                                    p_good_bad=0.3, p_bad_good=0.3,
                                    loss_good=0.05, loss_bad=0.95)

        def decisions(seed):
            rng = Simulator(seed=seed).rng("fault-link:x")
            window = _GilbertElliottWindow(event, rng)
            return [window.decide() for _ in range(300)]

        same = decisions(9)
        assert same == decisions(9)
        assert same != decisions(10)
        assert any(same) and not all(same)  # both states visited

    def test_empty_plan_installs_no_hooks(self, lan):
        injector = FaultInjector(lan.sim, FaultPlan.empty(),
                                 links={"lan": lan.segment})
        injector.arm()
        assert lan.segment.fault_hook is None
        assert injector.total_injected() == 0

    def test_unknown_link_name_raises(self, lan):
        plan = FaultPlan.of(LossBurst(at=s(1), link="nope", duration=s(1)))
        injector = FaultInjector(lan.sim, plan, links={"lan": lan.segment})
        with pytest.raises(ValueError, match="unknown link"):
            injector.arm()

    def test_arming_twice_raises(self, lan):
        injector = FaultInjector(lan.sim, FaultPlan.empty())
        injector.arm()
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()


class TestTestbedFaults:
    def test_flap_takes_interface_down_then_restores_it(self, testbed):
        plan = FaultPlan.of(InterfaceFlap(at=s(1), interface="eth0.mh",
                                          down_for=ms(500)))
        injector = FaultInjector.for_testbed(testbed, plan)
        injector.arm()
        testbed.sim.run_for(ms(1300))  # past down_delay, inside the outage
        assert testbed.mh_eth.state == InterfaceState.DOWN
        testbed.sim.run_for(s(2))      # outage over, up_delay paid
        assert testbed.mh_eth.state == InterfaceState.UP
        assert injector.injected == {"interface_flap": 1}

    def test_home_agent_restart_loses_bindings(self, testbed):
        testbed.visit_dept()
        testbed.sim.run_for(s(1))
        assert testbed.home_agent.bindings.get(HOME) is not None
        plan = FaultPlan.of(HomeAgentRestart(at=s(2), down_for=ms(800)))
        injector = FaultInjector.for_testbed(testbed, plan)
        injector.arm()
        testbed.sim.run_for(ms(1500))  # t=2.5s: mid-outage
        assert testbed.home_agent.is_down
        assert testbed.home_agent.bindings.get(HOME) is None
        testbed.sim.run_for(s(1))
        assert not testbed.home_agent.is_down
        assert testbed.home_agent.restarts == 1

    def test_reply_drop_window_forces_retransmission(self, testbed):
        testbed.visit_dept(register=False)
        plan = FaultPlan.of(ReplyDropWindow(at=ms(100), duration=ms(1500)))
        injector = FaultInjector.for_testbed(testbed, plan)
        injector.arm()
        testbed.sim.run_for(ms(200))
        outcomes = []
        testbed.mobile.register_current(on_registered=outcomes.append)
        testbed.sim.run_for(s(8))
        assert outcomes and outcomes[0].accepted
        # The first reply (and any retransmission answered inside the
        # window) was dropped, so success took more than one transmission.
        assert outcomes[0].transmissions > 1
        assert dropped(testbed.sim, "home_agent", "reply_filtered",
                       host=testbed.home_agent.host.name) > 0

    def test_dhcp_outage_requires_a_dhcp_server(self, testbed):
        plan = FaultPlan.of(DhcpOutage(at=s(1), duration=s(1)))
        injector = FaultInjector.for_testbed(testbed, plan)  # no DHCP here
        with pytest.raises(ValueError, match="no DHCP server"):
            injector.arm()

    def test_dhcp_outage_silences_then_restores_the_server(self, full_testbed):
        plan = FaultPlan.of(DhcpOutage(at=ms(100), duration=s(3)))
        injector = FaultInjector.for_testbed(full_testbed, plan)
        injector.arm()
        sim = full_testbed.sim
        # Put the mobile host on the DHCP server's segment (net 36.8).
        full_testbed.move_mh_cable(full_testbed.dept_segment)
        full_testbed.mh_eth.remove_address(HOME)
        full_testbed.mobile.ip.routes.remove_matching(
            interface=full_testbed.mh_eth)
        full_testbed.mh_eth.subnet = full_testbed.addresses.dept_net
        sim.run_for(ms(200))
        outcomes = []
        full_testbed.mh_dhcp.acquire(
            on_bound=lambda lease: outcomes.append("bound"),
            on_failed=lambda: outcomes.append("failed"),
            timeout=ms(1500))
        sim.run_for(s(2))
        assert outcomes == ["failed"]
        assert dropped(sim, "dhcp", "offline",
                       host=full_testbed.dhcp_server.host.name) > 0
        sim.run_for(s(2))  # outage over
        full_testbed.mh_dhcp.acquire(
            on_bound=lambda lease: outcomes.append("bound"),
            on_failed=lambda: outcomes.append("failed"))
        sim.run_for(s(3))
        assert outcomes == ["failed", "bound"]
