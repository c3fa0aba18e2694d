"""The repro.api Scenario facade and constructor defaults."""

import pytest

from repro import DEFAULT_CONFIG, Scenario, Simulator, s
from repro.core.autoswitch import (
    DEFAULT_PROBE_INTERVAL,
    DEFAULT_PROBE_TIMEOUT,
    DOWN_THRESHOLD,
    UP_THRESHOLD,
    ConnectivityManager,
)
from repro.core.mobile_host import MobileHost
from repro.net.addressing import IPAddress, Subnet
from repro.sim.units import ms
from repro.testbed import build_testbed


# -------------------------------------------------------------------- facade

def test_scenario_is_importable_from_package_root():
    import repro

    assert repro.Scenario is Scenario
    assert "Scenario" in repro.__all__


def test_scenario_matches_manual_path_byte_for_byte():
    manual_sim = Simulator(seed=7)
    manual_tb = build_testbed(manual_sim)
    manual_sim.call_at(ms(100), manual_tb.visit_dept, label="scenario-step")
    manual_sim.run_for(s(5))

    result = (Scenario(seed=7)
              .with_testbed()
              .with_step(ms(100), lambda tb: tb.visit_dept())
              .run(duration=s(5)))

    from repro.obs import snapshot_to_json
    assert result.snapshot_json() == snapshot_to_json(manual_sim.metrics)
    assert len(result.trace) == len(manual_sim.trace)


def test_with_config_overrides_match_manual_config_byte_for_byte():
    from repro.obs import snapshot_to_json

    config = DEFAULT_CONFIG.with_overrides(tcp_congestion_control="reno",
                                           tcp_sack=True)
    manual_sim = Simulator(seed=11)
    manual_tb = build_testbed(manual_sim, config=config)
    manual_sim.call_at(ms(100), manual_tb.visit_dept, label="scenario-step")
    manual_sim.run_for(s(3))

    result = (Scenario(seed=11)
              .with_config(tcp_congestion_control="reno", tcp_sack=True)
              .with_testbed()
              .with_step(ms(100), lambda tb: tb.visit_dept())
              .run(duration=s(3)))

    assert result.snapshot_json() == snapshot_to_json(manual_sim.metrics)


def test_with_config_is_cumulative_and_later_calls_win():
    scenario = (Scenario(seed=0)
                .with_config(tcp_congestion_control="reno")
                .with_config(tcp_sack=True)
                .with_config(tcp_congestion_control="cubic"))
    assert scenario.config.tcp_congestion_control == "cubic"
    assert scenario.config.tcp_sack is True
    assert scenario.config.jitter == DEFAULT_CONFIG.jitter


def test_with_faults_matches_manual_injector_byte_for_byte():
    from repro import FaultPlan, InterfaceFlap
    from repro.faults import FaultInjector
    from repro.obs import snapshot_to_json

    plan = FaultPlan.of(InterfaceFlap(at=s(1), interface="eth0.mh",
                                      down_for=ms(800)))

    manual_sim = Simulator(seed=5)
    manual_tb = build_testbed(manual_sim)
    manual_injector = FaultInjector.for_testbed(manual_tb, plan)
    manual_injector.arm()
    manual_sim.run_for(s(4))

    result = (Scenario(seed=5)
              .with_testbed()
              .with_faults(plan)
              .run(duration=s(4)))

    assert result.fault_injector is not None
    assert result.fault_injector.total_injected() \
        == manual_injector.total_injected()
    assert result.snapshot_json() == snapshot_to_json(manual_sim.metrics)


def test_with_faults_requires_testbed():
    from repro import FaultPlan

    with pytest.raises(RuntimeError, match="with_testbed"):
        Scenario(seed=0).with_faults(FaultPlan.of()).run(duration=ms(1))


def test_fault_types_are_importable_from_package_root():
    import repro

    for name in ("FaultPlan", "FaultInjector", "LossBurst",
                 "GilbertElliottPhase", "InterfaceFlap", "HomeAgentRestart",
                 "DhcpOutage", "ReplyDropWindow"):
        assert hasattr(repro, name), name
        assert name in repro.__all__


def test_scenario_collects_workload_returns():
    result = (Scenario(seed=1)
              .with_testbed()
              .with_workload(lambda tb: "sentinel", name="probe")
              .with_workload(lambda tb: 42)
              .run(duration=ms(10)))
    assert result.workloads["probe"] == "sentinel"
    assert result.workloads["workload1"] == 42


def test_scenario_runs_only_once():
    scenario = Scenario(seed=1).with_testbed()
    scenario.run(duration=ms(1))
    with pytest.raises(RuntimeError):
        scenario.run(duration=ms(1))


def test_scenario_without_testbed_still_runs():
    result = Scenario(seed=3).run(duration=ms(1))
    assert result.testbed is None
    assert result.sim.now == ms(1)


# ---------------------------------------------------------- constructors

def _home_pieces(sim):
    return (IPAddress.parse("36.123.0.10"), Subnet.parse("36.123.0.0/24"),
            IPAddress.parse("36.123.0.1"))


def test_connectivity_manager_defaults_come_from_config():
    sim = Simulator()
    home, subnet, agent = _home_pieces(sim)
    mh = MobileHost(sim, "mh", home, subnet, agent)
    manager = ConnectivityManager(mh)
    assert manager.probe_interval == DEFAULT_PROBE_INTERVAL == ms(500)
    assert manager.probe_timeout == DEFAULT_PROBE_TIMEOUT == ms(400)
    assert UP_THRESHOLD == DOWN_THRESHOLD == 2
