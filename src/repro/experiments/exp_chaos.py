"""Chaos experiment (x5): does a session survive a hostile half-minute?

The paper's robustness claims are qualitative ("the foreign agent is no
longer a single point of failure", recovery "if the home agent ... has
crashed").  This experiment quantifies them: a correspondent streams UDP
echo probes at a mobile host for 30 simulated seconds while a
:class:`~repro.faults.FaultPlan` throws everything the architecture is
supposed to absorb at it —

* a Gilbert-Elliott bursty-loss phase on the department segment
  (intensity swept via ``loss_rate``),
* periodic Ethernet interface flaps (cadence swept via
  ``flap_period_ms``; the auto-switcher may fail over to the radio),
* a home-agent restart that loses every binding (recovered by the
  mobile host's lifetime-expiry re-registration),
* a DHCP server outage,
* a registration-reply drop window (recovered by capped exponential
  backoff retransmission).

Reported per sweep point: delivery rate, the longest outage (recovery
latency), whether the session was alive in the final five seconds
(survival), plus the recovery machinery's work — renewals sent,
registration retransmissions, bindings expired, faults injected.

Each sweep point is an independent :class:`~repro.parallel.Trial`; the
same seed yields byte-identical reports at any ``--jobs`` value because
both the fault schedule and every fault's randomness are derived from
the trial's own simulator seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence

from repro.config import Config, DEFAULT_CONFIG
from repro.core.autoswitch import AttachmentOption, ConnectivityManager
from repro.experiments.harness import format_table
from repro.faults import (
    DhcpOutage,
    FaultInjector,
    FaultPlan,
    GilbertElliottPhase,
    HomeAgentRestart,
    InterfaceFlap,
    ReplyDropWindow,
)
from repro.parallel import Trial
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.testbed import Testbed, build_testbed
from repro.workloads.udp_echo import run_echo

#: Sweep grid: Gilbert-Elliott burst intensity x Ethernet flap cadence.
DEFAULT_LOSS_RATES = (0.0, 0.2)
DEFAULT_FLAP_PERIODS_MS = (0, 7000)

ECHO_INTERVAL = ms(100)
#: Binding lifetime for the chaos runs: short enough that the home-agent
#: restart is healed by a half-life renewal well inside the horizon.
CHAOS_LIFETIME = ms(6000)
WARMUP = s(1)
HORIZON = s(30)
SURVIVAL_WINDOW = s(5)


@dataclass
class ChaosPoint:
    """One sweep point's outcome."""

    loss_rate: float
    flap_period_ms: float
    probes_sent: int
    delivered_pct: float
    longest_outage_ms: float
    survived: bool
    renewals: int
    reg_retries: int
    bindings_expired: int
    faults_injected: int


@dataclass
class ChaosReport:
    points: List[ChaosPoint] = field(default_factory=list)

    def format_report(self) -> str:
        """Render the sweep as a plain-text table."""
        rows = [(f"{point.loss_rate:g}",
                 f"{point.flap_period_ms:g}",
                 f"{point.delivered_pct:.1f}",
                 f"{point.longest_outage_ms:.0f}",
                 "yes" if point.survived else "NO",
                 point.renewals,
                 point.reg_retries,
                 point.bindings_expired,
                 point.faults_injected)
                for point in self.points]
        table = format_table(("loss rate", "flap period ms", "delivered %",
                              "longest outage ms", "survived", "renewals",
                              "reg retries", "bindings expired", "faults"),
                             rows)
        return ("Chaos sweep: session survival under injected faults "
                "(loss phase, flaps, HA restart, DHCP outage, reply drops)\n"
                + table)


def _build_plan(loss_rate: float, flap_period_ns: int,
                dept_link: str, eth_interface: str) -> FaultPlan:
    """The deterministic fault schedule for one sweep point."""
    events: list = [
        HomeAgentRestart(at=s(14), down_for=s(2)),
        DhcpOutage(at=s(17), duration=s(3)),
        ReplyDropWindow(at=s(20), duration=ms(1500)),
    ]
    if loss_rate > 0.0:
        events.append(GilbertElliottPhase(
            at=s(5), link=dept_link, duration=s(6),
            p_good_bad=loss_rate, p_bad_good=0.25,
            loss_good=0.0, loss_bad=0.9))
    if flap_period_ns > 0:
        at = s(6)
        while at < s(24):
            events.append(InterfaceFlap(at=at, interface=eth_interface,
                                        down_for=ms(1200)))
            at += flap_period_ns
    return FaultPlan.of(*events)


def _chaos_config(config: Config) -> Config:
    """*config* with the short binding lifetime and half-life renewals."""
    return config.with_overrides(
        registration=replace(config.registration,
                             renewal_fraction=0.5,
                             default_lifetime=CHAOS_LIFETIME))


def _start_manager(testbed: Testbed) -> None:
    """Start auto-switching between the Ethernet and the radio."""
    addresses = testbed.addresses
    manager = ConnectivityManager(testbed.mobile)
    manager.add_option(AttachmentOption(
        name="ethernet", interface=testbed.mh_eth,
        care_of=addresses.mh_dept_care_of, subnet=addresses.dept_net,
        gateway=addresses.router_dept))
    manager.add_option(AttachmentOption(
        name="radio", interface=testbed.mh_radio,
        care_of=addresses.mh_radio, subnet=addresses.radio_net,
        gateway=addresses.router_radio, score=1.0))
    manager.start()


def run_chaos_trial(loss_rate: float, flap_period_ns: int, seed: int,
                    config: Config = DEFAULT_CONFIG) -> dict:
    """One chaos run as a pure trial: (params, seed) -> plain data."""
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    testbed = build_testbed(sim, _chaos_config(config),
                            with_remote_correspondent=False, with_dhcp=True)
    addresses = testbed.addresses
    testbed.visit_dept()
    testbed.connect_radio(register=False)
    sim.run_for(WARMUP)

    _start_manager(testbed)

    plan = _build_plan(loss_rate, flap_period_ns,
                       dept_link=testbed.dept_segment.name,
                       eth_interface=testbed.mh_eth.name)
    injector = FaultInjector.for_testbed(testbed, plan)
    injector.arm()

    stream = run_echo(
        testbed, testbed.correspondent, testbed.mobile, addresses.mh_home,
        ECHO_INTERVAL, settle=0, run=HORIZON - WARMUP, drain=s(3))

    sent = stream.sent
    delivered_pct = (100.0 * stream.received / sent) if sent else 0.0
    survived = stream.received_count(since=HORIZON - SURVIVAL_WINDOW) > 0
    retries = sim.metrics.get("registration", "retries",
                              host=testbed.mobile.name)
    assert retries is not None
    return {
        "loss_rate": loss_rate,
        "flap_period_ms": flap_period_ns / 1e6,
        "probes_sent": sent,
        "delivered_pct": delivered_pct,
        "longest_outage_ms": stream.longest_outage() * ECHO_INTERVAL / 1e6,
        "survived": survived,
        "renewals": testbed.mobile.renewals_sent,
        "reg_retries": retries.value,
        "bindings_expired": testbed.home_agent.bindings_expired,
        "faults_injected": injector.total_injected(),
    }


def build_chaos_trials(loss_rates: Sequence[float],
                       flap_periods_ms: Sequence[float],
                       seed: int, config: Config) -> List[Trial]:
    """One trial per grid cell, seed = base + cell index."""
    trials = []
    index = 0
    for loss_rate in loss_rates:
        for flap_period_ms in flap_periods_ms:
            trials.append(Trial(
                "repro.experiments.exp_chaos:run_chaos_trial",
                dict(loss_rate=loss_rate, flap_period_ns=ms(flap_period_ms),
                     seed=seed + index, config=config)))
            index += 1
    return trials


def merge_chaos_trials(results: List[dict], **_) -> ChaosReport:
    """Reassemble ordered grid results into the report."""
    report = ChaosReport()
    for result in results:
        report.points.append(ChaosPoint(**result))
    return report
