"""Extension ablation: how fast should the mobile host probe?

Section 6 promises to "experiment with techniques for determining when to
switch between networks".  The central design choice in our
:class:`~repro.core.autoswitch.ConnectivityManager` is the probe cadence:
faster probing detects a dead network sooner (shorter outage) but costs
more background traffic.  This ablation sweeps the probe interval and
measures, for an Ethernet-cable-pull with a hot radio standing by:

* packets lost before the automatic failover completes,
* detection + switch time,
* probe overhead (probes per second of simulated time).

The hysteresis depth is part of the product ``interval x DOWN_THRESHOLD``,
so the sweep exposes the real trade-off curve the paper wanted to study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.config import Config, DEFAULT_CONFIG
from repro.core.autoswitch import AttachmentOption, ConnectivityManager
from repro.experiments.harness import format_table
from repro.parallel import Trial
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.testbed import build_testbed
from repro.workloads.udp_echo import run_echo

DEFAULT_INTERVALS_MS = (150, 300, 600, 1200)
PROBE_STREAM_INTERVAL = ms(100)


@dataclass
class SweepPoint:
    probe_interval_ms: float
    packets_lost: int
    failover_ms: float
    probes_per_second: float


@dataclass
class AutoswitchReport:
    points: List[SweepPoint] = field(default_factory=list)

    def format_report(self) -> str:
        """Render the sweep as a plain-text table."""
        rows = [(f"{point.probe_interval_ms:g}",
                 point.packets_lost,
                 f"{point.failover_ms:.0f}",
                 f"{point.probes_per_second:.1f}")
                for point in self.points]
        table = format_table(("probe interval ms", "packets lost",
                              "failover ms", "probes/s"), rows)
        return ("Auto-switch ablation: probe cadence vs failover outage "
                "(Section 6 extension)\n" + table)


def _run_point(interval: int, seed: int, config: Config) -> SweepPoint:
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=False)
    addresses = testbed.addresses
    testbed.visit_dept()
    testbed.connect_radio(register=False)
    sim.run_for(s(1))

    manager = ConnectivityManager(testbed.mobile, probe_interval=interval,
                                  probe_timeout=ms(600))
    manager.add_option(AttachmentOption(
        name="ethernet", interface=testbed.mh_eth,
        care_of=addresses.mh_dept_care_of, subnet=addresses.dept_net,
        gateway=addresses.router_dept))
    manager.add_option(AttachmentOption(
        name="radio", interface=testbed.mh_radio,
        care_of=addresses.mh_radio, subnet=addresses.radio_net,
        gateway=addresses.router_radio, score=1.0))
    failovers: List[int] = []
    manager.on_switch = lambda timeline: failovers.append(sim.now)
    manager.start()

    pulled_at: List[int] = []

    def pull_cable() -> None:
        pulled_at.append(sim.now)
        testbed.mh_eth.detach()

    stream = run_echo(
        testbed, testbed.correspondent, testbed.mobile, addresses.mh_home,
        PROBE_STREAM_INTERVAL, settle=0, run=s(16), drain=s(3),
        switch=pull_cable, switch_at=s(4))

    assert failovers, "manager never failed over"
    failover_ms = (failovers[0] - pulled_at[0]) / 1e6
    total_probes = sum(option.probes_sent for option in manager.options)
    probes_per_second = total_probes / ((sim.now - s(1)) / 1e9)
    return SweepPoint(probe_interval_ms=interval / 1e6,
                      packets_lost=stream.lost_count(),
                      failover_ms=failover_ms,
                      probes_per_second=probes_per_second)


def run_autoswitch_trial(interval_ns: int, seed: int,
                         config: Config = DEFAULT_CONFIG) -> dict:
    """One probe-cadence sweep point as a pure trial."""
    point = _run_point(interval_ns, seed, config)
    return {"probe_interval_ms": point.probe_interval_ms,
            "packets_lost": point.packets_lost,
            "failover_ms": point.failover_ms,
            "probes_per_second": point.probes_per_second}


def build_autoswitch_trials(intervals_ms, seed: int,
                            config: Config) -> List[Trial]:
    """One trial per sweep point, seed = base + index."""
    return [Trial("repro.experiments.exp_autoswitch:run_autoswitch_trial",
                  dict(interval_ns=ms(interval_ms), seed=seed + index,
                       config=config))
            for index, interval_ms in enumerate(intervals_ms)]


def merge_autoswitch_trials(results: List[dict], **_) -> AutoswitchReport:
    """Reassemble ordered sweep points into the report."""
    report = AutoswitchReport()
    for result in results:
        report.points.append(SweepPoint(**result))
    return report
