"""Extension ablation: smart correspondent hosts (reverse-path routing).

The paper defers reverse-path optimization ("these optimizations require
the correspondent host to be able to locate the mobile host at its care-of
address") but names the enabler: *smart correspondent hosts* that receive
binding updates like the home agent does.  This experiment measures what
the deferred optimization would have bought:

* the mobile host visits the department network; the home agent runs on
  its own host on the home subnet (so the detour is a real path, as in
  any non-trivial deployment);
* a plain correspondent reaches the mobile host via the home agent's
  tunnel; a smart correspondent tunnels directly to the care-of address;
* we compare echo RTT and count how much traffic the home agent carries.

Also measured: robustness — when the smart correspondent's cache expires,
traffic falls back to the basic protocol without loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import Config, DEFAULT_CONFIG
from repro.core.smart_correspondent import SmartCorrespondent
from repro.experiments.harness import format_table
from repro.parallel import Trial
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.stats import Stats, summarize_ms
from repro.testbed import build_testbed
from repro.workloads.udp_echo import run_echo


@dataclass
class SmartCorrespondentReport:
    """Plain vs optimized reverse path."""

    probes: int
    rtt_plain: Stats
    rtt_optimized: Stats
    ha_packets_plain: int
    ha_packets_optimized: int
    fallback_lossless: bool

    @property
    def speedup(self) -> float:
        """Plain RTT divided by optimized RTT."""
        if self.rtt_optimized.mean == 0:
            return 0.0
        return self.rtt_plain.mean / self.rtt_optimized.mean

    def format_report(self) -> str:
        """Render the plain-vs-smart comparison."""
        rows = [
            ("plain correspondent", self.rtt_plain.format_ms(),
             self.ha_packets_plain),
            ("smart correspondent", self.rtt_optimized.format_ms(),
             self.ha_packets_optimized),
        ]
        table = format_table(("configuration", "echo RTT ms (std)",
                              "packets tunneled by HA"), rows)
        return (f"Smart-correspondent ablation "
                f"({self.probes} probes per configuration)\n{table}\n"
                f"reverse-path speedup: {self.speedup:.2f}x; cache-expiry "
                f"fallback lossless: {self.fallback_lossless}")


def _measure(seed: int, config: Config, smart: bool,
             probes: int) -> tuple:
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=False, separate_home_agent=True)
    correspondent = testbed.correspondent
    optimizer = None
    if smart:
        optimizer = SmartCorrespondent(correspondent)
        testbed.mobile.add_smart_correspondent(testbed.addresses.ch_dept)
    testbed.visit_dept()
    stream = run_echo(testbed, correspondent, testbed.mobile,
                      testbed.addresses.mh_home, ms(100), settle=s(2),
                      run=ms(100) * probes, drain=s(1))
    assert optimizer is None or optimizer.packets_optimized > 0
    return (stream.rtts(),
            testbed.home_agent.vif.packets_encapsulated)


def _fallback_lossless(seed: int, config: Config) -> bool:
    """Let the cached binding expire mid-stream; traffic must continue
    (through the home agent) without loss."""
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=False, separate_home_agent=True)
    smart = SmartCorrespondent(testbed.correspondent)
    testbed.mobile.add_smart_correspondent(testbed.addresses.ch_dept)
    testbed.visit_dept(register=False)
    testbed.mobile.register_current(lifetime=s(3))
    # Keep the HA binding alive past the CH cache's expiry.
    stream = run_echo(
        testbed, testbed.correspondent, testbed.mobile,
        testbed.addresses.mh_home, ms(100), settle=s(1), run=s(6),
        drain=s(1),
        switch=lambda: testbed.mobile.registration.register(
            testbed.mobile.care_of, on_done=lambda outcome: None,
            via=testbed.mobile.active_interface, lifetime=s(60)),
        switch_at=s(2))
    return (smart.cached_care_of(testbed.addresses.mh_home) is None
            and stream.lost_count() == 0)


def run_smart_measure_trial(smart: bool, probes: int, seed: int,
                            config: Config = DEFAULT_CONFIG) -> dict:
    """Plain or smart correspondent measurement as a pure trial."""
    rtts, ha_packets = _measure(seed, config, smart=smart, probes=probes)
    return {"rtts_ns": rtts, "ha_packets": ha_packets}


def run_smart_fallback_trial(seed: int,
                             config: Config = DEFAULT_CONFIG) -> dict:
    """The cache-expiry fallback check as a pure trial."""
    return {"lossless": _fallback_lossless(seed, config)}


def build_smart_correspondent_trials(probes: int, seed: int,
                                     config: Config) -> List[Trial]:
    """Three independent trials: plain, smart, fallback."""
    measure = ("repro.experiments.exp_smart_correspondent:"
               "run_smart_measure_trial")
    return [
        Trial(measure, dict(smart=False, probes=probes, seed=seed,
                            config=config)),
        Trial(measure, dict(smart=True, probes=probes, seed=seed + 1,
                            config=config)),
        Trial("repro.experiments.exp_smart_correspondent:"
              "run_smart_fallback_trial",
              dict(seed=seed + 2, config=config)),
    ]


def merge_smart_correspondent_trials(results: List[dict], probes: int,
                                     **_) -> SmartCorrespondentReport:
    """Assemble the (plain, smart, fallback) triple into the report."""
    plain, smart, fallback = results
    return SmartCorrespondentReport(
        probes=probes,
        rtt_plain=summarize_ms(plain["rtts_ns"]),
        rtt_optimized=summarize_ms(smart["rtts_ns"]),
        ha_packets_plain=plain["ha_packets"],
        ha_packets_optimized=smart["ha_packets"],
        fallback_lossless=fallback["lossless"])
