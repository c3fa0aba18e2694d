"""The Section 4 same-subnet address switch experiment.

"For these tests, a correspondent host continuously sends a UDP packet to
the mobile host every 10 milliseconds, and the mobile host echoes the
packet back.  We then measure the number of packets that were lost during
the interval in which the mobile host switches addresses. ...  Out of the
twenty iterations of this experiment, sixteen tests showed no packet loss,
and the other four tests lost one packet each.  This indicates that the
interval during which packets can be lost is under 10 ms."

Loss here is a *phase* effect: the vulnerable window (old address dead ->
home agent binding updated) is a few milliseconds, so whether a 10 ms probe
lands inside it depends on where the switch starts relative to the probe
ticks.  The harness spreads switch start times uniformly across one probe
interval, which samples the phase deterministically — the paper got the
same sampling for free from real-world scheduling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import Config, DEFAULT_CONFIG
from repro.core.handoff import AddressSwitcher, SwitchTimeline
from repro.experiments.harness import format_histogram, histogram
from repro.parallel import Trial
from repro.sim.engine import Simulator
from repro.sim.units import ms
from repro.testbed import build_testbed
from repro.workloads.udp_echo import run_echo, switch_phase

#: Paper outcome: {packets lost: iterations}.
PAPER_HISTOGRAM = {0: 16, 1: 4}
PAPER_ITERATIONS = 20
PAPER_PROBE_INTERVAL_MS = 10


@dataclass
class SameSubnetReport:
    """Loss histogram plus switch statistics."""

    iterations: int
    probe_interval_ms: float
    losses: List[int] = field(default_factory=list)
    switch_totals_ms: List[float] = field(default_factory=list)

    @property
    def loss_histogram(self) -> Dict[int, int]:
        """Losses as {packets lost: iterations}."""
        return histogram(self.losses)

    @property
    def max_loss(self) -> int:
        """Worst single-iteration loss."""
        return max(self.losses) if self.losses else 0

    @property
    def zero_loss_runs(self) -> int:
        """How many iterations lost nothing."""
        return sum(1 for loss in self.losses if loss == 0)

    def format_report(self) -> str:
        """Render the histogram and the paper comparison."""
        mean_total = (sum(self.switch_totals_ms) / len(self.switch_totals_ms)
                      if self.switch_totals_ms else 0.0)
        lines = [
            f"Same-subnet address switch ({self.iterations} iterations, "
            f"UDP probe every {self.probe_interval_ms:g} ms)",
            format_histogram(self.loss_histogram),
            f"zero-loss runs: {self.zero_loss_runs}/{self.iterations} "
            f"(paper: {PAPER_HISTOGRAM[0]}/{PAPER_ITERATIONS})",
            f"maximum loss in any run: {self.max_loss} "
            f"(paper: {max(PAPER_HISTOGRAM)})",
            f"mean switch time: {mean_total:.2f} ms -> loss interval is "
            f"under {self.probe_interval_ms:g} ms, as the paper concludes",
        ]
        return "\n".join(lines)


def run_same_subnet_trial(index: int, iterations: int, seed: int,
                          probe_interval: int,
                          config: Config = DEFAULT_CONFIG) -> dict:
    """One independent switch measurement: fresh testbed, one switch.

    Pure trial unit: ``(params, seed) -> plain data``.  *seed* is the
    iteration's own seed (the builder derives it); *index*/*iterations*
    only position the switch phase within the probe interval.
    """
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=False)
    addresses = testbed.addresses
    testbed.visit_dept()

    timelines: List[SwitchTimeline] = []
    stream = run_echo(
        testbed, testbed.correspondent, testbed.mobile, addresses.mh_home,
        probe_interval, settle=ms(500), run=ms(2000), drain=ms(1000),
        switch=lambda: AddressSwitcher(testbed.mobile).switch_address(
            addresses.mh_dept_care_of_2, on_done=timelines.append),
        switch_at=ms(1000) + switch_phase(index, iterations, probe_interval))

    if not timelines or not timelines[0].success:
        raise RuntimeError(f"iteration {index}: switch failed")
    return {"loss": stream.lost_count(),
            "switch_total_ms": timelines[0].total / 1_000_000}


def build_same_subnet_trials(iterations: int, seed: int,
                             probe_interval: int) -> List[Trial]:
    """One trial per iteration; seed = base + index, as the serial loop did."""
    return [Trial("repro.experiments.exp_same_subnet:run_same_subnet_trial",
                  dict(index=index, iterations=iterations, seed=seed + index,
                       probe_interval=probe_interval, config=DEFAULT_CONFIG))
            for index in range(iterations)]


def merge_same_subnet_trials(results: List[dict], iterations: int,
                             probe_interval: int) -> SameSubnetReport:
    """Reassemble ordered trial results into the report."""
    report = SameSubnetReport(iterations=iterations,
                              probe_interval_ms=probe_interval / 1_000_000)
    for result in results:
        report.losses.append(result["loss"])
        report.switch_totals_ms.append(result["switch_total_ms"])
    return report
