"""The paper's measured artifacts, checked for shape at full size.

Each test reads the default-seed report that ``python -m repro.experiments
<id>`` prints (built once per test run by the golden module, which also
pins its digest) and checks it against what the paper reports: the
same-subnet switch (Section 4), Figure 6, Figure 7, the routing options
(Section 3.2 / Figure 3), the foreign-agent ablation (Section 5.1), and
the three extensions x1-x3.  The probe-interval sweep is not a CLI id, so
it runs here.

The e1, f6, f7, f3, a1, x1, x2 and x3 checks are named claims, so they
can also run across seeds.  From the repo root this prints, for each claim, at how many
of the N consecutive seeds from each id's default it holds, and exits 1
if a claim outside :data:`UNGATED` fails at any of them::

    PYTHONPATH=src python -m tests.integration.test_paper_shapes --seeds 20
"""

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.core.policy import RoutingMode
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.exp_device_switch import (
    PAPER_COLD_OUTAGE_BOUND_MS,
    SwitchCase,
    run_device_switch_trial,
)
from repro.experiments.exp_registration import (
    PAPER_HA_PROCESSING_MS,
    PAPER_REQUEST_REPLY_MS,
    PAPER_TOTAL_MS,
)
from repro.experiments.exp_routing_options import PAPER_ENCAP_OVERHEAD_BYTES
from repro.experiments.exp_same_subnet import PAPER_HISTOGRAM
from repro.obs import capture_simulators
from repro.sim.units import ms
from tests.integration.test_report_goldens import default_report


#: Claims that do not hold at every seed yet: the seed sweep prints their
#: pass counts but does not fail on them.  f6's hot radio->ethernet mean
#: loss is non-zero at 5 of the 20 seeds from its default, each time from
#: single probes the radio channel drops (ROADMAP item 4(b)).
UNGATED = {"f6: hot radio->eth mean loss == 0"}


def _check(claims: Dict[str, bool]) -> None:
    failed = [name for name, held in claims.items() if not held]
    assert not failed, f"claims that do not hold: {failed}"


def same_subnet_claims(report) -> Dict[str, bool]:
    """Section 4: 20 iterations with a 10 ms UDP probe stream; 16 lose
    zero packets, 4 lose exactly one, so "the interval during which
    packets can be lost is under 10 ms"."""
    return {
        # Shape 1: no run ever loses more than one packet (the paper's
        # bound).
        "e1: max loss <= 1": report.max_loss <= max(PAPER_HISTOGRAM),
        # Shape 2: the clear majority of runs lose nothing.
        "e1: >= 60% zero-loss runs":
            report.zero_loss_runs >= report.iterations * 0.6,
        # Shape 3: some runs do lose one packet — the loss window is
        # real, just smaller than the probe interval.
        "e1: some run loses a probe":
            report.zero_loss_runs < report.iterations,
        # Shape 4: the switch itself stays well under the probe interval.
        "e1: switch < probe interval":
            max(report.switch_totals_ms) < report.probe_interval_ms,
    }


def test_same_subnet_switch_loss():
    _check(same_subnet_claims(default_report("e1")))


@dataclass
class ProbeSweepReport:
    """Loss vs probe spacing: the loss *window* made visible.

    Section 4: "No matter how small this interval is, it is always
    possible for some packet in flight to arrive during this time" — the
    switch opens a fixed vulnerable window, so the number of packets it
    catches scales with how densely packets are flying.  Sweeping the
    probe spacing turns the invisible window into a measurable slope.
    """

    iterations_per_point: int
    points: List[tuple] = field(default_factory=list)  # (interval_ms, mean)

    def estimated_window_ms(self) -> float:
        """The implied loss window: mean loss x spacing, averaged."""
        estimates = [mean * interval for interval, mean in self.points
                     if mean > 0]
        if not estimates:
            return 0.0
        return sum(estimates) / len(estimates)


def run_probe_interval_sweep() -> ProbeSweepReport:
    """Run the same-subnet switch at 2, 5, 10 and 20 ms probe intervals."""
    iterations = 10
    report = ProbeSweepReport(iterations_per_point=iterations)
    for index, interval_ms in enumerate((2, 5, 10, 20)):
        sub = run_experiment("e1", seed=211 + index * 100,
                             iterations=iterations,
                             probe_interval=ms(interval_ms))
        mean_loss = sum(sub.losses) / len(sub.losses)
        report.points.append((float(interval_ms), mean_loss))
    return report


def test_loss_window_sweep():
    """Ablation of the paper's in-flight-packet argument: "no matter how
    small this interval is, it is always possible for some packet in
    flight to arrive during this time" — denser probing catches more of
    the fixed vulnerable window."""
    report = run_probe_interval_sweep()
    means = [mean for _interval, mean in report.points]
    # Monotone (non-strictly) decreasing loss as probes get sparser.
    assert all(a >= b for a, b in zip(means, means[1:]))
    # At 2 ms spacing the window is hit essentially every time; at 20 ms
    # it usually is not.
    assert means[0] >= 1.0
    assert means[-1] <= 0.5
    # The implied window (loss x spacing) is a few milliseconds — well
    # under the paper's 10 ms bound and consistent across densities.
    window = report.estimated_window_ms()
    assert 1.0 < window < 6.0


def figure6_claims(report) -> Dict[str, bool]:
    """Cold switches lose packets over an interval "generally less than
    1.25 seconds" (<= ~5 packets at 250 ms spacing), dominated by
    bringing up the new interface; hot switches usually lose nothing."""
    cold_eth_radio = report.cases[SwitchCase.COLD_WIRED_TO_WIRELESS]
    cold_radio_eth = report.cases[SwitchCase.COLD_WIRELESS_TO_WIRED]
    hot_eth_radio = report.cases[SwitchCase.HOT_WIRED_TO_WIRELESS]
    hot_radio_eth = report.cases[SwitchCase.HOT_WIRELESS_TO_WIRED]
    claims = {}
    # Shape 1: cold switches lose packets; the bound is ~5 at 250 ms.
    for label, cold in (("eth->radio", cold_eth_radio),
                        ("radio->eth", cold_radio_eth)):
        claims[f"f6: cold {label} mean loss >= 1"] = cold.mean_loss >= 1
        claims[f"f6: cold {label} max loss <= 6"] = cold.max_loss <= 6
        claims[f"f6: cold {label} switch < 1.2 x paper bound"] = (
            max(cold.switch_totals_ms) < PAPER_COLD_OUTAGE_BOUND_MS * 1.2)
    # Shape 2: hot switches lose (almost) nothing.
    claims["f6: hot radio->eth mean loss == 0"] = hot_radio_eth.mean_loss == 0
    # The radio's own occasional drop.
    claims["f6: hot eth->radio mean loss <= 0.5"] = (
        hot_eth_radio.mean_loss <= 0.5)
    # Shape 3: cold loses strictly more than hot, in both directions.
    claims["f6: cold eth->radio loses more than hot"] = (
        cold_eth_radio.mean_loss > hot_eth_radio.mean_loss)
    claims["f6: cold radio->eth loses more than hot"] = (
        cold_radio_eth.mean_loss > hot_radio_eth.mean_loss)
    # Shape 4: bringing up the radio costs more than the Ethernet card,
    # so the eth->radio cold switch is the slowest.
    claims["f6: cold eth->radio is the slowest switch"] = (
        sum(cold_eth_radio.switch_totals_ms)
        > sum(cold_radio_eth.switch_totals_ms))
    return claims


def test_figure6_device_switching():
    _check(figure6_claims(default_report("f6")))


def test_figure6_late_first_binding_is_not_billed_to_the_switch():
    """At seed 35, hot radio->eth iteration 8's first registration over
    the radio loses its frame and the retransmit binds at 1.11 s, after
    the fixed 0.8 s settle.  Probing waits for that binding, so the two
    probes that died for want of it are no longer counted as the hot
    switch's loss."""
    case_index = list(SwitchCase).index(SwitchCase.HOT_WIRELESS_TO_WIRED)
    result = run_device_switch_trial("HOT_WIRELESS_TO_WIRED", 8, 10,
                                     35 + 8 * 131 + case_index * 9973)
    assert result["loss"] == 0


def test_figure6_hot_losses_are_the_radios_own_drop():
    """EXPERIMENTS.md's F6 row: a hot switch that loses a probe loses it
    to the radio channel's random drop, not to the switch — one radio
    loss and no interface or IP drop in that trial."""
    f6 = EXPERIMENTS["f6"]
    lossy = 0
    for trial in f6.build(seed=f6.seed, **f6.grid):
        if SwitchCase[trial.params["case_name"]].cold:
            continue
        with capture_simulators() as sims:
            result = run_device_switch_trial(**trial.params)
        if not result["loss"]:
            continue
        lossy += 1
        (sim,) = sims
        drops = {metric.key: metric.value for metric in sim.metrics
                 if metric.name == "dropped"}
        assert drops == {"link/dropped{link=net-36.134,reason=loss}": 1}
    assert lossy


def figure7_claims(report) -> Dict[str, bool]:
    """Paper: total switch 7.39 ms, request->reply 4.79 ms, home-agent
    processing 1.48 ms (averages of 10 tests on the real testbed)."""
    return {
        # Shape: each headline number lands within 15% of the paper's.
        "f7: total within 15% of paper":
            report.total.mean == pytest.approx(PAPER_TOTAL_MS, rel=0.15),
        "f7: request->reply within 15% of paper":
            report.request_reply.mean == pytest.approx(
                PAPER_REQUEST_REPLY_MS, rel=0.15),
        "f7: HA processing within 15% of paper":
            report.ha_processing.mean == pytest.approx(
                PAPER_HA_PROCESSING_MS, rel=0.15),
        # Structural claims: registration dominates the switch; the
        # switch is overwhelmingly software (total well under 10 ms).
        "f7: request->reply > half the total":
            report.request_reply.mean > report.total.mean / 2,
        "f7: total < 10 ms": report.total.mean < 10.0,
        # "The home agent should be able to deal with a large number of
        # mobile hosts simultaneously": HA processing is a small slice of
        # the total.
        "f7: HA processing < quarter of the total":
            report.ha_processing.mean < report.total.mean / 4,
    }


def test_figure7_registration_timeline():
    _check(figure7_claims(default_report("f7")))


def routing_options_claims(report) -> Dict[str, bool]:
    """Tunneling pays the home-agent detour both ways, the triangle route
    only on the way back, local traffic never; encapsulation costs 20
    bytes; only the plain triangle dies behind a transit filter; a failed
    probe makes the Mobile Policy Table fall back to the tunnel."""
    tunnel = report.results[RoutingMode.TUNNEL]
    triangle = report.results[RoutingMode.TRIANGLE]
    encap_direct = report.results[RoutingMode.ENCAP_DIRECT]
    local = report.results[RoutingMode.LOCAL]
    return {
        # Latency ordering to a nearby correspondent: local < triangle
        # (reply still detours) < tunnel (both ways detour).
        "f3: nearby RTT local < triangle":
            local.rtt_nearby.mean < triangle.rtt_nearby.mean,
        "f3: nearby RTT triangle < tunnel":
            triangle.rtt_nearby.mean < tunnel.rtt_nearby.mean,
        # The triangle saves roughly the one-way detour: its RTT sits
        # between half of and the full tunneled RTT.
        "f3: nearby RTT triangle > half the tunnel's":
            triangle.rtt_nearby.mean > tunnel.rtt_nearby.mean / 2,
        # Encapsulation overhead is exactly one IP header.
        "f3: encapsulating modes add one IP header": all(
            mode.encap_overhead_bytes == PAPER_ENCAP_OVERHEAD_BYTES
            for mode in (tunnel, encap_direct)),
        "f3: direct modes add nothing": all(
            mode.encap_overhead_bytes == 0 for mode in (triangle, local)),
        # Transit filter: only the plain triangle dies.
        "f3: only the triangle dies behind a transit filter": (
            not triangle.survives_transit_filter
            and tunnel.survives_transit_filter
            and encap_direct.survives_transit_filter
            and local.survives_transit_filter),
        # Mobility preservation: local mode sacrifices it.
        "f3: only local mode gives up mobility": (
            not local.preserves_mobility
            and all(report.results[m].preserves_mobility
                    for m in (RoutingMode.TUNNEL, RoutingMode.TRIANGLE,
                              RoutingMode.ENCAP_DIRECT))),
        # The dynamic fallback worked end to end.
        "f3: fallback probe failed": report.fallback_probe_failed,
        "f3: fallback recovered": report.fallback_recovered,
    }


def test_routing_options_ablation():
    _check(routing_options_claims(default_report("f3")))


def foreign_agent_claims(report) -> Dict[str, bool]:
    """Section 5.1: "foreign agents may somewhat reduce packet loss" by
    forwarding packets already in flight when the mobile host leaves."""
    return {
        # Shape 1: the FA configuration loses less on average...
        "a1: FA loses less": report.mean_with < report.mean_without,
        # ...because the old FA really forwarded in-flight packets.
        "a1: old FA forwards": sum(report.forwarded_by_fa) > 0,
        # Shape 2: "somewhat" — the benefit is modest, not a rescue: the
        # FA configuration still loses most of the outage's packets.
        "a1: FA loses > half as much":
            report.mean_with > report.mean_without * 0.5,
    }


def test_foreign_agent_reduces_loss_somewhat():
    _check(foreign_agent_claims(default_report("a1")))


def smart_correspondent_claims(report) -> Dict[str, bool]:
    """Smart correspondents cache the mobile host's binding and send to
    it directly: the optimization is real (faster) and complete (the home
    agent carries none of the optimized traffic), and losing the cache
    degrades gracefully to the basic protocol."""
    return {
        "x1: optimized path > 1.2x faster": report.speedup > 1.2,
        "x1: HA carries no optimized traffic":
            report.ha_packets_optimized == 0,
        "x1: HA carries the plain traffic": report.ha_packets_plain > 0,
        "x1: cache loss falls back without loss": report.fallback_lossless,
    }


def test_smart_correspondent_reverse_path():
    _check(smart_correspondent_claims(default_report("x1")))


def ha_scalability_claims(report) -> Dict[str, bool]:
    """Section 4: "the home agent should be able to deal with a large
    number of mobile hosts simultaneously", quantified."""
    single = report.results[0].latency.mean
    largest = report.results[-1]
    per_host = (largest.latency.maximum - single) / largest.fleet_size
    return {
        # Every registration is eventually accepted at every fleet size.
        "x2: every registration accepted": all(
            result.accepted == result.fleet_size
            for result in report.results),
        # Latency grows roughly linearly with simultaneous arrivals
        # (queueing behind ~1.5 ms of processing each), not explosively.
        "x2: 0.5-3 ms per queued registration": 0.5 < per_host < 3.0,
        # Even 50 simultaneous mobile hosts are all registered within a
        # tenth of a second.
        "x2: largest fleet registered < 100 ms":
            largest.latency.maximum < 100.0,
    }


def test_home_agent_scalability():
    _check(ha_scalability_claims(default_report("x2")))


def autoswitch_claims(report) -> Dict[str, bool]:
    """Section 6's automatic network selector: faster probing buys a
    shorter outage with more background traffic."""
    points = report.points
    return {
        # Faster probing -> shorter outage (monotone within the sweep
        # ends)...
        "x3: faster probing loses fewer packets":
            points[0].packets_lost < points[-1].packets_lost,
        "x3: faster probing fails over sooner":
            points[0].failover_ms < points[-1].failover_ms,
        # ...but more background traffic.
        "x3: faster probing sends more probes":
            points[0].probes_per_second > points[-1].probes_per_second,
        # Failover time is governed by detection, i.e. a small multiple
        # of the probe interval plus the probe timeout.
        "x3: failover < 3 probe intervals + 1.5 s": all(
            point.failover_ms < point.probe_interval_ms * 3 + 1500
            for point in points),
    }


def test_autoswitch_probe_cadence_tradeoff():
    _check(autoswitch_claims(default_report("x3")))


#: The ids the seed sweep runs, each with its named claims.
CLAIMS = {
    "e1": same_subnet_claims,
    "f6": figure6_claims,
    "f7": figure7_claims,
    "f3": routing_options_claims,
    "a1": foreign_agent_claims,
    "x1": smart_correspondent_claims,
    "x2": ha_scalability_claims,
    "x3": autoswitch_claims,
}


def main(argv) -> int:
    """Print each claim's pass count over N seeds; 1 if a gated one fails."""
    parser = argparse.ArgumentParser(
        prog="python -m tests.integration.test_paper_shapes")
    parser.add_argument("--seeds", type=int, default=20,
                        help="consecutive seeds from each id's default")
    seeds = parser.parse_args(argv).seeds
    gated_failure = False
    for name, claims_of in CLAIMS.items():
        failed_at: Dict[str, list] = {}
        for offset in range(seeds):
            report = run_experiment(name, seed=EXPERIMENTS[name].seed + offset)
            for claim, held in claims_of(report).items():
                failed_at.setdefault(claim, [])
                if not held:
                    failed_at[claim].append(offset)
        for claim, offsets in failed_at.items():
            line = f"{claim}: {seeds - len(offsets)}/{seeds}"
            if offsets:
                line += f" (fails at seed offsets {offsets})"
            if claim in UNGATED:
                line += " [not gated]"
            elif offsets:
                gated_failure = True
            print(line)
    return 1 if gated_failure else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
