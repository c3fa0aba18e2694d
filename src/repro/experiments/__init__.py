"""Experiment harnesses: one module per measured figure/experiment.

* :mod:`repro.experiments.exp_registration` — Figure 7 (registration
  time-line, per-stage breakdown).
* :mod:`repro.experiments.exp_same_subnet` — the Section 4 same-subnet
  address switch (20 iterations, UDP every 10 ms).
* :mod:`repro.experiments.exp_device_switch` — Figure 6 (cold/hot device
  switching, packet-loss histograms, UDP every 250 ms).
* :mod:`repro.experiments.exp_routing_options` — the Section 3.2 routing
  options ablation (triangle route et al., plus the transit-filter
  fallback).
* :mod:`repro.experiments.exp_fa_ablation` — Section 5.1's foreign-agent
  packet-loss comparison.

Extension experiments (features the paper names but defers):

* :mod:`repro.experiments.exp_smart_correspondent` — reverse-path routing
  via smart correspondent hosts (Section 3.2 / 5.1).
* :mod:`repro.experiments.exp_ha_scalability` — the "large number of
  mobile hosts simultaneously" claim, quantified (Section 4).
* :mod:`repro.experiments.exp_autoswitch` — probe-cadence ablation for the
  automatic network selector (Section 6).
* :mod:`repro.experiments.exp_chaos` — session survival under injected
  faults (``repro.faults``): loss phases, flaps, home-agent restart.
* :mod:`repro.experiments.exp_tcp_cc` — TCP congestion-control sweep
  (Tahoe vs Reno vs CUBIC, SACK) over bursty loss and a mid-stream
  Ethernet-to-radio handoff.
* :mod:`repro.experiments.exp_fleet_scale` — 10^3-10^6-host fleets on a
  consistent-hash home-agent plane via aggregate host models.
* :mod:`repro.experiments.exp_plane_chaos` — membership churn,
  partitions and crashes thrown at the binding plane under live
  registration load, gated by the plane invariant auditor.
* :mod:`repro.experiments.exp_tcp_chaos` — the x5 fault grid over a
  receiver-limited RFC 9293 TCP session.

Each module builds its experiment as a list of independent trials and
merges their ordered results into a report.  :data:`EXPERIMENTS` names
every experiment by its CLI id, and :func:`run_experiment` is the one
driver: ``run_experiment("e1", jobs=4)`` is the report
``python -m repro.experiments e1 --jobs 4`` prints, and
``run_experiment("x4", seed=0, fleet_sizes=(120,))`` runs a reduced grid.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from repro.config import DEFAULT_CONFIG
from repro.experiments import (
    exp_autoswitch,
    exp_chaos,
    exp_device_switch,
    exp_fa_ablation,
    exp_fleet_scale,
    exp_ha_scalability,
    exp_plane_chaos,
    exp_registration,
    exp_routing_options,
    exp_same_subnet,
    exp_smart_correspondent,
    exp_tcp_cc,
    exp_tcp_chaos,
)
from repro.parallel import Trial, TrialRecord, run_trials
from repro.sim.units import ms


class Experiment(NamedTuple):
    """One CLI id: what it is called, and how its report is made."""

    title: str
    #: The base seed every trial seed derives from.
    seed: int
    #: The id's knobs at their defaults; both steps take every key.
    grid: dict
    #: ``build(seed=..., **grid)`` -> the ordered trials.
    build: Callable[..., List[Trial]]
    #: ``merge(results, **grid)`` -> the report.
    merge: Callable[..., object]


EXPERIMENTS = {
    "e1": Experiment(
        "Same-subnet address switch (Section 4)", 11,
        dict(iterations=20, probe_interval=ms(10)),
        exp_same_subnet.build_same_subnet_trials,
        exp_same_subnet.merge_same_subnet_trials),
    "f6": Experiment(
        "Device switching overhead (Figure 6)", 23,
        dict(iterations=exp_device_switch.PAPER_ITERATIONS),
        exp_device_switch.build_device_switch_trials,
        exp_device_switch.merge_device_switch_trials),
    "f7": Experiment(
        "Registration time-line (Figure 7)", 7,
        dict(iterations=10),
        exp_registration.build_registration_trials,
        exp_registration.merge_registration_trials),
    "f3": Experiment(
        "Routing options (Section 3.2 / Figure 3)", 31,
        dict(probes=20),
        exp_routing_options.build_routing_options_trials,
        exp_routing_options.merge_routing_options_trials),
    "a1": Experiment(
        "Foreign-agent ablation (Section 5.1)", 47,
        dict(iterations=10),
        exp_fa_ablation.build_fa_ablation_trials,
        exp_fa_ablation.merge_fa_ablation_trials),
    "x1": Experiment(
        "Smart correspondents: reverse-path routing (extension)", 67,
        dict(probes=30, config=DEFAULT_CONFIG),
        exp_smart_correspondent.build_smart_correspondent_trials,
        exp_smart_correspondent.merge_smart_correspondent_trials),
    "x2": Experiment(
        "Home-agent scalability (Section 4's claim, extension)", 83,
        dict(fleet_sizes=exp_ha_scalability.DEFAULT_FLEET_SIZES,
             config=DEFAULT_CONFIG),
        exp_ha_scalability.build_ha_scalability_trials,
        exp_ha_scalability.merge_ha_scalability_trials),
    "x3": Experiment(
        "Auto-switch probe cadence ablation (Section 6, extension)", 71,
        dict(intervals_ms=exp_autoswitch.DEFAULT_INTERVALS_MS,
             config=DEFAULT_CONFIG),
        exp_autoswitch.build_autoswitch_trials,
        exp_autoswitch.merge_autoswitch_trials),
    "x4": Experiment(
        "Home-agent fleet sweep: 100-1000 hosts, sharded (extension)", 97,
        dict(fleet_sizes=exp_ha_scalability.LARGE_FLEET_SIZES,
             config=DEFAULT_CONFIG),
        exp_ha_scalability.build_ha_fleet_sweep_trials,
        exp_ha_scalability.merge_ha_fleet_sweep_trials),
    "x5": Experiment(
        "Chaos sweep: fault injection and recovery (extension)", 97,
        dict(loss_rates=exp_chaos.DEFAULT_LOSS_RATES,
             flap_periods_ms=exp_chaos.DEFAULT_FLAP_PERIODS_MS,
             config=DEFAULT_CONFIG),
        exp_chaos.build_chaos_trials,
        exp_chaos.merge_chaos_trials),
    "x6": Experiment(
        "TCP congestion control: Tahoe/Reno/CUBIC over mobility "
        "(extension)", 113,
        dict(ccs=exp_tcp_cc.DEFAULT_CCS,
             loss_rates=exp_tcp_cc.DEFAULT_LOSS_RATES,
             handoffs=exp_tcp_cc.DEFAULT_HANDOFFS,
             config=DEFAULT_CONFIG),
        exp_tcp_cc.build_tcp_cc_trials,
        exp_tcp_cc.merge_tcp_cc_trials),
    "x7": Experiment(
        "Fleet scale: 10^3-10^6 aggregate hosts on a consistent-hash "
        "home-agent plane (extension)", 29,
        dict(fleet_sizes=exp_fleet_scale.DEFAULT_FLEET_SIZES,
             shard_hosts=exp_fleet_scale.AGGREGATE_SHARD_HOSTS,
             failover_fleet=exp_fleet_scale.DEFAULT_FAILOVER_FLEET),
        exp_fleet_scale.build_fleet_scale_trials,
        exp_fleet_scale.merge_fleet_scale_trials),
    "x8": Experiment(
        "Plane chaos: membership churn, partitions and crashes under "
        "live registration load, audited (extension)", 71,
        dict(fleet_sizes=exp_plane_chaos.DEFAULT_FLEET_SIZES,
             shard_hosts=exp_plane_chaos.SHARD_HOSTS),
        exp_plane_chaos.build_plane_chaos_trials,
        exp_plane_chaos.merge_plane_chaos_trials),
    "x9": Experiment(
        "TCP chaos: the x5 fault grid over a windowed RFC 9293 "
        "session (extension)", 131,
        dict(loss_rates=exp_tcp_chaos.DEFAULT_LOSS_RATES,
             flap_periods_ms=exp_tcp_chaos.DEFAULT_FLAP_PERIODS_MS,
             config=DEFAULT_CONFIG),
        exp_tcp_chaos.build_tcp_chaos_trials,
        exp_tcp_chaos.merge_tcp_chaos_trials),
}


def run_experiment(name: str, jobs: int = 1, seed: Optional[int] = None,
                   record: Optional[TrialRecord] = None, **overrides):
    """Build experiment *name*'s trials, run them on *jobs* workers and
    merge the results into its report.

    *seed* replaces the id's base seed, and each keyword replaces one key
    of its grid; a key the grid does not have is a :class:`TypeError`.
    Given a *record*, every trial's measurements are folded into it (what
    ``--metrics`` and ``--profile`` print).  The report, and the record's
    metrics and policy tables, are byte-identical at any *jobs*.
    """
    experiment = EXPERIMENTS[name]
    unknown = sorted(overrides.keys() - experiment.grid.keys())
    if unknown:
        raise TypeError(f"experiment {name} has no grid key "
                        f"{', '.join(unknown)}; its keys are "
                        f"{', '.join(experiment.grid)}")
    grid = {**experiment.grid, **overrides}
    trials = experiment.build(
        seed=experiment.seed if seed is None else seed, **grid)
    return experiment.merge(run_trials(trials, jobs, record), **grid)
