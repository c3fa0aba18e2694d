"""The benchmark's workloads: real experiment trials, run serially.

Each workload is a list of :class:`repro.parallel.Trial` built with the
experiments' own builders, plus the merge step that turns the ordered
trial results into the report ``python -m repro.experiments <id>``
prints.  Benchmark seed ``n`` is experiment base seed ``default + n``
(the CLI defaults: x8 71, x6 113, x9 131, x4 97), so seed 0 reproduces the CLI run exactly and is the seed whose digests
``expected.json`` pins.

``size="tiny"`` shrinks every workload to a few seconds of work for the
benchmark's own tests; it is never timed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple


class Workload(NamedTuple):
    #: (benchmark seed, size) -> the trials, in the experiment's order.
    trials: Callable[[int, str], list]
    #: Ordered trial results -> {report id: report text}.
    reports: Callable[[List[dict], str], Dict[str, str]]
    #: Ordered trial results -> (registrations accepted, attempted), or
    #: None when the results carry no registration outcome.
    registrations: Callable[[List[dict]], object]


# ----------------------------------------------------------------- plane_churn

PLANE_FLEET, PLANE_SHARD_HOSTS, PLANE_ROW = 2_500, 1_250, 3
TINY_PLANE_HOSTS = 50


def _plane_trials(seed: int, size: str) -> list:
    """Shard 0 of x8's (2,500 hosts, churn, partition) cell: grid row 3."""
    from repro.parallel import Trial, spawn_seed

    hosts = PLANE_SHARD_HOSTS if size == "full" else TINY_PLANE_HOSTS
    fleet = PLANE_FLEET if size == "full" else TINY_PLANE_HOSTS
    return [Trial("repro.experiments.exp_plane_chaos:run_plane_chaos_trial",
                  dict(fleet_size=fleet, n_hosts=hosts, host_offset=0,
                       churn=True, partition=True,
                       seed=spawn_seed(71 + seed, PLANE_ROW, 0)))]


def _plane_reports(results: List[dict], size: str) -> Dict[str, str]:
    return {}  # one shard of one cell: there is no merged report


def _plane_registrations(results: List[dict]):
    return (sum(r["accepted"] for r in results),
            sum(r["attempts"] for r in results))


# ---------------------------------------------------------------- tcp_mobility

def _tcp_trials(seed: int, size: str) -> list:
    """The full x6 grid (12 cells), then the full x9 grid (4 cells)."""
    from repro.config import DEFAULT_CONFIG
    from repro.experiments import exp_tcp_cc as x6
    from repro.experiments import exp_tcp_chaos as x9

    cc = x6.build_tcp_cc_trials(x6.DEFAULT_CCS, x6.DEFAULT_LOSS_RATES,
                                x6.DEFAULT_HANDOFFS, 113 + seed, DEFAULT_CONFIG)
    chaos = x9.build_tcp_chaos_trials(x9.DEFAULT_LOSS_RATES,
                                      x9.DEFAULT_FLAP_PERIODS_MS, 131 + seed,
                                      DEFAULT_CONFIG)
    if size != "full":
        cc, chaos = cc[:1], chaos[:1]
    return cc + chaos


def _tcp_reports(results: List[dict], size: str) -> Dict[str, str]:
    from repro.experiments.exp_tcp_cc import merge_tcp_cc_trials
    from repro.experiments.exp_tcp_chaos import merge_tcp_chaos_trials

    split = 12 if size == "full" else 1
    return {"x6": merge_tcp_cc_trials(results[:split]).format_report(),
            "x9": merge_tcp_chaos_trials(results[split:]).format_report()}


# -------------------------------------------------------------------- ha_fleet

TINY_FLEET = (20,)


def _ha_fleet_sizes(size: str) -> tuple:
    from repro.experiments.exp_ha_scalability import LARGE_FLEET_SIZES

    return LARGE_FLEET_SIZES if size == "full" else TINY_FLEET


def _ha_trials(seed: int, size: str) -> list:
    """The full x4 sweep: 100-1,000 hosts in 19 shards of <= 100."""
    from repro.config import DEFAULT_CONFIG
    from repro.experiments.exp_ha_scalability import build_ha_fleet_sweep_trials

    return build_ha_fleet_sweep_trials(_ha_fleet_sizes(size), 97 + seed,
                                       DEFAULT_CONFIG)


def _ha_reports(results: List[dict], size: str) -> Dict[str, str]:
    from repro.experiments.exp_ha_scalability import merge_ha_fleet_sweep_trials

    return {"x4": merge_ha_fleet_sweep_trials(results, _ha_fleet_sizes(size))
            .format_report()}


def _ha_registrations(results: List[dict]):
    # Every host of a shard registers exactly once.
    return (sum(r["accepted"] for r in results),
            sum(r["fleet_size"] for r in results))


WORKLOADS: Dict[str, Workload] = {
    "plane_churn": Workload(_plane_trials, _plane_reports, _plane_registrations),
    "tcp_mobility": Workload(_tcp_trials, _tcp_reports, lambda results: None),
    "ha_fleet": Workload(_ha_trials, _ha_reports, _ha_registrations),
}
