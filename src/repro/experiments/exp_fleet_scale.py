"""Fleet scale (x7): 10^3-10^6 hosts on a consistent-hash HA plane.

The paper closes with "the home agent should be able to deal with a
large number of mobile hosts"; x2 quantified that for one agent and x4
sharded real object-graph fleets to 10^3.  This experiment pushes three
more orders of magnitude by swapping per-host simulation for
:class:`~repro.workloads.aggregate.AggregateHostModel` — one object per
*shard* of hosts, generating the fleet's registration arrival, binding
churn and tunnel-volume processes statistically — served by a
:class:`~repro.core.binding_shard.HashRing` of home-agent replicas
(the plane a real deployment would run).

Per fleet size the report gives the offered registration rate
(registrations/second across the plane) and the **p99 binding latency**,
which the M/D/1 queueing model makes sensitive to per-replica load: ring
imbalance, fleet growth and failed-replica takeover all surface in the
tail.  A final row re-runs the 10^5 fleet with one replica crashed, so
the takeover path's cost is a number, not a claim.

Sharding: fleets larger than :data:`AGGREGATE_SHARD_HOSTS` split into
balanced aggregate shards, one :class:`~repro.parallel.Trial` each.
Shard seeds are ``spawn_seed(base, row_index, shard_index)`` and every
per-host draw inside a model comes from a stream keyed by the model's
base seed and the host's index, so ``--jobs N`` reports stay
byte-identical to serial at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.config import Config, DEFAULT_CONFIG
from repro.core.binding_shard import HashRing
from repro.experiments.harness import format_table
from repro.parallel import Trial, balanced_shards, spawn_seed
from repro.sim.engine import Simulator
from repro.sim.units import s
from repro.stats import LatencyHistogram, Stats, merge_stats
from repro.workloads.aggregate import AggregateHostModel

#: The sweep: three orders of magnitude past the x4 per-host ceiling.
DEFAULT_FLEET_SIZES = (1_000, 10_000, 100_000, 1_000_000)
#: Hosts per aggregate shard: the 10^6 fleet becomes 8 trials, smaller
#: fleets stay single-shard.
AGGREGATE_SHARD_HOSTS = 125_000
#: Fleet size for the degraded (one replica crashed) row; ``None``
#: disables the row.
DEFAULT_FAILOVER_FLEET = 100_000
#: Hosts one home-agent replica is provisioned for; sets replica count.
HOSTS_PER_AGENT = 50_000
#: Smallest plane: even a 10^3-host fleet runs the sharded architecture.
MIN_AGENTS = 4

HORIZON = s(30)


def agent_count_for(fleet_size: int) -> int:
    """Replicas provisioned for a fleet: ~1 per 50k hosts, at least 4."""
    return max(MIN_AGENTS, -(-fleet_size // HOSTS_PER_AGENT))


def agent_names(count: int) -> List[str]:
    """The replica naming scheme shared by trials and reports."""
    return [f"ha{index}" for index in range(count)]


@dataclass
class FleetScalePoint:
    """One fleet size, merged across its aggregate shards."""

    fleet_size: int
    agents: int
    failed: int
    shards: int
    registrations: int
    handoffs: int
    registrations_per_sec: float
    latency: Stats
    p99_ms: float
    tunnel_mbytes: float
    saturated_agents: int


@dataclass
class FleetScaleReport:
    points: List[FleetScalePoint] = field(default_factory=list)

    def format_report(self) -> str:
        """Render the scaling table (plus the takeover row when present)."""
        rows = []
        for point in self.points:
            label = (f"{point.fleet_size:,}" if not point.failed
                     else f"{point.fleet_size:,} ({point.failed} HA down)")
            rows.append((label, point.agents, point.shards,
                         f"{point.registrations:,}",
                         f"{point.registrations_per_sec:,.1f}",
                         point.latency.format_ms(),
                         f"{point.p99_ms:.2f}",
                         f"{point.tunnel_mbytes:,.1f}",
                         "yes" if point.saturated_agents else "no"))
        table = format_table(
            ("fleet hosts", "HAs", "shards", "registrations", "regs/sec",
             "binding latency ms: mean (std)", "p99 ms", "tunnel MB",
             "saturated"), rows)
        return ("Fleet scale: aggregate hosts on a consistent-hash "
                "home-agent plane (30 s horizon)\n" + table)


def run_fleet_scale_trial(fleet_size: int, n_hosts: int, host_offset: int,
                          agents: int, failed: Tuple[str, ...], seed: int,
                          config: Config = DEFAULT_CONFIG) -> dict:
    """One aggregate shard as a pure trial: (params, seed) -> partials."""
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    ring = HashRing(agent_names(agents))
    model = AggregateHostModel(sim, "fleet", n_hosts,
                               horizon=HORIZON,
                               fleet_hosts=fleet_size,
                               host_offset=host_offset,
                               ring=ring,
                               failed_agents=frozenset(failed),
                               config=config)
    model.run()
    result = model.partials()
    result["fleet_size"] = fleet_size
    result["agents"] = agents
    result["failed"] = len(failed)
    return result


def _row_trials(row_index: int, fleet_size: int, failed: Tuple[str, ...],
                seed: int, shard_hosts: int) -> List[Trial]:
    """The balanced shard trials of one report row."""
    trials: List[Trial] = []
    agents = agent_count_for(fleet_size)
    offset = 0
    for shard_index, shard_size in enumerate(
            balanced_shards(fleet_size, shard_hosts)):
        trials.append(Trial(
            "repro.experiments.exp_fleet_scale:run_fleet_scale_trial",
            dict(fleet_size=fleet_size, n_hosts=shard_size,
                 host_offset=offset, agents=agents, failed=failed,
                 seed=spawn_seed(seed, row_index, shard_index),
                 config=DEFAULT_CONFIG)))
        offset += shard_size
    return trials


def build_fleet_scale_trials(fleet_sizes: Sequence[int], seed: int,
                             shard_hosts: int,
                             failover_fleet: Optional[int]) -> List[Trial]:
    """All rows' trials: the sweep plus the optional one-HA-down row.

    Seeds are ``spawn_seed(base, row, shard)`` — pure functions of the
    trial's logical position, never of worker count.
    """
    trials: List[Trial] = []
    for row_index, fleet_size in enumerate(fleet_sizes):
        trials.extend(_row_trials(row_index, fleet_size, (), seed,
                                  shard_hosts))
    if failover_fleet:
        trials.extend(_row_trials(len(fleet_sizes), failover_fleet,
                                  ("ha0",), seed, shard_hosts))
    return trials


def merge_fleet_scale_trials(results: List[dict], fleet_sizes: Sequence[int],
                             shard_hosts: int,
                             failover_fleet: Optional[int]) -> FleetScaleReport:
    """Fold ordered shard partials into per-fleet rows, losslessly.

    ``Stats`` merge via Welford partials, histograms by bucket addition,
    everything else by summation — the same result any shard count (or
    worker count) produces.
    """
    report = FleetScaleReport()
    cursor = iter(results)
    rows: List[Tuple[int, int]] = [(size, 0) for size in fleet_sizes]
    if failover_fleet:
        rows.append((failover_fleet, 1))
    horizon_s = HORIZON / 1e9
    for fleet_size, failed in rows:
        shard_sizes = balanced_shards(fleet_size, shard_hosts)
        shard_results = [next(cursor) for _ in shard_sizes]
        registrations = sum(r["registrations"] for r in shard_results)
        histogram = LatencyHistogram()
        for result in shard_results:
            histogram.merge(LatencyHistogram.from_counts(
                result["latency_hist"]))
        report.points.append(FleetScalePoint(
            fleet_size=fleet_size,
            agents=shard_results[0]["agents"],
            failed=failed,
            shards=len(shard_sizes),
            registrations=registrations,
            handoffs=sum(r["handoffs"] for r in shard_results),
            registrations_per_sec=registrations / horizon_s,
            latency=merge_stats([Stats(**r["latency"])
                                 for r in shard_results]),
            p99_ms=histogram.quantile(0.99),
            tunnel_mbytes=sum(r["tunnel_bytes"]
                              for r in shard_results) / 1e6,
            saturated_agents=max(r["saturated_agents"]
                                 for r in shard_results),
        ))
    return report
