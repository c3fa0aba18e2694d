"""Property tests for the x7 fleet-scale experiment.

Two contracts: the report is byte-identical at any worker count (the
``--jobs`` determinism promise), and an aggregate model's merged partials
equal the merge of per-host models over the same hosts (the lossless
aggregation promise that justifies modeling 10^6 hosts statistically).
"""

import math

import pytest

from repro.core.binding_shard import HashRing
from repro.experiments import run_experiment
from repro.sim import Simulator, s
from repro.stats import LatencyHistogram, Stats, merge_histograms, merge_stats
from repro.workloads.aggregate import AggregateHostModel

SMALL_SIZES = (1_000, 3_000)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_report_is_byte_identical_across_jobs(seed):
    reports = [
        run_experiment("x7", jobs=jobs, seed=seed, fleet_sizes=SMALL_SIZES,
                       shard_hosts=500, failover_fleet=2_000).format_report()
        for jobs in (1, 4)
    ]
    assert reports[0] == reports[1]


def test_seed_changes_the_report():
    reports = {
        run_experiment("x7", seed=seed, fleet_sizes=(2_000,),
                       shard_hosts=500, failover_fleet=None).format_report()
        for seed in (0, 1)
    }
    assert len(reports) == 2


def test_aggregate_model_merge_equals_per_host_merge():
    # One 40-host model vs forty 1-host models over the same global host
    # indices, same ring, same stream name and simulator seed: the sample
    # multiset must be identical, so integer summaries match exactly and
    # the Welford floats to within rounding.
    fleet = 40

    def build(n_hosts, offset):
        sim = Simulator(seed=5)
        ring = HashRing(["ha0", "ha1", "ha2", "ha3"])
        model = AggregateHostModel(sim, "xcheck", n_hosts,
                                   horizon=s(3600), fleet_hosts=fleet,
                                   host_offset=offset, ring=ring)
        model.run()
        return model.partials()

    whole = build(fleet, 0)
    parts = [build(1, host) for host in range(fleet)]

    for key in ("hosts", "registrations", "handoffs", "tunnel_bytes"):
        assert whole[key] == sum(part[key] for part in parts), key

    whole_stats = Stats(**whole["latency"])
    merged_stats = merge_stats([Stats(**part["latency"]) for part in parts])
    assert merged_stats.count == whole_stats.count
    assert merged_stats.minimum == whole_stats.minimum
    assert merged_stats.maximum == whole_stats.maximum
    assert math.isclose(merged_stats.mean, whole_stats.mean, rel_tol=1e-9)
    assert math.isclose(merged_stats.std, whole_stats.std, rel_tol=1e-9)

    merged_hist = merge_histograms(
        [LatencyHistogram.from_counts(part["latency_hist"])
         for part in parts])
    assert merged_hist.to_counts() == whole["latency_hist"]
