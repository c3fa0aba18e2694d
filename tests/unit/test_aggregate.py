"""Unit tests for aggregate host models and the mergeable histogram."""

import math

import pytest

from repro.core.binding_shard import HashRing
from repro.sim import Simulator, s
from repro.stats import (HISTOGRAM_GROWTH, LatencyHistogram, Stats,
                         merge_histograms, merge_stats)
from repro.workloads.aggregate import AggregateHostModel, _SplitMix

HORIZON = s(600)
#: A one-replica plane: every host queues at ``ha0``.
SINGLE_AGENT = HashRing(["ha0"])


class TestLatencyHistogram:
    def test_quantile_reports_the_bucket_upper_edge(self):
        histogram = LatencyHistogram()
        for value in (1.0, 2.0, 3.0, 100.0):
            histogram.add(value)
        p50 = histogram.quantile(0.5)
        assert p50 == histogram.bucket_edge(histogram.bucket_index(2.0))
        assert histogram.quantile(1.0) >= 100.0

    def test_true_quantile_lies_within_one_bucket(self):
        histogram = LatencyHistogram()
        values = [0.1 * (index + 1) for index in range(1000)]
        for value in values:
            histogram.add(value)
        p99 = histogram.quantile(0.99)
        true_p99 = values[989]
        assert true_p99 <= p99 <= true_p99 * HISTOGRAM_GROWTH ** 2

    def test_merge_equals_single_histogram(self):
        left, right, combined = (LatencyHistogram() for _ in range(3))
        for index in range(500):
            value = 0.06 * 1.05 ** (index % 80)
            (left if index % 2 else right).add(value)
            combined.add(value)
        merged = merge_histograms([left, right])
        assert merged.to_counts() == combined.to_counts()
        assert merged.quantile(0.99) == combined.quantile(0.99)

    def test_counts_round_trip(self):
        histogram = LatencyHistogram()
        for value in (0.01, 1.0, 5.0, 1e6):
            histogram.add(value)
        rebuilt = LatencyHistogram.from_counts(histogram.to_counts())
        assert rebuilt.to_counts() == histogram.to_counts()
        assert rebuilt.total == 4

    def test_empty_histogram_quantile_is_zero(self):
        assert LatencyHistogram().quantile(0.99) == 0.0
        with pytest.raises(ValueError, match="quantile"):
            LatencyHistogram().quantile(1.5)


class TestSplitMix:
    def test_stream_is_reproducible(self):
        assert [_SplitMix(42).random() for _ in range(5)] == \
               [_SplitMix(42).random() for _ in range(5)]

    def test_values_stay_in_unit_interval(self):
        rng = _SplitMix(7)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= value < 1.0 for value in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_expovariate_mean_is_roughly_right(self):
        rng = _SplitMix(3)
        samples = [rng.expovariate(10.0) for _ in range(5000)]
        assert 9.0 < sum(samples) / len(samples) < 11.0


def build_model(seed=11, n_hosts=200, **kwargs):
    sim = Simulator(seed=seed)
    kwargs.setdefault("horizon", HORIZON)
    kwargs.setdefault("ring", SINGLE_AGENT)
    return AggregateHostModel(sim, "fleet", n_hosts, **kwargs)


class TestAggregateHostModel:
    def test_same_seed_same_partials(self):
        first = build_model()
        second = build_model()
        first.run()
        second.run()
        assert first.partials() == second.partials()

    def test_different_model_names_draw_independent_streams(self):
        sim = Simulator(seed=11)
        a = AggregateHostModel(sim, "alpha", 100, horizon=HORIZON,
                               ring=SINGLE_AGENT)
        b = AggregateHostModel(sim, "beta", 100, horizon=HORIZON,
                               ring=SINGLE_AGENT)
        a.run()
        b.run()
        assert a.partials() != b.partials()

    def test_run_twice_raises(self):
        model = build_model()
        model.run()
        with pytest.raises(RuntimeError, match="already ran"):
            model.run()

    def test_partials_shape_is_mergeable(self):
        model = build_model()
        model.run()
        partial = model.partials()
        assert set(partial) == {"hosts", "registrations", "handoffs",
                                "tunnel_bytes", "saturated_agents",
                                "latency", "latency_hist"}
        stats = AggregateHostModel.stats_from_partial(partial)
        assert isinstance(stats, Stats)
        assert stats.count == partial["latency"]["count"]
        assert stats.count == sum(partial["latency_hist"].values())

    def test_fleet_load_deepens_the_tail(self):
        # Same hosts, but standing in for a fleet 500x larger: utilization
        # at the shared plane rises, so queueing pushes p99 up.
        light = build_model()
        heavy = build_model(fleet_hosts=100_000)
        light.run()
        heavy.run()
        assert heavy.latency_hist.quantile(0.99) > \
            light.latency_hist.quantile(0.99)

    def test_failed_agent_shifts_load_to_survivors(self):
        ring = HashRing(["ha0", "ha1", "ha2", "ha3"])
        healthy = build_model(ring=ring, fleet_hosts=80_000)
        degraded = build_model(ring=ring, fleet_hosts=80_000,
                               failed_agents=frozenset({"ha0"}))
        waits = degraded.mean_wait_by_agent()
        assert "ha0" not in waits
        for agent, wait in healthy.mean_wait_by_agent().items():
            if agent != "ha0":
                assert waits[agent] > wait
        healthy.run()
        degraded.run()
        assert degraded.latency_hist.quantile(0.99) > \
            healthy.latency_hist.quantile(0.99)

    def test_saturation_is_capped_and_counted(self):
        model = build_model(fleet_hosts=10_000_000)
        waits = model.mean_wait_by_agent()
        assert model.saturated_agents == 1  # the single agent, ha0
        assert all(math.isfinite(wait) for wait in waits.values())

    def test_zero_hosts_is_a_clean_no_op(self):
        model = build_model(n_hosts=0)
        model.run()
        partial = model.partials()
        assert partial["registrations"] == 0
        assert partial["latency"]["count"] == 0

    def test_constructor_rejects_bad_arguments(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError, match="n_hosts"):
            AggregateHostModel(sim, "fleet", -1, horizon=HORIZON,
                               ring=SINGLE_AGENT)
        with pytest.raises(ValueError, match="horizon"):
            AggregateHostModel(sim, "fleet", 10, horizon=0,
                               ring=SINGLE_AGENT)

    def test_publish_creates_lazy_counters(self):
        sim = Simulator(seed=11)
        model = AggregateHostModel(sim, "fleet", 50, horizon=HORIZON,
                                   ring=SINGLE_AGENT)
        model.run()
        counter = sim.metrics.counter("aggregate", "registrations",
                                      model="fleet")
        assert counter.value == model.registrations > 0

    def test_partition_offsets_reproduce_per_host_draws(self):
        # Host h's samples depend on (base seed, h) only: splitting the
        # same hosts across models at different offsets merges losslessly.
        whole = build_model(seed=5, n_hosts=60, fleet_hosts=60)
        whole.run()
        parts = []
        for offset in (0, 20, 40):
            part = build_model(seed=5, n_hosts=20, fleet_hosts=60,
                               host_offset=offset)
            part.run()
            parts.append(part)
        merged = merge_stats([part.latency.finalize() for part in parts])
        assert merged.count == whole.latency.finalize().count
        hist = merge_histograms([part.latency_hist for part in parts])
        assert hist.to_counts() == whole.latency_hist.to_counts()
