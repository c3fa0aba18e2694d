"""Unit tests for the repro.obs metrics registry and exporters."""

import json
import pickle

import pytest

from repro.obs import MetricsRegistry, format_report, snapshot_to_json
from repro.obs.export import trace_to_jsonl
from repro.obs.metrics import Histogram
from repro.sim import Simulator, ms, s
from repro.testbed import build_testbed


# ------------------------------------------------------------------- counters

def test_counter_counts_and_is_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("tcp", "retransmits", host="mh")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_get_or_create_returns_same_object():
    registry = MetricsRegistry()
    first = registry.counter("ip", "forwards", host="router")
    second = registry.counter("ip", "forwards", host="router")
    assert first is second


def test_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("ip", "forwards")
    with pytest.raises(TypeError):
        registry.gauge("ip", "forwards")
    with pytest.raises(TypeError):
        registry.histogram("ip", "forwards")


# ------------------------------------------------------------ pulled counters

class Slots:
    """A component that keeps its facts as plain ints."""

    FIELDS = (("link", "tx_frames", (), "sent"),
              ("link", "drops", (("cause", "loss"),), ("drops", "loss")))

    def __init__(self, registry, name, sent=0):
        self.sent = sent
        self.drops = {"loss": 0}
        registry.register(self, self.FIELDS, link=name)


def test_register_keeps_no_per_owner_label_object():
    registry = MetricsRegistry()
    owners = [Slots(registry, f"net-{index % 7}") for index in range(50)]
    assert registry._label_sets == {}
    (fields, key, kept, values), = registry._owners.values()
    assert fields is Slots.FIELDS and key == "link"
    assert kept == owners
    assert values == [f"net-{index % 7}" for index in range(50)]
    assert registry.snapshot()["link/tx_frames{link=net-3}"] == 0
    assert registry._label_sets == {}


def test_zero_slot_is_reported():
    registry = MetricsRegistry()
    Slots(registry, "net-a")
    snap = registry.snapshot()
    assert snap["link/tx_frames{link=net-a}"] == 0
    assert snap["link/drops{cause=loss,link=net-a}"] == 0
    assert "tx_frames{link=net-a}" in format_report(registry)


def test_owners_with_one_identity_sum():
    registry = MetricsRegistry()
    Slots(registry, "net-a", sent=2)
    Slots(registry, "net-a", sent=3)
    assert registry.snapshot()["link/tx_frames{link=net-a}"] == 5
    assert len(registry) == 2


def test_owner_and_handle_sum_without_moving_the_handle():
    registry = MetricsRegistry()
    Slots(registry, "net-a", sent=2)
    handle = registry.counter("link", "tx_frames", link="net-a")
    handle.inc(4)
    assert registry.get("link", "tx_frames", link="net-a").value == 6
    assert registry.snapshot()["link/tx_frames{link=net-a}"] == 6
    assert handle.value == 4


def test_pulled_counter_clashing_with_a_gauge_raises():
    registry = MetricsRegistry()
    Slots(registry, "net-a")
    registry.gauge("link", "tx_frames", link="net-a")
    with pytest.raises(TypeError):
        registry.snapshot()
    with pytest.raises(TypeError):
        registry.get("link", "tx_frames", link="net-a")


def test_get_and_find_read_the_current_int():
    registry = MetricsRegistry()
    owner = Slots(registry, "net-a")
    Slots(registry, "net-b")
    owner.sent = 7
    owner.drops["loss"] = 1
    assert registry.get("link", "tx_frames", link="net-a").value == 7
    assert registry.get("link", "drops", link="net-a", cause="loss").value == 1
    assert registry.get("link", "tx_frames", link="net-c") is None
    found = registry.find("link", "tx_frames")
    assert sorted((m.key, m.value) for m in found) == [
        ("link/tx_frames{link=net-a}", 7), ("link/tx_frames{link=net-b}", 0)]
    owner.sent += 1
    assert registry.get("link", "tx_frames", link="net-a").value == 8
    assert registry.find("link", "tx_frames")[0].value == 8


def test_merged_registry_pickles_without_owners():
    sim = Simulator(seed=5)
    testbed = build_testbed(sim)
    testbed.visit_dept()
    sim.run_for(s(2))
    merged = MetricsRegistry.merged([sim.metrics])
    assert not merged._owners
    restored = pickle.loads(pickle.dumps(merged))
    assert restored.snapshot() == sim.metrics.snapshot()
    assert restored.snapshot()["registration/attempts{host=mh}"] > 0


# ----------------------------------------------------------------- histograms

def test_histogram_buckets_are_cumulative():
    hist = Histogram("handoff", "latency_ms", (), (1, 10, 100))
    for value in (0.5, 5, 5, 50, 5000):
        hist.observe(value)
    assert hist.count == 5
    assert hist.mean == pytest.approx((0.5 + 5 + 5 + 50 + 5000) / 5)
    assert hist.minimum == 0.5 and hist.maximum == 5000
    assert hist.cumulative_buckets() == [
        ("le_1", 1), ("le_10", 3), ("le_100", 4), ("le_inf", 5)]


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("x", "y", (), (10, 1))


# ------------------------------------------------------------ label isolation

def test_labels_isolate_metrics():
    registry = MetricsRegistry()
    a = registry.counter("link", "tx_frames", link="net-a")
    b = registry.counter("link", "tx_frames", link="net-b")
    a.inc(3)
    assert b.value == 0
    snap = registry.snapshot()
    assert snap["link/tx_frames{link=net-a}"] == 3
    assert snap["link/tx_frames{link=net-b}"] == 0


def test_label_order_does_not_matter():
    registry = MetricsRegistry()
    first = registry.counter("x", "y", a="1", b="2")
    second = registry.counter("x", "y", b="2", a="1")
    assert first is second


# ------------------------------------------------------------------ snapshots

def test_snapshot_keys_are_sorted():
    registry = MetricsRegistry()
    registry.counter("z", "last")
    registry.counter("a", "first")
    keys = list(registry.snapshot())
    assert keys == sorted(keys)


def test_snapshot_flattens_histograms():
    registry = MetricsRegistry()
    hist = registry.histogram("reg", "latency_ms")
    hist.observe(4)
    snap = registry.snapshot()
    assert snap["reg/latency_ms:count"] == 1
    assert snap["reg/latency_ms:sum"] == 4
    assert snap["reg/latency_ms:le_10"] == 1
    assert snap["reg/latency_ms:le_inf"] == 1


def test_same_seed_runs_produce_byte_identical_snapshots():
    def one_run():
        sim = Simulator(seed=99)
        testbed = build_testbed(sim)
        testbed.visit_dept()
        sim.run_for(s(4))
        return snapshot_to_json(sim.metrics)

    assert one_run() == one_run()


def test_different_seeds_may_differ_but_share_keys():
    def keys_for(seed):
        sim = Simulator(seed=seed)
        testbed = build_testbed(sim)
        testbed.visit_dept()
        sim.run_for(s(2))
        return set(sim.metrics.snapshot())

    assert keys_for(1) == keys_for(2)


# -------------------------------------------------------------------- merging

def test_merged_registries_sum_counters_and_histograms():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("ip", "forwards").inc(2)
    b.counter("ip", "forwards").inc(3)
    b.counter("ip", "ttl_drops").inc(1)
    a.histogram("h", "lat").observe(1)
    b.histogram("h", "lat").observe(2)
    merged = MetricsRegistry.merged([a, b])
    snap = merged.snapshot()
    assert snap["ip/forwards"] == 5
    assert snap["ip/ttl_drops"] == 1
    assert snap["h/lat:count"] == 2
    # Merging mutates neither source.
    assert a.snapshot()["ip/forwards"] == 2


# ------------------------------------------------------------------ exporters

def test_format_report_groups_by_component():
    registry = MetricsRegistry()
    registry.counter("tcp", "retransmits", host="mh").inc(2)
    registry.histogram("registration", "latency_ms", host="mh").observe(4.8)
    report = format_report(registry)
    assert "[tcp]" in report and "[registration]" in report
    assert "retransmits{host=mh}" in report
    assert "count=1" in report


def test_trace_jsonl_round_trips():
    sim = Simulator(seed=1)
    sim.trace.emit("ip", "send", host="mh", size=100)
    sim.call_later(ms(1), lambda: None)
    sim.run()
    lines = trace_to_jsonl(sim.trace).strip().splitlines()
    assert len(lines) == len(sim.trace.records)
    first = json.loads(lines[0])
    assert first["category"] == "ip" and first["event"] == "send"
    assert first["fields"]["host"] == "mh"
