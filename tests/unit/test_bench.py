"""Unit/smoke tests for the repro.bench package."""

import json

from repro.bench.engine_bench import _run_workload, run_engine_bench
from repro.bench.guard import (
    CACHE_METRIC_PREFIX,
    GUARD_CONFIGS,
    canonical_json,
    strip_cache_metrics,
)
from repro.sim import Simulator


class TestEngineWorkload:
    def test_workload_dispatches_a_fixed_event_sequence(self):
        first, second = Simulator(), Simulator()
        a = _run_workload(first, 3_000)
        b = _run_workload(second, 3_000)
        assert a["events_run"] == b["events_run"] >= 3_000
        assert first.metrics.snapshot() == second.metrics.snapshot()

    def test_workload_reports_sane_figures(self):
        result = _run_workload(Simulator(), 2_000)
        assert result["wall_ns"] > 0
        assert result["ns_per_event"] > 0
        assert result["events_per_sec"] > 0

    def test_engine_bench_reports_one_heap_row(self):
        doc = run_engine_bench(quick=True)
        assert set(doc) == {"bench", "workload", "heap"}
        assert doc["heap"]["events_run"] >= doc["workload"]["n_events"]
        assert doc["heap"]["ns_per_event"] > 0
        assert doc["heap"]["events_per_sec"] > 0


class TestGuardHelpers:
    def test_strip_cache_metrics_drops_only_diagnostics(self):
        snapshot = {
            f"{CACHE_METRIC_PREFIX}{{host=mh,result=hit}}": 9,
            f"{CACHE_METRIC_PREFIX}{{host=mh,result=miss}}": 2,
            "policy/lookups{host=mh,mode=tunnel,result=hit}": 11,
            "ip/packets_sent{host=mh}": 40,
        }
        stripped = strip_cache_metrics(snapshot)
        assert stripped == {
            "policy/lookups{host=mh,mode=tunnel,result=hit}": 11,
            "ip/packets_sent{host=mh}": 40,
        }

    def test_guard_varies_only_the_caches(self):
        assert [name for name, _, _ in GUARD_CONFIGS] == ["caches", "nocache"]

    def test_canonical_json_is_order_insensitive_and_compact(self):
        a = canonical_json({"b": 1, "a": 2})
        b = canonical_json({"a": 2, "b": 1})
        assert a == b == '{"a":2,"b":1}'
        assert json.loads(a) == {"a": 2, "b": 1}


class TestAuditedChurnStage:
    def test_quick_stage_gates_and_reports(self):
        from repro.bench.fleet_bench import run_audited_churn_stage

        doc = run_audited_churn_stage(quick=True)
        assert doc["violations"] == 0
        assert doc["rerun_identical"]
        assert doc["faults_injected"] == 4
        assert doc["registrations"] > 0
        assert doc["takeovers"] > 0
