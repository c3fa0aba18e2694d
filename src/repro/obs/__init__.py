"""Observability: metrics registry, profiling hooks and exporters.

The trace (``repro.sim.trace``) records *what happened*; this package
aggregates *how much and how long* — counters, gauges and histograms owned
by each :class:`~repro.sim.engine.Simulator` (``sim.metrics``), plus
exporters for machines (JSONL, flat snapshot) and humans
(``format_report``, surfaced by ``python -m repro.experiments --metrics``).
"""

from repro.obs.capture import capture_simulators, note_simulator
from repro.obs.export import (
    format_policy_table,
    format_policy_tables,
    format_report,
    snapshot_to_json,
    trace_to_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "capture_simulators",
    "note_simulator",
    "format_report",
    "format_policy_table",
    "format_policy_tables",
    "snapshot_to_json",
    "trace_to_jsonl",
]
