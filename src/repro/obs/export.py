"""Exporters: JSONL trace dumps, flat snapshots, human-readable reports.

Three consumers, three formats:

* **Machines replaying a run** read the trace as JSON Lines
  (:func:`trace_to_jsonl`) — one record per line, stable field order,
  greppable.
* **Tests and diff tools** read the flat snapshot
  (:func:`snapshot` — just the registry's own ``snapshot()``, re-exported
  here for symmetry) and its canonical serialization
  (:func:`snapshot_to_json`), which is byte-identical across same-seed
  runs.
* **Humans** read :func:`format_report`, a per-component table printed by
  ``python -m repro.experiments --metrics``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.trace import Trace, TraceRecord


# ------------------------------------------------------------------ trace dump

def trace_record_to_dict(record: TraceRecord) -> Dict[str, object]:
    """One trace record as a JSON-ready dict with stable field order.

    :meth:`~repro.sim.trace.Trace.emit` has already rendered every field
    to a plain JSON value.
    """
    return {"time": record.time, "category": record.category,
            "event": record.event,
            "fields": {key: record.fields[key] for key in sorted(record.fields)}}


def trace_to_jsonl(trace: Trace) -> str:
    """The whole trace as JSON Lines (one record per line)."""
    return "".join(json.dumps(trace_record_to_dict(record),
                              separators=(",", ":")) + "\n"
                   for record in trace.records)


# ------------------------------------------------------------------- snapshot

def snapshot_to_json(registry: MetricsRegistry) -> str:
    """Canonical JSON serialization — byte-identical for same-seed runs."""
    return json.dumps(registry.snapshot(), sort_keys=True,
                      separators=(",", ":"))


# --------------------------------------------------------------- human report

def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def format_report(registry: MetricsRegistry, title: str = "metrics") -> str:
    """A per-component, human-readable report of every metric.

    Counters and gauges print one line each; histograms print count, mean,
    min/max and the non-empty buckets.  Components and metric keys are
    sorted, so the report is deterministic too.
    """
    by_component: Dict[str, List] = {}
    for metric in registry:
        by_component.setdefault(metric.component, []).append(metric)

    lines: List[str] = [f"=== {title} ==="]
    if not by_component:
        lines.append("  (no metrics recorded)")
        return "\n".join(lines)

    for component in sorted(by_component):
        lines.append(f"[{component}]")
        for metric in sorted(by_component[component], key=lambda m: m.key):
            label = metric.key[len(component) + 1:]  # strip "component/"
            if isinstance(metric, Counter):
                lines.append(f"  {label:<44} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"  {label:<44} {_format_value(metric.value)}")
            elif isinstance(metric, Histogram):
                lines.append(
                    f"  {label:<44} count={metric.count}"
                    f" mean={metric.mean:.3f}"
                    f" min={_format_value(metric.minimum) if metric.minimum is not None else '-'}"
                    f" max={_format_value(metric.maximum) if metric.maximum is not None else '-'}")
                if metric.count:
                    buckets = " ".join(
                        f"{name}:{value}"
                        for name, value in metric.cumulative_buckets()
                        if value)
                    lines.append(f"  {'':<4}buckets {buckets}")
    return "\n".join(lines)


def format_policy_table(snap: Dict) -> str:
    """One Mobile Policy Table's
    :meth:`~repro.core.policy.MobilePolicyTable.snapshot` as a
    human-readable block: owner, default mode, and every entry with its
    origin, in the style of :func:`format_report`, for the ``--metrics``
    report.
    """
    owner = snap["owner"] or "(unowned)"
    lines: List[str] = [f"[policy table: {owner}]",
                        f"  {'default':<44} {snap['default_mode']}"]
    if not snap["entries"]:
        lines.append("  (no entries)")
        return "\n".join(lines)
    for entry in snap["entries"]:
        label = f"{entry['destination']} -> {entry['mode']}"
        lines.append(f"  {label:<44} origin={entry['origin']}")
    return "\n".join(lines)


def format_policy_tables(snapshots: Iterable[Dict]) -> str:
    """Every policy table snapshot, one block each."""
    return "\n".join(format_policy_table(snap) for snap in snapshots)
