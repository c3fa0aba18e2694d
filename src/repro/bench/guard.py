"""Same-seed determinism guard for the fast path.

An optimisation that changes *results* is a bug wearing a speedup's
clothes.  This guard re-runs one seeded scenario with the policy and
routing lookup caches on and off, and asserts the metric snapshots
serialize byte-identically once the documented cache-diagnostic counters
are stripped.

The stripped keys are exactly the ``policy/lookup_cache`` counters: they
exist *because* the cache does, so they legitimately differ when the cache
is disabled.  Everything else — packet counts, handoff latencies, dispatch
totals, queue depths — must not move by a single byte.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.bench.datapath_bench import run_scenario

#: Snapshot-key prefix of the cache diagnostics the guard ignores.
CACHE_METRIC_PREFIX = "policy/lookup_cache"

#: (name, policy_cache_size, route_cache_size) per configuration.
GUARD_CONFIGS = [
    ("caches", 128, 256),
    ("nocache", 0, 0),
]


def strip_cache_metrics(snapshot: Dict[str, object]) -> Dict[str, object]:
    """Drop the cache-diagnostic counters from a metrics snapshot."""
    return {key: value for key, value in snapshot.items()
            if not key.startswith(CACHE_METRIC_PREFIX)}


def canonical_json(snapshot: Dict[str, object]) -> str:
    """Byte-stable serialization used for the identity comparison."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def run_determinism_guard(seed: int = 0) -> Dict[str, object]:
    """Run the scenario under every configuration; returns the verdict doc.

    ``passed`` is True iff every configuration's stripped snapshot is
    byte-identical to the reference (caches on).
    """
    runs: List[Dict[str, object]] = []
    reference_json = None
    for name, policy_cache, route_cache in GUARD_CONFIGS:
        sim = run_scenario(seed=seed, policy_cache=policy_cache,
                           route_cache=route_cache)
        snapshot = strip_cache_metrics(sim.metrics.snapshot())
        blob = canonical_json(snapshot)
        if reference_json is None:
            reference_json = blob
        runs.append({
            "config": name,
            "policy_cache_size": policy_cache,
            "route_cache_size": route_cache,
            "snapshot_bytes": len(blob),
            "matches_reference": blob == reference_json,
            "events_run": sim.events_run,
        })
    passed = all(run["matches_reference"] for run in runs)
    return {
        "guard": "same-seed-snapshot-identity",
        "seed": seed,
        "reference_config": GUARD_CONFIGS[0][0],
        "stripped_prefix": CACHE_METRIC_PREFIX,
        "passed": passed,
        "runs": runs,
    }
