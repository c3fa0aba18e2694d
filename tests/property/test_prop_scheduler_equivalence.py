"""Whole-scenario determinism of the engine.

For the same seed, a full testbed scenario — build, traffic, a mid-run
handoff — must reproduce a byte-identical metrics snapshot and an
identical trace.  Anything less means event ordering depends on something
other than ``(time, seq)``, which would silently unfix every seed in the
repository.  The engine has one scheduler, its ``(time, seq)`` heap, so
"same seed, same scheduler" is simply "same seed".
"""

import pytest

from repro.bench.datapath_bench import run_scenario
from repro.bench.guard import canonical_json, strip_cache_metrics
from repro.sim.units import s

SEEDS = range(5)


def observable_state(sim):
    snapshot = canonical_json(strip_cache_metrics(sim.metrics.snapshot()))
    trace = [(r.time, r.category, r.event, sorted(r.fields.items()))
             for r in sim.trace]
    return snapshot, trace


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_scheduler_reproduces(seed):
    first = run_scenario(seed=seed, duration_ns=s(3))
    second = run_scenario(seed=seed, duration_ns=s(3))
    assert observable_state(first) == observable_state(second)
    assert first.events_run == second.events_run


def test_different_seeds_differ():
    """Sanity check that the reproduction above is not vacuous."""
    a = run_scenario(seed=0, duration_ns=s(3))
    b = run_scenario(seed=1, duration_ns=s(3))
    assert observable_state(a) != observable_state(b)
