"""Property: worker count never changes experiment results.

The determinism contract of :mod:`repro.parallel` is that seeds are
addressed by trial index, never by worker, so ``jobs=4`` must produce a
plain-data report byte-identical to ``jobs=1`` for any seed.  Exercised
here for seeds 0-2 over experiments with genuinely parallel trial lists,
including the sharded home-agent fleet sweep.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.harness import as_plain_data

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_same_subnet_report_is_jobs_invariant(seed):
    serial = run_experiment("e1", jobs=1, seed=seed, iterations=4)
    parallel = run_experiment("e1", jobs=4, seed=seed, iterations=4)
    assert as_plain_data(parallel) == as_plain_data(serial)


@pytest.mark.parametrize("seed", SEEDS)
def test_device_switch_report_is_jobs_invariant(seed):
    serial = run_experiment("f6", jobs=1, seed=seed, iterations=2)
    parallel = run_experiment("f6", jobs=4, seed=seed, iterations=2)
    assert as_plain_data(parallel) == as_plain_data(serial)


@pytest.mark.parametrize("seed", SEEDS)
def test_fa_ablation_report_is_jobs_invariant(seed):
    serial = run_experiment("a1", jobs=1, seed=seed, iterations=3)
    parallel = run_experiment("a1", jobs=4, seed=seed, iterations=3)
    assert as_plain_data(parallel) == as_plain_data(serial)


@pytest.mark.parametrize("seed", SEEDS)
def test_ha_fleet_sweep_is_jobs_invariant(seed):
    # A 120-host fleet shards into two simulations; merging their partial
    # Stats must not depend on which worker ran which shard.
    serial = run_experiment("x4", jobs=1, seed=seed, fleet_sizes=(120,))
    parallel = run_experiment("x4", jobs=4, seed=seed, fleet_sizes=(120,))
    assert as_plain_data(parallel) == as_plain_data(serial)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_report_is_jobs_invariant(seed):
    # The chaos sweep arms a nonzero FaultPlan in every cell; both the
    # fault schedule and each fault's randomness must be addressed by the
    # trial's own seed, never by which worker ran it.
    serial = run_experiment("x5", jobs=1, seed=seed)
    parallel = run_experiment("x5", jobs=4, seed=seed)
    assert as_plain_data(parallel) == as_plain_data(serial)


def test_parallel_matches_pre_refactor_serial_arithmetic():
    # The trial builders must keep the legacy seed formulas: the first
    # same-subnet trial at base seed 7 uses seed 7, the second seed 8.
    from repro.experiments.exp_same_subnet import build_same_subnet_trials
    from repro.sim.units import ms

    trials = build_same_subnet_trials(iterations=3, seed=7,
                                      probe_interval=ms(300))
    assert [t.params["seed"] for t in trials] == [7, 8, 9]
