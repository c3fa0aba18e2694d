"""Properties of the congestion-control seam.

Three contracts:

1. The x6 sweep is ``--jobs``-invariant: worker count never changes the
   report, because every cell's randomness is addressed by its own seed.
2. Tahoe, Reno and CUBIC are deterministic: the same trial at the same
   seed produces field-identical results on every run (CUBIC's cube root
   is integer arithmetic, never a float library call).
3. The default config *is* Tahoe: making ``tcp_congestion_control="tahoe"``
   explicit changes nothing in the existing x1-x5 extension experiments
   byte-for-byte, so the strategy seam is invisible until opted into.
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.experiments import run_experiment
from repro.experiments.harness import as_plain_data
from repro.experiments.exp_tcp_cc import run_tcp_cc_trial

SEEDS = (0, 1, 2)
#: Reduced x6 grid: the modern strategies on the hard cell.
GRID = dict(ccs=("reno", "cubic"), loss_rates=(0.25,), handoffs=(True,))
TAHOE_CONFIG = DEFAULT_CONFIG.with_overrides(tcp_congestion_control="tahoe")


@pytest.mark.parametrize("seed", SEEDS)
def test_tcp_cc_report_is_jobs_invariant(seed):
    serial = run_experiment("x6", jobs=1, seed=seed, **GRID)
    parallel = run_experiment("x6", jobs=4, seed=seed, **GRID)
    assert as_plain_data(parallel) == as_plain_data(serial)


@pytest.mark.parametrize("cc", ["tahoe", "reno", "cubic"])
def test_strategies_are_run_to_run_deterministic(cc):
    first = run_tcp_cc_trial(cc, loss_rate=0.25, handoff=True, seed=1)
    second = run_tcp_cc_trial(cc, loss_rate=0.25, handoff=True, seed=1)
    assert first == second


def test_trial_seeds_are_addressed_by_cell_index():
    from repro.experiments.exp_tcp_cc import build_tcp_cc_trials

    trials = build_tcp_cc_trials(("tahoe", "reno"), (0.0,), (False, True),
                                 seed=50, config=DEFAULT_CONFIG)
    assert [t.params["seed"] for t in trials] == [50, 51, 52, 53]


# ------------------------------------------------ default == explicit tahoe
# Each x1-x5 experiment, run with the seam's knob spelled out, must be
# byte-identical to the default-config run.  Reduced parameters keep the
# suite fast; the config plumbing exercised is the same.

def test_x1_smart_correspondent_default_is_tahoe():
    default = run_experiment("x1", seed=0, probes=5)
    explicit = run_experiment("x1", seed=0, probes=5, config=TAHOE_CONFIG)
    assert as_plain_data(explicit) == as_plain_data(default)


def test_x2_ha_scalability_default_is_tahoe():
    default = run_experiment("x2", seed=0, fleet_sizes=(5,))
    explicit = run_experiment("x2", seed=0, fleet_sizes=(5,),
                              config=TAHOE_CONFIG)
    assert as_plain_data(explicit) == as_plain_data(default)


def test_x3_autoswitch_default_is_tahoe():
    default = run_experiment("x3", seed=0, intervals_ms=(500,))
    explicit = run_experiment("x3", seed=0, intervals_ms=(500,),
                              config=TAHOE_CONFIG)
    assert as_plain_data(explicit) == as_plain_data(default)


def test_x4_ha_fleet_sweep_default_is_tahoe():
    default = run_experiment("x4", seed=0, fleet_sizes=(120,))
    explicit = run_experiment("x4", seed=0, fleet_sizes=(120,),
                              config=TAHOE_CONFIG)
    assert as_plain_data(explicit) == as_plain_data(default)


def test_x5_chaos_default_is_tahoe():
    grid = dict(loss_rates=(0.2,), flap_periods_ms=(0,))
    default = run_experiment("x5", seed=0, **grid)
    explicit = run_experiment("x5", seed=0, config=TAHOE_CONFIG, **grid)
    assert as_plain_data(explicit) == as_plain_data(default)
