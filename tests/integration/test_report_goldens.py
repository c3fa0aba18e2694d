"""Experiment reports and one run's metrics must match committed digests.

Three kinds of golden, all sha256 digests in ``report_goldens.json``:

* the extension experiments (x1-x6: UDP probes, registration storms,
  sharded fleets, fault injection, TCP congestion control over handoffs)
  at a shrunk parameterization and seeds 0-2 (``x4/1``);
* the fast paper experiments, x1-x3 and x9 at their default seed,
  exactly as ``python -m repro.experiments <id>`` prints them
  (``e1/default``);
* the full ``metrics.snapshot()`` of one 20-host x4 shard
  (``x4-shard/metrics``), which pins every engine dispatch count and the
  queue high-water exactly, not only through report text.

A change that moves any of these fails this test.  Each default-seed
report is built once per test run by :func:`default_report`; the paper
shape tests in ``test_paper_shapes.py`` read the same objects.  If a
change is intended, regenerate the digests from the repo root and say in
the commit why they moved::

    PYTHONPATH=src python -c "import json; from tests.integration.test_report_goldens import golden_digests; print(json.dumps(golden_digests(), indent=2, sort_keys=True))" > tests/integration/report_goldens.json
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import (
    run_autoswitch_experiment,
    run_chaos_experiment,
    run_ha_fleet_sweep,
    run_ha_scalability_experiment,
    run_smart_correspondent_experiment,
    run_tcp_cc_experiment,
)
from repro.experiments.__main__ import RUNNERS
from repro.experiments.exp_ha_scalability import run_fleet_trial
from repro.obs import capture_simulators
from repro.parallel import spawn_seed

GOLDEN_PATH = Path(__file__).with_name("report_goldens.json")

EXPERIMENTS = [
    ("x1", lambda seed: run_smart_correspondent_experiment(
        probes=4, seed=seed)),
    ("x2", lambda seed: run_ha_scalability_experiment(
        fleet_sizes=(4, 8), seed=seed)),
    ("x3", lambda seed: run_autoswitch_experiment(
        intervals_ms=(300,), seed=seed)),
    ("x4", lambda seed: run_ha_fleet_sweep(
        fleet_sizes=(40,), seed=seed)),
    ("x5", lambda seed: run_chaos_experiment(
        loss_rates=(0.2,), flap_periods_ms=(700,), seed=seed)),
    ("x6", lambda seed: run_tcp_cc_experiment(
        ccs=("tahoe", "reno"), loss_rates=(0.25,), handoffs=(True,),
        seed=seed)),
]

#: Ids whose full default run takes a couple of seconds at most.
DEFAULT_SEED_IDS = ("e1", "f6", "f7", "f3", "a1", "x1", "x2", "x3", "x9")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def default_report(name: str):
    """The report ``python -m repro.experiments <name>`` prints, as an
    object; built once per test run and shared, so callers must not
    mutate it."""
    return RUNNERS[name][1](jobs=1)


def default_report_digest(name: str) -> str:
    return _sha256(default_report(name).format_report())


def x4_shard_metrics_digest() -> str:
    """The first shard of x4's default sweep, cut to 20 hosts."""
    with capture_simulators() as sims:
        run_fleet_trial(fleet_size=20, seed=spawn_seed(97, 0, 0))
    (sim,) = sims
    return _sha256(json.dumps(sim.metrics.snapshot(), sort_keys=True))


def golden_digests() -> dict:
    """Every digest this module checks, keyed as in the golden file."""
    digests = {f"{name}/{seed}": _sha256(runner(seed).format_report())
               for name, runner in EXPERIMENTS for seed in (0, 1, 2)}
    digests.update({f"{name}/default": default_report_digest(name)
                    for name in DEFAULT_SEED_IDS})
    digests["x4-shard/metrics"] = x4_shard_metrics_digest()
    return digests


def _golden(key: str) -> str:
    return json.loads(GOLDEN_PATH.read_text())[key]


@pytest.mark.parametrize("name,runner", EXPERIMENTS,
                         ids=[name for name, _ in EXPERIMENTS])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_report_matches_golden(name, runner, seed):
    report = runner(seed).format_report()
    assert _sha256(report) == _golden(f"{name}/{seed}")


@pytest.mark.parametrize("name", DEFAULT_SEED_IDS)
def test_default_seed_report_matches_golden(name):
    assert default_report_digest(name) == _golden(f"{name}/default")


def test_x4_shard_metrics_snapshot_matches_golden():
    assert x4_shard_metrics_digest() == _golden("x4-shard/metrics")
