"""Extension-experiment reports must match their committed golden digests.

The extension experiments (x1-x6) cover UDP probes, registration storms,
sharded fleets, fault injection and TCP congestion control over handoffs.
Each runs here at a shrunk parameterization and seeds 0-2, and the sha256
of its ``format_report()`` must equal the digest in ``report_goldens.json``.
A change that moves any report byte fails this test.

If a report change is intended, regenerate the digests from the repo root
and say in the commit why the reports moved::

    PYTHONPATH=src python -c "import hashlib, json; from tests.integration.test_pooling_identity import EXPERIMENTS; print(json.dumps({f'{n}/{s}': hashlib.sha256(r(s).format_report().encode()).hexdigest() for n, r in EXPERIMENTS for s in (0, 1, 2)}, indent=2, sort_keys=True))" > tests/integration/report_goldens.json
"""

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


@pytest.mark.parametrize("name,runner", EXPERIMENTS,
                         ids=[name for name, _ in EXPERIMENTS])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_report_matches_golden(name, runner, seed):
    report = runner(seed).format_report()
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == json.loads(GOLDEN_PATH.read_text())[f"{name}/{seed}"]
