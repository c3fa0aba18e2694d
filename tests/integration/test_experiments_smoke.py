"""Smoke tests for every experiment harness (small parameterizations).

The full-size default runs are pinned by ``test_report_goldens.py`` and
checked for paper shape by ``test_paper_shapes.py``; these keep the
harness code itself under fast test, verify determinism, and check that
every report serializes to plain data and renders to text.
"""

import json

import pytest

from repro.experiments import (
    run_autoswitch_experiment,
    run_device_switch_experiment,
    run_fa_ablation,
    run_ha_scalability_experiment,
    run_registration_experiment,
    run_routing_options_experiment,
    run_same_subnet_experiment,
    run_smart_correspondent_experiment,
)
from repro.core.binding_shard import BindingShardPlane
from repro.experiments import run_plane_chaos_experiment
from repro.experiments.exp_device_switch import SwitchCase
from repro.experiments.exp_plane_chaos import run_plane_chaos_trial
from repro.experiments.harness import as_plain_data
from repro.faults import AuditViolation


def check_report(report) -> None:
    """Every report renders and serializes."""
    text = report.format_report()
    assert isinstance(text, str) and len(text) > 40
    plain = as_plain_data(report)
    json.dumps(plain)  # must be JSON-clean


def test_registration_smoke():
    report = run_registration_experiment(iterations=3, seed=1)
    assert report.iterations == 3
    assert report.total.count == 3
    check_report(report)


def test_registration_is_deterministic():
    first = run_registration_experiment(iterations=3, seed=9)
    second = run_registration_experiment(iterations=3, seed=9)
    assert first.total.mean == second.total.mean
    assert first.request_reply.std == second.request_reply.std


def test_same_subnet_smoke():
    report = run_same_subnet_experiment(iterations=4, seed=2)
    assert len(report.losses) == 4
    assert report.max_loss <= 1
    check_report(report)


def test_device_switch_smoke():
    report = run_device_switch_experiment(iterations=2, seed=3)
    assert set(report.cases) == set(SwitchCase)
    for case, result in report.cases.items():
        assert len(result.losses) == 2
    check_report(report)


def test_routing_options_smoke():
    report = run_routing_options_experiment(probes=6, seed=4)
    assert len(report.results) == 4
    check_report(report)


def test_fa_ablation_smoke():
    report = run_fa_ablation(iterations=2, seed=5)
    assert len(report.losses_with_fa) == 2
    check_report(report)


def test_smart_correspondent_smoke():
    report = run_smart_correspondent_experiment(probes=8, seed=6)
    assert report.speedup > 1.0
    check_report(report)


def test_ha_scalability_smoke():
    report = run_ha_scalability_experiment(fleet_sizes=(1, 4), seed=7)
    assert [result.fleet_size for result in report.results] == [1, 4]
    assert all(result.accepted == result.fleet_size
               for result in report.results)
    check_report(report)


def test_autoswitch_smoke():
    report = run_autoswitch_experiment(intervals_ms=(200, 800), seed=8)
    assert len(report.points) == 2
    assert report.points[0].failover_ms < report.points[1].failover_ms
    check_report(report)


def test_plane_chaos_smoke():
    report = run_plane_chaos_experiment(fleet_sizes=(24,), seed=5,
                                        shard_hosts=24)
    assert len(report.points) == 4  # churn x partition grid
    for point in report.points:
        assert point.violations == 0  # the auditor gate
        assert point.accepted > 0
    assert any(point.takeovers > 0 for point in report.points)
    assert any(point.stale_served > 0 for point in report.points)
    assert report.calibrated_interval_s > 0
    check_report(report)


def test_plane_chaos_trial_gates_on_the_auditor(monkeypatch):
    # Deliberately broken takeover accounting: counted, never traced.
    # The trial itself must refuse to report numbers from such a plane.
    def silent_takeover(self, primary, takeover):
        self.takeovers += 1

    monkeypatch.setattr(BindingShardPlane, "_count_takeover",
                        silent_takeover)
    with pytest.raises(AuditViolation):
        run_plane_chaos_trial(fleet_size=24, n_hosts=24, host_offset=0,
                              churn=False, partition=True, seed=7)


def test_as_plain_data_handles_enum_keys():
    report = run_device_switch_experiment(iterations=1, seed=10)
    plain = as_plain_data(report)
    assert "cold ethernet->radio" in plain["cases"]
    assert isinstance(plain["cases"]["cold ethernet->radio"]["losses"], list)
