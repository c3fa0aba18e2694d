"""Smoke tests for every experiment harness (small parameterizations).

The full-size default runs are pinned by ``test_report_goldens.py`` and
checked for paper shape by ``test_paper_shapes.py``; these keep the
harness code itself under fast test, verify determinism, and check that
every report serializes to plain data and renders to text.
"""

import json

import pytest

from repro.core.binding_shard import BindingShardPlane
from repro.experiments import run_experiment
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
    report = run_experiment("f7", seed=1, iterations=3)
    assert report.iterations == 3
    assert report.total.count == 3
    check_report(report)


def test_registration_is_deterministic():
    first = run_experiment("f7", seed=9, iterations=3)
    second = run_experiment("f7", seed=9, iterations=3)
    assert first.total.mean == second.total.mean
    assert first.request_reply.std == second.request_reply.std


def test_same_subnet_smoke():
    report = run_experiment("e1", seed=2, iterations=4)
    assert len(report.losses) == 4
    assert report.max_loss <= 1
    check_report(report)


def test_device_switch_smoke():
    report = run_experiment("f6", seed=3, iterations=2)
    assert set(report.cases) == set(SwitchCase)
    for case, result in report.cases.items():
        assert len(result.losses) == 2
    check_report(report)


def test_routing_options_smoke():
    report = run_experiment("f3", seed=4, probes=6)
    assert len(report.results) == 4
    check_report(report)


def test_fa_ablation_smoke():
    report = run_experiment("a1", seed=5, iterations=2)
    assert len(report.losses_with_fa) == 2
    check_report(report)


def test_smart_correspondent_smoke():
    report = run_experiment("x1", seed=6, probes=8)
    assert report.speedup > 1.0
    check_report(report)


def test_ha_scalability_smoke():
    report = run_experiment("x2", seed=7, fleet_sizes=(1, 4))
    assert [result.fleet_size for result in report.results] == [1, 4]
    assert all(result.accepted == result.fleet_size
               for result in report.results)
    check_report(report)


def test_autoswitch_smoke():
    report = run_experiment("x3", seed=8, intervals_ms=(200, 800))
    assert len(report.points) == 2
    assert report.points[0].failover_ms < report.points[1].failover_ms
    check_report(report)


def test_plane_chaos_smoke():
    report = run_experiment("x8", seed=5, fleet_sizes=(24,),
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
    report = run_experiment("f6", seed=10, iterations=1)
    plain = as_plain_data(report)
    assert "cold ethernet->radio" in plain["cases"]
    assert isinstance(plain["cases"]["cold ethernet->radio"]["losses"], list)
