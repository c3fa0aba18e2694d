"""Unit tests for the experiments command-line runner."""

import json
import pickle

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.__main__ import main
from repro.parallel import resolve_trial


def test_unknown_experiment_id_is_an_error(capsys):
    assert main(["nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment ids" in err
    # The error names every known id so the user can self-correct.
    for known in EXPERIMENTS:
        assert known in err


def test_unknown_id_is_not_silently_skipped(capsys):
    # A mix of known and unknown ids must fail before running anything.
    assert main(["f7", "bogus"]) == 2
    captured = capsys.readouterr()
    assert "bogus" in captured.err
    assert "Registration time-line" not in captured.out


def test_single_experiment_runs_and_prints(capsys):
    assert main(["f7"]) == 0
    out = capsys.readouterr().out
    assert "Registration time-line" in out
    assert "4.79" in out  # the paper column is present


def test_ids_are_case_insensitive(capsys):
    assert main(["F7"]) == 0


def test_jobs_flag_accepts_worker_count(capsys):
    assert main(["--jobs", "2", "f7"]) == 0
    assert "Registration time-line" in capsys.readouterr().out


def test_negative_jobs_is_an_error(capsys):
    assert main(["--jobs", "-1", "f7"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_output_matches_serial(capsys):
    assert main(["f7"]) == 0
    serial = capsys.readouterr().out
    assert main(["--jobs", "2", "f7"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_metrics_output_matches_serial_at_jobs_2(capsys):
    """Worker processes ship their metrics registries and policy-table
    snapshots home, so the whole --metrics report is jobs-invariant."""
    assert main(["f6", "--metrics"]) == 0
    serial = capsys.readouterr().out
    assert main(["--jobs", "2", "f6", "--metrics"]) == 0
    parallel = capsys.readouterr().out
    assert serial.count("[policy table:") > 1
    assert serial == parallel


def _profile_of(out: str) -> dict:
    """The JSON object printed after the ``engine profile`` banner."""
    _, banner, rest = out.partition(" engine profile ")
    assert banner, out
    body = rest[rest.index("{"):]
    return json.loads(body[:body.index("\n}") + 2])


def test_profile_covers_worker_simulators_at_jobs_2(capsys):
    """Workers ship each simulator's profile home, so everything but the
    wall-clock figures matches the serial run."""
    assert main(["x4", "--profile"]) == 0
    serial = _profile_of(capsys.readouterr().out)
    assert main(["--jobs", "2", "x4", "--profile"]) == 0
    parallel = _profile_of(capsys.readouterr().out)
    keys = ("simulators", "events_run", "queue_depth_max",
            "dispatched_by_label")
    assert serial["simulators"] == 19
    assert ({key: parallel[key] for key in keys}
            == {key: serial[key] for key in keys})


def test_experiment_table_covers_all_documented_ids():
    assert set(EXPERIMENTS) == {"e1", "f6", "f7", "f3", "a1",
                                "x1", "x2", "x3", "x4", "x5", "x6", "x7",
                                "x8", "x9"}
    for experiment in EXPERIMENTS.values():
        assert experiment.title and isinstance(experiment.title, str)
        assert isinstance(experiment.seed, int)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_default_grid_builds_spawn_safe_trials(name):
    """A worker process rebuilds each trial from its ref and pickled
    params; building the default grid checks both without running it."""
    experiment = EXPERIMENTS[name]
    trials = experiment.build(seed=experiment.seed, **experiment.grid)
    assert trials
    for trial in trials:
        assert callable(resolve_trial(trial.func))
        assert pickle.loads(pickle.dumps(trial.params)) == trial.params


def test_run_experiment_rejects_an_unknown_grid_key():
    with pytest.raises(TypeError, match=r"x3 .*no grid key iterations"):
        run_experiment("x3", iterations=2)


def test_run_experiment_rejects_an_unknown_id():
    with pytest.raises(KeyError, match="nope"):
        run_experiment("nope")


def test_unknown_id_error_names_x7(capsys):
    assert main(["nope"]) == 2
    assert "x7" in capsys.readouterr().err


def test_list_flag_prints_every_id_and_exits_zero(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name, experiment in EXPERIMENTS.items():
        assert name in out
        assert experiment.title in out


def test_list_flag_runs_nothing(capsys):
    # --list must be cheap: no experiment output, just the table.
    assert main(["--list", "f7"]) == 0
    out = capsys.readouterr().out
    assert "===" not in out
    assert "4.79" not in out


def test_figures_refuses_what_it_would_ignore(capsys):
    assert main(["x3", "--figures", "--metrics"]) == 2
    captured = capsys.readouterr()
    assert "x3" in captured.err and "--metrics" in captured.err
    assert captured.out == ""
    assert main(["--figures", "--profile"]) == 2
    assert "--profile" in capsys.readouterr().err
