"""Unit tests for the parallel trial runner and seed partitioning."""

import gc
import warnings
import weakref

import pytest

from repro.obs import MetricsRegistry, capture_simulators, note_simulator
from repro.parallel import (
    ParallelRunner,
    Trial,
    TrialRecord,
    balanced_shards,
    resolve_trial,
    run_trials,
    spawn_seed,
)
from repro.parallel.runner import effective_jobs
from tests.parallel_trials import TIMERS

ECHO = "tests.parallel_trials:echo_trial"
SIM = "tests.parallel_trials:seeded_sim_trial"
FAIL = "tests.parallel_trials:failing_trial"
VALUE_ERROR = "tests.parallel_trials:value_error_trial"
OPEN_CAPTURES = "tests.parallel_trials:open_captures_trial"


class TestSeeds:
    def test_spawn_seed_is_deterministic(self):
        assert spawn_seed(83, 2, 5) == spawn_seed(83, 2, 5)

    def test_spawn_seed_separates_paths(self):
        seeds = {spawn_seed(0, fleet, shard)
                 for fleet in range(8) for shard in range(8)}
        assert len(seeds) == 64  # no collisions on a small grid
        assert spawn_seed(0, 1, 2) != spawn_seed(0, 2, 1)  # order matters

    def test_spawn_seed_is_non_negative(self):
        assert all(spawn_seed(seed, index) >= 0
                   for seed in (0, 1, 2**63) for index in range(4))

    def test_balanced_shards_respect_capacity(self):
        assert balanced_shards(250, 100) == [84, 83, 83]
        assert balanced_shards(100, 100) == [100]
        assert balanced_shards(0, 100) == []
        assert sum(balanced_shards(1000, 100)) == 1000
        with pytest.raises(ValueError):
            balanced_shards(10, 0)


class TestResolveTrial:
    def test_resolves_module_function(self):
        func = resolve_trial(ECHO)
        assert func(value=7) == {"value": 7}

    @pytest.mark.parametrize("ref", [
        "no-colon", ":func", "module:", "tests.parallel_trials:absent",
        "tests.parallel_trials:TIMERS",
    ])
    def test_rejects_bad_references(self, ref):
        with pytest.raises((ValueError, ModuleNotFoundError)):
            resolve_trial(ref)


class TestEffectiveJobs:
    def test_zero_and_none_mean_cpu_count(self):
        assert effective_jobs(0) >= 1
        assert effective_jobs(None) >= 1

    def test_positive_passthrough_and_negative_rejected(self):
        assert effective_jobs(3) == 3
        with pytest.raises(ValueError):
            effective_jobs(-2)


class TestRunner:
    def trials(self, count=6):
        return [Trial(SIM, dict(seed=seed))
                for seed in range(17, 17 + count)]

    def test_serial_matches_direct_calls(self):
        results = run_trials(self.trials(), jobs=1)
        func = resolve_trial(SIM)
        assert results == [func(seed=seed)
                           for seed in range(17, 23)]

    def test_parallel_matches_serial_in_order(self):
        serial = run_trials(self.trials(), jobs=1)
        parallel = run_trials(self.trials(), jobs=2)
        assert parallel == serial

    def test_spawn_start_method_is_safe(self):
        # The contract: trials are importable + picklable, so the pool
        # works under spawn (the macOS/Windows default), not just fork.
        runner = ParallelRunner(jobs=2, start_method="spawn")
        assert runner.run(self.trials(count=2)) == \
            run_trials(self.trials(count=2), jobs=1)

    def test_single_trial_stays_in_process(self):
        assert run_trials([Trial(ECHO, dict(value="x"))], jobs=8) \
            == [{"value": "x"}]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_trials([Trial(FAIL)] * 3, jobs=2)

    def test_pool_failure_degrades_to_serial(self):
        runner = ParallelRunner(jobs=4, start_method="definitely-not-a-method")
        with pytest.warns(RuntimeWarning, match="multiprocessing unavailable"):
            results = runner.run(self.trials())
        assert results == run_trials(self.trials(), jobs=1)

    def test_worker_value_error_is_the_trials_own(self, tmp_path):
        # ValueError and OSError are also what a pool that cannot be made
        # raises; one a trial raises must not pass for that, nor send the
        # trials round again in-process.
        log = tmp_path / "calls.txt"
        trials = [Trial(VALUE_ERROR, dict(index=index, log=str(log)))
                  for index in range(3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="trial 0 failed"):
                run_trials(trials, jobs=2)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        calls = log.read_text().split()
        assert "0" in calls
        assert len(calls) == len(set(calls))  # no trial ran twice

    @pytest.mark.parametrize("jobs,open_captures", [(1, 1), (2, 0)])
    def test_workers_start_with_no_open_capture(self, jobs, open_captures):
        # A forked worker would inherit the outer bucket and keep every
        # simulator its trials build in its private copy.
        with capture_simulators():
            counts = run_trials([Trial(OPEN_CAPTURES)] * 3, jobs=jobs)
        assert counts == [open_captures] * 3


class TestMetricsCollection:
    #: Profile keys that measure the host, not the simulation.
    WALL_CLOCK = ("wall_time_ns", "sim_to_wall_ratio")

    def observed(self, jobs):
        record = TrialRecord()
        results = run_trials(self.trials(), jobs=jobs, record=record)
        return results, record

    def comparable(self, record):
        profiles = [{key: value for key, value in profile.items()
                     if key not in self.WALL_CLOCK}
                    for profile in record.profiles]
        return record.metrics.snapshot(), profiles, record.policy_tables

    def test_serial_and_pool_give_equal_records(self):
        serial_results, serial = self.observed(jobs=1)
        pool_results, pool = self.observed(jobs=2)
        assert pool_results == serial_results
        assert self.comparable(pool) == self.comparable(serial)
        trials = len(self.trials())
        assert serial.metrics.get("selftest", "fired").value \
            == TIMERS * trials
        assert len(serial.profiles) == trials  # one simulator per trial
        assert serial.policy_tables == [{
            "owner": "mh", "default_mode": "tunnel",
            "entries": [{"destination": "36.8.0.0/24",
                         "mode": "local", "origin": "static"}]}] * trials

    def test_serial_trial_drops_its_simulator(self, monkeypatch):
        built, folded = [], []

        def note(sim):
            # A trial starts only once the one before it is folded and
            # its record released.
            assert all(ref() is None for ref in folded)
            built.append(weakref.ref(sim))
            note_simulator(sim)

        def add(record, other):
            folded.append(weakref.ref(other))
            fold(record, other)

        fold = TrialRecord.add
        monkeypatch.setattr("repro.sim.engine.note_simulator", note)
        monkeypatch.setattr(TrialRecord, "add", add)
        run = TrialRecord()
        run_trials(self.trials(), jobs=1, record=run)
        gc.collect()
        assert len(folded) == len(built) == len(self.trials())
        assert all(ref() is None for ref in built + folded)
        assert len(run.profiles) == len(self.trials())

    def test_outer_capture_keeps_observed_simulators(self):
        record = TrialRecord()
        with capture_simulators() as sims:
            run_trials(self.trials(), jobs=1, record=record)
        assert len(sims) == len(record.profiles) == len(self.trials())
        assert record.metrics.snapshot() == MetricsRegistry.merged(
            MetricsRegistry.merged([sim.metrics]) for sim in sims).snapshot()

    def trials(self):
        return [Trial(SIM, dict(seed=seed))
                for seed in range(29, 32)]
