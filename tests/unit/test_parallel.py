"""Unit tests for the parallel trial runner and seed partitioning."""

import gc
import weakref

import pytest

from repro.obs import capture_simulators, note_simulator
from repro.parallel import (
    ParallelRunner,
    Trial,
    balanced_shards,
    observe_trials,
    resolve_trial,
    run_trials,
    spawn_seed,
)
from repro.parallel.runner import effective_jobs
from tests.parallel_trials import TIMERS

ECHO = "tests.parallel_trials:echo_trial"
SIM = "tests.parallel_trials:seeded_sim_trial"
FAIL = "tests.parallel_trials:failing_trial"


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


class TestMetricsCollection:
    #: Profile keys that measure the host, not the simulation.
    WALL_CLOCK = ("wall_time_ns", "sim_to_wall_ratio")

    def observed(self, jobs):
        with observe_trials() as records:
            results = run_trials(self.trials(), jobs=jobs)
        return results, records

    def comparable(self, record):
        profiles = [{key: value for key, value in profile.items()
                     if key not in self.WALL_CLOCK}
                    for profile in record.profiles]
        return record.metrics.snapshot(), profiles, record.policy_tables

    def test_serial_and_pool_give_equal_records(self):
        serial_results, serial = self.observed(jobs=1)
        pool_results, pool = self.observed(jobs=2)
        assert pool_results == serial_results
        assert len(serial) == len(self.trials())
        assert [self.comparable(record) for record in pool] == \
            [self.comparable(record) for record in serial]
        for record in serial:
            assert record.metrics.get("selftest", "fired").value == TIMERS
            assert len(record.profiles) == 1
            assert record.policy_tables == [{
                "owner": "mh", "default_mode": "tunnel",
                "entries": [{"destination": "36.8.0.0/24",
                             "mode": "local", "origin": "static"}]}]

    def test_serial_trial_drops_its_simulator(self, monkeypatch):
        built = []

        def note(sim):
            built.append(weakref.ref(sim))
            note_simulator(sim)

        monkeypatch.setattr("repro.sim.engine.note_simulator", note)
        with observe_trials() as records:
            run_trials(self.trials(), jobs=1)
        gc.collect()
        assert len(records) == len(built) == len(self.trials())
        assert all(ref() is None for ref in built)

    def test_outer_capture_keeps_observed_simulators(self):
        with capture_simulators() as sims, observe_trials() as records:
            run_trials(self.trials(), jobs=1)
        assert len(sims) == len(records) == len(self.trials())
        assert [sim.metrics.snapshot() for sim in sims] == \
            [record.metrics.snapshot() for record in records]

    def trials(self):
        return [Trial(SIM, dict(seed=seed))
                for seed in range(29, 32)]
