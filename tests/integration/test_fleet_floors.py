"""Throughput floors for the two fleet paths, in registrations per second.

* x7's aggregate model must keep a 10^5-host fleet cheap: one
  :class:`~repro.workloads.aggregate.AggregateHostModel` pass over the
  hosts, no per-registration events.  Its 10^5-host row must process at
  least :data:`MIN_FLEET_REGS_PER_SEC`; a return to per-host simulation
  runs ~100x slower and trips it.
* One full-chaos x8 cell (join, drain, partition and crash under live
  per-event registration load) must finish with zero plane invariant
  violations, reproduce itself exactly, and clear
  :data:`MIN_CHURN_REGS_PER_SEC` real registration exchanges per second;
  a regression to O(ports) per-packet scans on the hub router trips it.

Both floors leave about an order of magnitude of headroom for slow
machines.  Rerun identity of the x7 report is pinned by
``tests/property/test_prop_fleet_scale.py``.

The same x8 cell pins the random streams' footprint: a stream that drew
no more than one chunk of words holds no Mersenne Twister generator.
"""

import random
import time

from repro.experiments import run_experiment
from repro.experiments.exp_plane_chaos import run_plane_chaos_trial
from repro.obs.capture import capture_simulators
from repro.sim.randomness import CHUNK_WORDS, RandomStream

MIN_FLEET_REGS_PER_SEC = 10_000.0
MIN_CHURN_REGS_PER_SEC = 100.0


def test_x7_fleet_row_clears_registration_floor():
    start = time.perf_counter()
    report = run_experiment("x7", fleet_sizes=(100_000,),
                            failover_fleet=None)
    wall_s = time.perf_counter() - start
    (point,) = report.points
    assert point.registrations / wall_s >= MIN_FLEET_REGS_PER_SEC


class TestAuditedChurnCell:
    def test_100_host_cell_gates_and_reports(self):
        def cell() -> dict:
            return run_plane_chaos_trial(fleet_size=100, n_hosts=100,
                                         host_offset=0, churn=True,
                                         partition=True, seed=71)

        start = time.perf_counter()
        doc = cell()
        wall_s = time.perf_counter() - start
        assert doc["violations"] == 0
        assert doc == cell()
        assert doc["faults_injected"] == 4
        assert doc["accepted"] > 0
        assert doc["takeovers"] > 0
        assert doc["accepted"] / wall_s >= MIN_CHURN_REGS_PER_SEC

    def test_streams_within_one_chunk_hold_no_generator(self):
        with capture_simulators() as sims:
            run_plane_chaos_trial(fleet_size=100, n_hosts=100, host_offset=0,
                                  churn=True, partition=True, seed=71)
        (sim,) = sims
        assert len(sim._rngs) > 100
        promoted = 0
        for name, stream in sim._rngs.items():
            assert type(stream) is RandomStream
            if stream._generator is None:
                continue
            promoted += 1
            # Count the words the generator has given by replaying a fresh
            # one until the states meet: only a stream that needed more
            # than its chunk may hold a generator.
            target = stream._generator.getstate()
            fresh = random.Random(f"{sim._seed}/{name}")
            drawn = 0
            while fresh.getstate() != target:
                fresh.getrandbits(32)
                drawn += 1
                assert drawn < 100_000, name
            assert drawn > CHUNK_WORDS, name
        assert promoted < len(sim._rngs) // 10
