"""Reproducible benchmarks for the engine and datapath.

``python -m repro.bench`` runs the benchmark suites and a determinism
guard, then writes ``BENCH_engine.json``, ``BENCH_datapath.json``,
``BENCH_tcp.json``, ``BENCH_parallel.json`` and ``BENCH_fleet.json``:

* **Engine** (:mod:`repro.bench.engine_bench`) — a deterministic
  timer-chain workload dispatched through the engine's tuple-heap loop.
  The JSON reports one row: events/sec and ns/event.
* **Datapath** (:mod:`repro.bench.datapath_bench`) — packet-construction
  cost, policy/routing lookup cost with the result caches on vs off
  (including hit rates), the cost of a disabled trace category, and a
  whole-testbed scenario regeneration timed end to end.
* **Parallel** (:mod:`repro.bench.parallel_bench`) — the trial-heavy
  experiments run serially and through the ``repro.parallel`` worker
  pool (``--jobs N``), writing ``BENCH_parallel.json`` with wall-clock,
  speedup, ``cpu_count``, and a determinism verdict (plain-data reports
  must compare equal).  A report mismatch fails the run like a guard
  failure; speedup never does.
* **Fleet** (:mod:`repro.bench.fleet_bench`) — the x7 aggregate-model
  fleet row at 10^5 hosts, writing ``BENCH_fleet.json`` with wall-clock
  and registrations processed per second.  Throughput below the
  registrations/sec floor or a rerun mismatch fails the run: the floor
  is the tripwire against reintroducing per-host simulation on the
  fleet path.
* **Guard** (:mod:`repro.bench.guard`) — re-runs the same seeded scenario
  with the lookup caches on and off and asserts the metric snapshots are
  byte-identical after stripping the documented cache-diagnostic counters.
  This is the CI tripwire: an optimisation that changes results fails the
  build; one that merely changes speed cannot.

Benchmarks measure wall time, so their numbers vary run to run; the
*workloads* are seeded and fixed, so the counted quantities (events run,
packets built, cache hits) are exactly reproducible.
"""

from repro.bench.datapath_bench import run_datapath_bench
from repro.bench.engine_bench import run_engine_bench
from repro.bench.fleet_bench import run_fleet_bench
from repro.bench.guard import run_determinism_guard, strip_cache_metrics
from repro.bench.parallel_bench import run_parallel_bench

__all__ = [
    "run_engine_bench",
    "run_datapath_bench",
    "run_determinism_guard",
    "run_parallel_bench",
    "run_fleet_bench",
    "strip_cache_metrics",
]
