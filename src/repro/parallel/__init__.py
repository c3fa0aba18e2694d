"""Sharded parallel experiment execution.

The experiment harnesses decompose into *trials*: pure, seed-addressed
units of work (``(params, seed) -> plain-data result``) that build their
own :class:`~repro.sim.engine.Simulator` and never share state.  This
package runs lists of such trials either in-process (``jobs=1``) or
across a ``multiprocessing`` worker pool (``jobs=N``), and guarantees
the two paths produce identical results:

* **Seeds are addressed by trial index, never by worker.**  A trial's
  seed is a pure function of the experiment's base seed and the trial's
  position (:mod:`repro.parallel.seeds`), so adding workers reassigns
  *where* a trial runs but never *what* it computes.
* **Results merge in trial order.**  The pool preserves submission
  order, so the merge/summarize step sees the same sequence whether one
  process ran everything or eight processes raced.
* **Spawn-safe.**  Trials are referenced by ``"module:function"`` path
  and carry picklable params, so the pool works under the ``spawn``
  start method (macOS/Windows default) as well as ``fork``.
* **Graceful degradation.**  ``jobs=1``, a single trial, or a platform
  that cannot make a pool all fall back to the in-process loop — same
  results, no pool.  A trial's own error is never a reason to fall back.
* **One run record, passed by hand.**  Given a :class:`TrialRecord`,
  the runner folds into it each trial's record (merged metrics, engine
  profiles, policy-table snapshots) as the trial returns, in submission
  order; every trial's record is built by the same function on either
  path.

See ``docs/PERFORMANCE.md`` ("Parallel execution") for the user-facing
flags and the determinism contract.
"""

from repro.parallel.runner import (
    ParallelRunner,
    Trial,
    TrialRecord,
    resolve_trial,
    run_trials,
)
from repro.parallel.seeds import balanced_shards, spawn_seed

__all__ = [
    "ParallelRunner",
    "Trial",
    "TrialRecord",
    "resolve_trial",
    "run_trials",
    "spawn_seed",
    "balanced_shards",
]
