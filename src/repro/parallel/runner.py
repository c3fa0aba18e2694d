"""The worker pool: run trial lists in-process or across processes.

A :class:`Trial` names a module-level function by ``"module:function"``
path and carries its keyword arguments.  :class:`ParallelRunner` executes
a list of trials and returns their results **in submission order**.
Every trial, on either path, runs through :func:`_run_trial`, the one
code that calls a trial function:

* ``jobs=1`` (or one trial, or no usable ``multiprocessing``) — mapped
  in-process.
* ``jobs=N`` — mapped over a ``multiprocessing.Pool`` of N workers.

Given a run record, :func:`_run_trial` also returns a
:class:`TrialRecord` of what the trial's simulators measured — their
merged metrics registry, their engine profiles and their Mobile Policy
Table snapshots — and the runner folds each into the run record the
moment its trial returns, in submission order, then drops it.
``--metrics`` and ``--profile`` read only the run record, so their
output is the same at any ``--jobs``, and a run holds one merged
registry however many trials it has.

The function-path indirection (rather than pickling callables) is what
makes the pool spawn-safe: the child only needs to import the module,
which works under ``fork``, ``spawn`` and ``forkserver`` alike.
"""

from __future__ import annotations

import importlib
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.policy import policy_tables
from repro.obs import capture
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class Trial:
    """One independent unit of work: a function path plus its kwargs.

    ``func`` is a ``"package.module:function"`` reference to a
    module-level callable; ``params`` must be picklable (plain data plus
    :class:`~repro.config.Config` are both fine).  The callable returns
    plain data (dicts/lists/numbers), which keeps results cheap to ship
    between processes and trivially serializable for reports.
    """

    func: str
    params: Dict[str, Any] = field(default_factory=dict)


def resolve_trial(func_ref: str) -> Callable:
    """Import and return the callable named by ``"module:function"``."""
    module_name, sep, attr = func_ref.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"trial function reference must look like 'module:function', "
            f"got {func_ref!r}")
    module = importlib.import_module(module_name)
    try:
        func = getattr(module, attr)
    except AttributeError as exc:
        raise ValueError(f"{module_name!r} has no attribute {attr!r}") from exc
    if not callable(func):
        raise ValueError(f"{func_ref!r} is not callable")
    return func


@dataclass(frozen=True)
class TrialRecord:
    """What the simulators of one or more trials measured, as plain data.

    ``metrics`` merges the registries of the simulators the trials
    built, ``profiles`` holds each one's
    :meth:`~repro.sim.engine.Simulator.profile` and ``policy_tables``
    each Mobile Policy Table's
    :meth:`~repro.core.policy.MobilePolicyTable.snapshot`, in build
    order.  One trial's record and a whole run's are the same type: an
    empty record :meth:`add`-ing each trial's in turn is the run's.  It
    references no simulator, so it pickles home from a worker and keeps
    nothing of the run alive.
    """

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    profiles: List[dict] = field(default_factory=list)
    policy_tables: List[dict] = field(default_factory=list)

    def add(self, other: "TrialRecord") -> None:
        """Fold *other* in after everything added so far."""
        self.metrics.merge_from(other.metrics)
        self.profiles.extend(other.profiles)
        self.policy_tables.extend(other.policy_tables)


#: One trial as :func:`_run_trial` takes it: (function path, params,
#: observe flag).
_Payload = Tuple[str, Dict[str, Any], bool]


def _run_trial(payload: _Payload) -> Tuple[Any, Optional[TrialRecord]]:
    """Run one trial; return ``(result, record)``.

    Module-level so the pool can pickle it by reference under ``spawn``.
    The record is ``None`` unless the payload's observe flag is set.
    """
    func_ref, params, observe = payload
    func = resolve_trial(func_ref)
    if not observe:
        return func(**params), None
    with capture.capture_simulators() as sims:
        result = func(**params)
    record = TrialRecord(
        MetricsRegistry.merged(sim.metrics for sim in sims),
        [sim.profile() for sim in sims],
        [table.snapshot() for sim in sims
         for table in policy_tables(sim.metrics)])
    return result, record


def _fresh_worker() -> None:
    """Pool initializer: a forked worker inherits the parent's open
    :func:`capture_simulators` buckets; it closes them, so it keeps no
    simulator its trials build."""
    capture._active.clear()


def effective_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: 0/None means "one per CPU"."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


class ParallelRunner:
    """Runs trial lists, serially or across a process pool.

    ``jobs`` — worker count; 1 means in-process, 0 means one per CPU.
    ``start_method`` — ``"fork"``/``"spawn"``/``"forkserver"``; None
    picks the platform default (fork on Linux — cheapest — spawn on
    macOS/Windows).  Results always come back in submission order, and a
    pool that cannot be created degrades to the in-process path rather
    than failing the run.
    """

    def __init__(self, jobs: int,
                 start_method: Optional[str] = None) -> None:
        self.jobs = effective_jobs(jobs)
        self.start_method = start_method

    def run(self, trials: Iterable[Trial],
            record: Optional[TrialRecord] = None) -> List[Any]:
        """Execute *trials*, returning their results in order.

        Given a *record*, each trial's own :class:`TrialRecord` is folded
        into it as the trial returns, in submission order, and dropped.
        """
        payloads: List[_Payload] = [
            (trial.func, dict(trial.params), record is not None)
            for trial in trials]
        pool = None
        if self.jobs > 1 and len(payloads) > 1:
            pool = self._pool(len(payloads))
        if pool is None:  # in-process, or the pool is unavailable
            return _fold(map(_run_trial, payloads), record)
        with pool:
            # imap() yields in submission order; chunksize 1 keeps the
            # coarse trials balanced across workers.
            return _fold(pool.imap(_run_trial, payloads, chunksize=1),
                         record)

    def _pool(self, trials: int):
        """A pool of up to ``jobs`` workers for *trials* trials, or None
        if none can be made.

        Only making the pool may fall back: an error a trial raises
        surfaces as itself, and no trial runs twice.
        """
        import multiprocessing

        try:
            context = (multiprocessing.get_context(self.start_method)
                       if self.start_method
                       else multiprocessing.get_context())
            return context.Pool(processes=min(self.jobs, trials),
                                initializer=_fresh_worker)
        except (ImportError, OSError, ValueError) as exc:
            warnings.warn(
                f"multiprocessing unavailable ({exc!r}); "
                f"running {trials} trials in-process",
                RuntimeWarning, stacklevel=3)
            return None


def _fold(outcomes: Iterable[Tuple[Any, Optional[TrialRecord]]],
          record: Optional[TrialRecord]) -> List[Any]:
    """The results of *outcomes*, each trial record folded into *record*
    and released before the next trial's outcome is drawn."""
    results = []
    for result, trial_record in outcomes:
        results.append(result)
        if record is not None:
            record.add(trial_record)
        del trial_record
    return results


def run_trials(trials: Iterable[Trial], jobs: int,
               record: Optional[TrialRecord] = None) -> List[Any]:
    """Convenience wrapper: run *trials* on a fresh :class:`ParallelRunner`.

    :func:`repro.experiments.run_experiment`, the one driver behind every
    experiment id, funnels through here, so the serial and parallel paths
    share one code path up to the pool itself.
    """
    return ParallelRunner(jobs=jobs).run(trials, record)
