"""The worker pool: run trial lists in-process or across processes.

A :class:`Trial` names a module-level function by ``"module:function"``
path and carries its keyword arguments.  :class:`ParallelRunner` executes
a list of trials and returns their results **in submission order**.
Every trial, on either path, runs through :func:`_run_trial`, the one
code that calls a trial function:

* ``jobs=1`` (or one trial, or no usable ``multiprocessing``) — mapped
  in-process.
* ``jobs=N`` — mapped over a ``multiprocessing.Pool`` of N workers.

While an :func:`observe_trials` block is open, :func:`_run_trial` also
returns a :class:`TrialRecord` of what the trial's simulators measured —
their merged metrics registry, their engine profiles and their Mobile
Policy Table snapshots — and the runner hands the records to every open
block in submission order.  ``--metrics`` and ``--profile`` read only
these records, so their output is the same at any ``--jobs``, and an
in-process trial's simulators are dropped once its record exists.

The function-path indirection (rather than pickling callables) is what
makes the pool spawn-safe: the child only needs to import the module,
which works under ``fork``, ``spawn`` and ``forkserver`` alike.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import os
import warnings
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.core.policy import policy_tables
from repro.obs.capture import capture_simulators
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
    """What one observed trial's simulators measured, as plain data.

    ``metrics`` merges the registries of the simulators the trial built,
    ``profiles`` holds each one's :meth:`~repro.sim.engine.Simulator.profile`
    and ``policy_tables`` each Mobile Policy Table's
    :meth:`~repro.core.policy.MobilePolicyTable.snapshot`, in build order.
    It references no simulator, so it pickles home from a worker and
    keeps nothing of the run alive.
    """

    metrics: MetricsRegistry
    profiles: List[dict]
    policy_tables: List[dict]


#: The record lists of the open :func:`observe_trials` blocks.
_observers: List[List[TrialRecord]] = []


@contextlib.contextmanager
def observe_trials() -> Iterator[List[TrialRecord]]:
    """Collect the :class:`TrialRecord` of every trial run inside the
    ``with`` body, in submission order."""
    records: List[TrialRecord] = []
    _observers.append(records)
    try:
        yield records
    finally:
        # By identity: nested blocks holding the same records are equal.
        _observers[:] = [other for other in _observers
                         if other is not records]


#: One trial as :func:`_run_trial` takes it: (function path, params,
#: observe flag).
_Payload = Tuple[str, Dict[str, Any], bool]


def _run_trial(func_ref: str, params: Dict[str, Any], observe: bool
               ) -> Tuple[Any, Optional[TrialRecord]]:
    """Run one trial; return ``(result, record)``.

    Module-level so the pool can pickle it by reference under ``spawn``.
    The record is ``None`` unless *observe* is set.
    """
    func = resolve_trial(func_ref)
    if not observe:
        return func(**params), None
    with capture_simulators() as sims:
        result = func(**params)
    record = TrialRecord(
        MetricsRegistry.merged(sim.metrics for sim in sims),
        [sim.profile() for sim in sims],
        [table.snapshot() for sim in sims
         for table in policy_tables(sim.metrics)])
    return result, record


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

    def run(self, trials: Iterable[Trial]) -> List[Any]:
        """Execute *trials*, returning their results in order.

        Each trial's :class:`TrialRecord` is built exactly when an
        :func:`observe_trials` block is open, and handed to every open
        block.
        """
        observe = bool(_observers)
        payloads: List[_Payload] = [(trial.func, dict(trial.params), observe)
                                    for trial in trials]
        outcomes = None
        if self.jobs > 1 and len(payloads) > 1:
            outcomes = self._run_pool(payloads)
        if outcomes is None:  # in-process, or the pool is unavailable
            outcomes = list(itertools.starmap(_run_trial, payloads))
        for records in _observers:
            records.extend(record for _, record in outcomes
                           if record is not None)
        return [result for result, _ in outcomes]

    def _run_pool(self, payloads: Sequence[_Payload]):
        import multiprocessing

        workers = min(self.jobs, len(payloads))
        try:
            context = (multiprocessing.get_context(self.start_method)
                       if self.start_method
                       else multiprocessing.get_context())
            with context.Pool(processes=workers) as pool:
                # starmap() preserves submission order; chunksize 1 keeps
                # the coarse trials balanced across workers.
                return pool.starmap(_run_trial, payloads, chunksize=1)
        except (ImportError, OSError, ValueError) as exc:
            warnings.warn(
                f"multiprocessing unavailable ({exc!r}); "
                f"running {len(payloads)} trials in-process",
                RuntimeWarning, stacklevel=3)
            return None


def run_trials(trials: Iterable[Trial], jobs: int) -> List[Any]:
    """Convenience wrapper: run *trials* on a fresh :class:`ParallelRunner`.

    :func:`repro.experiments.run_experiment`, the one driver behind every
    experiment id, funnels through here, so the serial and parallel paths
    share one code path up to the pool itself.
    """
    return ParallelRunner(jobs=jobs).run(trials)
