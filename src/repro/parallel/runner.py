"""The worker pool: run trial lists in-process or across processes.

A :class:`Trial` names a module-level function by ``"module:function"``
path and carries its keyword arguments.  :class:`ParallelRunner` executes
a list of trials and returns their results **in submission order**, via
one of two interchangeable paths:

* ``jobs=1`` (or one trial, or no usable ``multiprocessing``) — plain
  in-process loop.  Parent-side :func:`repro.obs.capture_simulators`
  blocks see every simulator the trials build, exactly as before.
* ``jobs=N`` — a ``multiprocessing.Pool`` of N workers.  Each worker
  resolves the function path, runs the trial inside its own metrics and
  policy-table captures, and ships back ``(result, merged
  MetricsRegistry, simulator profiles, policy-table snapshots)``; the
  parent feeds them into any active captures, in submission order, so
  ``--metrics`` and ``--profile`` reports are complete either way.

The function-path indirection (rather than pickling callables) is what
makes the pool spawn-safe: the child only needs to import the module,
which works under ``fork``, ``spawn`` and ``forkserver`` alike.
"""

from __future__ import annotations

import importlib
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.capture import (
    capture_active,
    capture_policy_tables,
    capture_simulators,
    note_metrics_registry,
    note_policy_snapshots,
)
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


#: Worker payload: (function path, params, collect-metrics flag).
_Payload = Tuple[str, Dict[str, Any], bool]


def _run_payload(payload: _Payload):
    """Execute one trial in a worker process.

    Module-level so the pool can pickle it by reference under ``spawn``.
    Returns ``(result, registry, profiles, policy snapshots)``: the merged
    metrics and the engine profile of every simulator the trial built and
    the snapshot of every Mobile Policy Table it built, collected only
    when the parent asked (a capture block was active at submit time),
    else ``None`` for all three.
    """
    func_ref, params, collect = payload
    func = resolve_trial(func_ref)
    if not collect:
        return func(**params), None, None, None
    with capture_simulators() as sims, capture_policy_tables() as tables:
        result = func(**params)
    registry = MetricsRegistry.merged(sim.metrics for sim in sims)
    return (result, registry, [sim.profile() for sim in sims],
            [table.snapshot() for table in tables])


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

        Worker-side metrics registries, engine profiles and policy-table
        snapshots are collected exactly when a parent capture block is
        active, so ``--metrics`` and ``--profile`` work transparently;
        what is collected is fed to the active captures.
        """
        trial_list = list(trials)
        if self.jobs <= 1 or len(trial_list) <= 1:
            return self._run_serial(trial_list)
        outcomes = self._run_pool(trial_list, capture_active())
        if outcomes is None:  # pool unavailable: degrade, don't fail
            return self._run_serial(trial_list)
        results: List[Any] = []
        for result, registry, profiles, policies in outcomes:
            results.append(result)
            if registry is not None:
                note_metrics_registry(registry, profiles)
                note_policy_snapshots(policies)
        return results

    def _run_serial(self, trials: Sequence[Trial]) -> List[Any]:
        # In-process: parent captures see the simulators directly, so no
        # registry plumbing is needed (or wanted — it would double count).
        return [resolve_trial(trial.func)(**trial.params) for trial in trials]

    def _run_pool(self, trials: Sequence[Trial], collect: bool):
        import multiprocessing

        payloads: List[_Payload] = [(trial.func, dict(trial.params), collect)
                                    for trial in trials]
        workers = min(self.jobs, len(trials))
        try:
            context = (multiprocessing.get_context(self.start_method)
                       if self.start_method
                       else multiprocessing.get_context())
            with context.Pool(processes=workers) as pool:
                # map() preserves submission order; chunksize 1 keeps the
                # coarse trials balanced across workers.
                return pool.map(_run_payload, payloads, chunksize=1)
        except (ImportError, OSError, ValueError) as exc:
            warnings.warn(
                f"multiprocessing unavailable ({exc!r}); "
                f"running {len(trials)} trials in-process",
                RuntimeWarning, stacklevel=3)
            return None


def run_trials(trials: Iterable[Trial], jobs: int) -> List[Any]:
    """Convenience wrapper: run *trials* on a fresh :class:`ParallelRunner`.

    :func:`repro.experiments.run_experiment`, the one driver behind every
    experiment id, funnels through here, so the serial and parallel paths
    share one code path up to the pool itself.
    """
    return ParallelRunner(jobs=jobs).run(trials)
