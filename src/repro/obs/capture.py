"""Capture hooks: collect the simulators an opaque code path creates.

The experiment harnesses (``repro.experiments.exp_*``) build their own
:class:`~repro.sim.engine.Simulator` instances internally and only return
report dataclasses — there is no handle through which ``--metrics`` could
reach the registries afterwards.  Rather than widen every experiment's
return type, the engine announces each new simulator here, and
:func:`capture_simulators` records the announcements made while a block
runs::

    with capture_simulators() as captured:
        run_experiment("f7", seed=7)
    report = format_reports((sim.metrics for sim in captured), "metrics")

When no capture is active (the normal case), :func:`note_simulator` is a
no-op beyond one truthiness check, so simulation behavior and performance
are untouched.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List

# Stack of active capture lists.  Nested captures each see the simulators
# created inside them (inner captures also feed outer ones).
_active: List[List] = []

# Same mechanism for Mobile Policy Tables, so ``--metrics`` can append each
# mobile host's policy entries to the human-readable report.
_active_policy: List[List] = []


def note_simulator(sim) -> None:
    """Called by ``Simulator.__init__``; records *sim* in active captures."""
    if _active:
        for bucket in _active:
            bucket.append(sim)


def note_policy_table(table) -> None:
    """Called by ``MobilePolicyTable.__init__``; records active tables."""
    if _active_policy:
        for bucket in _active_policy:
            bucket.append(table)


def capture_active() -> bool:
    """True while a :func:`capture_simulators` or
    :func:`capture_policy_tables` block is open."""
    return bool(_active or _active_policy)


class CapturedMetrics:
    """A stand-in for the simulators one worker trial built.

    Worker processes cannot append their simulators to the parent's
    capture buckets, so the parallel runner ships each trial's merged
    :class:`~repro.obs.metrics.MetricsRegistry` home, with the
    :meth:`~repro.sim.engine.Simulator.profile` of every simulator it
    built, and wraps them in one of these; consumers that iterate a
    capture bucket reading ``.metrics`` (the ``--metrics`` report path)
    see no difference, and ``--profile`` reads ``profiles``.
    """

    __slots__ = ("metrics", "profiles")

    def __init__(self, metrics, profiles) -> None:
        self.metrics = metrics
        self.profiles = profiles


def note_metrics_registry(registry, profiles) -> None:
    """Feed a worker-produced registry (and the profiles of the
    simulators behind it) into every active capture."""
    if _active:
        carrier = CapturedMetrics(registry, profiles)
        for bucket in _active:
            bucket.append(carrier)


def note_policy_snapshots(snapshots) -> None:
    """Feed worker-produced policy-table snapshots into every active capture.

    Worker processes cannot hand their live tables to the parent, so the
    parallel runner ships each table's
    :meth:`~repro.core.policy.MobilePolicyTable.snapshot` home instead;
    :func:`repro.obs.export.format_policy_table` renders either.
    """
    if _active_policy:
        for bucket in _active_policy:
            bucket.extend(snapshots)


@contextlib.contextmanager
def capture_simulators() -> Iterator[List]:
    """Collect every Simulator constructed while the ``with`` body runs."""
    bucket: List = []
    _active.append(bucket)
    try:
        yield bucket
    finally:
        _active.remove(bucket)


@contextlib.contextmanager
def capture_policy_tables() -> Iterator[List]:
    """Collect every MobilePolicyTable built while the ``with`` body runs."""
    bucket: List = []
    _active_policy.append(bucket)
    try:
        yield bucket
    finally:
        _active_policy.remove(bucket)
