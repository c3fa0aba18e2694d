"""Capture hook: collect the simulators an opaque code path creates.

The experiment trials (``repro.experiments.exp_*``) build their own
:class:`~repro.sim.engine.Simulator` instances internally and only return
plain data — there is no handle through which an observer could reach the
simulators afterwards.  Rather than widen every trial's return type, the
engine announces each new simulator here, and :func:`capture_simulators`
records the announcements made while a block runs::

    with capture_simulators() as captured:
        run_fleet_trial(fleet_size=20, seed=7)
    (sim,) = captured

The trial runner (:func:`repro.parallel.runner._run_trial`) reads each
recorded trial's simulators this way, in-process and in pool workers
alike (a worker starts with no capture open); tests and perfbench read
live simulators through it too.  When no capture is active (the normal
case), :func:`note_simulator` is a no-op beyond one truthiness check, so
simulation behavior and performance are untouched.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List

# Stack of active capture lists.  Nested captures each see the simulators
# created inside them (inner captures also feed outer ones).
_active: List[List] = []


def note_simulator(sim) -> None:
    """Called by ``Simulator.__init__``; records *sim* in active captures."""
    if _active:
        for bucket in _active:
            bucket.append(sim)


@contextlib.contextmanager
def capture_simulators() -> Iterator[List]:
    """Collect every Simulator constructed while the ``with`` body runs."""
    bucket: List = []
    _active.append(bucket)
    try:
        yield bucket
    finally:
        # By identity: nested buckets holding the same simulators are equal.
        _active[:] = [other for other in _active if other is not bucket]
