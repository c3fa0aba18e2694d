"""Tiny module-level trial functions for exercising the worker pool.

The pool references trials by ``"module:function"`` path, so its tests
need real importable functions — cheap ones, importable in spawn-started
children too.  They double as minimal examples of the trial contract:
picklable params in, plain data out, any simulators built inside show up
in metrics captures.
"""

from __future__ import annotations

from repro.core.policy import MobilePolicyTable, RoutingMode
from repro.net.addressing import subnet
from repro.obs import capture
from repro.parallel.seeds import spawn_seed
from repro.sim.engine import Simulator
from repro.sim.units import ms


def echo_trial(value) -> dict:
    """The identity trial: returns its (picklable) input."""
    return {"value": value}


#: Callbacks each :func:`seeded_sim_trial` schedules.
TIMERS = 8


def seeded_sim_trial(seed: int) -> dict:
    """Builds a tiny simulation: :data:`TIMERS` callbacks, one counter
    metric and a one-entry Mobile Policy Table.

    Deterministic in *seed* via :func:`spawn_seed`, so tests can check
    that results depend only on params, never on which worker ran them.
    """
    sim = Simulator(seed=seed)
    counter = sim.metrics.counter("selftest", "fired")
    MobilePolicyTable(metrics=sim.metrics, owner="mh").set_policy(
        subnet("36.8.0.0/24"), RoutingMode.LOCAL)
    for index in range(TIMERS):
        sim.post_at(ms(index + 1), counter.inc, label="selftest")
    sim.run()
    return {"seed": seed, "fired": counter.value,
            "derived": spawn_seed(seed, TIMERS)}


def failing_trial() -> dict:
    """Raises; lets tests assert worker exceptions surface in the parent."""
    raise RuntimeError("boom")


def value_error_trial(index: int, log: str) -> dict:
    """Appends *index* to the file *log*, then raises :class:`ValueError`:
    an error of a type the pool's own set-up can also raise, so tests
    can tell the two apart and count how often each trial ran."""
    with open(log, "a") as handle:
        handle.write(f"{index}\n")
    raise ValueError(f"trial {index} failed")


def open_captures_trial() -> int:
    """How many :func:`~repro.obs.capture_simulators` buckets are open
    where the trial runs."""
    return len(capture._active)
