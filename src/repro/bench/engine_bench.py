"""Engine microbenchmark: raw dispatch cost of the tuple-heap loop.

The workload is a fixed, fully deterministic mesh of timer chains chosen to
look like the simulator's real life: mostly short relative timers (link
and per-packet costs), periodic same-timestamp bursts (a batch of FIFO
deliveries landing together), and a steady trickle of cancellations
(retransmit timers that get acked).  No RNG, no trace, no packet objects —
this isolates the scheduling/dispatch machinery.

Synthetic figures locate a cost; they are not evidence of an end-to-end
speedup (real experiments spend most of their time outside the engine).
"""

from __future__ import annotations

import time as _wallclock
from typing import Dict

from repro.sim.engine import Simulator

#: Timer chains started at slightly staggered times.
CHAINS = 32
#: Every burst interval, this many events land on one timestamp.
BURST = 8


def _noop() -> None:
    return None


def _run_workload(sim: Simulator, n_events: int) -> Dict[str, object]:
    """Drive *sim* through the standard workload; returns measurements."""
    post_later = sim.post_later
    post_at = sim.post_at
    state = {"count": 0}

    def tick() -> None:
        count = state["count"] = state["count"] + 1
        if count >= n_events:
            return
        post_later(1_000 + (count % 7) * 37, tick, "bench-tick")
        if count % 50 == 0:
            # A timer that never fires: armed, then immediately cancelled
            # (the fate of most retransmission timers).  Cancellation needs
            # a handle, so this one goes through call_later.
            sim.call_later(500_000, _noop, "bench-cancelled").cancel()
        if count % 97 == 0:
            # A burst: BURST events sharing one future timestamp.
            when = sim.now + 4_096
            for _ in range(BURST):
                post_at(when, _noop, "bench-burst")

    for chain in range(CHAINS):
        post_later(chain * 11, tick, "bench-tick")

    wall_start = _wallclock.perf_counter_ns()
    sim.run()
    wall_ns = _wallclock.perf_counter_ns() - wall_start

    events = sim.events_run
    return {
        "events_run": events,
        "wall_ns": wall_ns,
        "ns_per_event": wall_ns / events,
        "events_per_sec": events * 1e9 / wall_ns,
    }


def run_engine_bench(quick: bool = False) -> Dict[str, object]:
    """Run the workload on the engine; returns the BENCH_engine doc."""
    n_events = 40_000 if quick else 200_000
    # Warm-up: populate type caches and counter dicts outside the timed
    # region.
    _run_workload(Simulator(), 2_000)
    return {
        "bench": "engine",
        "workload": {
            "n_events": n_events,
            "chains": CHAINS,
            "burst": BURST,
            "quick": quick,
        },
        "heap": _run_workload(Simulator(), n_events),
    }
