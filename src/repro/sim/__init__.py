"""Discrete-event simulation kernel for the MosquitoNet reproduction.

The paper measured a real Linux 1.2.13 network stack with wall-clock tools.
Our substrate is this deterministic discrete-event kernel: a single
:class:`~repro.sim.engine.Simulator` owns virtual time (integer nanoseconds),
an event queue with FIFO tie-breaking, all randomness (seeded, never the
global RNG), and a structured trace used by the experiment harnesses to
reconstruct per-stage timings such as Figure 7's registration time-line.
"""

from repro.sim.engine import Event, Simulator, Time
from repro.sim.trace import Trace, TraceRecord
from repro.sim.units import (
    KBPS,
    MBPS,
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    ms,
    ns_to_ms,
    ns_to_s,
    s,
    us,
)

__all__ = [
    "Event",
    "Simulator",
    "Time",
    "Trace",
    "TraceRecord",
    "NANOSECOND",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "KBPS",
    "MBPS",
    "ms",
    "us",
    "s",
    "ns_to_ms",
    "ns_to_s",
]
