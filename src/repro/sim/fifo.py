"""FIFO-serialized processing delays.

Per-packet software costs are jittered, and two packets handed to the same
stage nanoseconds apart would otherwise race: whichever drew the smaller
jitter would overtake the other.  Real network stacks don't reorder like
that — a CPU (or a queue discipline) processes packets one at a time, in
arrival order.  :class:`FifoDelay` models exactly that: work starts when
the previous item finishes, so jitter stretches the pipeline but never
reorders it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class FifoDelay:
    """A single-server queue for software processing stages."""

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._busy_until = 0

    def post(self, delay: int, callback: Callable[[], None],
             label: str) -> None:
        """Run *callback* after *delay* of service time, in FIFO order.

        Fire-and-forget: nothing cancels a processing stage, so no handle
        is returned."""
        sim = self._sim
        now = sim.now
        busy = self._busy_until
        finish = (busy if busy > now else now) + (delay if delay > 0 else 0)
        self._busy_until = finish
        sim.post_at(finish, callback, label)

    @property
    def backlog(self) -> int:
        """Nanoseconds of queued work ahead of a new arrival (0 = idle)."""
        return max(0, self._busy_until - self._sim.now)
