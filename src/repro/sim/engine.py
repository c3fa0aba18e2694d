"""The discrete-event engine.

A :class:`Simulator` is the single authority for virtual time.  Components
never sleep or poll; they schedule callbacks with :meth:`Simulator.call_at`
or :meth:`Simulator.call_later` and the engine runs them in timestamp order.
Ties are broken by insertion order (FIFO), which keeps runs reproducible.

The engine also owns randomness.  Components draw jitter, loss decisions and
identifiers from named streams (:class:`~repro.sim.randomness.RandomStream`)
handed out by :meth:`Simulator.rng`; two components asking for different
stream names never perturb each other's sequences, so adding a new component
does not change existing results.  A stream draws exactly what
``random.Random`` seeded with ``f"{seed}/{name}"`` would, but holds only the
words it may hand out.

Finally the engine owns observability: a per-simulation
:class:`~repro.obs.metrics.MetricsRegistry` (``sim.metrics``) that protocol
components record into, plus its own profiling — per-label dispatch
counters, a high-water queue-depth gauge (live events only; cancelled
events are excluded), and wall-clock accounting surfaced via
:meth:`Simulator.profile`.  Wall time is deliberately *not* in the
registry: the metrics snapshot must be byte-identical across same-seed
runs, and wall clocks are not.  Every layer that loses a packet says so
through :meth:`Simulator.drop`, which counts and traces it by cause.

Performance notes (the engine is the hottest loop in the repository):

* A heap entry is a 4-tuple whose first two items, ``(time, seq)``, are
  unique, so heap comparisons stop there and run in C.  A fire-and-forget
  post is its entry and nothing more: ``(time, seq, callback, label)``,
  with no object allocated for it.  A cancellable timer is
  ``(time, seq, None, event)``, the :class:`Event` that :meth:`call_at`
  returns as its handle, and a shared-medium fan-out is
  ``(time, seq, None, fanout)``.  The run loop tests ``entry[2]`` first,
  so a post runs without reading any object's attribute.
* :class:`Event` is a hand-rolled ``__slots__`` class, not a dataclass —
  the slotted layout roughly halves its construction cost.  Only
  :meth:`call_at` builds one.
* ``now`` is a plain attribute that only :meth:`run` writes, not a
  property: components read the clock on every hop.
* A cancelled event stays queued until its deadline pops it, but it
  drops its callback when cancelled, so its closure is freed at once.
  Once cancelled entries are more than half the heap, the cancel that
  tips it compacts the heap in place (the live entries, re-heapified):
  each compaction removes more than half the entries it scans, so it
  costs O(1) amortised per cancel, and since every ``(time, seq)`` is
  unique the pop order cannot change.  No cancel leaves more cancelled
  entries than live ones in the heap; CPython's asyncio event loop
  applies the same rule to its timer heap.
* Dispatch labels are constant kinds (``udp-tx``, ``eth``, ``tcp-rto``
  ...), string literals at every call site, so scheduling builds no
  string per event and the label series stay bounded however many hosts
  run; the instance lives in the trace records the handlers emit.  The
  run loop counts labels into a plain ``dict`` and flushes into the
  metrics registry only when a run ends (or :meth:`profile` is called),
  so the per-event cost is one dict hit instead of a registry lookup.
* A frame on a shared medium reaches every other port at the same
  instant.  :meth:`Simulator.post_each` queues such a fan-out as **one**
  heap entry whose receivers the run loop calls in turn, with one shared
  argument, so nothing is allocated per receiver.  Each receiver still
  counts as one event (``events_run``, the label count, the
  ``max_events`` budget and the live/queue-depth accounting), so every
  count is what N separate ``post_at`` calls would give, and so is the
  order: N events at one instant with consecutive sequence numbers run
  back to back, and whatever a receiver schedules for that instant runs
  after the last of them.
"""

from __future__ import annotations

import itertools
import time as _wallclock
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from repro.obs.capture import note_simulator
from repro.obs.metrics import Counter, MetricsRegistry
from repro.sim.randomness import RandomStream
from repro.sim.trace import Trace
from repro.sim.units import SECOND

#: Simulated time: an integer count of nanoseconds since simulation start.
Time = int


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


def _budget_exceeded(max_events: int) -> SimulationError:
    return SimulationError(
        f"exceeded max_events={max_events} (runaway simulation?)")


class Event:
    """A scheduled callback.

    The engine runs events in ``(time, seq)`` order: earlier deadlines
    first, and among equal deadlines the event scheduled first runs first.

    This is the public cancellation handle: everything
    :meth:`Simulator.call_at`/:meth:`Simulator.call_later` returns is an
    :class:`Event`, so components should annotate stored timers as
    ``Optional[Event]`` and call :meth:`cancel` without casts.
    ``post_at``/``post_later`` build none: a post is only its heap entry.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "_owner")

    def __init__(self, time: Time, seq: int, callback: Callable[[], None],
                 label: str) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        # The owning Simulator while the event sits in its queue; cleared
        # on pop (or when a compaction purges it) so a late cancel()
        # cannot corrupt the queue accounting.
        self._owner: Optional["Simulator"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq} {self.label!r}{state}>"

    def cancel(self) -> None:
        """Prevent the callback from running when its deadline arrives.

        The callback is dropped now, so whatever it holds is freed before
        the deadline pops the event."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None  # type: ignore[assignment]
        if self._owner is not None:
            self._owner._note_cancelled()


class _FanOut:
    """What a :meth:`Simulator.post_each` entry calls: each of *receivers*
    with *arg*, in order.

    Its ``callback`` is None, which is how the run loop tells it from an
    :class:`Event`.  It is never cancelled and never handed out.
    """

    __slots__ = ("receivers", "arg", "label")

    callback = None
    cancelled = False

    def __init__(self, receivers: List[Callable], arg: object,
                 label: str) -> None:
        self.receivers = receivers
        self.arg = arg
        self.label = label


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  Every named RNG stream is derived from it, so a
        simulation is fully determined by ``(seed, component behaviour)``.
    """

    def __init__(self, seed: int = 0) -> None:
        #: Current virtual time in nanoseconds.  Only :meth:`run` moves it.
        self.now: Time = 0
        self._seq: int = 0
        self._heap: List[tuple] = []
        self._seed = seed
        self._rngs: Dict[str, RandomStream] = {}
        self.trace = Trace(self)
        self.metrics = MetricsRegistry()
        #: TCP initial sequence numbers, one counter per simulation, so a
        #: run's segments do not depend on what earlier runs in the
        #: process opened.
        self.tcp_iss = itertools.count(1000, 64000)
        self._running = False
        self._events_run = 0
        # O(1) accounting of live and cancelled-but-still-queued events, so
        # that pending() and the depth gauge never scan the queue.  Between
        # dispatches `_live == len(_heap) - _cancelled_in_queue + sum of
        # (receivers - 1) over queued fan-outs`: each fan-out receiver is a
        # live event of its own, though the fan-out is one heap entry.
        self._live = 0
        self._cancelled_in_queue = 0
        self._depth_hw = 0
        self._queue_depth_gauge = self.metrics.gauge("engine",
                                                     "queue_depth_max")
        self._dispatch_counters: Dict[str, Counter] = {}
        self._label_counts: Dict[str, int] = {}
        #: Wall-clock nanoseconds spent inside run() (profiling only; kept
        #: out of the metrics registry to preserve snapshot determinism).
        self.wall_time_ns: int = 0
        note_simulator(self)

    # ------------------------------------------------------------------ time

    @property
    def events_run(self) -> int:
        """Number of callbacks executed so far (for harness statistics)."""
        return self._events_run

    # ------------------------------------------------------------ randomness

    def rng(self, stream: str) -> RandomStream:
        """Return the named random stream, creating it on first use.

        Streams are keyed by name and derived from the master seed, so the
        sequence observed through one stream is independent of how many
        other streams exist or how often they are used.  Each draws what
        ``random.Random(f"{seed}/{stream}")`` would draw.
        """
        existing = self._rngs.get(stream)
        if existing is not None:
            return existing
        derived = RandomStream(self._seed, stream)
        self._rngs[stream] = derived
        return derived

    # ------------------------------------------------------------- loss

    def drop(self, layer: str, reason: str, packet: object,
             **owner: str) -> None:
        """Account for one lost packet: the only drop path there is.

        Bumps ``<layer>/dropped{<owner>,reason}`` and emits one
        ``("drop", reason)`` record carrying *layer*, the owner and
        *packet* (or the message that was lost).  *owner* is exactly one
        ``key=value`` naming the component, as for
        :meth:`MetricsRegistry.register`.
        """
        if len(owner) != 1:
            raise TypeError(f"drop() takes one owner keyword, got {owner}")
        self.metrics.counter(layer, "dropped", reason=reason,
                             **owner).value += 1
        self.trace.emit("drop", reason, layer=layer, packet=packet, **owner)

    # ------------------------------------------------------------ scheduling

    def call_at(self, when: Time, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule *callback* to run at absolute time *when*.

        Returns the :class:`Event` as a cancellation handle.  Prefer
        :meth:`post_at` when the handle would be discarded.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {when} ns; "
                f"it is already {self.now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, callback, label)
        event._owner = self
        heappush(self._heap, (when, seq, None, event))
        live = self._live + 1
        self._live = live
        if live > self._depth_hw:
            self._raise_depth(live)
        return event

    def call_later(self, delay: Time, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule *callback* to run *delay* nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        return self.call_at(self.now + delay, callback, label)

    def post_at(self, when: Time, callback: Callable[[], None], label: str = "") -> None:
        """Schedule *callback* at *when*, fire-and-forget.

        The no-handle twin of :meth:`call_at`, for callers that never
        cancel: datapath code (link deliveries, serial FIFOs, forwarding)
        schedules exclusively through this.  The heap entry
        ``(when, seq, callback, label)`` is all it allocates.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {when} ns; "
                f"it is already {self.now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (when, seq, callback, label))
        live = self._live + 1
        self._live = live
        if live > self._depth_hw:
            self._raise_depth(live)

    def post_later(self, delay: Time, callback: Callable[[], None], label: str = "") -> None:
        """Schedule *callback* *delay* nanoseconds from now, fire-and-forget."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        self.post_at(self.now + delay, callback, label)

    def post_each(self, when: Time, receivers: List[Callable[[Any], None]],
                  arg: object, label: str = "") -> None:
        """Call ``receiver(arg)`` for each of *receivers* at *when*.

        Fire-and-forget fan-out (a shared medium delivering one frame to
        every port): one heap entry, counted exactly like one
        :meth:`post_at` per receiver.  The engine keeps *receivers*, so
        the caller must hand over a list it does not mutate afterwards.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {when} ns; "
                f"it is already {self.now} ns"
            )
        count = len(receivers)
        if not count:
            return
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap,
                 (when, seq, None, _FanOut(receivers, arg, label)))
        live = self._live + count
        self._live = live
        if live > self._depth_hw:
            self._raise_depth(live)

    def _raise_depth(self, live: int) -> None:
        """A new queue high-water mark of *live* events."""
        self._depth_hw = live
        gauge = self._queue_depth_gauge
        if live > gauge.value:
            gauge.value = live

    def _note_cancelled(self) -> None:
        """A queued event was cancelled; it no longer counts as live.

        When cancelled entries become more than half the heap, they all
        leave it now: the heap keeps its live entries, in place (``run``
        holds the same list), and is re-heapified.
        """
        self._live -= 1
        cancelled = self._cancelled_in_queue + 1
        heap = self._heap
        if cancelled * 2 > len(heap):
            live = []
            for entry in heap:
                if entry[2] is None and entry[3].cancelled:
                    entry[3]._owner = None
                else:
                    live.append(entry)
            heap[:] = live
            heapify(heap)
            cancelled = 0
        self._cancelled_in_queue = cancelled

    # --------------------------------------------------------------- running

    def run(self, until: Optional[Time] = None, max_events: Optional[int] = None) -> None:
        """Run events in order until the queue drains.

        Parameters
        ----------
        until:
            Stop once virtual time would pass this bound.  Events scheduled
            exactly at ``until`` still run; the clock is then advanced to
            ``until`` so back-to-back ``run(until=...)`` calls tile time.
        max_events:
            Safety valve against runaway loops; raises if this *call*
            executes more than ``max_events`` callbacks.  The budget is
            per-call: a fresh ``run()`` starts from zero, regardless of
            how many events earlier calls dispatched.  The event that
            would exceed the budget (or the rest of a fan-out) stays
            queued, so a later ``run()`` still dispatches it.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        wall_start = _wallclock.perf_counter_ns()
        heap = self._heap
        counts = self._label_counts
        pop = heappop
        ran_this_call = 0
        try:
            while heap:
                entry = pop(heap)
                when, _seq, callback, label = entry
                if until is not None and when > until:
                    heappush(heap, entry)
                    break
                if callback is not None:
                    # A post, (when, seq, callback, label): nothing else.
                    self.now = when
                    if max_events is not None and ran_this_call >= max_events:
                        heappush(heap, entry)  # still queued for a later run()
                        raise _budget_exceeded(max_events)
                    ran_this_call += 1
                    self._live -= 1
                    try:
                        counts[label] += 1
                    except KeyError:
                        counts[label] = 1
                    callback()
                    continue
                event = label  # (when, seq, None, handle or fan-out)
                if event.cancelled:
                    # Lazy purge: an event cancelled since the last
                    # compaction (which waits until cancelled entries are
                    # more than half the heap) is dropped here unrun.
                    self._cancelled_in_queue -= 1
                    event._owner = None
                    continue
                self.now = when
                label = event.label
                callback = event.callback
                if callback is not None:
                    if max_events is not None and ran_this_call >= max_events:
                        heappush(heap, entry)  # still queued for a later run()
                        raise _budget_exceeded(max_events)
                    ran_this_call += 1
                    self._live -= 1
                    try:
                        counts[label] += 1
                    except KeyError:
                        counts[label] = 1
                    event._owner = None
                    callback()
                    continue
                # A fan-out: every receiver is one event of its own.
                receivers = event.receivers
                arg = event.arg
                for index, receiver in enumerate(receivers):
                    if max_events is not None and ran_this_call >= max_events:
                        event.receivers = receivers[index:]
                        heappush(heap, entry)
                        raise _budget_exceeded(max_events)
                    ran_this_call += 1
                    self._live -= 1
                    try:
                        counts[label] += 1
                    except KeyError:
                        counts[label] = 1
                    receiver(arg)
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._events_run += ran_this_call
            self._flush_label_counts()
            self._running = False
            self.wall_time_ns += _wallclock.perf_counter_ns() - wall_start

    def run_for(self, duration: Time) -> None:
        """Run for *duration* nanoseconds of virtual time from now."""
        self.run(until=self.now + duration)

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    # ------------------------------------------------------------- profiling

    def _flush_label_counts(self) -> None:
        """Drain the run loop's deferred label counts into the registry."""
        counts = self._label_counts
        if not counts:
            return
        counters = self._dispatch_counters
        for label, n in counts.items():
            counter = counters.get(label)
            if counter is None:
                counter = self.metrics.counter("engine", "dispatched",
                                               label=label or "unlabeled")
                counters[label] = counter
            counter.value += n
        counts.clear()

    def profile(self) -> Dict[str, object]:
        """Engine profile: simulated vs wall time plus dispatch breakdown.

        Unlike ``metrics.snapshot()`` this includes wall-clock figures, so
        it is *not* reproducible across runs — use it for performance
        work, not for golden-file comparisons.
        """
        self._flush_label_counts()
        dispatched = {
            label or "unlabeled": counter.value
            for label, counter in sorted(self._dispatch_counters.items())
        }
        wall = self.wall_time_ns
        return {
            "events_run": self._events_run,
            "sim_time_ns": self.now,
            "wall_time_ns": wall,
            "sim_to_wall_ratio": (self.now / wall) if wall else None,
            "queue_depth_max": self._queue_depth_gauge.value,
            "pending": self.pending(),
            "dispatched_by_label": dispatched,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self.now / SECOND:.6f}s pending={self.pending()} "
            f"run={self._events_run}>"
        )
