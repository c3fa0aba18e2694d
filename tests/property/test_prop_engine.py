"""Property tests for the event engine and FIFO delays."""

import functools

from hypothesis import given, strategies as st

from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.sim.fifo import FifoDelay

delays = st.lists(st.integers(min_value=0, max_value=10_000_000),
                  min_size=1, max_size=50)


@given(delays)
def test_events_execute_in_deadline_then_fifo_order(times):
    sim = Simulator()
    executed = []
    for index, when in enumerate(times):
        sim.call_at(when, lambda index=index, when=when: executed.append((when, index)))
    sim.run()
    assert executed == sorted(executed)


@given(delays)
def test_clock_is_monotonic(times):
    sim = Simulator()
    stamps = []
    for when in times:
        sim.call_at(when, lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == sorted(stamps)
    assert len(stamps) == len(times)


@given(delays, st.integers(min_value=0, max_value=10_000_000))
def test_run_until_splits_cleanly(times, cut):
    sim = Simulator()
    early, late = [], []
    for when in times:
        sim.call_at(when, lambda when=when: (early if when <= cut else late).append(when))
    sim.run(until=cut)
    assert sorted(early) == sorted(t for t in times if t <= cut)
    assert late == []
    sim.run()
    assert sorted(late) == sorted(t for t in times if t > cut)


@given(delays)
def test_fifo_never_reorders(service_times):
    sim = Simulator()
    fifo = FifoDelay(sim)
    completed = []
    for index, service in enumerate(service_times):
        fifo.post(service, lambda index=index: completed.append(index), "")
    sim.run()
    assert completed == list(range(len(service_times)))


@given(delays)
def test_fifo_total_time_is_sum_of_services(service_times):
    sim = Simulator()
    fifo = FifoDelay(sim)
    finish = []
    for service in service_times:
        fifo.post(service, lambda: finish.append(sim.now), "")
    sim.run()
    assert finish[-1] == sum(service_times)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1_000_000),
                          st.booleans(), st.booleans()),
                min_size=1, max_size=30))
def test_cancelled_events_never_run(schedule):
    # ``use_post`` entries go through the handle-free post_at and can never
    # be cancelled; the rest are cancellable call_at events.
    sim = Simulator()
    ran = []
    events = []
    for index, (when, use_post, cancel) in enumerate(schedule):
        def callback(index=index):
            ran.append(index)
        if use_post:
            sim.post_at(when, callback)
        else:
            events.append((sim.call_at(when, callback), cancel))
    for event, cancel in events:
        if cancel:
            event.cancel()
    sim.run()
    expected = [index for index, (_, use_post, cancel) in enumerate(schedule)
                if use_post or not cancel]
    assert sorted(ran) == expected
    assert sim.pending() == 0


class _Reference(Simulator):
    """The reference engine: cancelled entries wait for their deadlines,
    and every post and every fan-out receiver is a handle :class:`Event`
    of its own, as ``call_at`` queues it."""

    def _note_cancelled(self) -> None:
        self._cancelled_in_queue += 1
        self._live -= 1

    def post_at(self, when, callback, label=""):
        self.call_at(when, callback, label)

    def post_each(self, when, receivers, arg, label=""):
        for receiver in receivers:
            self.call_at(when, functools.partial(receiver, arg), label)


#: Operation kinds, timers and cancels listed more than once so that
#: cancelled entries often outnumber live ones and the heap compacts.
KINDS = ("call", "call", "cancel", "cancel", "cancel", "post", "each",
         "run_until", "run_max")

#: ``(kind, n, victim, child)``.  By *kind*, *n* is a delay, a handle to
#: cancel, a receiver count or a run's bound.  Handles are counted back
#: from the newest, the likeliest to be still queued.  A "call" timer,
#: when it fires, cancels handle *victim* and arms a child timer *child*
#: ns later, each if set.
engine_ops = st.tuples(st.sampled_from(KINDS), st.integers(0, 1_000),
                       st.one_of(st.none(), st.integers(0, 7)),
                       st.one_of(st.none(), st.integers(0, 500)))


def _drive(engine, ops):
    """Run *ops* on a fresh *engine*; return what any caller can observe.

    On the compacting engine, every cancel that takes a queued event out
    must leave the heap at most twice the live events plus one (a cancel
    of an event that already ran or was already cancelled changes
    nothing).
    """
    sim = engine()
    dispatched, states, handles = [], [], []

    def cancel(index):
        if not handles:
            return
        before = sim.pending()
        handles[-1 - index % len(handles)].cancel()
        if sim.pending() < before and engine is Simulator:
            assert len(sim._heap) <= 2 * sim.pending() + 1

    def timer(ident, victim, child):
        def fire():
            dispatched.append((sim.now, ident))
            if victim is not None:
                cancel(victim)
            if child is not None:
                handles.append(sim.call_later(
                    child, timer((ident, "child"), victim, None), "child"))
        return fire

    for step, (kind, n, victim, child) in enumerate(ops):
        if kind == "call":
            handles.append(sim.call_later(n, timer(step, victim, child),
                                          "call"))
        elif kind == "post":
            sim.post_later(n, lambda step=step: dispatched.append(
                (sim.now, step)), "post")
        elif kind == "each":
            sim.post_each(sim.now + n,
                          [lambda arg, i=i: dispatched.append((sim.now, arg, i))
                           for i in range(1 + n % 4)], step, "each")
        elif kind == "cancel":
            cancel(n % 8)
        elif kind == "run_until":
            sim.run(until=sim.now + n // 5)
        else:
            try:
                sim.run(max_events=n % 4)
            except SimulationError:
                dispatched.append("budget")
        states.append((sim.now, sim.events_run, sim.pending()))
    sim.run()
    states.append((sim.now, sim.events_run, sim.pending()))
    profile = sim.profile()
    return (dispatched, states, profile["queue_depth_max"],
            profile["dispatched_by_label"])


@given(st.lists(engine_ops, min_size=10, max_size=60))
def test_compaction_changes_nothing_a_caller_can_observe(ops):
    """Compacting the heap, queueing a post as a bare tuple and a fan-out
    as one entry keep the dispatch order, ``events_run``, ``pending()``,
    the queue high-water and the per-label dispatch counts of an engine
    that leaves every cancelled entry for its deadline and queues every
    callback as a handle, through cancels from inside callbacks,
    ``run(until=)`` and runs resumed after ``max_events``."""
    assert _drive(Simulator, ops) == _drive(_Reference, ops)
