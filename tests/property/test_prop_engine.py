"""Property tests for the event engine and FIFO delays."""

from hypothesis import given, strategies as st

from repro.sim import Simulator
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
        fifo.schedule(service, lambda index=index: completed.append(index))
    sim.run()
    assert completed == list(range(len(service_times)))


@given(delays)
def test_fifo_total_time_is_sum_of_services(service_times):
    sim = Simulator()
    fifo = FifoDelay(sim)
    finish = []
    for service in service_times:
        fifo.schedule(service, lambda: finish.append(sim.now))
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
