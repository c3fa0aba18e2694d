"""Unit tests for the discrete-event engine."""

import random
import weakref

import pytest

from repro.sim import Simulator, ms
from repro.sim.engine import Event, SimulationError


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(ms(30), lambda: order.append("c"))
    sim.call_at(ms(10), lambda: order.append("a"))
    sim.call_at(ms(20), lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_run_fifo():
    sim = Simulator()
    order = []
    for index in range(10):
        sim.call_at(ms(5), lambda index=index: order.append(index))
    sim.run()
    assert order == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.call_at(ms(42), lambda: seen.append(sim.now))
    sim.run()
    assert seen == [ms(42)]


def test_call_later_is_relative_to_now():
    sim = Simulator()
    times = []

    def first():
        sim.call_later(ms(5), lambda: times.append(sim.now))

    sim.call_at(ms(10), first)
    sim.run()
    assert times == [ms(15)]


def test_cancelled_events_do_not_run():
    sim = Simulator()
    ran = []
    event = sim.call_at(ms(10), lambda: ran.append(1))
    event.cancel()
    sim.run()
    assert ran == []


def test_run_until_stops_and_tiles():
    sim = Simulator()
    ran = []
    sim.call_at(ms(10), lambda: ran.append("early"))
    sim.call_at(ms(100), lambda: ran.append("late"))
    sim.run(until=ms(50))
    assert ran == ["early"]
    assert sim.now == ms(50)
    sim.run(until=ms(150))
    assert ran == ["early", "late"]


def test_event_exactly_at_until_boundary_runs():
    sim = Simulator()
    ran = []
    sim.call_at(ms(50), lambda: ran.append(1))
    sim.run(until=ms(50))
    assert ran == [1]


def test_run_for_advances_duration():
    sim = Simulator()
    sim.run_for(ms(25))
    sim.run_for(ms(25))
    assert sim.now == ms(50)


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.call_at(ms(10), lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(ms(5), lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1, lambda: None)


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.call_at(ms(1), reenter)
    sim.run()
    assert len(errors) == 1


def test_max_events_guard_trips_on_runaway():
    sim = Simulator()

    def loop():
        sim.call_later(1, loop)

    sim.call_later(1, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_pending_counts_live_events():
    sim = Simulator()
    keep = sim.call_at(ms(10), lambda: None)
    gone = sim.call_at(ms(20), lambda: None)
    gone.cancel()
    assert sim.pending() == 1
    assert keep is not None


def test_cancel_frees_the_callback_before_its_deadline():
    class Payload:
        def __call__(self):
            pass

    sim = Simulator()
    payload = Payload()
    alive = weakref.ref(payload)
    handle = sim.call_at(ms(10), payload, "t")
    sim.post_at(ms(20), lambda: None)
    del payload
    assert alive() is not None
    handle.cancel()
    assert alive() is None
    assert handle.cancelled
    sim.run()
    assert sim.events_run == 1


def test_cancelled_majority_leaves_the_heap_in_one_compaction():
    sim = Simulator()
    order = []
    handles = [sim.call_at(ms(index % 2), lambda index=index: order.append(index))
               for index in range(10)]
    for handle in handles[:5]:
        handle.cancel()
    # Five of ten is not more than half: they wait for their deadlines.
    assert len(sim._heap) == 10 and sim._cancelled_in_queue == 5
    handles[5].cancel()
    assert len(sim._heap) == 4 and sim._cancelled_in_queue == 0
    assert all(handle._owner is None for handle in handles[:6])
    assert sim.pending() == 4
    handles[0].cancel()  # a second cancel changes nothing
    assert sim.pending() == 4
    sim.run()
    # Deadline first, then scheduling order, as before the compaction.
    assert order == [6, 8, 7, 9]


def test_compaction_inside_a_callback_keeps_the_running_queue():
    sim = Simulator()
    order = []
    later = [sim.call_at(ms(2 + index), lambda index=index: order.append(index))
             for index in range(4)]

    def cancel_most():
        order.append("cancel")
        for handle in later[:3]:
            handle.cancel()  # the third tips the heap into a compaction
        assert len(sim._heap) == 1
        sim.post_at(ms(10), lambda: order.append("new"))

    sim.post_at(ms(1), cancel_most)
    sim.run()
    assert order == ["cancel", 3, "new"]
    assert sim.events_run == 3 and sim.pending() == 0 and not sim._heap


def test_rng_streams_are_independent_and_deterministic():
    sim1 = Simulator(seed=5)
    sim2 = Simulator(seed=5)
    a1 = [sim1.rng("a").random() for _ in range(5)]
    # Interleave another stream in sim2; stream "a" must not shift.
    rng_a = sim2.rng("a")
    rng_b = sim2.rng("b")
    a2 = []
    for _ in range(5):
        a2.append(rng_a.random())
        rng_b.random()
    assert a1 == a2


def test_rng_streams_differ_by_name_and_seed():
    sim = Simulator(seed=5)
    assert sim.rng("a").random() != sim.rng("b").random()
    other = Simulator(seed=6)
    assert Simulator(seed=5).rng("a").random() != other.rng("a").random()


def test_events_run_counter():
    sim = Simulator()
    for index in range(7):
        sim.call_at(ms(index), lambda: None)
    sim.run()
    assert sim.events_run == 7


def test_ten_thousand_trivial_events_all_run():
    sim = Simulator()
    counter = []
    for index in range(10_000):
        sim.call_at(index, lambda: counter.append(None))
    sim.run()
    assert len(counter) == 10_000


def test_max_events_budget_is_per_call():
    """Regression: the budget used to compare against the lifetime total,

    so a simulation that had already run N events would trip
    ``run(max_events=N)`` immediately even if the new call only had a
    handful of events to dispatch.
    """
    sim = Simulator()
    for index in range(50):
        sim.call_at(ms(index), lambda: None)
    sim.run()
    assert sim.events_run == 50
    # A fresh run() gets a fresh budget: 10 events under a 20-event cap
    # must succeed despite the 50 already on the lifetime counter.
    for index in range(10):
        sim.call_at(ms(100 + index), lambda: None)
    sim.run(max_events=20)
    assert sim.events_run == 60


def test_max_events_exact_budget_is_allowed():
    sim = Simulator()
    for index in range(5):
        sim.call_at(ms(index), lambda: None)
    sim.run(max_events=5)  # exactly at the cap: fine
    assert sim.events_run == 5


# ------------------------------------------------------- fan-out dispatch

def _dispatch_count(sim, label):
    return sim.metrics.get("engine", "dispatched", label=label).value


def _depth_max(sim):
    return sim.metrics.gauge("engine", "queue_depth_max").value


def test_fan_out_counts_like_one_post_at_per_receiver():
    """events_run, the label counter and the queue high-water of a fan-out
    to N receivers equal those of N post_at calls at the same instant."""
    n = 7
    batched, separate = Simulator(), Simulator()
    for sim in (batched, separate):
        sim.post_at(ms(1), lambda: None, label="before")
    batched.post_each(ms(2), [lambda arg: None] * n, "frame", label="eth:lan")
    for _ in range(n):
        separate.post_at(ms(2), lambda: None, label="eth:lan")
    assert batched.pending() == separate.pending() == n + 1
    assert _depth_max(batched) == _depth_max(separate) == n + 1
    for sim in (batched, separate):
        sim.run()
    assert batched.events_run == separate.events_run == n + 1
    assert _dispatch_count(batched, "eth:lan") == _dispatch_count(
        separate, "eth:lan") == n
    assert batched.pending() == separate.pending() == 0


def test_fan_out_depth_tracks_each_receiver_as_it_runs():
    """A receiver that schedules sees the others still queued, exactly as
    with one event per receiver."""
    def run(batched):
        sim = Simulator()

        def receiver(arg):
            sim.post_later(ms(1), lambda: None)
            sim.post_later(ms(1), lambda: None)

        if batched:
            sim.post_each(ms(1), [receiver] * 4, None)
        else:
            for _ in range(4):
                sim.post_at(ms(1), lambda: receiver(None))
        sim.run()
        return _depth_max(sim), sim.events_run

    assert run(batched=True) == run(batched=False) == (8, 12)


def test_fan_out_runs_receivers_in_order_with_the_shared_argument():
    sim = Simulator()
    seen = []
    receivers = [lambda arg, index=index: seen.append((index, arg))
                 for index in range(5)]
    sim.post_each(ms(3), receivers, "frame")
    sim.run()
    assert seen == [(index, "frame") for index in range(5)]
    assert sim.now == ms(3)


def test_fan_out_keeps_its_place_among_same_instant_events():
    """Events queued before the fan-out run before it, and anything a
    receiver schedules for the same instant runs after the whole batch."""
    sim = Simulator()
    order = []
    sim.post_at(ms(1), lambda: order.append("earlier"))

    def receiver(index):
        order.append(f"rx{index}")
        sim.post_at(ms(1), lambda: order.append(f"scheduled-by-rx{index}"))

    sim.post_each(ms(1), [lambda arg, i=i: receiver(i) for i in range(3)],
                  None)
    sim.post_at(ms(1), lambda: order.append("later"))
    sim.run()
    assert order == ["earlier", "rx0", "rx1", "rx2", "later",
                     "scheduled-by-rx0", "scheduled-by-rx1",
                     "scheduled-by-rx2"]


def test_fan_out_to_nobody_queues_nothing():
    sim = Simulator()
    sim.post_each(ms(1), [], "frame")
    assert sim.pending() == 0
    sim.run()
    assert sim.events_run == 0


def test_fan_out_in_the_past_raises():
    sim = Simulator()
    sim.call_at(ms(5), lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_each(ms(1), [lambda arg: None], None)


def test_max_events_trip_mid_fan_out_loses_no_receiver():
    sim = Simulator()
    seen = []
    sim.post_each(ms(1), [lambda arg, i=i: seen.append(i) for i in range(6)],
                  None, label="eth:lan")
    with pytest.raises(SimulationError):
        sim.run(max_events=4)
    assert seen == [0, 1, 2, 3]
    assert sim.events_run == 4
    assert sim.pending() == 2
    sim.run()
    assert seen == list(range(6))
    assert sim.events_run == 6
    assert _dispatch_count(sim, "eth:lan") == 6
    assert sim.pending() == 0


def test_max_events_trip_keeps_the_event_queued():
    sim = Simulator()
    seen = []
    for index in range(3):
        sim.post_at(ms(index), lambda index=index: seen.append(index))
    with pytest.raises(SimulationError):
        sim.run(max_events=2)
    # The post that tripped the budget stays queued; the clock is at it.
    assert seen == [0, 1] and sim.events_run == 2 and sim.pending() == 1
    assert sim.now == ms(2)
    sim.run()
    assert seen == [0, 1, 2] and sim.events_run == 3


def test_a_post_builds_no_event_and_a_call_still_returns_one(monkeypatch):
    built = []
    original = Event.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    sim = Simulator()
    ran = []
    for index in range(1_000):
        sim.post_at(index, lambda index=index: ran.append(index), "post")
    assert built == []
    handle = sim.call_at(500, lambda: ran.append("handle"), "handle")
    assert built == [handle] and isinstance(handle, Event)
    handle.cancel()
    sim.run()
    assert ran == list(range(1_000)) and sim.pending() == 0


# ------------------------------------------------------- lazy rng streams

def test_building_hosts_creates_no_rng_stream_until_first_draw():
    """Per-component jitter streams resolve on first draw, and the first
    draw is the one an eagerly created stream would have given."""
    from repro.config import DEFAULT_CONFIG
    from repro.testbed import build_testbed

    sim = Simulator(seed=11)
    testbed = build_testbed(sim, DEFAULT_CONFIG,
                            with_remote_correspondent=False, with_dhcp=False)
    # Only the media's loss streams exist: no host built one.
    assert all(name.startswith("link:") for name in sim._rngs)
    before = set(sim._rngs)

    mobile = testbed.mobile
    agent = testbed.home_agent
    draws = {
        f"udp:{mobile.name}": lambda: mobile.udp._rng.uniform(0.0, 1.0),
        f"reg-backoff:{mobile.name}":
            lambda: mobile.registration._backoff_rng.uniform(0.0, 1.0),
        f"home-agent:{agent.host.name}": lambda: agent._rng.uniform(0.0, 1.0),
        f"device:{testbed.mh_eth.name}":
            lambda: testbed.mh_eth._rng.uniform(0.0, 1.0),
    }
    for name, draw in draws.items():
        assert name not in sim._rngs
        assert draw() == random.Random(f"11/{name}").uniform(0.0, 1.0)
        assert name in sim._rngs
    assert set(sim._rngs) == before | set(draws)
    # The first draw leaves a plain instance attribute behind, so later
    # draws pay no property or lookup cost.
    assert vars(mobile.udp)["_rng"] is sim.rng(f"udp:{mobile.name}")
    assert vars(testbed.mh_eth)["_rng"] is sim.rng(
        f"device:{testbed.mh_eth.name}")
