"""Unit tests for time units, the trace, FIFO delays and jitter helpers."""

import random

import pytest

from repro.sim import Simulator, ms, ns_to_ms, ns_to_s, s, us
from repro.sim.fifo import FifoDelay
from repro.sim.randomness import bernoulli, jittered
from repro.sim.units import MBPS, transmission_delay


class TestUnits:
    def test_conversions_roundtrip(self):
        assert ms(1) == us(1000)
        assert s(1) == ms(1000)
        assert ns_to_ms(ms(7.39)) == pytest.approx(7.39)
        assert ns_to_s(s(2)) == pytest.approx(2.0)

    def test_fractional_values_round(self):
        assert ms(0.5) == us(500)
        assert us(0.1) == 100

    def test_transmission_delay_basic(self):
        # 1250 bytes at 10 Mbit/s = 1 ms.
        assert transmission_delay(1250, 10 * MBPS) == ms(1)

    def test_transmission_delay_zero_rate_is_free(self):
        assert transmission_delay(10_000, 0) == 0


class TestTrace:
    def test_emit_and_select(self):
        sim = Simulator()
        sim.trace.emit("cat", "ev", value=1)
        sim.call_at(ms(5), lambda: sim.trace.emit("cat", "ev", value=2))
        sim.run()
        records = sim.trace.select("cat", "ev")
        assert [r["value"] for r in records] == [1, 2]
        assert records[1].time == ms(5)

    def test_select_by_field_and_since(self):
        sim = Simulator()
        sim.trace.emit("cat", "ev", host="a")
        sim.call_at(ms(10), lambda: sim.trace.emit("cat", "ev", host="b"))
        sim.run()
        assert len(sim.trace.select("cat", "ev", host="a")) == 1
        assert len(sim.trace.select("cat", "ev", since=ms(5))) == 1
        # A missing field never matches.
        assert sim.trace.select("cat", "ev", missing="x") == []

    def test_clear(self):
        sim = Simulator()
        sim.trace.emit("cat", "ev", n=1)
        sim.trace.emit("cat", "ev", n=2)
        sim.trace.clear()
        assert len(sim.trace) == 0

    def test_disabled_trace_records_nothing(self):
        sim = Simulator()
        sim.trace.record_only()
        sim.trace.emit("cat", "ev")
        assert len(sim.trace) == 0


class TestFifoDelay:
    def test_preserves_submission_order_despite_jitter(self):
        sim = Simulator()
        fifo = FifoDelay(sim)
        order = []
        # Second item gets a much smaller delay but must not overtake.
        fifo.post(ms(10), lambda: order.append("first"), "")
        fifo.post(ms(1), lambda: order.append("second"), "")
        sim.run()
        assert order == ["first", "second"]

    def test_delays_accumulate(self):
        sim = Simulator()
        fifo = FifoDelay(sim)
        times = []
        fifo.post(ms(10), lambda: times.append(sim.now), "")
        fifo.post(ms(10), lambda: times.append(sim.now), "")
        sim.run()
        assert times == [ms(10), ms(20)]

    def test_idle_gap_does_not_accumulate(self):
        sim = Simulator()
        fifo = FifoDelay(sim)
        times = []
        fifo.post(ms(5), lambda: times.append(sim.now), "")
        sim.run()
        sim.post_at(ms(100), lambda: fifo.post(ms(5),
                                               lambda: times.append(sim.now), ""))
        sim.run()
        assert times == [ms(5), ms(105)]

    def test_backlog_reporting(self):
        sim = Simulator()
        fifo = FifoDelay(sim)
        assert fifo.backlog == 0
        fifo.post(ms(10), lambda: None, "")
        assert fifo.backlog == ms(10)


class TestRandomness:
    def test_jittered_within_bounds(self):
        sim = Simulator(seed=9)
        rng = sim.rng("t")
        base = us(1000)
        for _ in range(200):
            value = jittered(rng, base, 0.06)
            assert us(940) <= value <= us(1060)

    def test_zero_jitter_returns_base_without_consuming_rng(self):
        sim = Simulator(seed=9)
        rng = sim.rng("t")
        reference = random.Random("9/t")
        # 40 draws of two words each run past the stream's chunk, so both
        # the chunk and the rebuilt generator are checked.
        for _ in range(40):
            assert jittered(rng, us(50), 0.0) == us(50)
            assert rng.random() == reference.random()

    def test_bernoulli_edges(self):
        sim = Simulator(seed=9)
        rng = sim.rng("t")
        assert bernoulli(rng, 0.0) is False
        assert bernoulli(rng, 1.0) is True

    def test_bernoulli_rate_roughly_matches(self):
        sim = Simulator(seed=9)
        rng = sim.rng("t")
        hits = sum(bernoulli(rng, 0.3) for _ in range(5000))
        assert 0.25 < hits / 5000 < 0.35
