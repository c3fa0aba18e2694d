"""Unit tests for the pluggable congestion-control strategies."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import ip
from repro.net.congestion import (
    CONGESTION_CONTROLS,
    CubicCC,
    RenoCC,
    TahoeCC,
    icbrt,
    make_congestion_control,
)
from repro.net.packet import AppData
from repro.net.tcp import DEFAULT_MSS, DEFAULT_WINDOW_BYTES
from repro.sim import Simulator
from tests.conftest import Lan

MSS = DEFAULT_MSS
WIN = DEFAULT_WINDOW_BYTES


def make(name, initial_cwnd=None, **kwargs):
    return make_congestion_control(name, mss=MSS, max_window=WIN,
                                   initial_cwnd=initial_cwnd, **kwargs)


class TestRegistry:
    def test_all_three_strategies_registered(self):
        assert set(CONGESTION_CONTROLS) == {"tahoe", "reno", "cubic"}

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="tahoe"):
            make("vegas")

    def test_initial_window_defaults_and_overrides(self):
        cc = make("tahoe")
        assert cc.cwnd == 2 * MSS
        assert cc.ssthresh == WIN
        tuned = make("reno", initial_cwnd=WIN, initial_ssthresh=3 * MSS)
        assert tuned.cwnd == WIN
        assert tuned.ssthresh == 3 * MSS

    def test_window_is_clamped_to_max(self):
        cc = make("reno")
        cc.cwnd = 10 * WIN
        assert cc.window() == WIN


class TestIcbrt:
    @pytest.mark.parametrize("value", [0, 1, 7, 8, 26, 27, 1000, 10**9,
                                       10**12 + 7, 2**62])
    def test_floor_cube_root(self, value):
        root = icbrt(value)
        assert root ** 3 <= value < (root + 1) ** 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            icbrt(-1)


class TestTahoe:
    def test_slow_start_doubles_per_ack(self):
        cc = make("tahoe")
        cc.on_ack(MSS, now=0, srtt=None)
        assert cc.cwnd == 3 * MSS  # below ssthresh: +MSS per ACK

    def test_congestion_avoidance_increment(self):
        cc = make("tahoe", initial_cwnd=WIN, initial_ssthresh=2 * MSS)
        cc.on_ack(MSS, now=0, srtt=None)
        # Legacy integer AIMD: +MSS*MSS//cwnd, clamped at the max window.
        assert cc.cwnd == WIN

    def test_timeout_collapses_to_one_mss(self):
        cc = make("tahoe", initial_cwnd=WIN)
        cc.on_timeout(flight=WIN, now=0)
        assert cc.cwnd == MSS
        assert cc.ssthresh == WIN // 2

    def test_no_fast_retransmit(self):
        assert TahoeCC(mss=MSS, max_window=WIN).supports_fast_retransmit is False


class TestReno:
    def test_enter_recovery_halves_and_inflates(self):
        cc = make("reno", initial_cwnd=WIN)
        cc.on_enter_recovery(flight=WIN, now=0)
        assert cc.ssthresh == WIN // 2
        assert cc.cwnd == WIN // 2 + 3 * MSS

    def test_dup_ack_inflates_during_recovery(self):
        cc = make("reno", initial_cwnd=WIN)
        cc.on_enter_recovery(flight=WIN, now=0)
        inflated = cc.cwnd
        cc.on_dup_ack_in_recovery(now=0)
        assert cc.cwnd == inflated + MSS

    def test_partial_ack_deflates_by_amount_acked(self):
        cc = make("reno", initial_cwnd=WIN)
        cc.on_enter_recovery(flight=WIN, now=0)
        before = cc.cwnd
        cc.on_partial_ack(acked=2 * MSS, now=0)
        assert cc.cwnd == max(before - 2 * MSS + MSS, MSS)

    def test_exit_recovery_deflates_to_ssthresh(self):
        cc = make("reno", initial_cwnd=WIN)
        cc.on_enter_recovery(flight=WIN, now=0)
        cc.on_dup_ack_in_recovery(now=0)
        cc.on_exit_recovery(now=0)
        assert cc.cwnd == cc.ssthresh == WIN // 2

    def test_ssthresh_floor_is_two_mss(self):
        cc = make("reno", initial_cwnd=MSS)
        cc.on_enter_recovery(flight=MSS, now=0)
        assert cc.ssthresh == 2 * MSS

    def test_supports_fast_retransmit(self):
        assert RenoCC(mss=MSS, max_window=WIN).supports_fast_retransmit


class TestCubic:
    def test_deterministic_across_instances(self):
        """Two instances fed identical events stay in lockstep — the
        strategy may not consult wall clocks or unseeded randomness."""
        a = CubicCC(mss=MSS, max_window=WIN)
        b = CubicCC(mss=MSS, max_window=WIN)
        script = [("on_ack", (MSS, 10**6, 2 * 10**6)),
                  ("on_enter_recovery", (WIN, 5 * 10**6)),
                  ("on_partial_ack", (MSS, 6 * 10**6)),
                  ("on_exit_recovery", (7 * 10**6,)),
                  ("on_ack", (MSS, 9 * 10**6, 2 * 10**6)),
                  ("on_timeout", (WIN, 12 * 10**6))]
        for method, args in script:
            getattr(a, method)(*args)
            getattr(b, method)(*args)
            assert (a.cwnd, a.ssthresh) == (b.cwnd, b.ssthresh)

    def test_window_grows_toward_w_max_after_backoff(self):
        cc = CubicCC(mss=MSS, max_window=WIN)
        cc.cwnd = WIN
        cc.on_enter_recovery(flight=WIN, now=0)
        cc.on_exit_recovery(now=0)
        floor = cc.cwnd
        for step in range(1, 40):
            cc.on_ack(MSS, now=step * 10**8, srtt=2 * 10**6)
        assert cc.cwnd > floor
        assert cc.cwnd <= WIN + 2 * MSS  # near the plateau, not diverging

    def test_multiplicative_decrease_uses_beta(self):
        cc = CubicCC(mss=MSS, max_window=WIN)
        cc.cwnd = WIN
        cc.on_enter_recovery(flight=WIN, now=0)
        assert cc.ssthresh == max(WIN * 717 // 1024, 2 * MSS)


class TestConnectionIntegration:
    def run_transfer(self, cc_name):
        lan = Lan(Simulator(seed=4321), config=DEFAULT_CONFIG.with_overrides(
            tcp_congestion_control=cc_name))
        got = []
        lan.b.tcp.listen(23, lambda conn: setattr(conn, "on_data",
                                                  lambda d: got.append(d.content)))
        client = lan.a.tcp.connect(ip("10.0.0.2"), 23)
        client.on_established = lambda: [client.send(AppData(i, 400))
                                         for i in range(8)]
        lan.run(3000)
        return client, got

    @pytest.mark.parametrize("cc_name", ["tahoe", "reno", "cubic"])
    def test_transfer_completes_under_each_strategy(self, cc_name):
        client, got = self.run_transfer(cc_name)
        assert got == list(range(8))
        assert client.cc.name == cc_name

    def test_per_connection_override_beats_config(self, lan):
        lan.b.tcp.listen(23, lambda conn: None)
        client = lan.a.tcp.connect(ip("10.0.0.2"), 23,
                                   congestion_control="cubic")
        assert client.cc.name == "cubic"
        assert lan.config.tcp_congestion_control == "tahoe"

    def test_fast_retransmit_repairs_single_loss_without_rto(self):
        """Reno recovers one dropped segment from dup ACKs alone."""
        lan = Lan(Simulator(seed=99), config=DEFAULT_CONFIG.with_overrides(
            tcp_congestion_control="reno"))
        got = []
        lan.b.tcp.listen(23, lambda conn: setattr(conn, "on_data",
                                                  lambda d: got.append(d.content)))
        client = lan.a.tcp.connect(ip("10.0.0.2"), 23, initial_cwnd=WIN)
        lan.run(500)
        # Drop exactly the first data segment at the receiver's demux.
        original = lan.b.tcp._demux
        dropped = []

        def lossy_demux(packet, segment):
            if segment.payload.size_bytes > 0 and not dropped:
                dropped.append(segment)
                return
            original(packet, segment)

        lan.b.tcp._demux = lossy_demux
        for i in range(6):
            client.send(AppData(i, MSS))
        lan.run(4000)
        assert got == list(range(6))
        assert len(dropped) == 1
        assert client.fast_retransmits == 1
        rtos = lan.sim.metrics.get("tcp", "rto_expirations", host="a")
        assert rtos is not None and rtos.value == 0
