"""Unit tests for the RFC 6298 RTO estimator and Karn's algorithm."""

from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.net.packet import AppData
from repro.net.tcp import MAX_RTO, MIN_RTO, RTO_BACKOFF_LIMIT, RtoEstimator
from repro.sim import ms


class TestRtoEstimator:
    def test_first_sample_initialises_per_rfc(self):
        est = RtoEstimator()
        est.sample(ms(100))
        assert est.srtt == ms(100)
        assert est.rttvar == ms(50)
        assert est.rto == max(est.min_rto, ms(100) + 4 * ms(50))

    def test_ewma_uses_legacy_integer_gains(self):
        # The arithmetic must match the seed's inlined estimator exactly:
        # srtt += delta//8, rttvar += (abs(delta)-rttvar)//4.
        est = RtoEstimator()
        est.sample(ms(100))
        srtt, rttvar = est.srtt, est.rttvar
        measured = ms(180)
        delta = measured - srtt
        expected_srtt = srtt + delta // 8
        expected_rttvar = rttvar + (abs(delta) - rttvar) // 4
        est.sample(measured)
        assert est.srtt == expected_srtt
        assert est.rttvar == expected_rttvar

    def test_rto_clamped_to_bounds(self):
        est = RtoEstimator(min_rto=ms(400), max_rto=ms(16_000))
        est.sample(ms(1))
        assert est.rto == ms(400)
        est2 = RtoEstimator(min_rto=ms(400), max_rto=ms(16_000))
        est2.sample(ms(60_000))
        assert est2.rto == ms(16_000)

    def test_backoff_doubles_and_caps(self):
        est = RtoEstimator()
        base = est.current()
        est.back_off()
        assert est.current() == min(est.max_rto, base * 2)
        for _ in range(20):
            est.back_off()
        assert est.backoff == RTO_BACKOFF_LIMIT
        assert est.current() == est.max_rto

    def test_fresh_sample_resets_backoff(self):
        # RFC 6298 (5.7): once an RTT measurement succeeds, the backed-off
        # timer returns to the computed RTO.
        est = RtoEstimator()
        est.sample(ms(100))
        est.back_off()
        est.back_off()
        assert est.backoff == 2
        est.sample(ms(100))
        assert est.backoff == 0
        assert est.current() == est.rto

    def test_granularity_zero_keeps_legacy_formula(self):
        est = RtoEstimator(granularity=0)
        est.sample(ms(200))
        assert est.rto == max(est.min_rto,
                              min(est.max_rto, est.srtt + 4 * est.rttvar))


def established_pair(lan):
    got = []
    lan.b.tcp.listen(23, lambda conn: setattr(conn, "on_data",
                                              lambda d: got.append(d.content)))
    client = lan.a.tcp.connect(ip("10.0.0.2"), 23)
    lan.run(500)
    return client, got


class TestKarn:
    def test_retransmitted_segment_never_feeds_the_estimator(self, lan):
        """Karn regression: the ACK of a retransmission is ambiguous —
        the RTT sample it would produce must be discarded."""
        client, got = established_pair(lan)
        srtt_before = client._srtt  # from the (cleanly timed) handshake
        iface_b = lan.b.interfaces[1]
        iface_b.state = InterfaceState.DOWN
        client.send(AppData("delayed", 100))
        lan.run(3000)  # several RTOs fire; the segment is retransmitted
        assert client._rto_backoff > 0
        assert client._timing_seq is None  # nothing is being timed
        iface_b.state = InterfaceState.UP
        lan.run(8000)
        assert got == ["delayed"]
        # The ACK of the retransmitted segment arrived after a multi-second
        # outage; had it been (wrongly) timed, srtt would have exploded.
        assert client._srtt == srtt_before

    def test_pump_does_not_time_rewound_segments(self, lan):
        client, _got = established_pair(lan)
        iface_b = lan.b.interfaces[1]
        iface_b.state = InterfaceState.DOWN
        client.send(AppData("first", 100))
        lan.run(1500)  # at least one timeout rewinds snd_nxt and re-pumps
        assert client.segments_retransmitted > 0
        # The re-pumped copy covers old sequence space: Karn forbids
        # starting a timer on it.
        assert client._timing_seq is None

    def test_backoff_resets_after_fresh_sample_end_to_end(self, lan):
        client, got = established_pair(lan)
        iface_b = lan.b.interfaces[1]
        iface_b.state = InterfaceState.DOWN
        client.send(AppData("stalled", 100))
        lan.run(3000)
        assert client._rto_backoff > 0
        iface_b.state = InterfaceState.UP
        lan.run(8000)
        assert got == ["stalled"]
        # A fresh (first-transmission) segment gets timed and its sample
        # must clear the backoff.
        client.send(AppData("fresh", 100))
        lan.run(2000)
        assert got == ["stalled", "fresh"]
        assert client._rto_backoff == 0

    def test_config_bounds_flow_into_the_estimator(self, lan):
        client, _ = established_pair(lan)
        assert client._rto_est.min_rto == MIN_RTO
        assert client._rto_est.max_rto == MAX_RTO
