"""Unit tests for the measurement workloads."""

from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.sim import ms, s
import pytest

from repro.workloads import (
    TcpBulkReceiver,
    TcpBulkSender,
    UdpEchoResponder,
    UdpEchoStream,
)
from repro.workloads.udp_echo import BINDING_WAIT, run_echo


class TestUdpEcho:
    def test_all_probes_echoed_on_healthy_lan(self, lan):
        UdpEchoResponder(lan.b)
        stream = UdpEchoStream(lan.a, ip("10.0.0.2"), interval=ms(50))
        stream.start()
        lan.sim.run_for(s(1))
        stream.stop()
        lan.sim.run_for(ms(500))
        assert stream.sent == 21
        assert stream.received == 21
        assert stream.lost_count() == 0
        assert len(stream.rtts()) == 21

    def test_loss_counting_during_an_outage(self, lan):
        UdpEchoResponder(lan.b)
        stream = UdpEchoStream(lan.a, ip("10.0.0.2"), interval=ms(50))
        stream.start()
        lan.sim.run_for(ms(500))
        iface = lan.b.interfaces[1]
        iface.state = InterfaceState.DOWN
        lan.sim.run_for(ms(300))
        iface.state = InterfaceState.UP
        lan.sim.run_for(ms(500))
        stream.stop()
        lan.sim.run_for(ms(500))
        assert 4 <= stream.lost_count() <= 8
        assert stream.longest_outage() == stream.lost_count()
        # The lost probes are contiguous sequence numbers.
        lost = stream.lost_sequences()
        assert lost == list(range(lost[0], lost[0] + len(lost)))

    def test_windowed_loss_counting(self, lan):
        UdpEchoResponder(lan.b)
        stream = UdpEchoStream(lan.a, ip("10.0.0.2"), interval=ms(50))
        stream.start()
        lan.sim.run_for(s(1))
        stream.stop()
        lan.sim.run_for(ms(500))
        assert stream.lost_count(since=ms(100), until=ms(200)) == 0
        assert stream.lost_sequences(since=ms(2000)) == []

    def test_start_is_idempotent_and_stop_halts(self, lan):
        UdpEchoResponder(lan.b)
        stream = UdpEchoStream(lan.a, ip("10.0.0.2"), interval=ms(100))
        stream.start()
        stream.start()
        lan.sim.run_for(ms(250))
        stream.stop()
        sent_at_stop = stream.sent
        lan.sim.run_for(ms(500))
        assert stream.sent == sent_at_stop

    def test_echo_in_flight_at_stop_is_lost_until_drained(self, lan):
        UdpEchoResponder(lan.b)
        stream = UdpEchoStream(lan.a, ip("10.0.0.2"), interval=ms(50))
        stream.start()
        lan.sim.run_for(ms(100))  # the third probe leaves at exactly 100 ms
        stream.stop()
        assert stream.sent == 3
        assert stream.lost_sequences() == [2]
        assert stream.received == 2
        lan.sim.run_for(ms(100))
        assert stream.lost_count() == 0
        assert stream.received == 3
        assert len(stream.rtts()) == 3

    def test_responder_counts(self, lan):
        responder = UdpEchoResponder(lan.b)
        stream = UdpEchoStream(lan.a, ip("10.0.0.2"), interval=ms(100))
        stream.start()
        lan.sim.run_for(ms(450))
        stream.stop()
        lan.sim.run_for(ms(200))
        assert responder.echoed == stream.received


class TestRunEcho:
    def test_probing_waits_for_the_first_binding(self, testbed):
        sim = testbed.sim
        testbed.visit_dept(register=False)
        sim.post_later(ms(650), testbed.mobile.register_current)
        stream = run_echo(testbed, testbed.correspondent, testbed.mobile,
                          testbed.addresses.mh_home, ms(100),
                          settle=ms(100), run=s(1), drain=s(1))
        # The binding lands a few ms after 650 ms; checked every 100 ms
        # from the fixed 100 ms settle, probing starts at 700 ms.
        assert sim.now - s(2) == ms(700)
        assert stream.sent == 11
        assert stream.lost_count() == 0

    def test_a_binding_that_never_comes_fails_the_run(self, testbed):
        with pytest.raises(RuntimeError, match="no binding"):
            run_echo(testbed, testbed.correspondent, testbed.mobile,
                     testbed.addresses.mh_home, ms(100),
                     settle=ms(100), run=s(1), drain=s(1))
        assert testbed.sim.now == ms(100) + BINDING_WAIT

    def test_switch_fires_at_its_offset_from_the_first_probe(self, testbed):
        sim = testbed.sim
        testbed.visit_dept()
        fired = []
        run_echo(testbed, testbed.correspondent, testbed.mobile,
                 testbed.addresses.mh_home, ms(100), settle=ms(500),
                 run=s(1), drain=ms(500),
                 switch=lambda: fired.append(sim.now), switch_at=ms(250))
        assert fired == [ms(750)]


class TestTcpSession:
    def test_chunks_arrive_in_order(self, lan):
        receiver = TcpBulkReceiver(lan.b)
        sender = TcpBulkSender(lan.a, ip("10.0.0.2"), interval=ms(50))
        sender.start()
        lan.sim.run_for(s(1))
        sender.finish()
        lan.sim.run_for(s(3))
        assert sender.established
        assert receiver.received_chunks == list(range(sender.sent_chunks))
        assert receiver.in_order
        assert receiver.closed

    def test_sender_stop_pauses_stream(self, lan):
        receiver = TcpBulkReceiver(lan.b)
        sender = TcpBulkSender(lan.a, ip("10.0.0.2"), interval=ms(50))
        sender.start()
        lan.sim.run_for(ms(500))
        sender.stop()
        count = sender.sent_chunks
        lan.sim.run_for(ms(500))
        assert sender.sent_chunks == count
        assert receiver.connection is not None
