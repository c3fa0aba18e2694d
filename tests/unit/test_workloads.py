"""Unit tests for the measurement workloads."""

from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.sim import ms, s
from repro.workloads import (
    TcpBulkReceiver,
    TcpBulkSender,
    UdpEchoResponder,
    UdpEchoStream,
)


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

    def test_responder_counts(self, lan):
        responder = UdpEchoResponder(lan.b)
        stream = UdpEchoStream(lan.a, ip("10.0.0.2"), interval=ms(100))
        stream.start()
        lan.sim.run_for(ms(450))
        stream.stop()
        lan.sim.run_for(ms(200))
        assert responder.echoed == stream.received


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
