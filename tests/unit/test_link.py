"""Unit tests for the link media: Ethernet, point-to-point, radio."""

import pytest

from repro.config import DEFAULT_CONFIG, LinkTimings
from repro.net.addressing import ip
from repro.net.packet import AppData, IPPacket, PROTO_UDP, UDPDatagram
from repro.net.link import EthernetSegment, PointToPointLink, RadioChannel
from repro.sim import MBPS, Simulator, ms
from tests.drops import dropped


def make_packet(size=100, src="1.1.1.1", dst="2.2.2.2"):
    return IPPacket(src=ip(src), dst=ip(dst), protocol=PROTO_UDP,
                    payload=UDPDatagram(1, 2, AppData("x", size - 28)))


class FakeEndpoint:
    def __init__(self):
        self.received = []

    def deliver_from_link(self, packet):
        self.received.append(packet)


class FakePort:
    def __init__(self, name, log=None):
        self.name = name
        self.received = []
        self._log = log

    def deliver_frame(self, frame):
        self.received.append(frame)
        if self._log is not None:
            self._log.append(self.name)


class TestEthernetSegment:
    def _segment(self, sim):
        return EthernetSegment(sim, "lan",
                               LinkTimings(latency=ms(1), bandwidth_bps=MBPS))

    def _ports(self, segment, n, log=None):
        ports = [FakePort(f"p{index}", log) for index in range(n)]
        for port in ports:
            segment.attach(port)  # type: ignore[arg-type]
        return ports

    def test_frame_reaches_every_other_port_in_port_order(self):
        sim = Simulator()
        segment = self._segment(sim)
        log = []
        ports = self._ports(segment, 5, log)
        frame = make_packet()  # anything with size_bytes rides the wire
        segment.transmit(frame, ports[2])  # type: ignore[arg-type]
        sim.run()
        assert log == ["p0", "p1", "p3", "p4"]
        assert all(port.received == [frame]
                   for index, port in enumerate(ports) if index != 2)
        assert ports[2].received == []

    def test_fan_out_counts_one_event_per_receiver(self):
        """One frame to N other ports counts N dispatches, N events and a
        queue high-water of N, exactly as one event per port did."""
        sim = Simulator()
        segment = self._segment(sim)
        ports = self._ports(segment, 9)
        segment.transmit(make_packet(), ports[0])  # type: ignore[arg-type]
        assert sim.pending() == 8
        sim.run()
        assert sim.events_run == 8
        assert sim.metrics.get("engine", "dispatched",
                               label="eth").value == 8
        assert sim.metrics.gauge("engine", "queue_depth_max").value == 8

    def test_port_detached_after_transmit_still_gets_the_frame(self):
        sim = Simulator()
        segment = self._segment(sim)
        a, b, c = self._ports(segment, 3)
        frame = make_packet()
        segment.transmit(frame, a)  # type: ignore[arg-type]
        segment.detach(b)  # type: ignore[arg-type]
        late = FakePort("late")
        segment.attach(late)  # type: ignore[arg-type]
        sim.run()
        assert b.received == [frame] and c.received == [frame]
        assert late.received == []
        segment.transmit(make_packet(), a)  # type: ignore[arg-type]
        sim.run()
        assert len(b.received) == 1
        assert len(c.received) == 2 and len(late.received) == 1

    def test_unattached_sender_reaches_every_port(self):
        sim = Simulator()
        segment = self._segment(sim)
        ports = self._ports(segment, 2)
        segment.transmit(make_packet(), FakePort("gone"))  # type: ignore[arg-type]
        sim.run()
        assert all(len(port.received) == 1 for port in ports)

    def test_detach_unknown_port_raises(self):
        segment = self._segment(Simulator())
        with pytest.raises(ValueError):
            segment.detach(FakePort("never"))  # type: ignore[arg-type]


class TestPointToPoint:
    def test_delivery_with_latency_and_serialization(self):
        sim = Simulator()
        link = PointToPointLink(sim, "p2p",
                                LinkTimings(latency=ms(1), bandwidth_bps=MBPS))
        a, b = FakeEndpoint(), FakeEndpoint()
        link.connect(a)
        link.connect(b)
        packet = make_packet(125)  # 125 B at 1 Mbit/s = 1 ms
        link.transmit(packet, a)
        sim.run_for(ms(1.9))
        assert b.received == []
        sim.run_for(ms(0.2))
        assert b.received == [packet]
        assert a.received == []

    def test_serialization_queues_fifo(self):
        sim = Simulator()
        link = PointToPointLink(sim, "p2p",
                                LinkTimings(latency=0, bandwidth_bps=MBPS))
        a, b = FakeEndpoint(), FakeEndpoint()
        link.connect(a)
        link.connect(b)
        first, second = make_packet(125), make_packet(125)
        link.transmit(first, a)
        link.transmit(second, a)
        sim.run_for(ms(1.5))
        assert b.received == [first]
        sim.run_for(ms(1))
        assert b.received == [first, second]

    def test_directions_are_independent(self):
        sim = Simulator()
        link = PointToPointLink(sim, "p2p",
                                LinkTimings(latency=0, bandwidth_bps=MBPS))
        a, b = FakeEndpoint(), FakeEndpoint()
        link.connect(a)
        link.connect(b)
        link.transmit(make_packet(125), a)
        link.transmit(make_packet(125), b)
        sim.run_for(ms(1.2))
        # Full duplex: both arrive after one serialization, not two.
        assert len(a.received) == 1 and len(b.received) == 1

    def test_third_endpoint_rejected(self):
        sim = Simulator()
        link = PointToPointLink(sim, "p2p", DEFAULT_CONFIG.backbone)
        link.connect(FakeEndpoint())
        link.connect(FakeEndpoint())
        with pytest.raises(ValueError):
            link.connect(FakeEndpoint())

    def test_unknown_sender_rejected(self):
        sim = Simulator()
        link = PointToPointLink(sim, "p2p", DEFAULT_CONFIG.backbone)
        link.connect(FakeEndpoint())
        with pytest.raises(ValueError):
            link.transmit(make_packet(), FakeEndpoint())

    def test_lossy_link_drops(self):
        sim = Simulator()
        link = PointToPointLink(sim, "p2p",
                                LinkTimings(latency=0, bandwidth_bps=0,
                                            loss_rate=1.0))
        a, b = FakeEndpoint(), FakeEndpoint()
        link.connect(a)
        link.connect(b)
        link.transmit(make_packet(), a)
        sim.run_for(ms(10))
        assert b.received == []
        assert dropped(sim, "link", "loss", link="p2p") == 1


def test_lan_drop_counters_match_drop_records(lan):
    # A fault hook and the medium's own loss model, each a reason of its own.
    from dataclasses import replace
    from itertools import count

    frames = count()
    lan.segment.fault_hook = lambda: next(frames) % 3 == 2
    lan.segment.timings = replace(lan.segment.timings, loss_rate=0.3)
    sender = lan.a.udp.open(0)
    for _ in range(40):
        sender.sendto(AppData("x", 10), ip("10.0.0.2"), 9)
    lan.run()
    records = {}
    for record in lan.sim.trace.select("drop", layer="link", link="lan"):
        records[record.event] = records.get(record.event, 0) + 1
    counters = {dict(metric.labels)["reason"]: metric.value
                for metric in lan.sim.metrics.find("link", "dropped")}
    assert set(counters) == {"fault", "loss"}
    assert counters == records


class FakeRadio:
    def __init__(self):
        self.received = []

    def deliver_from_radio(self, packet):
        self.received.append(packet)


class TestRadioChannel:
    def _channel(self, sim, loss=0.0):
        return RadioChannel(sim, "air",
                            LinkTimings(latency=ms(10), bandwidth_bps=MBPS,
                                        loss_rate=loss))

    def test_unicast_by_published_address(self):
        sim = Simulator()
        channel = self._channel(sim)
        a, b = FakeRadio(), FakeRadio()
        channel.attach(a)  # type: ignore[arg-type]
        channel.attach(b)  # type: ignore[arg-type]
        channel.publish(ip("36.134.0.77"), b)  # type: ignore[arg-type]
        packet = make_packet(dst="36.134.0.77")
        channel.transmit(packet, ip("36.134.0.77"), a)  # type: ignore[arg-type]
        sim.run_for(ms(20))
        assert b.received == [packet]
        assert a.received == []

    def test_unpublished_address_vanishes(self):
        sim = Simulator()
        channel = self._channel(sim)
        a = FakeRadio()
        channel.attach(a)  # type: ignore[arg-type]
        channel.transmit(make_packet(), ip("36.134.0.99"), a)  # type: ignore[arg-type]
        sim.run_for(ms(20))
        assert dropped(sim, "link", "unreachable", link="air") == 1
        assert sim.trace.select("drop", "unreachable", link="air")

    def test_withdraw_makes_address_unreachable(self):
        sim = Simulator()
        channel = self._channel(sim)
        a, b = FakeRadio(), FakeRadio()
        channel.attach(a)  # type: ignore[arg-type]
        channel.attach(b)  # type: ignore[arg-type]
        channel.publish(ip("36.134.0.77"), b)  # type: ignore[arg-type]
        channel.withdraw(ip("36.134.0.77"))
        channel.transmit(make_packet(), ip("36.134.0.77"), a)  # type: ignore[arg-type]
        sim.run_for(ms(20))
        assert b.received == []

    def test_broadcast_reaches_all_but_sender(self):
        sim = Simulator()
        channel = self._channel(sim)
        radios = [FakeRadio() for _ in range(3)]
        for radio in radios:
            channel.attach(radio)  # type: ignore[arg-type]
        channel.transmit(make_packet(), ip("255.255.255.255"), radios[0])  # type: ignore[arg-type]
        sim.run_for(ms(20))
        assert radios[0].received == []
        assert len(radios[1].received) == 1
        assert len(radios[2].received) == 1

    def test_broadcast_counts_one_event_per_receiver(self):
        sim = Simulator()
        channel = self._channel(sim)
        radios = [FakeRadio() for _ in range(4)]
        for radio in radios:
            channel.attach(radio)  # type: ignore[arg-type]
        channel.transmit(make_packet(), ip("255.255.255.255"), radios[1])  # type: ignore[arg-type]
        sim.run()
        assert [len(radio.received) for radio in radios] == [1, 0, 1, 1]
        assert sim.events_run == 3
        assert sim.metrics.get("engine", "dispatched",
                               label="radio-bcast").value == 3

    def test_shared_air_serializes_all_senders(self):
        sim = Simulator()
        channel = RadioChannel(sim, "air",
                               LinkTimings(latency=0, bandwidth_bps=MBPS))
        a, b, c = FakeRadio(), FakeRadio(), FakeRadio()
        for radio in (a, b, c):
            channel.attach(radio)  # type: ignore[arg-type]
        channel.publish(ip("36.134.0.3"), c)  # type: ignore[arg-type]
        # Two senders transmit simultaneously: the second waits for the air.
        channel.transmit(make_packet(125), ip("36.134.0.3"), a)  # type: ignore[arg-type]
        channel.transmit(make_packet(125), ip("36.134.0.3"), b)  # type: ignore[arg-type]
        sim.run_for(ms(1.5))
        assert len(c.received) == 1
        sim.run_for(ms(1))
        assert len(c.received) == 2
