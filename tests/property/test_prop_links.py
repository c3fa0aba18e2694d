"""Property tests for the link media: FIFO, timing, conservation."""

from hypothesis import given, settings, strategies as st

from repro.config import LinkTimings
from repro.net.addressing import ip
from repro.net.link import PointToPointLink
from repro.net.packet import AppData, IPPacket, PROTO_UDP, UDPDatagram
from repro.sim import MBPS, Simulator
from repro.sim.units import transmission_delay
from tests.drops import dropped


class Endpoint:
    def __init__(self):
        self.arrivals = []

    def deliver_from_link(self, packet):
        self.arrivals.append(packet)


def make_packet(size):
    payload = max(0, size - 28)
    return IPPacket(src=ip("1.1.1.1"), dst=ip("2.2.2.2"), protocol=PROTO_UDP,
                    payload=UDPDatagram(1, 2, AppData(None, payload)))


sizes = st.lists(st.integers(min_value=28, max_value=1500), min_size=1,
                 max_size=30)


@given(sizes, st.integers(min_value=0, max_value=5_000_000))
@settings(max_examples=40, deadline=None)
def test_p2p_delivery_order_and_timing_match_fifo_model(packet_sizes,
                                                        latency):
    """Deliveries arrive in send order at exactly the analytic FIFO
    times: cumulative serialization plus one latency each."""
    sim = Simulator()
    timings = LinkTimings(latency=latency, bandwidth_bps=MBPS)
    link = PointToPointLink(sim, "p2p", timings)
    sender, receiver = Endpoint(), Endpoint()
    link.connect(sender)
    link.connect(receiver)

    packets = [make_packet(size) for size in packet_sizes]
    arrival_times = []
    original = receiver.deliver_from_link

    def record(packet):
        arrival_times.append(sim.now)
        original(packet)

    receiver.deliver_from_link = record
    for packet in packets:
        link.transmit(packet, sender)
    sim.run()

    assert receiver.arrivals == packets  # order preserved
    expected = []
    finish = 0
    for packet in packets:
        finish += transmission_delay(packet.size_bytes, MBPS)
        expected.append(finish + latency)
    assert arrival_times == expected


@given(sizes)
@settings(max_examples=30, deadline=None)
def test_bytes_and_frames_are_conserved(packet_sizes):
    sim = Simulator()
    link = PointToPointLink(sim, "p2p",
                            LinkTimings(latency=0, bandwidth_bps=MBPS))
    sender, receiver = Endpoint(), Endpoint()
    link.connect(sender)
    link.connect(receiver)
    packets = [make_packet(size) for size in packet_sizes]
    for packet in packets:
        link.transmit(packet, sender)
    sim.run()
    assert link.frames_sent == len(packets)
    assert not sim.metrics.find("link", "dropped")
    assert link.bytes_sent == sum(packet.size_bytes for packet in packets)
    assert len(receiver.arrivals) == len(packets)


@given(sizes, st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=20, deadline=None)
def test_lossy_link_drops_are_accounted(packet_sizes, loss_rate):
    sim = Simulator(seed=13)
    link = PointToPointLink(sim, "p2p",
                            LinkTimings(latency=0, bandwidth_bps=0,
                                        loss_rate=loss_rate))
    sender, receiver = Endpoint(), Endpoint()
    link.connect(sender)
    link.connect(receiver)
    for size in packet_sizes:
        link.transmit(make_packet(size), sender)
    sim.run()
    lost = dropped(sim, "link", "loss", link="p2p")
    assert len(receiver.arrivals) + lost == len(packet_sizes)
