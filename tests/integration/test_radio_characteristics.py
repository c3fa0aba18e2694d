"""Radio characteristics: the paper's two quoted Metricom numbers.

* "In theory, Metricom radios can send 100 Kbits/second through the air,
  but in practice 30-40 Kbits/second is the best we achieve."
* "The round-trip time between the home agent and the mobile host through
  the radio interface is 200~250 ms."

These are *inputs* to the calibration, so the tests here close the loop:
they measure both quantities end-to-end through the full stack (serial
line, channel FIFO, IP, UDP/ICMP) and check the emergent numbers still
land in the quoted bands — i.e. nothing in the stack silently eats the
budget.
"""

from repro.net.packet import AppData
from repro.sim import Simulator, ms, s
from repro.testbed import build_testbed
from repro.workloads import UdpEchoResponder, UdpEchoStream


def test_radio_rtt_in_papers_band():
    """Echo RTT through the home agent over the radio: 200-250 ms."""
    sim = Simulator(seed=5)
    testbed = build_testbed(sim, with_remote_correspondent=False,
                            with_dhcp=False)
    testbed.unplug_ethernet()
    testbed.connect_radio(register=True)
    sim.run_for(s(2))
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent,
                           testbed.addresses.mh_home, interval=ms(300))
    stream.start()
    sim.run_for(s(6))
    stream.stop()
    sim.run_for(s(2))
    rtts = stream.rtts()
    assert len(rtts) >= 15
    mean_rtt_ms = sum(rtts) / len(rtts) / 1e6
    assert 200 <= mean_rtt_ms <= 250


def test_radio_effective_throughput_in_papers_band():
    """Saturate the radio with bulk datagrams; goodput lands at 30-40
    kbit/s of application payload + headers."""
    sim = Simulator(seed=6)
    testbed = build_testbed(sim, with_remote_correspondent=False,
                            with_dhcp=False)
    testbed.unplug_ethernet()
    testbed.connect_radio(register=False)
    testbed.mobile.start_visiting(
        testbed.mh_radio, testbed.addresses.mh_radio,
        testbed.addresses.radio_net, testbed.addresses.router_radio,
        register=False)
    sim.run_for(s(1))

    arrivals = []
    sink = testbed.router.udp.open(5001)
    sink.on_datagram(lambda data, src, sp, dst:
                     arrivals.append((sim.now, data.size_bytes)))
    sender = testbed.mobile.udp.open(
        0, bound_address=testbed.addresses.mh_radio)
    payload_bytes = 472
    count = 60
    first_sent = sim.now
    for _ in range(count):
        sender.sendto(AppData("bulk", payload_bytes),
                      testbed.addresses.router_radio, 5001)
    sim.run_for(s(120))
    assert len(arrivals) >= count * 0.95
    duration_s = (arrivals[-1][0] - first_sent) / 1e9
    wire_bits = sum(size + 28 for _, size in arrivals) * 8
    throughput_bps = wire_bits / duration_s
    assert 30_000 <= throughput_bps <= 40_000


def test_registration_cost_by_medium():
    """Registration latency is medium-bound: ~5 ms on Ethernet (Figure 7)
    vs one radio round trip (~220 ms) over the air — which is why hot
    switches to the radio take ~a quarter second (Figure 6's hot bars)."""
    sim = Simulator(seed=8)
    testbed = build_testbed(sim, with_remote_correspondent=False,
                            with_dhcp=False)
    # Ethernet registration.
    testbed.visit_dept(register=False)
    eth_outcomes = []
    testbed.mobile.register_current(on_registered=eth_outcomes.append)
    sim.run_for(s(2))
    # Radio registration.
    testbed.connect_radio(register=False)
    testbed.mobile.start_visiting(
        testbed.mh_radio, testbed.addresses.mh_radio,
        testbed.addresses.radio_net, testbed.addresses.router_radio,
        register=False)
    radio_outcomes = []
    testbed.mobile.register_current(on_registered=radio_outcomes.append)
    sim.run_for(s(3))
    assert eth_outcomes and eth_outcomes[0].accepted
    assert radio_outcomes and radio_outcomes[0].accepted
    eth_ms = eth_outcomes[0].round_trip / 1e6
    radio_ms = radio_outcomes[0].round_trip / 1e6
    assert 4.0 < eth_ms < 6.5
    assert 180 < radio_ms < 280
    assert radio_ms > eth_ms * 20  # the medium dominates, not the software
