"""Integration tests: TCP connections survive every kind of movement.

This is the paper's motivating requirement made executable: "it is
important to maintain all current network conversations."
"""

from repro.core.handoff import AddressSwitcher, DeviceSwitcher
from repro.net.addressing import ip
from repro.sim import Simulator, ms, s
from repro.testbed import build_testbed
from repro.workloads import TcpBulkReceiver, TcpBulkSender

HOME = ip("36.135.0.10")


def start_session(testbed, interval=ms(200)):
    receiver = TcpBulkReceiver(testbed.mobile)
    sender = TcpBulkSender(testbed.correspondent, HOME, interval=interval)
    sender.start()
    return receiver, sender


def finish_and_check(testbed, receiver, sender, drain=s(10)):
    sender.finish()
    testbed.sim.run_for(drain)
    assert not sender.reset, "connection was reset"
    assert receiver.received_chunks == list(range(sender.sent_chunks))
    assert receiver.closed


def test_session_survives_same_subnet_address_switch(testbed):
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    receiver, sender = start_session(testbed, interval=ms(50))
    testbed.sim.run_for(s(1))
    done = []
    AddressSwitcher(testbed.mobile).switch_address(
        testbed.addresses.mh_dept_care_of_2, on_done=done.append)
    testbed.sim.run_for(s(2))
    assert done and done[0].success
    finish_and_check(testbed, receiver, sender)


def test_session_survives_cold_switch_to_radio(testbed):
    testbed.visit_dept()
    testbed.mh_radio.subnet = testbed.addresses.radio_net
    testbed.mh_radio.add_address(testbed.addresses.mh_radio,
                                 make_primary=True)
    testbed.sim.run_for(s(1))
    receiver, sender = start_session(testbed)
    testbed.sim.run_for(s(2))
    done = []
    DeviceSwitcher(testbed.mobile).cold_switch(
        testbed.mh_eth, testbed.mh_radio, testbed.addresses.mh_radio,
        testbed.addresses.radio_net, testbed.addresses.router_radio,
        on_done=done.append)
    testbed.sim.run_for(s(8))
    assert done and done[0].success
    assert sender.connection.segments_retransmitted > 0  # outage was real
    finish_and_check(testbed, receiver, sender, drain=s(30))


def test_session_survives_hot_switch_without_retransmission(testbed):
    testbed.visit_dept()
    testbed.connect_radio(register=False)
    testbed.sim.run_for(s(1))
    receiver, sender = start_session(testbed)
    testbed.sim.run_for(s(2))
    before = sender.connection.segments_retransmitted
    done = []
    DeviceSwitcher(testbed.mobile).hot_switch(
        testbed.mh_radio, testbed.addresses.mh_radio,
        testbed.addresses.radio_net, testbed.addresses.router_radio,
        on_done=done.append)
    testbed.sim.run_for(s(4))
    assert done and done[0].success
    # Hot switching loses nothing, so at most incidental retransmissions
    # from the radio's higher RTT (RTO adaptation), not from loss.
    assert sender.connection.segments_retransmitted - before <= 1
    finish_and_check(testbed, receiver, sender, drain=s(30))


def test_session_survives_return_home(testbed):
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    receiver, sender = start_session(testbed, interval=ms(100))
    testbed.sim.run_for(s(1))
    testbed.move_mh_cable(testbed.home_segment)
    testbed.mobile.stop_visiting(testbed.mh_eth)
    testbed.mobile.come_home(testbed.mh_eth,
                             gateway=testbed.addresses.router_home)
    testbed.sim.run_for(s(3))
    finish_and_check(testbed, receiver, sender)


def test_mh_initiated_session_survives_movement(testbed):
    """The MH side opens the connection (e.g. an outgoing rlogin)."""
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    receiver = TcpBulkReceiver(testbed.correspondent)
    sender = TcpBulkSender(testbed.mobile, ip("36.8.0.20"), interval=ms(100))
    sender.start()
    testbed.sim.run_for(s(1))
    # The connection is pinned to the home address even though the MH
    # opened it while away.
    assert sender.connection.local_addr == HOME
    done = []
    AddressSwitcher(testbed.mobile).switch_address(
        testbed.addresses.mh_dept_care_of_2, on_done=done.append)
    testbed.sim.run_for(s(2))
    sender.finish()
    testbed.sim.run_for(s(10))
    assert not sender.reset
    assert receiver.received_chunks == list(range(sender.sent_chunks))


def _session_through_switch(seed: int, hot: bool):
    """Run a 100 ms chunk stream across one eth->radio switch; every chunk
    must arrive exactly once.  Returns the switch timeline."""
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim, with_remote_correspondent=False,
                            with_dhcp=False)
    testbed.visit_dept()
    if hot:
        testbed.connect_radio(register=False)
    else:
        testbed.mh_radio.subnet = testbed.addresses.radio_net
        testbed.mh_radio.add_address(testbed.addresses.mh_radio,
                                     make_primary=True)
    sim.run_for(s(1))
    receiver, sender = start_session(testbed, interval=ms(100))
    sim.run_for(s(4))
    done = []
    switcher = DeviceSwitcher(testbed.mobile)
    if hot:
        switcher.hot_switch(testbed.mh_radio, testbed.addresses.mh_radio,
                            testbed.addresses.radio_net,
                            testbed.addresses.router_radio,
                            on_done=done.append)
    else:
        switcher.cold_switch(testbed.mh_eth, testbed.mh_radio,
                             testbed.addresses.mh_radio,
                             testbed.addresses.radio_net,
                             testbed.addresses.router_radio,
                             on_done=done.append)
    sim.run_for(s(8))
    sender.finish()
    sim.run_for(s(45))
    assert done and done[0].success
    assert not sender.reset
    assert receiver.received_chunks == list(range(sender.sent_chunks))
    return done[0]


def test_tcp_session_cost_of_hot_vs_cold_switch():
    """What a move costs a long-lived TCP session: both switches deliver
    everything exactly once; hot switching is far cheaper than cold."""
    cold_ms = _session_through_switch(seed=301, hot=False).total / 1e6
    hot_ms = _session_through_switch(seed=302, hot=True).total / 1e6
    assert hot_ms * 2 < cold_ms
    # The cold outage matches Figure 6's budget.
    assert cold_ms < 1600
