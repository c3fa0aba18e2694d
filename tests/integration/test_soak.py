"""Soak test: minutes of simulated roaming under concurrent load.

Everything at once, for a long time: a TCP session, a UDP echo stream,
periodic re-registration, and a random walk between networks.  The invariants that must hold at the end are the
paper's core promises — no connection resets, in-order delivery, binding
always tracking the mobile host.
"""

import pytest

from repro.net.addressing import ip
from repro.sim import Simulator, ms, s
from repro.testbed import build_testbed
from tests.scenarios import random_walk
from repro.workloads import (
    TcpBulkReceiver,
    TcpBulkSender,
    UdpEchoResponder,
    UdpEchoStream,
)

HOME = ip("36.135.0.10")


@pytest.mark.parametrize("seed", [1001, 1002, 1003])
def test_three_minute_roaming_soak(seed):
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim, with_remote_correspondent=False,
                            with_dhcp=False)
    testbed.visit_dept()
    sim.run_for(s(1))

    # Concurrent load.
    UdpEchoResponder(testbed.mobile)
    echo = UdpEchoStream(testbed.correspondent, HOME, interval=ms(500))
    echo.start()
    receiver = TcpBulkReceiver(testbed.mobile)
    sender = TcpBulkSender(testbed.correspondent, HOME, interval=ms(400))
    sender.start()

    # Periodic re-registration every 20 s with a 45 s lifetime: the
    # binding must never lapse.
    def reregister():
        if not testbed.mobile.at_home and testbed.mobile.care_of is not None:
            testbed.mobile.register_current(lifetime=s(45))
        sim.call_later(s(20), reregister)

    sim.call_later(s(20), reregister)

    # The walk: 12 moves, 15 s dwell = 180 s of roaming.
    walk = random_walk(testbed, moves=12, dwell=s(15))
    sim.run_for(s(180) + s(8))

    # Wind down.
    echo.stop()
    sender.finish()
    sim.run_for(s(60))

    # --- invariants -------------------------------------------------------
    assert len(walk.steps_executed) == 12
    # TCP: never reset, everything delivered exactly once, in order.
    assert not sender.reset
    assert receiver.received_chunks == list(range(sender.sent_chunks))
    assert sender.sent_chunks > 300
    # Binding still tracks the current attachment.
    assert testbed.home_agent.current_care_of(HOME) == testbed.mobile.care_of
    # Echo stream: loss bounded by the switching windows, not systemic.
    assert echo.received >= echo.sent * 0.85
    # Exactly-once encapsulation held across the entire run.
    for record in sim.trace.select("tunnel", "encapsulated"):
        assert record["outer"].count("IPIP") == 1
    # The home address always lived in exactly one place.
    owners = [iface.name for iface in testbed.mobile.interfaces
              if iface.owns_address(HOME)]
    assert len(owners) == 1
