#!/usr/bin/env python3
"""MosquitoNet vs. the IETF foreign-agent baseline (Sections 2 and 5.1).

The paper's central design decision is to leave the foreign agent out.
This demo runs both architectures on the same radio network and surfaces
the trade the paper describes:

* **Without an FA** the mobile host needs its own temporary address, but
  depends on nothing in the visited network: the packet path is
  home agent -> care-of address, one radio hop.
* **With an FA** the mobile host needs no address at all — but every
  inbound packet crosses the air twice (router -> FA -> mobile host), the
  FA is a single point of failure, and the visited network has to run it.

The single-point-of-failure claim is demonstrated literally: the FA host
is crashed mid-session and the visitor goes dark, while the collocated
configuration keeps working because there is nothing in the visited
network left to fail.

Run:  python examples/foreign_agent_comparison.py
"""

from repro.net.interface import InterfaceState
from repro.sim import Simulator, ms, ns_to_ms, s
from repro.testbed import build_testbed
from repro.workloads import UdpEchoResponder, UdpEchoStream


def echo_trial(testbed, label: str, duration=s(4)) -> "UdpEchoStream":
    stream = UdpEchoStream(testbed.correspondent,
                           testbed.addresses.mh_home, interval=ms(250))
    stream.start()
    testbed.sim.run_for(duration)
    stream.stop()
    testbed.sim.run_for(s(3))
    rtts = stream.rtts()
    mean = sum(rtts) / len(rtts) if rtts else 0
    print(f"  {label}: {stream.received}/{stream.sent} echoes, "
          f"mean RTT {ns_to_ms(int(mean)):.0f} ms")
    stream.close()
    return stream


def main() -> None:
    print("A. MosquitoNet: collocated care-of address on the radio")
    sim = Simulator(seed=3)
    testbed = build_testbed(sim, with_remote_correspondent=False,
                            with_dhcp=False)
    testbed.unplug_ethernet()  # leave the office: radio only
    testbed.connect_radio(register=True)
    sim.run_for(s(2))
    UdpEchoResponder(testbed.mobile)
    echo_trial(testbed, "one radio hop per inbound packet")

    print("\nB. IETF baseline: foreign agent on the radio network")
    sim2 = Simulator(seed=4)
    testbed2 = build_testbed(sim2, with_remote_correspondent=False,
                             with_dhcp=False, with_radio_foreign_agent=True)
    fa = testbed2.radio_foreign_agent
    assert fa is not None
    testbed2.unplug_ethernet()
    testbed2.connect_radio(register=False)
    registrations = []
    testbed2.mobile.attach_via_foreign_agent(
        testbed2.mh_radio, fa.care_of_address, testbed2.addresses.radio_net,
        on_registered=lambda o: registrations.append(o))
    sim2.run_for(s(3))
    print(f"  registration relayed through the FA in "
          f"{ns_to_ms(registrations[0].round_trip):.0f} ms "
          f"(vs a direct registration: one less radio round trip)")
    print(f"  the mobile host owns no local address; care-of is the FA's "
          f"{fa.care_of_address}")
    UdpEchoResponder(testbed2.mobile)
    echo_trial(testbed2, "two radio hops per inbound packet")

    print("\nC. The foreign agent is a single point of failure")
    # Crash the FA host: its interface goes down, visitors go dark.
    fa_iface = fa.interface
    fa_iface.state = InterfaceState.DOWN
    dark = echo_trial(testbed2, "after the FA crashes")
    print(f"  ({dark.lost_count()} probes lost; the visitor cannot even "
          f"re-register through the dead FA)")
    print("\n  The MosquitoNet mobile host has no such dependency: "
          "\"the foreign agent is no longer a single point of failure for "
          "our mobile hosts' ability to continue communicating\".")


if __name__ == "__main__":
    main()
