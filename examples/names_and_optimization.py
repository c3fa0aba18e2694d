#!/usr/bin/env python3
"""One stable name for the mobile host, and the smart-correspondent
optimization underneath it.

The correspondent only ever addresses the mobile host by its *home
address*, which never changes: mobility is invisible above IP.  The
**smart correspondent** of Sections 3.2/5.1 then optimizes the path
without changing that name: once the correspondent opts into mobility
awareness, it receives binding updates and tunnels straight to the
care-of address, cutting the home agent out of the data path entirely.

Run:  python examples/names_and_optimization.py
"""

from repro.core.smart_correspondent import SmartCorrespondent
from repro.sim import Simulator, ms, ns_to_ms, s
from repro.testbed import build_testbed
from repro.workloads import UdpEchoResponder, UdpEchoStream


def measure(testbed, target, label):
    stream = UdpEchoStream(testbed.correspondent, target, interval=ms(100))
    stream.start()
    testbed.sim.run_for(s(2))
    stream.stop()
    testbed.sim.run_for(s(1))
    rtts = stream.rtts()
    mean = sum(rtts) / len(rtts) if rtts else 0
    print(f"  {label}: {stream.received}/{stream.sent} echoes, "
          f"mean RTT {ns_to_ms(int(mean)):.2f} ms")
    stream.close()


def main() -> None:
    sim = Simulator(seed=17)
    # Separate home agent: the HA detour is a real path worth optimizing.
    testbed = build_testbed(sim, with_remote_correspondent=False,
                            with_dhcp=False, separate_home_agent=True)
    addresses = testbed.addresses

    print(f"1. The correspondent knows the mobile host as "
          f"{addresses.mh_home} — the home address, wherever the laptop is")
    testbed.visit_dept()
    sim.run_for(s(2))

    UdpEchoResponder(testbed.mobile)
    print("\n2. Plain correspondent: traffic detours via the home agent")
    measure(testbed, addresses.mh_home, "via the home agent")
    ha_before = testbed.home_agent.vif.packets_encapsulated

    print("\n3. The correspondent becomes mobility-aware")
    smart = SmartCorrespondent(testbed.correspondent)
    testbed.mobile.add_smart_correspondent(addresses.ch_dept)
    testbed.mobile.register_current()  # pushes a binding update to the CH
    sim.run_for(s(1))
    print(f"  cached binding at the correspondent: "
          f"{smart.cached_care_of(addresses.mh_home)}")
    measure(testbed, addresses.mh_home, "tunneled directly to the care-of")
    print(f"  packets the home agent carried in phase 3: "
          f"{testbed.home_agent.vif.packets_encapsulated - ha_before}")

    print("\nThe correspondent used only the home address; the fast path "
          "was negotiated underneath.")


if __name__ == "__main__":
    main()
