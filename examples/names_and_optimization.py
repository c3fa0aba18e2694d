#!/usr/bin/env python3
"""Names, dynamic DNS, and the smart-correspondent optimization together.

Two pieces the paper names but ships separately come together here:

* the **extended DNS** of Section 8: applications connect to
  ``mh.mosquitonet.stanford.edu``; the name resolves to the mobile host's
  *home address*, which never changes — mobility is invisible above IP
  *and* above naming;
* the **smart correspondent** of Sections 3.2/5.1: once the correspondent
  opts into mobility awareness, it receives binding updates and tunnels
  straight to the care-of address, cutting the home agent out of the
  data path entirely.

The home agent also keeps the DNS zone current via dynamic updates, which
the server accepts only from source addresses it was provisioned to trust
(no cryptographic authentication).  The record is a "where is the mobile
host *right now*" entry for debugging — applications never need it,
which is the point.

Run:  python examples/names_and_optimization.py
"""

from repro.core.smart_correspondent import SmartCorrespondent
from repro.net.dns import DNSResolver, DNSServer, send_dynamic_update
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

    print("1. The zone: mh.mosquitonet.stanford.edu -> the home address")
    dns_server = DNSServer(testbed.home_agent_host,
                           "mosquitonet.stanford.edu")
    dns_server.add_record("mh.mosquitonet.stanford.edu", addresses.mh_home)
    dns_server.allow_updates_from(testbed.home_agent.address)
    resolver = DNSResolver(testbed.correspondent, addresses.home_agent_host)

    testbed.visit_dept()
    sim.run_for(s(1))

    resolved = []
    resolver.resolve("mh.mosquitonet.stanford.edu", resolved.append)
    sim.run_for(s(1))
    print(f"  the correspondent resolved the name to {resolved[0]} — the "
          f"home address, wherever the laptop is")

    UdpEchoResponder(testbed.mobile)
    print("\n2. Plain correspondent: traffic detours via the home agent")
    measure(testbed, resolved[0], "via the home agent")
    ha_before = testbed.home_agent.vif.packets_encapsulated

    print("\n3. The correspondent becomes mobility-aware")
    smart = SmartCorrespondent(testbed.correspondent)
    testbed.mobile.add_smart_correspondent(addresses.ch_dept)
    testbed.mobile.register_current()  # pushes a binding update to the CH
    sim.run_for(s(1))
    print(f"  cached binding at the correspondent: "
          f"{smart.cached_care_of(addresses.mh_home)}")
    measure(testbed, resolved[0], "tunneled directly to the care-of")
    print(f"  packets the home agent carried in phase 3: "
          f"{testbed.home_agent.vif.packets_encapsulated - ha_before}")

    print("\n4. The home agent records the location in DNS (dynamic "
          "update, accepted because its source address is a provisioned "
          "updater)")
    acks = []
    send_dynamic_update(testbed.home_agent_host, addresses.home_agent_host,
                        "mh-care-of.mosquitonet.stanford.edu",
                        testbed.mobile.care_of, on_ack=acks.append)
    sim.run_for(s(1))
    record = dns_server.lookup("mh-care-of.mosquitonet.stanford.edu")
    print(f"  update accepted: {acks[0]}; debugging record now says "
          f"{record.address}")

    print("\nApplications used only the name; the name only ever meant the "
          "home address; the fast path was negotiated underneath.")


if __name__ == "__main__":
    main()
