#!/usr/bin/env python3
"""The triangle route and the Mobile Policy Table (Sections 3.2-3.3).

The mobile host visits a network in a *different administrative domain*
(net 36.40, behind a backbone hop) and talks to a correspondent back in
the department.  The demo walks the three decisions the paper's policy
machinery makes:

1. Under the basic protocol everything is reverse-tunneled through the
   home agent — correct but longer.
2. The triangle route sends outgoing packets directly (home address as
   source); the reply path still goes through the home agent.
3. The visited network turns on transit-traffic filtering, the kind of
   "security-conscious router" the paper warns about.  The triangle
   route silently dies; the mobile host probes the correspondent with
   ping, caches the failure in its Mobile Policy Table, and falls back to
   the tunnel — connectivity restored without application involvement.

Run:  python examples/triangle_route.py
"""

from repro.core.policy import RoutingMode
from repro.sim import Simulator, ms, ns_to_ms, s
from repro.testbed import build_testbed
from repro.workloads import UdpEchoResponder, UdpEchoStream


def measure_rtt(testbed, target, label: str) -> None:
    stream = UdpEchoStream(testbed.mobile, target, interval=ms(100))
    stream.start()
    testbed.sim.run_for(s(2))
    stream.stop()
    testbed.sim.run_for(s(1))
    rtts = stream.rtts()
    if rtts:
        mean = sum(rtts) / len(rtts)
        print(f"  {label}: {stream.received}/{stream.sent} echoes, "
              f"mean RTT {ns_to_ms(int(mean)):.2f} ms")
    else:
        print(f"  {label}: {stream.received}/{stream.sent} echoes "
              f"(destination unreachable under this policy)")
    stream.close()


def main() -> None:
    sim = Simulator(seed=7)
    testbed = build_testbed(sim, with_dhcp=False)
    addresses = testbed.addresses
    mobile = testbed.mobile
    target = addresses.ch_dept

    testbed.visit_remote()
    UdpEchoResponder(testbed.correspondent)
    sim.run_for(s(1))
    print(mobile.describe_attachment())

    print("\n1. Basic protocol: reverse tunnel through the home agent")
    mobile.policy.default_mode = RoutingMode.TUNNEL
    measure_rtt(testbed, target, "tunneled")

    print("\n2. Triangle route optimization (outgoing packets go direct)")
    mobile.policy.default_mode = RoutingMode.TRIANGLE
    measure_rtt(testbed, target, "triangle")

    print("\n3. The visited network forbids transit traffic")
    assert testbed.remote_router is not None
    testbed.remote_router.enable_transit_filter()
    measure_rtt(testbed, target, "triangle behind the filter")
    filtered = sim.metrics.get("ip", "dropped", reason="filtered",
                               host=testbed.remote_router.name)
    print(f"  router dropped {filtered.value} "
          f"transit packets (source {addresses.mh_home} is not local "
          f"to {addresses.remote_net})")

    print("\n4. Probe and fall back (the Mobile Policy Table at work)")
    results = []
    mobile.probe_correspondent(target, on_result=lambda d, ok: results.append(ok))
    sim.run_for(s(4))
    print(f"  ping probe of {target} succeeded: {results[0]}")
    print("  policy table now:")
    for line in mobile.policy.describe().splitlines():
        print(f"    {line}")
    measure_rtt(testbed, target, "after fallback (tunneled per policy)")

    print("\nThe application never noticed: the policy table handled the "
          "hostile network below the socket layer.")


if __name__ == "__main__":
    main()
