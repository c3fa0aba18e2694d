"""Two mobile hosts at once, and the Section 5.1 eavesdropping hazard.

"If packets for a mobile host arrive at a foreign network the mobile host
has just left, those packets might be erroneously delivered to a newly
arrived host that has been assigned the same temporary address ...  This
kind of accidental eavesdropping should not happen in practice because a
well-written DHCP server would avoid reassigning the same IP address for
as long as possible."  Both halves are tested: the hazard is real when
the address is reused immediately, and the FIFO free list prevents it.
"""

from repro.core.mobile_host import MobileHost
from repro.net.addressing import ip
from repro.net.interface import EthernetInterface, InterfaceState
from repro.sim import ms, s
from repro.workloads import UdpEchoResponder, UdpEchoStream

HOME_1 = ip("36.135.0.10")


def add_second_mobile(testbed):
    """A second mobile host homed on 36.135, visiting 36.8."""
    addresses = testbed.addresses
    home = ip("36.135.0.11")
    mobile = MobileHost(testbed.sim, "mh2", home_address=home,
                        home_subnet=addresses.home_net,
                        home_agent=testbed.home_agent.address,
                        config=testbed.config)
    iface = EthernetInterface(testbed.sim, "eth0.mh2",
                              testbed.macs.allocate(), testbed.config)
    mobile.add_interface(iface)
    iface.attach(testbed.dept_segment)
    iface.state = InterfaceState.UP
    mobile.home_interface = iface
    testbed.home_agent.serve(home)
    return mobile, iface, home


def test_two_mobile_hosts_roam_independently(testbed):
    mobile2, iface2, home2 = add_second_mobile(testbed)
    testbed.visit_dept()  # mh1 -> 36.8.0.50
    mobile2.start_visiting(iface2, ip("36.8.0.60"),
                           testbed.addresses.dept_net,
                           testbed.addresses.router_dept)
    testbed.sim.run_for(s(1))
    agent = testbed.home_agent
    assert agent.current_care_of(HOME_1) == ip("36.8.0.50")
    assert agent.current_care_of(home2) == ip("36.8.0.60")

    # Both are reachable at their home addresses, concurrently.
    UdpEchoResponder(testbed.mobile)
    UdpEchoResponder(mobile2)
    stream1 = UdpEchoStream(testbed.correspondent, HOME_1, interval=ms(100))
    stream2 = UdpEchoStream(testbed.correspondent, home2, interval=ms(100))
    stream1.start()
    stream2.start()
    testbed.sim.run_for(s(2))
    stream1.stop()
    stream2.stop()
    testbed.sim.run_for(s(1))
    assert stream1.received == stream1.sent
    assert stream2.received == stream2.sent

    # One moves to the radio; the other is untouched.
    testbed.connect_radio(register=True)
    testbed.sim.run_for(s(1))
    assert agent.current_care_of(HOME_1) == testbed.addresses.mh_radio
    assert agent.current_care_of(home2) == ip("36.8.0.60")


def test_address_reuse_eavesdropping_hazard_is_real(testbed):
    """Force immediate reuse of a departed host's care-of address: the
    newcomer really does receive the departed host's tunneled packets."""
    care_of = testbed.visit_dept()
    testbed.sim.run_for(s(1))

    # mh1 vanishes abruptly (no deregistration — battery died).
    testbed.mh_eth.state = InterfaceState.DOWN
    testbed.mh_eth.detach()

    # A newcomer is (carelessly) assigned the same temporary address and,
    # like any real host configuring an address, announces itself with a
    # gratuitous ARP — which voids the router's stale entry for the
    # departed host.
    mobile2, iface2, _home2 = add_second_mobile(testbed)
    iface2.subnet = testbed.addresses.dept_net
    iface2.add_address(care_of, make_primary=True)
    iface2.arp.send_gratuitous(care_of)

    overheard = []
    mobile2.udp.open(7).on_datagram(
        lambda data, src, sp, dst: overheard.append(data.content))

    # The correspondent keeps sending to mh1's home address; the home
    # agent still tunnels to the (reassigned) care-of address.
    stream = UdpEchoStream(testbed.correspondent, HOME_1, interval=ms(200))
    stream.start()
    testbed.sim.run_for(s(2))
    stream.stop()
    testbed.sim.run_for(s(1))
    # The newcomer decapsulates nothing (no IPIP handler) — but the outer
    # packets did arrive at its interface: that is the eavesdropping
    # exposure.  With an IPIP handler it would read the payloads.
    assert iface2.rx_packets > 0
    assert stream.received == 0  # and mh1's traffic is simply gone


def test_dhcp_reuse_avoidance_defuses_the_hazard(full_testbed):
    """With the well-written server, the departed host's address goes to
    the back of the queue and the newcomer gets a different one."""
    testbed = full_testbed
    testbed.move_mh_cable(testbed.dept_segment)
    testbed.mh_eth.remove_address(HOME_1)
    testbed.mobile.ip.routes.remove_matching(interface=testbed.mh_eth)
    testbed.mh_eth.subnet = testbed.addresses.dept_net
    leases = []
    testbed.mh_dhcp.acquire(on_bound=leases.append)
    testbed.sim.run_for(s(2))
    departed_address = leases[0].address
    testbed.mh_dhcp.release()
    testbed.sim.run_for(s(1))

    # The newcomer asks for an address.
    from repro.net.dhcp import DHCPClient

    mobile2, iface2, _home2 = add_second_mobile(testbed)
    iface2.subnet = testbed.addresses.dept_net
    newcomer = DHCPClient(mobile2, iface2, client_id="newcomer")
    new_leases = []
    newcomer.acquire(on_bound=new_leases.append)
    testbed.sim.run_for(s(2))
    assert new_leases
    assert new_leases[0].address != departed_address
