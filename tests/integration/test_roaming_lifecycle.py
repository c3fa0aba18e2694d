"""Integration tests: DHCP roaming, lease lifecycle, binding lifetimes."""

from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.sim import ms, s
from repro.workloads import UdpEchoResponder, UdpEchoStream

HOME = ip("36.135.0.10")


def arrive_without_address(testbed):
    testbed.move_mh_cable(testbed.dept_segment)
    testbed.mh_eth.remove_address(HOME)
    testbed.mobile.ip.routes.remove_matching(interface=testbed.mh_eth)
    testbed.mh_eth.subnet = testbed.addresses.dept_net


def test_dhcp_acquire_register_and_communicate(full_testbed):
    testbed = full_testbed
    arrive_without_address(testbed)
    leases = []
    testbed.mh_dhcp.acquire(on_bound=leases.append)
    testbed.sim.run_for(s(1))
    assert leases
    lease = leases[0]

    outcomes = []
    testbed.mobile.start_visiting(testbed.mh_eth, lease.address,
                                  lease.subnet, lease.gateway,
                                  on_registered=outcomes.append)
    testbed.sim.run_for(s(1))
    assert outcomes and outcomes[0].accepted
    assert testbed.home_agent.current_care_of(HOME) == lease.address

    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent, HOME, interval=ms(100))
    stream.start()
    testbed.sim.run_for(s(2))
    stream.stop()
    testbed.sim.run_for(s(1))
    assert stream.received == stream.sent


def test_lease_renewal_keeps_working_while_mobile(full_testbed):
    """The DHCP renewal is local-role traffic that must keep flowing even
    while home-role traffic rides the tunnel."""
    testbed = full_testbed
    arrive_without_address(testbed)
    leases = []
    testbed.mh_dhcp.acquire(on_bound=leases.append)
    testbed.sim.run_for(s(1))
    lease = leases[0]
    testbed.mobile.start_visiting(testbed.mh_eth, lease.address,
                                  lease.subnet, lease.gateway,
                                  register=False)
    # Register with a lifetime that outlives the DHCP renewal window.
    testbed.mobile.register_current(lifetime=s(300))
    testbed.sim.run_for(s(1))

    server = testbed.dhcp_server
    first_expiry = server.lease_for("mh").expires_at
    # Run past the T1 renewal point.
    testbed.sim.run_for(testbed.config.dhcp_lease_time // 2 + s(2))
    assert server.lease_for("mh").expires_at > first_expiry
    # And the binding is still in place (renewal did not disturb it).
    assert testbed.home_agent.current_care_of(HOME) == lease.address


def test_binding_lifetime_expires_without_renewal(testbed):
    testbed.visit_dept(register=False)
    outcomes = []
    testbed.mobile.register_current(on_registered=outcomes.append,
                                    lifetime=s(3))
    testbed.sim.run_for(s(1))
    assert testbed.home_agent.current_care_of(HOME) is not None
    testbed.sim.run_for(s(4))
    assert testbed.home_agent.current_care_of(HOME) is None
    # Traffic for the MH now dies on the home subnet (nobody answers ARP).
    stream = UdpEchoStream(testbed.correspondent, HOME, interval=ms(100))
    UdpEchoResponder(testbed.mobile)
    stream.start()
    testbed.sim.run_for(s(1))
    stream.stop()
    testbed.sim.run_for(s(6))
    assert stream.received == 0


def test_periodic_reregistration_keeps_binding_alive(testbed):
    testbed.visit_dept(register=False)
    for _ in range(4):
        testbed.mobile.register_current(lifetime=s(3))
        testbed.sim.run_for(s(2))
        assert testbed.home_agent.current_care_of(HOME) is not None


def test_full_roam_cycle_dept_radio_home(testbed):
    """A grand tour: home -> dept (eth) -> radio -> home, with traffic."""
    a = testbed.addresses
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent, HOME, interval=ms(250))
    stream.start()
    testbed.sim.run_for(s(1))

    testbed.visit_dept()
    testbed.sim.run_for(s(2))
    testbed.connect_radio(register=True)
    testbed.sim.run_for(s(3))
    assert testbed.home_agent.current_care_of(HOME) == a.mh_radio

    testbed.move_mh_cable(testbed.home_segment)
    testbed.mobile.stop_visiting(testbed.mh_eth)
    testbed.mh_eth.state = InterfaceState.UP
    testbed.mobile.come_home(testbed.mh_eth, gateway=a.router_home)
    testbed.sim.run_for(s(2))
    stream.stop()
    testbed.sim.run_for(s(2))

    assert testbed.mobile.at_home
    assert testbed.home_agent.current_care_of(HOME) is None
    # The stream kept mostly working across three attachments.
    assert stream.received >= stream.sent * 0.7
