"""Unit tests for the home agent service (Section 3.4)."""

import pytest

from repro.core.registration import (
    CODE_DENIED_BAD_REQUEST,
    CODE_DENIED_UNKNOWN_HOME,
    REGISTRATION_PORT,
    RegistrationRequest,
)
from repro.net.addressing import ip
from repro.sim import s
from tests.drops import dropped

HOME = ip("36.135.0.10")


@pytest.fixture
def agent(testbed):
    return testbed.home_agent


def intercept_routes(agent):
    """The /32 intercept entries pointing into the agent's VIF."""
    return [entry for entry in agent.host.ip.routes
            if entry.destination.prefix_len == 32
            and entry.interface is agent.vif]


def register(testbed, care_of=None, lifetime=None):
    """Drive a real registration from the mobile host (already visiting)."""
    outcomes = []
    testbed.mobile.registration.register(
        care_of if care_of is not None else testbed.addresses.mh_dept_care_of,
        on_done=outcomes.append, lifetime=lifetime,
        via=testbed.mobile.active_interface)
    testbed.sim.run_for(s(2))
    return outcomes


def test_registration_installs_binding_route_and_proxy(testbed, agent):
    testbed.visit_dept(register=False)
    outcomes = register(testbed)
    assert outcomes and outcomes[0].accepted
    assert agent.current_care_of(HOME) == testbed.addresses.mh_dept_care_of
    assert HOME in agent.home_interface.arp.proxy_entries()
    entry = agent.host.ip.routes.lookup(HOME)
    assert entry is not None and entry.interface is agent.vif
    assert agent.registrations_accepted == 1


def test_registration_broadcasts_gratuitous_arp(testbed, agent):
    testbed.visit_dept(register=False)
    register(testbed)
    records = testbed.sim.trace.select("arp", "gratuitous",
                                       address=str(HOME))
    assert records


def test_unknown_home_is_denied(testbed, agent):
    agent.stops_serving(HOME)
    testbed.visit_dept(register=False)
    outcomes = register(testbed)
    assert outcomes and not outcomes[0].accepted
    assert outcomes[0].reply.code == CODE_DENIED_UNKNOWN_HOME
    assert agent.requests_denied == 1
    assert agent.current_care_of(HOME) is None


def test_wrong_home_agent_address_is_denied(testbed, agent):
    testbed.visit_dept(register=False)
    # Point the client at the right box but claim the wrong HA identity.
    testbed.mobile.registration.home_agent = testbed.addresses.router_dept
    outcomes = []
    testbed.mobile.registration.register(
        testbed.addresses.mh_dept_care_of, on_done=outcomes.append,
        via=testbed.mobile.active_interface,
        destination=agent.address)
    testbed.sim.run_for(s(2))
    assert outcomes and outcomes[0].reply.code == CODE_DENIED_BAD_REQUEST


def test_deregistration_removes_everything(testbed, agent):
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    assert agent.current_care_of(HOME) is not None
    outcomes = []
    testbed.mobile.registration.deregister(on_done=outcomes.append,
                                           via=testbed.mobile.active_interface)
    testbed.sim.run_for(s(2))
    assert outcomes and outcomes[0].accepted
    assert agent.current_care_of(HOME) is None
    assert HOME not in agent.home_interface.arp.proxy_entries()
    assert intercept_routes(agent) == []
    assert agent.deregistrations == 1


def test_binding_expiry_tears_down_intercept(testbed, agent):
    testbed.visit_dept(register=False)
    register(testbed, lifetime=s(3))
    assert agent.current_care_of(HOME) is not None
    testbed.sim.run_for(s(4))
    assert agent.current_care_of(HOME) is None
    assert HOME not in agent.home_interface.arp.proxy_entries()
    assert intercept_routes(agent) == []


def test_reregistration_updates_care_of_in_place(testbed, agent):
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    outcomes = register(testbed, care_of=testbed.addresses.mh_dept_care_of_2)
    assert outcomes[0].accepted
    assert agent.current_care_of(HOME) == testbed.addresses.mh_dept_care_of_2
    # Still exactly one intercept route.
    matches = [entry for entry in agent.host.ip.routes
               if entry.destination.prefix_len == 32
               and entry.destination.network == HOME]
    assert len(matches) == 1


def test_vif_endpoint_selector_uses_binding(testbed, agent):
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    from repro.net.packet import AppData, IPPacket, PROTO_UDP, UDPDatagram

    packet = IPPacket(src=ip("36.8.0.20"), dst=HOME, protocol=PROTO_UDP,
                      payload=UDPDatagram(1, 2, AppData("x", 1)))
    endpoints = agent._select_endpoints(packet)
    assert endpoints == (agent.address, testbed.addresses.mh_dept_care_of)
    # No binding -> no endpoints (packet is dropped, not black-holed).
    other = IPPacket(src=ip("36.8.0.20"), dst=ip("36.135.0.99"),
                     protocol=PROTO_UDP,
                     payload=UDPDatagram(1, 2, AppData("x", 1)))
    assert agent._select_endpoints(other) is None


def test_ha_processing_time_matches_figure7(testbed, agent):
    testbed.visit_dept(register=False)
    outcomes = register(testbed)
    ident = outcomes[0].reply.identification
    received = testbed.sim.trace.select("registration", "ha_received",
                                        ident=ident)
    replied = testbed.sim.trace.select("registration", "ha_reply",
                                       ident=ident)
    delta_ms = (replied[0].time - received[0].time) / 1e6
    assert 1.3 < delta_ms < 1.7  # the paper's 1.48 ms


def test_reply_cut_off_by_a_partition_is_counted(testbed, agent):
    # A partition that starts while a request is being processed drops
    # the reply; that drop was once traced but never counted.
    testbed.visit_dept(register=False)

    def partition_on_receipt(record):
        if record.event == "ha_received":
            agent.partitioned = True

    testbed.sim.trace.subscribe(partition_on_receipt, "registration")
    register(testbed)
    # The reply, then each retransmitted request.
    records = testbed.sim.trace.select("drop", "partitioned",
                                       layer="home_agent")
    assert records[0]["packet"].startswith("RegistrationReply(")
    assert dropped(testbed.sim, "home_agent", "partitioned",
                   host=agent.host.name) == len(records)


def test_negative_lifetime_denied(testbed, agent):
    testbed.visit_dept(register=False)
    # Craft a raw request with a negative lifetime.
    request = RegistrationRequest(HOME, testbed.addresses.mh_dept_care_of,
                                  agent.address, lifetime=-1,
                                  identification=424242)
    socket = testbed.mobile.udp.open(0)
    socket.sendto(request.wrap(), agent.address, REGISTRATION_PORT,
                  via=testbed.mobile.active_interface)
    testbed.sim.run_for(s(1))
    assert agent.requests_denied == 1
