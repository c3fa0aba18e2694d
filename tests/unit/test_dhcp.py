"""Unit tests for DHCP: the care-of address supply chain."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import ip
from repro.net.dhcp import DHCPClient, DHCPServer
from repro.net.host import Host
from repro.net.interface import EthernetInterface, InterfaceState
from repro.sim import ms, s


@pytest.fixture
def dhcp_lan(lan):
    """The shared LAN plus a DHCP server on host b (pool .100-.102)."""
    server = DHCPServer(lan.b, lan.b.interfaces[1], lan.net,
                        first_host=100, last_host=102,
                        gateway=ip("10.0.0.1"))
    return lan, server


def make_client(lan, name="newcomer"):
    host = Host(lan.sim, name, DEFAULT_CONFIG)
    iface = EthernetInterface(lan.sim, f"eth.{name}", lan.macs.allocate(),
                              DEFAULT_CONFIG)
    host.add_interface(iface)
    iface.attach(lan.segment)
    iface.state = InterfaceState.UP
    return DHCPClient(host, iface, client_id=name), iface


def test_full_handshake_binds_an_address(dhcp_lan):
    lan, server = dhcp_lan
    client, _iface = make_client(lan)
    leases = []
    client.acquire(on_bound=leases.append)
    lan.run(2000)
    assert leases
    lease = leases[0]
    assert lease.address == ip("10.0.0.100")
    assert lease.subnet == lan.net
    assert lease.gateway == ip("10.0.0.1")
    assert server.lease_for("newcomer").address == lease.address


def test_two_clients_get_distinct_addresses(dhcp_lan):
    lan, server = dhcp_lan
    client1, _ = make_client(lan, "one")
    client2, _ = make_client(lan, "two")
    leases = []
    client1.acquire(on_bound=leases.append)
    lan.run(2000)
    client2.acquire(on_bound=leases.append)
    lan.run(2000)
    assert len(leases) == 2
    assert leases[0].address != leases[1].address
    assert len(server.active_leases()) == 2


def test_release_returns_address_to_back_of_pool(dhcp_lan):
    """Section 5.1: avoid reassigning a released address for as long as
    possible — the free list is a FIFO."""
    lan, server = dhcp_lan
    client, _ = make_client(lan)
    leases = []
    client.acquire(on_bound=leases.append)
    lan.run(2000)
    released = leases[0].address
    client.release()
    lan.run(500)
    assert server.free_addresses()[-1] == released  # back of the queue
    # The next two clients exhaust the rest of the pool before reuse.
    other1, _ = make_client(lan, "o1")
    other2, _ = make_client(lan, "o2")
    got = []
    other1.acquire(on_bound=got.append)
    lan.run(2000)
    other2.acquire(on_bound=got.append)
    lan.run(2000)
    assert released not in [lease.address for lease in got]


def test_reacquire_same_client_renews_in_place(dhcp_lan):
    lan, server = dhcp_lan
    client, _ = make_client(lan)
    leases = []
    client.acquire(on_bound=leases.append)
    lan.run(2000)
    client.acquire(on_bound=leases.append)
    lan.run(2000)
    assert leases[0].address == leases[1].address
    assert len(server.active_leases()) == 1


def test_pool_exhaustion_fails_gracefully(dhcp_lan):
    lan, _server = dhcp_lan
    winners = []
    for index in range(3):
        client, _ = make_client(lan, f"c{index}")
        client.acquire(on_bound=winners.append)
        lan.run(2000)
    unlucky, _ = make_client(lan, "unlucky")
    failures = []
    unlucky.acquire(on_bound=lambda lease: failures.append("bound"),
                    on_failed=lambda: failures.append("failed"))
    lan.run(6000)
    assert len(winners) == 3
    assert failures == ["failed"]


def test_acquire_timeout_without_server(lan):
    client, _ = make_client(lan)
    outcomes = []
    client.acquire(on_bound=lambda lease: outcomes.append("bound"),
                   on_failed=lambda: outcomes.append("failed"),
                   timeout=ms(1500))
    lan.run(5000)
    assert outcomes == ["failed"]


def test_lease_renewal_is_unicast_local_role(dhcp_lan):
    """Renewal happens at half the lease time, unicast from the leased
    address (the paper's canonical local-role traffic)."""
    lan, server = dhcp_lan
    client, _iface = make_client(lan)
    client.acquire(on_bound=lambda lease: None)
    lan.run(2000)
    first_expiry = server.lease_for("newcomer").expires_at
    lan.sim.run_for(DEFAULT_CONFIG.dhcp_lease_time // 2 + s(1))
    renewed_expiry = server.lease_for("newcomer").expires_at
    assert renewed_expiry > first_expiry


def test_offline_drops_are_reported(dhcp_lan):
    # They were once a private int that no --metrics report printed.
    lan, server = dhcp_lan
    server.online = False
    client, _iface = make_client(lan)
    client.acquire(on_bound=lambda lease: None, on_failed=lambda: None,
                   timeout=ms(1500))
    lan.run(2000)
    records = lan.sim.trace.select("drop", "offline", layer="dhcp")
    assert records
    key = "dhcp/dropped{host=b,reason=offline}"
    assert lan.sim.metrics.snapshot()[key] == len(records)


def test_renew_honors_configured_timeout(dhcp_lan):
    """Regression: renewals used to wait a hard-coded 4 s regardless of
    the timeout passed to acquire()."""
    lan, server = dhcp_lan
    client, _iface = make_client(lan)
    bound_at = []
    client.acquire(on_bound=lambda lease: bound_at.append(lan.sim.now),
                   timeout=ms(1000))
    lan.run(2000)
    assert bound_at
    server.online = False  # every renewal request now falls on the floor
    renew_at = bound_at[0] + DEFAULT_CONFIG.dhcp_lease_time // 2
    lan.sim.run(until=renew_at + ms(500))
    assert client.renew_failures == 0  # configured timeout not yet reached
    lan.sim.run_for(ms(700))           # now past the 1 s timeout
    assert client.renew_failures == 1  # ...but well short of the old 4 s


def test_failed_renew_rearms_and_recovers(dhcp_lan):
    """A timed-out renewal retries at half the remaining lifetime and
    succeeds once the server is reachable again."""
    lan, server = dhcp_lan
    client, _iface = make_client(lan)
    bound_at = []
    client.acquire(on_bound=lambda lease: bound_at.append(lan.sim.now),
                   timeout=ms(1000))
    lan.run(2000)
    server.online = False
    lease_time = DEFAULT_CONFIG.dhcp_lease_time
    lan.sim.run(until=bound_at[0] + lease_time // 2 + ms(1500))
    assert client.renew_failures >= 1
    assert client.lease is not None  # still within the lease: not lost
    server.online = True
    first_expiry = server.lease_for("newcomer").expires_at
    # The retry at half the remaining lifetime lands within lease_time//4.
    lan.sim.run_for(lease_time // 4 + s(2))
    assert server.lease_for("newcomer").expires_at > first_expiry
    assert client.lease is not None


def test_lease_lost_fires_when_lease_expires_unrenewed(dhcp_lan):
    lan, server = dhcp_lan
    client, _iface = make_client(lan)
    client.acquire(on_bound=lambda lease: None, timeout=ms(1000))
    lan.run(2000)
    leased = client.lease.address
    server.online = False  # server gone for good
    lan.sim.run_for(DEFAULT_CONFIG.dhcp_lease_time + s(10))
    assert lan.sim.trace.select("dhcp", "lease_lost", client="newcomer",
                                address=str(leased))
    assert client.lease is None
    from repro.net.dhcp import DHCPClientState
    assert client.state == DHCPClientState.IDLE


def test_expired_leases_are_reclaimed(dhcp_lan):
    lan, server = dhcp_lan
    client, _ = make_client(lan)
    client.acquire(on_bound=lambda lease: None)
    lan.run(2000)
    client._cancel_renewal()  # simulate a client that vanished
    lan.sim.run_for(DEFAULT_CONFIG.dhcp_lease_time + s(5))
    # A new DISCOVER triggers the server's expiry sweep.
    other, _ = make_client(lan, "other")
    got = []
    other.acquire(on_bound=got.append)
    lan.run(2000)
    assert got
    assert server.lease_for("newcomer") is None
