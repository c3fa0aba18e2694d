"""Property tests for protocol-level invariants: bindings, TCP, DHCP."""

from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.bindings import MobilityBindingTable
from repro.net.addressing import IPAddress, MACAllocator, ip, subnet
from repro.net.dhcp import DHCPServer
from repro.net.host import Host
from repro.net.interface import EthernetInterface, InterfaceState
from repro.net.link import EthernetSegment
from repro.net.packet import AppData
from repro.sim import Simulator, ms, s

HOME = ip("36.135.0.10")
care_ofs = st.integers(min_value=1, max_value=0xFFFFFFFE).map(IPAddress)


@given(st.lists(st.tuples(st.sampled_from(["register", "deregister"]),
                          care_ofs),
                min_size=1, max_size=30))
def test_binding_table_reflects_last_operation(operations):
    sim = Simulator()
    table = MobilityBindingTable(sim)
    expected = None
    for op, care_of in operations:
        if op == "register":
            table.register(HOME, care_of, lifetime=s(60))
            expected = care_of
        else:
            table.deregister(HOME)
            expected = None
    binding = table.get(HOME)
    if expected is None:
        assert binding is None
    else:
        assert binding is not None and binding.care_of_address == expected


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1,
                max_size=8),
       st.sets(st.integers(min_value=0, max_value=40), max_size=10))
@settings(max_examples=25, deadline=None)
def test_tcp_delivers_everything_in_order_despite_outages(chunk_sizes,
                                                          outage_ticks):
    """Whatever the outage pattern, TCP delivers every byte exactly once,
    in order — or resets, which this scenario never triggers."""
    sim = Simulator(seed=42)
    config = DEFAULT_CONFIG
    net = subnet("10.0.0.0/24")
    macs = MACAllocator()
    segment = EthernetSegment(sim, "lan", config.ethernet)

    def make_host(name, addr):
        node = Host(sim, name, config)
        iface = EthernetInterface(sim, f"eth.{name}", macs.allocate(), config)
        node.add_interface(iface)
        iface.attach(segment)
        node.configure_interface(iface, ip(addr), net)
        return node

    sender_host = make_host("snd", "10.0.0.1")
    receiver_host = make_host("rcv", "10.0.0.2")
    received = []
    def on_conn(conn):
        conn.on_data = lambda data: received.append(data.content)
    receiver_host.tcp.listen(7, on_conn)
    conn = sender_host.tcp.connect(ip("10.0.0.2"), 7)

    sent = []

    def tick(index: int) -> None:
        iface = receiver_host.interfaces[1]
        if index in outage_ticks:
            iface.state = InterfaceState.DOWN
        else:
            iface.state = InterfaceState.UP
        if index < len(chunk_sizes) and conn.state.value == "established":
            payload = AppData(index, chunk_sizes[index] * 16)
            conn.send(payload)
            sent.append(index)

    for index in range(48):
        sim.call_at(ms(200) * (index + 1), lambda index=index: tick(index))
    sim.run_for(s(10))
    # Ensure the interface ends up, then drain retransmissions.
    receiver_host.interfaces[1].state = InterfaceState.UP
    sim.run_for(s(60))
    assert received == sent


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=25))
@settings(max_examples=25, deadline=None)
def test_dhcp_pool_conservation(steps):
    """Acquire/release in any order: leases + free addresses always equal
    the pool; no address is ever double-allocated."""
    sim = Simulator(seed=7)
    config = DEFAULT_CONFIG
    net = subnet("10.0.0.0/24")
    macs = MACAllocator()
    segment = EthernetSegment(sim, "lan", config.ethernet)

    server_host = Host(sim, "server", config)
    server_iface = EthernetInterface(sim, "eth.s", macs.allocate(), config)
    server_host.add_interface(server_iface)
    server_iface.attach(segment)
    server_host.configure_interface(server_iface, ip("10.0.0.1"), net)
    pool_size = 4
    server = DHCPServer(server_host, server_iface, net, first_host=100,
                        last_host=100 + pool_size - 1)

    from repro.net.dhcp import DHCPClient
    from repro.net.interface import InterfaceState

    clients = []
    for index in range(4):
        node = Host(sim, f"c{index}", config)
        iface = EthernetInterface(sim, f"eth.c{index}", macs.allocate(),
                                  config)
        node.add_interface(iface)
        iface.attach(segment)
        iface.state = InterfaceState.UP
        clients.append(DHCPClient(node, iface, client_id=f"c{index}"))

    for step, which in enumerate(steps):
        client = clients[which]
        if client.lease is None:
            client.acquire(on_bound=lambda lease: None,
                           on_failed=lambda: None)
        else:
            client.release()
        sim.run_for(s(1))
        server._expire_stale()
        leased = {lease.address for lease in server.active_leases()}
        free = set(server.free_addresses())
        assert leased.isdisjoint(free)
        assert len(leased) + len(free) == pool_size
