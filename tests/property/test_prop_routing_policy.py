"""Property tests: routing table and Mobile Policy Table vs brute force."""

from hypothesis import given, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.policy import MobilePolicyTable, RoutingMode
from repro.net.addressing import IPAddress, MACAllocator, Subnet
from repro.net.interface import EthernetInterface, InterfaceState
from repro.net.routing import RouteEntry, RoutingTable
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPAddress)


@st.composite
def prefixes(draw):
    prefix_len = draw(st.integers(min_value=0, max_value=32))
    raw = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    mask = 0 if prefix_len == 0 else (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
    return Subnet(IPAddress(raw & mask), prefix_len)


def make_interface(sim, index):
    iface = EthernetInterface(sim, f"eth{index}", MACAllocator().allocate(),
                              DEFAULT_CONFIG)
    iface.state = InterfaceState.UP
    return iface


@given(st.lists(st.tuples(prefixes(), st.integers(min_value=0, max_value=9)),
                min_size=1, max_size=20),
       addresses)
def test_routing_lookup_matches_brute_force(rows, destination):
    sim = Simulator()
    table = RoutingTable()
    entries = []
    for index, (prefix, metric) in enumerate(rows):
        entry = RouteEntry(prefix, make_interface(sim, index), metric=metric)
        table.add(entry)
        entries.append(entry)

    result = table.lookup(destination)
    candidates = [entry for entry in entries if destination in entry.destination]
    if not candidates:
        assert result is None
    else:
        best_len = max(entry.destination.prefix_len for entry in candidates)
        finalists = [entry for entry in candidates
                     if entry.destination.prefix_len == best_len]
        best_metric = min(entry.metric for entry in finalists)
        assert result.destination.prefix_len == best_len
        assert result.metric == best_metric


MODES = list(RoutingMode)


@given(st.lists(st.tuples(prefixes(), st.sampled_from(MODES)),
                min_size=0, max_size=15),
       addresses,
       st.sampled_from(MODES))
def test_policy_lookup_matches_brute_force(rows, destination, default):
    table = MobilePolicyTable(metrics=MetricsRegistry())
    table.default_mode = default
    for prefix, mode in rows:
        table.set_policy(prefix, mode)
    result = table.lookup(destination)
    matching = [entry for entry in table if destination in entry.destination]
    if not matching:
        assert result is default
    else:
        best_len = max(entry.destination.prefix_len for entry in matching)
        best_modes = {entry.mode for entry in matching
                      if entry.destination.prefix_len == best_len}
        assert result in best_modes


@given(st.lists(addresses, min_size=1, max_size=20, unique=True))
def test_probe_fallback_is_per_host(hosts):
    table = MobilePolicyTable(metrics=MetricsRegistry())
    table.default_mode = RoutingMode.TRIANGLE
    for addr in hosts:
        table.record_probe_result(addr, reachable=False)
    for addr in hosts:
        assert table.lookup(addr) is RoutingMode.TUNNEL
    # Recovery clears each host independently.
    recovered = hosts[: len(hosts) // 2]
    for addr in recovered:
        table.record_probe_result(addr, reachable=True)
    for addr in hosts:
        expected = (RoutingMode.TRIANGLE if addr in recovered
                    else RoutingMode.TUNNEL)
        assert table.lookup(addr) is expected
