"""Differential property tests: the address-plane indexes vs linear scans.

``RoutingTable``, ``MobilePolicyTable`` and ``IPStack.is_local`` answer
from indexes that every mutation updates in place.  Each test here keeps
the plain linear scan the index replaced as a test-side reference, drives
a seeded random sequence of mutations, and after every step checks that
the index and the reference agree exactly (same entry object, same mode,
same counter increments, same verdict).
"""

import pytest
from hypothesis import given, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.policy import MobilePolicyTable, RoutingMode
from repro.net.addressing import IPAddress, MACAllocator, Subnet
from repro.net.host import Host
from repro.net.interface import EthernetInterface, InterfaceState
from repro.net.routing import RouteEntry, RoutingTable
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator

#: Few distinct, nested prefixes, so generated operations collide and tie.
PREFIXES = [Subnet(IPAddress(0), 0), Subnet(IPAddress(0x0A000000), 8),
            Subnet(IPAddress(0x0A010000), 16), Subnet(IPAddress(0x0A010200), 24),
            Subnet(IPAddress(0x0A010203), 32), Subnet(IPAddress(0x0B000000), 8)]
#: Destinations inside, between and outside those prefixes.
PROBES = [IPAddress(v) for v in (0x0A010203, 0x0A010209, 0x0A01FF01,
                                 0x0AFF0001, 0x0B000001, 0x0C000001)]
MODES = list(RoutingMode)

prefixes = st.sampled_from(PREFIXES)
probes = st.sampled_from(PROBES)


def make_interface(sim, index):
    iface = EthernetInterface(sim, f"eth{index}", MACAllocator().allocate(),
                              DEFAULT_CONFIG)
    iface.state = InterfaceState.UP
    return iface


# ------------------------------------------------------------ routing table

def scan_routes(entries, dst):
    """Longest prefix, then lowest metric, then earliest up entry."""
    best = None
    for entry in entries:
        if dst not in entry.destination:
            continue
        if not entry.interface.is_up:
            continue
        if best is None or entry.destination.prefix_len > best.destination.prefix_len:
            best = entry
        elif (entry.destination.prefix_len == best.destination.prefix_len
              and entry.metric < best.metric):
            best = entry
    return best


route_ops = st.one_of(
    st.tuples(st.just("add"), prefixes, st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(st.just("remove_absent"), prefixes, st.integers(0, 2)),
    st.tuples(st.just("remove_matching"), st.one_of(st.none(), prefixes),
              st.one_of(st.none(), st.integers(0, 2))),
    st.tuples(st.just("flip"), st.integers(0, 2)),
)


@given(st.lists(route_ops, max_size=30))
def test_routing_index_matches_scan(ops):
    sim = Simulator()
    ports = [make_interface(sim, index) for index in range(3)]
    table = RoutingTable()
    reference = []
    for op in ops:
        kind = op[0]
        if kind == "add":
            entry = RouteEntry(op[1], ports[op[3]], metric=op[2])
            table.add(entry)
            reference.append(entry)
        elif kind == "remove" and reference:
            # Generated entries are often equal in value: removal must take
            # out this object, not the first equal one.
            entry = reference.pop(op[1] % len(reference))
            table.remove(entry)
        elif kind == "remove_absent":
            with pytest.raises(ValueError):
                table.remove(RouteEntry(op[1], ports[op[2]]))
        elif kind == "remove_matching":
            port = ports[op[2]] if op[2] is not None else None
            doomed = [entry for entry in reference
                      if (op[1] is None or entry.destination == op[1])
                      and (port is None or entry.interface is port)]
            reference = [entry for entry in reference if entry not in doomed]
            assert table.remove_matching(op[1], port) == len(doomed)
        elif kind == "flip":
            port = ports[op[1]]
            port.state = (InterfaceState.DOWN if port.is_up
                          else InterfaceState.UP)
        assert [id(entry) for entry in table] == [id(entry) for entry in reference]
        for dst in PROBES:
            assert table.lookup(dst) is scan_routes(reference, dst)


table_ops = st.one_of(
    st.tuples(st.just("add"), prefixes, st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(st.just("remove_matching"), st.one_of(st.none(), prefixes),
              st.one_of(st.none(), st.integers(0, 2))),
    st.tuples(st.just("add_default"), st.integers(0, 2)),
    st.tuples(st.just("remove_default")),
    st.tuples(st.just("flip"), st.integers(0, 2)),
)


@given(st.lists(table_ops, max_size=40))
def test_route_index_tracks_live_prefix_lengths(ops):
    """After every mutation the one-level index answers as a scan of the
    table's own entries, and ``_lengths`` holds exactly the live prefix
    lengths, longest first, also once the last route of a length goes."""
    sim = Simulator()
    ports = [make_interface(sim, index) for index in range(3)]
    table = RoutingTable()
    for op in ops:
        kind = op[0]
        if kind == "add":
            table.add(RouteEntry(op[1], ports[op[3]], metric=op[2]))
        elif kind == "remove" and len(table):
            table.remove(table._entries[op[1] % len(table)])
        elif kind == "remove_matching":
            table.remove_matching(op[1],
                                  ports[op[2]] if op[2] is not None else None)
        elif kind == "add_default":
            table.add_default(ports[op[1]], IPAddress(0x0A000001))
        elif kind == "remove_default":
            table.remove_default()
        elif kind == "flip":
            port = ports[op[1]]
            port.state = (InterfaceState.DOWN if port.is_up
                          else InterfaceState.UP)
        live = sorted({entry.destination.prefix_len for entry in table},
                      reverse=True)
        assert table._lengths == live
        for dst in PROBES:
            assert table.lookup(dst) is scan_routes(table._entries, dst)


#: Two keys only, so adds pile several routes onto one key and removals
#: take a shared key back to one route, then to none.
SHARED = [Subnet(IPAddress(0x0A010200), 24), Subnet(IPAddress(0x0A000000), 8)]

shared_ops = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(SHARED), st.integers(0, 2),
              st.integers(0, 2)),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(st.just("remove_matching"), st.one_of(st.none(),
                                                    st.sampled_from(SHARED)),
              st.one_of(st.none(), st.integers(0, 2))),
    st.tuples(st.just("flip"), st.integers(0, 2)),
)


@given(st.lists(shared_ops, min_size=12, max_size=40))
def test_route_key_holds_its_one_route_and_a_list_only_when_shared(ops):
    """A key with one route holds the entry itself; a key that two or more
    routes share holds them in insertion order; a removal back to one
    route leaves the entry itself again.  ``lookup`` answers as the scan
    throughout, metrics and down interfaces included."""
    sim = Simulator()
    ports = [make_interface(sim, index) for index in range(3)]
    table = RoutingTable()
    reference = []
    for kind, *args in ops:
        if kind == "add":
            entry = RouteEntry(args[0], ports[args[2]], metric=args[1])
            table.add(entry)
            reference.append(entry)
        elif kind == "remove" and reference:
            table.remove(reference.pop(args[0] % len(reference)))
        elif kind == "remove_matching":
            port = ports[args[1]] if args[1] is not None else None
            reference = [entry for entry in reference
                         if not ((args[0] is None or entry.destination == args[0])
                                 and (port is None or entry.interface is port))]
            table.remove_matching(args[0], port)
        elif kind == "flip":
            port = ports[args[0]]
            port.state = (InterfaceState.DOWN if port.is_up
                          else InterfaceState.UP)
        expected = {}
        for entry in reference:
            key = entry.destination.network.value << 6 | entry.destination.prefix_len
            expected.setdefault(key, []).append(entry)
        assert table._index.keys() == expected.keys()
        for key, entries in expected.items():
            held = table._index[key]
            if len(entries) == 1:
                assert held is entries[0]
            else:
                assert type(held) is list
                assert [id(entry) for entry in held] == [id(entry) for entry in entries]
        for dst in PROBES:
            assert table.lookup(dst) is scan_routes(reference, dst)


# ---------------------------------------------------- Mobile Policy Table

class PolicyReference:
    """The policy table as a list of entries and a linear scan."""

    def __init__(self, default_mode):
        self.default_mode = default_mode
        self.rows = []          # [prefix, mode, origin] in insertion order

    def set(self, prefix, mode, origin="static"):
        self.clear(prefix)
        self.rows.append([prefix, mode, origin])

    def clear(self, prefix):
        self.rows = [row for row in self.rows if row[0] != prefix]

    def lookup_row(self, dst):
        best = None
        for row in self.rows:
            if dst in row[0] and (best is None or row[0].prefix_len > best[0].prefix_len):
                best = row
        return best

    def probe(self, dst, reachable):
        row = self.lookup_row(dst)
        if not reachable:
            self.set(Subnet(dst, 32), RoutingMode.TUNNEL, origin="probe")
        elif row is not None and row[2] == "probe" and row[0] == Subnet(dst, 32):
            self.clear(row[0])


policy_ops = st.one_of(
    st.tuples(st.just("set"), prefixes, st.sampled_from(MODES)),
    st.tuples(st.just("clear"), prefixes),
    st.tuples(st.just("default"), st.sampled_from(MODES)),
    st.tuples(st.just("probe"), probes, st.booleans()),
)


@given(st.sampled_from(MODES), st.lists(policy_ops, max_size=30))
def test_policy_index_matches_scan(default, ops):
    metrics = MetricsRegistry()
    table = MobilePolicyTable(metrics=metrics, owner="mh")
    table.default_mode = default
    reference = PolicyReference(default)
    for op in ops:
        kind = op[0]
        if kind == "set":
            table.set_policy(op[1], op[2])
            reference.set(op[1], op[2])
        elif kind == "clear":
            table.clear_policy(op[1])
            reference.clear(op[1])
        elif kind == "default":
            table.default_mode = op[1]
            reference.default_mode = op[1]
        else:
            table.record_probe_result(op[1], reachable=op[2])
            reference.probe(op[1], op[2])
        assert [(e.destination, e.mode, e.origin) for e in table] == [
            tuple(row) for row in reference.rows]
        for dst in PROBES:
            row = reference.lookup_row(dst)
            entry = table.lookup_entry(dst)
            got = (entry.destination, entry.mode, entry.origin) \
                if entry is not None else None
            assert got == (tuple(row) if row is not None else None)
            mode, result = (row[1], "hit") if row is not None \
                else (reference.default_mode, "miss")
            before = metrics.snapshot()
            assert table.lookup(dst) is mode
            after = metrics.snapshot()
            changed = {key: after[key] - before.get(key, 0)
                       for key in after if after[key] != before.get(key, 0)}
            assert changed == {
                f"policy/lookups{{host=mh,mode={mode.value},result={result}}}": 1}


# ----------------------------------------------------------- IPStack.is_local

#: Addresses to configure, and every address whose verdict is checked
#: (configured ones, subnet broadcasts, loopback, limited broadcast, other).
CONFIGURABLE = [IPAddress(v) for v in (0x0A010203, 0x0A010209, 0x0A0102FF)]
CANDIDATES = CONFIGURABLE + [IPAddress(v) for v in (
    0x0A01FFFF, 0x0AFFFFFF, 0x0BFFFFFF, 0xFFFFFFFF, 0x0C000001, 0x7F000001)]
SUBNETS = [None, Subnet(IPAddress(0x0A000000), 8), Subnet(IPAddress(0x0A010000), 16),
           Subnet(IPAddress(0x0A010200), 24)]


def scan_is_local(host, addr):
    """The interface walk ``is_local`` used to do per distinct address."""
    if addr.is_loopback or addr.is_limited_broadcast:
        return True
    for iface in host.interfaces:
        if iface.owns_address(addr):
            return True
        if iface.subnet is not None and addr == iface.subnet.broadcast:
            return True
    return False


local_ops = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 2), st.sampled_from(CONFIGURABLE),
              st.booleans()),
    st.tuples(st.just("remove"), st.integers(0, 2), st.sampled_from(CONFIGURABLE)),
    st.tuples(st.just("subnet"), st.integers(0, 2), st.sampled_from(SUBNETS)),
    st.tuples(st.just("attach"), st.integers(1, 2)),
)


@given(st.lists(local_ops, max_size=30))
def test_owned_address_index_matches_scan(ops):
    sim = Simulator()
    host = Host(sim, "h")
    ifaces = [make_interface(sim, index) for index in range(3)]
    host.add_interface(ifaces[0])
    for op in ops:
        iface = ifaces[op[1]]
        if op[0] == "add":
            iface.add_address(op[2], make_primary=op[3])
        elif op[0] == "remove":
            iface.remove_address(op[2])
        elif op[0] == "subnet":
            iface.subnet = op[2]
        else:
            # Interfaces 1 and 2 may be configured before they are
            # attached; attaching must index what they already hold.
            host.add_interface(iface)
        for addr in CANDIDATES:
            assert host.ip.is_local(addr) is scan_is_local(host, addr)


def test_alias_on_two_interfaces_survives_removal_from_one():
    sim = Simulator()
    host = Host(sim, "h")
    first, second = make_interface(sim, 0), make_interface(sim, 1)
    shared = IPAddress(0x0A010203)
    first.add_address(shared)
    host.add_interface(first)
    second.add_address(shared)
    host.add_interface(second)
    first.remove_address(shared)
    assert host.ip.is_local(shared)
    second.remove_address(shared)
    assert not host.ip.is_local(shared)
