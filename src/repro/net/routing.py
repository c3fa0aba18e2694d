"""Routing tables and the ``ip_rt_route()`` result type.

The paper's single kernel hook is the route-lookup function: "this function
returns, for any given destination address, both the recommended interface
to use to reach that destination and the recommended source address to use"
(Section 3.3).  :class:`RouteResult` is exactly that triple (interface,
source, gateway); :class:`RoutingTable` is an ordinary longest-prefix-match
table that the mobile-IP layer deliberately leaves untouched, adding its
policy in a separate table instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.net.addressing import PREFIX_MASKS, IPAddress, Subnet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.interface import NetworkInterface

#: The default route's destination.
DEFAULT_DESTINATION = Subnet(IPAddress(0), 0)


@dataclass(eq=False)
class RouteEntry:
    """One row of a routing table.

    ``gateway`` of ``None`` means the destination is on-link (deliver
    directly).  Entries compare by identity: a table holds rows, not
    values, and removing one is a pointer scan.
    """

    destination: Subnet
    interface: "NetworkInterface"
    gateway: Optional[IPAddress] = None
    metric: int = 0

    def matches(self, addr: IPAddress) -> bool:
        """True if *addr* falls within this entry's destination."""
        return addr in self.destination

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        via = f" via {self.gateway}" if self.gateway else ""
        return f"<Route {self.destination}{via} dev {self.interface.name} metric {self.metric}>"


class RouteResult:
    """What ``ip_rt_route()`` hands back to IP/TCP: iface, source, gateway.

    A ``__slots__`` value class: every routed packet builds one.  Treat
    instances as immutable.
    """

    __slots__ = ("interface", "source", "gateway")

    def __init__(self, interface: "NetworkInterface", source: IPAddress,
                 gateway: Optional[IPAddress] = None) -> None:
        self.interface = interface
        self.source = source
        self.gateway = gateway

    def next_hop(self, dst: IPAddress) -> IPAddress:
        """The link-layer target: the gateway if any, else the destination."""
        return self.gateway if self.gateway is not None else dst

    def __repr__(self) -> str:
        return (f"RouteResult(interface={self.interface!r}, "
                f"source={self.source!r}, gateway={self.gateway!r})")


class RoutingTable:
    """Longest-prefix-match IPv4 routing table with metrics.

    Entries are indexed by ``network << 6 | prefix_len`` in one dict, so
    a lookup makes one probe per prefix length present in the table
    (longest first) instead of testing every entry.  A key with one
    route (nearly every key) holds the entry itself; only a key that two
    routes share holds a list.  Every mutation updates the index in
    place; interface liveness is read at lookup time, so an interface
    going down needs no notification.
    """

    def __init__(self) -> None:
        self._entries: List[RouteEntry] = []
        #: ``network << 6 | prefix_len`` -> the one matching entry, or
        #: the matching entries in insertion order (the tie-break among
        #: equal metrics) when there are two or more.
        self._index: Dict[int, Union[RouteEntry, List[RouteEntry]]] = {}
        #: The prefix lengths of ``_index``'s keys, longest first.
        self._lengths: List[int] = []
        #: How many ``_index`` keys have each length in ``_lengths``.
        self._length_keys: List[int] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def _index_entry(self, entry: RouteEntry) -> None:
        destination = entry.destination
        length = destination.prefix_len
        key = destination.network.value << 6 | length
        index = self._index
        bucket = index.get(key)
        if bucket is not None:
            if type(bucket) is list:
                bucket.append(entry)
            else:
                index[key] = [bucket, entry]
            return
        index[key] = entry
        lengths = self._lengths
        if length in lengths:
            self._length_keys[lengths.index(length)] += 1
        else:
            position = sum(1 for other in lengths if other > length)
            lengths.insert(position, length)
            self._length_keys.insert(position, 1)

    def _unindex_entry(self, entry: RouteEntry) -> None:
        destination = entry.destination
        length = destination.prefix_len
        key = destination.network.value << 6 | length
        index = self._index
        bucket = index[key]
        if type(bucket) is list:
            bucket.remove(entry)
            if len(bucket) == 1:
                index[key] = bucket[0]
            return
        del index[key]
        position = self._lengths.index(length)
        if self._length_keys[position] > 1:
            self._length_keys[position] -= 1
        else:
            del self._lengths[position]
            del self._length_keys[position]

    def add(self, entry: RouteEntry) -> None:
        """Append an entry (order only breaks exact ties)."""
        self._entries.append(entry)
        self._index_entry(entry)

    def remove(self, entry: RouteEntry) -> None:
        """Remove exactly this entry object."""
        self._entries.remove(entry)
        self._unindex_entry(entry)

    def remove_matching(self, destination: Optional[Subnet] = None,
                        interface: Optional["NetworkInterface"] = None) -> int:
        """Remove every entry matching the given criteria; return count."""
        keep: List[RouteEntry] = []
        removed: List[RouteEntry] = []
        for entry in self._entries:
            if destination is not None and entry.destination != destination:
                keep.append(entry)
            elif interface is not None and entry.interface is not interface:
                keep.append(entry)
            else:
                removed.append(entry)
        self._entries = keep
        for entry in removed:
            self._unindex_entry(entry)
        return len(removed)

    def add_connected(self, net: Subnet,
                      interface: "NetworkInterface") -> None:
        """Install *interface*'s connected route to *net* unless the table
        already has it."""
        if not any(entry.destination == net and entry.interface is interface
                   for entry in self._entries):
            self.add(RouteEntry(destination=net, interface=interface))

    def add_host_route(self, host_addr: IPAddress, interface: "NetworkInterface",
                       gateway: Optional[IPAddress] = None, metric: int = 0
                       ) -> RouteEntry:
        """Convenience: install a /32 route for one host."""
        entry = RouteEntry(destination=Subnet(host_addr, 32), interface=interface,
                           gateway=gateway, metric=metric)
        self.add(entry)
        return entry

    def add_default(self, interface: "NetworkInterface",
                    gateway: Optional[IPAddress]) -> RouteEntry:
        """Convenience: install a default (0.0.0.0/0) route."""
        entry = RouteEntry(destination=DEFAULT_DESTINATION, interface=interface,
                           gateway=gateway)
        self.add(entry)
        return entry

    def remove_default(self) -> int:
        """Drop every default (0.0.0.0/0) route; returns count."""
        return self.remove_matching(destination=DEFAULT_DESTINATION)

    def lookup(self, dst: IPAddress) -> Optional[RouteEntry]:
        """Best (longest-prefix, then lowest-metric, then first) match.

        Entries whose interface is not up are skipped, so a shorter
        prefix can win.
        """
        value = dst.value
        probe = self._index.get
        for length in self._lengths:
            bucket = probe((value & PREFIX_MASKS[length]) << 6 | length)
            if bucket is None:
                continue
            if type(bucket) is not list:
                if bucket.interface.is_up:
                    return bucket
                continue
            best: Optional[RouteEntry] = None
            for entry in bucket:
                if not entry.interface.is_up:
                    continue
                if best is None or entry.metric < best.metric:
                    best = entry
            if best is not None:
                return best
        return None
