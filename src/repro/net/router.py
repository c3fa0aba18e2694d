"""Routers, including the paper's "security-conscious" transit filter.

A router is a host with forwarding on.  Section 3.2 explains why the plain
triangle route is fragile: "some security-conscious routers ... forbid
transit traffic.  Transit traffic is traffic with a source address not
local to the network" — a mobile host sending with its home address as
source looks exactly like that, so filtering routers drop it.  The
:meth:`Router.enable_transit_filter` switch reproduces that policy; the
Mobile Policy Table's probe-and-fallback behaviour is tested against it.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.config import Config
from repro.net.addressing import Subnet
from repro.net.host import Host
from repro.net.interface import NetworkInterface
from repro.net.packet import IPPacket


class Router(Host):
    """An IP forwarder with an optional ingress (transit) filter."""

    def __init__(self, sim, name: str, config: Config) -> None:
        super().__init__(sim, name, config, config.server_host)
        self.ip.forwarding = True
        self._filter_exempt: Set[Subnet] = set()

    # ---------------------------------------------------------------- filter

    def enable_transit_filter(self, exempt: Optional[List[Subnet]] = None) -> None:
        """Drop forwarded packets whose source is not a local subnet.

        ``exempt`` lists additional prefixes treated as local (e.g. an
        upstream provider block).  Outer IP-in-IP headers are checked like
        anything else — which is precisely why the paper's encapsulated
        variant of the triangle route *does* pass such filters: its outer
        source is the mobile host's valid local care-of address.
        """
        self._filter_exempt = set(exempt or [])
        self.ip.forward_filter = self._check_transit

    def disable_transit_filter(self) -> None:
        """Stop filtering; forward everything routable."""
        self.ip.forward_filter = None

    def _local_subnets(self) -> List[Subnet]:
        return [iface.subnet for iface in self.interfaces
                if iface.subnet is not None]

    def _check_transit(self, packet: IPPacket, in_iface: NetworkInterface) -> bool:
        """Transit = neither endpoint is local: the packet is just passing
        through.  A mobile host's triangle-routed packet (home source,
        outside destination) is exactly that; tunneled packets *to* a local
        care-of address are not, which is why the unoptimized route and the
        encapsulated-direct variant both survive the filter.  A rejected
        packet is IP's ``filtered`` drop."""
        local = self._local_subnets() + list(self._filter_exempt)
        return any(packet.src in net or packet.dst in net for net in local)
