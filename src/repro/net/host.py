"""Host: a node with interfaces and a full protocol stack.

A :class:`Host` wires together the IP layer, ICMP, UDP and TCP services and
a loopback interface.  Correspondent hosts in the paper are exactly this —
"all applications on ... correspondent hosts need not know anything about
mobility" — so this class contains no mobile-IP code at all.  The mobile
host and home agent in :mod:`repro.core` build on it through the public
extension points (route hook, protocol registration, extra interfaces).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import Config, DEFAULT_CONFIG, HostTimings
from repro.net.addressing import IPAddress, Subnet
from repro.net.icmp import ICMPService
from repro.net.interface import (InterfaceState, LoopbackInterface,
                                  NetworkInterface)
from repro.net.ip import IPStack
from repro.net.routing import RouteEntry
from repro.net.tcp import TCPService
from repro.net.udp import UDPService
from repro.sim.engine import Simulator


class Host:
    """A network node: interfaces + IP + ICMP + UDP + TCP."""

    def __init__(self, sim: Simulator, name: str,
                 config: Config = DEFAULT_CONFIG,
                 timings: Optional[HostTimings] = None) -> None:
        self.sim = sim
        self.name = name
        self.config = config
        self.timings = timings if timings is not None else config.generic_host
        self.interfaces: List[NetworkInterface] = []
        self.ip = IPStack(sim, self, config, self.timings)
        self.icmp = ICMPService(sim, self, config, self.timings)
        self.udp = UDPService(sim, self, config, self.timings)
        self.tcp = TCPService(sim, self, config, self.timings)
        self.loopback = LoopbackInterface(sim, config, name=f"lo.{name}")
        self.add_interface(self.loopback)

    # -------------------------------------------------------------- interfaces

    def add_interface(self, iface: NetworkInterface) -> NetworkInterface:
        """Attach an interface to this host's stack."""
        if iface.host is self:
            return iface
        if iface.host is not None:
            raise ValueError(f"{iface.name} already belongs to {iface.host.name}")
        # Only this method sets iface.host, so it marks membership and no
        # scan of self.interfaces is needed.
        iface.host = self
        self.interfaces.append(iface)
        for addr in iface.addresses:
            self.ip.claim_local(addr)
        if iface.subnet is not None:
            self.ip.claim_local(iface.subnet.broadcast)
        return iface

    def interface(self, name: str) -> NetworkInterface:
        """Look an interface up by name (raises KeyError if absent)."""
        for iface in self.interfaces:
            if iface.name == name:
                return iface
        raise KeyError(f"{self.name} has no interface {name!r}")

    # ------------------------------------------------------------ convenience

    def configure_interface(self, iface: NetworkInterface, address: IPAddress,
                            net: Subnet, bring_up: bool = True,
                            connected_route: bool = True) -> None:
        """Instantly configure an interface (for topology construction).

        Unlike :meth:`NetworkInterface.configure`, this is immediate: it is
        the "the network was already set up before the experiment started"
        path.  Experiments that *measure* configuration use the interface's
        own delayed methods instead.
        """
        iface.subnet = net
        iface.add_address(address, make_primary=True)
        if bring_up:
            iface.state = InterfaceState.UP
            # Let technology hooks (radio channel publication) fire.
            iface._on_address_added(address)
        if connected_route:
            self.ip.routes.add(RouteEntry(destination=net, interface=iface))

    def add_default_route(self, gateway: IPAddress,
                          iface: NetworkInterface) -> RouteEntry:
        """Install a default route via *gateway* out of *iface*."""
        return self.ip.routes.add_default(iface, gateway=gateway)

    def primary_address(self) -> Optional[IPAddress]:
        """The first non-loopback address, for display and client IDs."""
        for iface in self.interfaces:
            if isinstance(iface, LoopbackInterface):
                continue
            if iface.address is not None:
                return iface.address
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} addr={self.primary_address()}>"
