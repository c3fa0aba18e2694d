"""Smart correspondent hosts: the reverse-path optimization (extension).

Section 3.2: "Some correspondent hosts may be mobile themselves or may run
mobile-aware software.  We call these *smart correspondent hosts*, and
we'd like to take advantage of them when possible."  The paper stops at
the forward path ("we do not consider routing optimizations for the
reverse path ... we have not yet implemented any of them.  These
optimizations require the correspondent host to be able to locate the
mobile host at its care-of address") — this module implements exactly that
deferred optimization:

* the mobile host sends its ordinary registration message to smart
  correspondents as a **binding update** (Section 5.1 already anticipates
  "the registration of the temporary care-of address with the home agent
  *and with smart correspondent hosts*");
* the smart correspondent keeps a binding cache and acknowledges updates,
  so the mobile host's existing retransmission machinery applies;
* a route hook + VIF on the correspondent tunnels packets for a cached
  home address straight to the care-of address, skipping the home agent.

Deregistrations (care-of == home) invalidate the cache entry, and entries
expire with their lifetime, so a crashed correspondent cache degrades to
the always-correct basic protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.core.bindings import MobilityBindingTable
from repro.core.registration import (
    CODE_ACCEPTED,
    REGISTRATION_PORT,
    RegistrationReply,
    RegistrationRequest,
)
from repro.core.tunnel import VirtualInterface, install_tunnel
from repro.net.addressing import IPAddress, UNSPECIFIED
from repro.net.packet import AppData, IPPacket
from repro.net.routing import RouteResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


class SmartCorrespondent:
    """Mobile-awareness for a correspondent host.

    Attach to any :class:`~repro.net.host.Host`; from then on, packets the
    host sends to a mobile host with a fresh cached binding are tunneled
    directly to its care-of address.
    """

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.sim = host.sim
        self.vif: VirtualInterface = install_tunnel(host, name="vif.sc")
        self.vif.endpoint_selector = self._select_endpoints
        self.bindings = MobilityBindingTable(host.sim)
        if host.ip.route_hook is not None:
            raise ValueError(f"{host.name} already has a route hook")
        host.ip.route_hook = self._route_hook
        self._socket = host.udp.open(REGISTRATION_PORT
                                     ).on_datagram(self._on_datagram)
        # Statistics.
        self.updates_accepted = 0
        self.packets_optimized = 0

    # -------------------------------------------------------------- inspection

    def cached_care_of(self, home_address: IPAddress) -> Optional[IPAddress]:
        """The cached care-of for *home_address*, or None."""
        binding = self.bindings.get(home_address)
        return binding.care_of_address if binding is not None else None

    # ---------------------------------------------------------- binding updates

    def _on_datagram(self, data: AppData, src: IPAddress, src_port: int,
                     dst: IPAddress) -> None:
        update = data.content
        if not isinstance(update, RegistrationRequest):
            return
        if update.is_deregistration:
            self.bindings.deregister(update.home_address)
            self.sim.trace.emit("smart_ch", "binding_invalidated",
                                host=self.host.name,
                                home_address=update.home_address)
        else:
            self.bindings.register(update.home_address,
                                   update.care_of_address, update.lifetime,
                                   update.identification)
            self.sim.trace.emit("smart_ch", "binding_cached",
                                host=self.host.name,
                                home_address=update.home_address,
                                care_of=update.care_of_address)
        self.updates_accepted += 1
        reply = RegistrationReply(code=CODE_ACCEPTED,
                                  home_address=update.home_address,
                                  care_of_address=update.care_of_address,
                                  lifetime=update.lifetime,
                                  identification=update.identification)
        self._socket.sendto(reply.wrap(), src, src_port)

    # ------------------------------------------------------------------ routing

    def _route_hook(self, dst: IPAddress, src_hint: IPAddress,
                    default: Callable[[IPAddress, IPAddress], Optional[RouteResult]]
                    ) -> Optional[RouteResult]:
        binding = self.bindings.get(dst)
        if binding is None:
            return None
        base = default(dst, src_hint)
        source = src_hint
        if source.is_unspecified:
            source = base.source if base is not None else UNSPECIFIED
        if source.is_unspecified:
            return None  # can't address the tunnel; fall back to normal
        return RouteResult(interface=self.vif, source=source)

    def _select_endpoints(self, inner: IPPacket
                          ) -> Optional[Tuple[IPAddress, IPAddress]]:
        binding = self.bindings.get(inner.dst)
        if binding is None:
            return None
        self.packets_optimized += 1
        return (inner.src, binding.care_of_address)
