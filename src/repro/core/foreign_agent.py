"""An IETF-style foreign agent: the baseline MosquitoNet leaves out.

Section 2 describes the minimal foreign agent of the IETF draft: it must
"relay registration requests (change-of-location notifications) from the
mobile host to its home agent and decapsulate packets for delivery to the
mobile host".  This module implements that baseline so the reproduction
can compare both architectures (ablation A1 in DESIGN.md):

* **Registration relay** — the visiting mobile host sends its request to
  the FA; the FA forwards it to the home agent with the FA's own address
  as care-of, and relays the reply back on-link.
* **Decapsulation + on-link delivery** — packets tunneled from the home
  agent to the FA's address are decapsulated and handed to the visitor on
  the local network (the visitor keeps its home address as its only
  address; the FA holds a host route for it).
* **Smooth handoff** (Section 5.1's packet-loss point) — "if a foreign
  agent in the old network receives the new registration before the
  packets arrive, it can forward the packets to the mobile host's new
  care-of address."  :meth:`notify_departure` installs exactly that
  forwarding state for a grace period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.registration import (
    REGISTRATION_PORT,
    RegistrationReply,
    RegistrationRequest,
)
from repro.core.tunnel import VirtualInterface, install_tunnel
from repro.net.addressing import IPAddress
from repro.net.packet import AppData, IPPacket
from repro.net.routing import RouteEntry
from repro.sim.randomness import jittered
from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.interface import NetworkInterface

#: How long a departed visitor's forwarding state lives by default.
DEFAULT_FORWARDING_GRACE = ms(10_000)


@dataclass
class Visitor:
    """One mobile host currently (or recently) served by this FA."""

    home_address: IPAddress
    home_agent: IPAddress
    route: Optional[RouteEntry] = None
    departed: bool = False
    forward_to: Optional[IPAddress] = None


class ForeignAgentService:
    """The passive/minimal IETF foreign agent, attached to a host."""

    def __init__(self, host: "Host", interface: "NetworkInterface") -> None:
        self.host = host
        self.sim = host.sim
        self.config = host.config
        self.interface = interface
        if interface.address is None:
            raise ValueError(f"FA interface {interface.name} has no address")
        #: Visiting mobile hosts use this as their care-of address.
        self.care_of_address: IPAddress = interface.address
        self.vif: VirtualInterface = install_tunnel(host, name="vif.fa")
        self.vif.endpoint_selector = self._select_endpoints
        self._visitors: Dict[IPAddress, Visitor] = {}
        self._pending_relays: Dict[int, IPAddress] = {}
        self._rng = host.sim.rng(f"foreign-agent:{host.name}")
        self._socket = host.udp.open(REGISTRATION_PORT
                                     ).on_datagram(self._on_datagram)
        host.ip.forwarding = True
        # Statistics.
        self.requests_relayed = 0
        self.replies_relayed = 0
        self.packets_forwarded_after_departure = 0

    # -------------------------------------------------------------- inspection

    def visitor(self, home_address: IPAddress) -> Optional[Visitor]:
        """The visitor record for *home_address*, if any."""
        return self._visitors.get(home_address)

    def visitor_count(self) -> int:
        """Number of currently-served (not departed) visitors."""
        return sum(1 for visitor in self._visitors.values()
                   if not visitor.departed)

    # ---------------------------------------------------------- registration

    def _on_datagram(self, data: AppData, src: IPAddress, src_port: int,
                     dst: IPAddress) -> None:
        message = data.content
        if isinstance(message, RegistrationRequest):
            self._relay_request(message)
        elif isinstance(message, RegistrationReply):
            self._relay_reply(message)

    def _relay_request(self, request: RegistrationRequest) -> None:
        """Forward a visitor's request to its home agent."""
        self.requests_relayed += 1
        self._pending_relays[request.identification] = request.home_address
        visitor = self._visitors.get(request.home_address)
        if visitor is None:
            visitor = Visitor(home_address=request.home_address,
                              home_agent=request.home_agent)
            self._visitors[request.home_address] = visitor
        self.sim.trace.emit("foreign_agent", "relay_request",
                            fa=self.host.name,
                            home_address=request.home_address)
        delay = jittered(self._rng, self.config.registration.ha_receive_overhead,
                         self.config.jitter)
        self.sim.post_later(
            delay,
            lambda: self._socket.sendto(request.wrap(), request.home_agent,
                                        REGISTRATION_PORT),
            label="fa-relay-request",
        )

    def _relay_reply(self, reply: RegistrationReply) -> None:
        """Forward the home agent's reply back to the visitor, on-link."""
        home_address = self._pending_relays.pop(reply.identification, None)
        if home_address is None:
            return
        visitor = self._visitors.get(home_address)
        if visitor is None:
            return
        self.replies_relayed += 1
        if reply.accepted and reply.lifetime > 0:
            self._confirm_visitor(visitor)
        elif reply.accepted and reply.lifetime == 0:
            self._drop_visitor(visitor)
        self.sim.trace.emit("foreign_agent", "relay_reply", fa=self.host.name,
                            home_address=home_address, code=reply.code)
        delay = jittered(self._rng, self.config.registration.ha_send_overhead,
                         self.config.jitter)
        self.sim.post_later(
            delay,
            lambda: self._socket.sendto(reply.wrap(), home_address,
                                        REGISTRATION_PORT, via=self.interface),
            label="fa-relay-reply",
        )

    def _confirm_visitor(self, visitor: Visitor) -> None:
        """Install on-link delivery for a confirmed visitor."""
        visitor.departed = False
        visitor.forward_to = None
        if visitor.route is not None:
            self.host.ip.routes.remove(visitor.route)
        visitor.route = self.host.ip.routes.add_host_route(
            visitor.home_address, self.interface)

    def _drop_visitor(self, visitor: Visitor) -> None:
        if visitor.route is not None:
            self.host.ip.routes.remove(visitor.route)
            visitor.route = None
        self._visitors.pop(visitor.home_address, None)

    # ------------------------------------------------------------- departures

    def notify_departure(self, home_address: IPAddress,
                         new_care_of: Optional[IPAddress],
                         grace: int = DEFAULT_FORWARDING_GRACE) -> None:
        """The visitor moved on; forward in-flight tunnels if possible.

        With *new_care_of* given, packets the home agent tunneled here
        before seeing the new registration are re-encapsulated to the new
        location for *grace* nanoseconds (the paper's smooth-handoff
        benefit).  With ``None`` they are simply dropped, as in a
        plain minimal FA.
        """
        visitor = self._visitors.get(home_address)
        if visitor is None:
            return
        visitor.departed = True
        visitor.forward_to = new_care_of
        if visitor.route is not None:
            self.host.ip.routes.remove(visitor.route)
            visitor.route = None
        if new_care_of is not None:
            visitor.route = self.host.ip.routes.add_host_route(
                home_address, self.vif)
        self.sim.trace.emit("foreign_agent", "departure", fa=self.host.name,
                            home_address=home_address,
                            forward_to=new_care_of)
        self.sim.post_later(grace,
                            lambda: self._end_grace(home_address),
                            label="fa-grace")

    def _end_grace(self, home_address: IPAddress) -> None:
        visitor = self._visitors.get(home_address)
        if visitor is None or not visitor.departed:
            return
        self._drop_visitor(visitor)

    # ---------------------------------------------------------------- tunneling

    def _select_endpoints(self, inner: IPPacket
                          ) -> Optional[Tuple[IPAddress, IPAddress]]:
        """Re-tunnel packets for departed visitors to their new care-of."""
        visitor = self._visitors.get(inner.dst)
        if visitor is None or not visitor.departed or visitor.forward_to is None:
            return None
        self.packets_forwarded_after_departure += 1
        self.sim.trace.emit("foreign_agent", "forwarded_after_departure",
                            fa=self.host.name, home_address=inner.dst,
                            to=visitor.forward_to)
        return (self.care_of_address, visitor.forward_to)
