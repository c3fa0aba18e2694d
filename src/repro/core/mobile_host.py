"""The mobile host (Sections 3.1, 3.3, 5.2).

A :class:`MobileHost` is an ordinary :class:`~repro.net.host.Host` plus the
three kernel extensions the paper made:

1. **The hooked route lookup.**  ``ip_rt_route()`` is overridden by
   :meth:`MobileHost._mobile_route`, which implements Figure 4's decision
   tree: a packet whose source address is already bound to a particular
   interface is *outside the scope of mobile IP* (the local role); a packet
   with an unspecified source — or the home address — gets mobile-IP
   treatment according to the Mobile Policy Table.
2. **The Mobile Policy Table** (:class:`repro.core.policy.MobilePolicyTable`),
   consulted per destination to pick tunneling, the triangle route, the
   encapsulated-direct variant, or plain local communication.
3. **The VIF** for encapsulation: the mobile host is its own foreign agent,
   so it encapsulates outgoing tunneled packets and decapsulates incoming
   ones itself.

When the mobile host is away, its home address lives on the VIF (so
decapsulated packets for it are recognized as local) and the registration
protocol keeps the home agent pointed at the current care-of address.
When it is home, the home address lives on the home interface and the host
behaves exactly like a stationary one.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Tuple

from repro.config import Config
from repro.core.notify import NetworkChangeNotifier, profile_of
from repro.core.policy import MobilePolicyTable, RoutingMode
from repro.core.registration import RegistrationClient, RegistrationOutcome
from repro.core.tunnel import VirtualInterface, install_tunnel
from repro.net.addressing import IPAddress, Subnet, UNSPECIFIED
from repro.net.host import Host
from repro.net.interface import EthernetInterface, NetworkInterface
from repro.net.packet import IPPacket
from repro.net.routing import RouteEntry, RouteResult
from repro.sim.engine import Event, Simulator
from repro.sim.units import ms

#: How long a correspondent probe waits for its echo reply.
PROBE_TIMEOUT = ms(2000)


class Location(enum.Enum):
    """Where the mobile host believes it is attached."""

    HOME = "home"
    FOREIGN = "foreign"               # collocated care-of (MosquitoNet mode)
    FOREIGN_WITH_FA = "foreign-fa"    # via a foreign agent (baseline mode)


#: The route hook compares against these aliases: reading a member off the
#: Enum class costs ~10x a global load on CPython 3.11.
_HOME = Location.HOME
_FOREIGN_WITH_FA = Location.FOREIGN_WITH_FA


class MobileHost(Host):
    """A host that can move between networks without dropping connections."""

    def __init__(self, sim: Simulator, name: str, home_address: IPAddress,
                 home_subnet: Subnet, home_agent: IPAddress,
                 *, config: Config) -> None:
        super().__init__(sim, name, config, timings=config.mobile_host)
        self.home_address = home_address
        self.home_subnet = home_subnet
        self.home_agent = home_agent
        self.vif: VirtualInterface = install_tunnel(self, name="vif")
        self.vif.endpoint_selector = self._select_endpoints
        self.policy = MobilePolicyTable(metrics=sim.metrics, owner=name)
        self.registration = RegistrationClient(self, home_address, home_agent)
        self.ip.route_hook = self._mobile_route

        self.location = Location.HOME
        self.care_of: Optional[IPAddress] = None
        self.active_interface: Optional[NetworkInterface] = None
        self.home_interface: Optional[NetworkInterface] = None
        self.foreign_agent: Optional[IPAddress] = None
        self._default_route: Optional[RouteEntry] = None
        #: Smart correspondent hosts (Section 3.2) that receive binding
        #: updates alongside the home agent, enabling the reverse-path
        #: optimization implemented in repro.core.smart_correspondent.
        self.smart_correspondents: set = set()
        #: The Section 6 notification API: applications subscribe here to
        #: hear about attachment and quality changes.
        self.notifier = NetworkChangeNotifier(sim)
        #: Pending lifetime-expiry renewal (armed only when
        #: ``config.registration.renewal_fraction`` > 0).
        self._renewal_event: Optional[Event] = None
        self.renewals_sent = 0

    # ------------------------------------------------------------- inspection

    @property
    def at_home(self) -> bool:
        """True when attached to the home network (mobility idle)."""
        return self.location == Location.HOME

    def describe_attachment(self) -> str:
        """Human-readable attachment summary for examples."""
        if self.at_home:
            return (f"{self.name}: at home as {self.home_address} "
                    f"on {self.home_interface.name if self.home_interface else '?'}")
        mode = "via FA" if self.location == Location.FOREIGN_WITH_FA else "collocated"
        return (f"{self.name}: away, home={self.home_address}, "
                f"care-of={self.care_of} ({mode}) "
                f"on {self.active_interface.name if self.active_interface else '?'}")

    # -------------------------------------------------------------- attachment

    def set_home(self, iface: NetworkInterface, gateway: IPAddress) -> None:
        """Declare *iface* the home interface and settle there (immediate).

        Used during topology construction; a *measured* return home goes
        through :meth:`come_home`.
        """
        self.home_interface = iface
        self.vif.remove_address(self.home_address)
        iface.subnet = self.home_subnet
        iface.add_address(self.home_address, make_primary=True)
        self.ip.routes.add_connected(self.home_subnet, iface)
        self._set_default_route(iface, gateway)
        self.location = Location.HOME
        self.care_of = None
        self.active_interface = iface
        self.foreign_agent = None
        self._cancel_renewal()
        self.notifier.attachment_changed(profile_of(iface))

    def start_visiting(self, iface: NetworkInterface, care_of: IPAddress,
                       net: Subnet, gateway: IPAddress,
                       on_registered: Optional[Callable[[RegistrationOutcome], None]] = None,
                       register: bool = True) -> None:
        """Adopt a collocated care-of address on a foreign network.

        This is the immediate (already-configured) form used by tests and
        by the handoff engine once its timed stages finish.
        """
        iface.subnet = net
        iface.add_address(care_of, make_primary=True)
        self.ip.routes.add_connected(net, iface)
        self._set_default_route(iface, gateway)
        self._move_home_address_to_vif()
        self.location = Location.FOREIGN
        self.foreign_agent = None
        old_care_of = self.care_of
        self.care_of = care_of
        self.active_interface = iface
        self.sim.trace.emit("mobile", "visiting", host=self.name,
                            care_of=care_of, previous=old_care_of)
        self.notifier.attachment_changed(profile_of(iface))
        if register:
            self.register_current(on_registered)

    def attach_via_foreign_agent(self, iface: NetworkInterface,
                                 fa_address: IPAddress, net: Subnet,
                                 on_registered: Optional[Callable[[RegistrationOutcome], None]] = None
                                 ) -> None:
        """Baseline mode: use a foreign agent's address as care-of.

        The mobile host keeps only its home address (no local address at
        all — the whole point of a foreign agent), uses the FA as default
        router, and sends its registration request through the FA, which
        relays it to the home agent.
        """
        iface.subnet = net
        for other in self.interfaces:
            if other is not iface:
                other.remove_address(self.home_address)
        iface.add_address(self.home_address, make_primary=True)
        self._set_default_route(iface, fa_address)
        self.location = Location.FOREIGN_WITH_FA
        self.foreign_agent = fa_address
        self.care_of = fa_address
        self.active_interface = iface
        self.sim.trace.emit("mobile", "visiting_fa", host=self.name,
                            foreign_agent=fa_address)
        self.registration.register(
            fa_address,
            on_done=on_registered if on_registered is not None else _ignore_outcome,
            via=iface,
            destination=fa_address,
        )

    def come_home(self, iface: NetworkInterface, *,
                  gateway: IPAddress,
                  on_done: Optional[Callable[[RegistrationOutcome], None]] = None
                  ) -> None:
        """Return to the home network: deregister and re-announce ourselves.

        The mobile host moves its home address back onto the physical home
        interface, sends a gratuitous ARP so neighbours stop using the home
        agent's proxy entry, and deregisters so the home agent drops the
        binding and its own proxy role.
        """
        self.set_home(iface, gateway=gateway)
        if isinstance(iface, EthernetInterface):
            iface.arp.send_gratuitous(self.home_address)
        self.registration.deregister(
            on_done=on_done if on_done is not None else _ignore_outcome,
            via=iface,
        )
        # Invalidate any smart correspondents' cached bindings too.
        for correspondent in self.smart_correspondents:
            self.registration.deregister(on_done=_ignore_outcome,
                                         via=iface,
                                         destination=correspondent)

    def stop_visiting(self, iface: NetworkInterface) -> None:
        """Drop a foreign attachment's address and routes (departure)."""
        if iface.address is not None and iface.address != self.home_address:
            iface.remove_address(iface.address)
        self.ip.routes.remove_matching(interface=iface)
        if self.active_interface is iface:
            self.active_interface = None
            self._cancel_renewal()

    # ------------------------------------------------------------ registration

    def register_current(self,
                         on_registered: Optional[Callable[[RegistrationOutcome], None]] = None,
                         on_failed: Optional[Callable[[], None]] = None,
                         lifetime: Optional[int] = None) -> None:
        """(Re-)register the current care-of address with the home agent.

        Smart correspondents get the same message as a binding update, in
        parallel — losing one of those only costs the optimization, never
        correctness, so their outcomes are not waited on.
        """
        if self.care_of is None or self.active_interface is None:
            raise ValueError(f"{self.name} has no care-of address to register")

        def done(outcome: RegistrationOutcome) -> None:
            if outcome.accepted and outcome.reply is not None:
                self._schedule_renewal(outcome.reply.lifetime)
            if on_registered is not None:
                on_registered(outcome)

        self.registration.register(
            self.care_of,
            on_done=done,
            on_fail=on_failed,
            lifetime=lifetime,
            via=self.active_interface,
        )
        for correspondent in self.smart_correspondents:
            self.registration.register(
                self.care_of, on_done=_ignore_outcome, lifetime=lifetime,
                via=self.active_interface, destination=correspondent,
            )

    def _schedule_renewal(self, granted_lifetime: int) -> None:
        """Arm re-registration before the binding's lifetime lapses.

        Without this, a binding that outlives ``default_lifetime`` simply
        expires at the home agent and the mobile host silently loses
        service (Section 3.1's lifetime is a lease, and leases renew).
        Disabled when ``renewal_fraction`` is 0 to keep legacy runs
        untouched.
        """
        fraction = self.config.registration.renewal_fraction
        self._cancel_renewal()
        if fraction <= 0.0 or granted_lifetime <= 0:
            return
        delay = max(1, int(granted_lifetime * fraction))
        self._renewal_event = self.sim.call_later(delay, self._renew_registration,
                                                  label="reg-renewal")

    def _cancel_renewal(self) -> None:
        if self._renewal_event is not None:
            self._renewal_event.cancel()
            self._renewal_event = None

    def _renew_registration(self) -> None:
        self._renewal_event = None
        if self.at_home or self.care_of is None or self.active_interface is None:
            return
        self.renewals_sent += 1
        self.sim.trace.emit("registration", "renewal", host=self.name,
                            care_of=self.care_of)
        self.register_current(on_failed=self._renewal_gave_up)

    def _renewal_gave_up(self) -> None:
        """A renewal exhausted its retransmissions; keep trying.

        The home agent may be mid-reboot — service comes back only through
        a later successful re-registration, so the renewal loop must not
        die with a single spent request.
        """
        if self.at_home or self.care_of is None:
            return
        self._cancel_renewal()
        self._renewal_event = self.sim.call_later(
            self.config.registration.backoff_cap, self._renew_registration,
            label="reg-renewal-retry")

    def add_smart_correspondent(self, address: IPAddress) -> None:
        """Start sending binding updates to a mobile-aware correspondent."""
        self.smart_correspondents.add(address)

    # ----------------------------------------------------------------- routing

    def _set_default_route(self, iface: NetworkInterface,
                           gateway: IPAddress) -> None:
        self.ip.routes.remove_default()
        self._default_route = self.ip.routes.add_default(iface, gateway=gateway)

    def _mobile_route(self, dst: IPAddress, src_hint: IPAddress,
                      default: Callable[[IPAddress, IPAddress], Optional[RouteResult]]
                      ) -> Optional[RouteResult]:
        """The paper's modified ``ip_rt_route()`` (Figure 4's decision tree)."""
        location = self.location
        if location is _HOME:
            return None  # plain routing; mobility machinery is idle
        hint = src_hint.value
        if hint and hint != self.home_address.value:
            # "Outside the scope of mobile IP": the application bound the
            # source itself (local role / mobile-aware software).
            return None
        mode = self.policy.lookup(dst)
        if location is _FOREIGN_WITH_FA and mode.encapsulates:
            # With a foreign agent the mobile host has no collocated
            # address to source an outer header from (its only address is
            # the home address), so the IETF baseline sends direct with
            # the home source and lets the FA route it — i.e. the triangle.
            mode = RoutingMode.TRIANGLE
        trace = self.sim.trace
        if "policy" in trace.live:
            trace.emit("policy", "decision", host=self.name,
                       destination=dst, mode=mode.value)
        if mode is RoutingMode.TUNNEL or mode is RoutingMode.ENCAP_DIRECT:
            # Route into the VIF; the endpoint selector picks the outer
            # destination (home agent, or the correspondent itself for the
            # encapsulated-direct variant).
            return RouteResult(interface=self.vif, source=self.home_address)
        if mode is RoutingMode.TRIANGLE:
            result = default(dst, self.home_address)
            if result is None:
                return None
            return RouteResult(interface=result.interface,
                               source=self.home_address,
                               gateway=result.gateway)
        # RoutingMode.LOCAL: ordinary routing with the care-of source.
        return default(dst, UNSPECIFIED)

    def _physical_source(self) -> Optional[IPAddress]:
        """The address the VIF stamps on outer headers."""
        if self.location == Location.FOREIGN_WITH_FA:
            return self.home_address  # only address we own in FA mode
        return self.care_of

    def _select_endpoints(self, inner: IPPacket
                          ) -> Optional[Tuple[IPAddress, IPAddress]]:
        """VIF endpoint selector for outgoing encapsulation."""
        source = self._physical_source()
        if source is None:
            return None
        mode = self.policy.lookup(inner.dst)
        if mode is RoutingMode.ENCAP_DIRECT:
            return (source, inner.dst)
        return (source, self.home_agent)

    def _move_home_address_to_vif(self) -> None:
        if self.home_interface is not None:
            self.home_interface.remove_address(self.home_address)
        for iface in self.interfaces:
            if iface is not self.vif:
                iface.remove_address(self.home_address)
        self.vif.add_address(self.home_address, make_primary=True)

    # ------------------------------------------------------------------ probes

    def probe_correspondent(self, dst: IPAddress,
                            on_result: Callable[[IPAddress, bool], None]) -> None:
        """Ping *dst* under the current policy and cache the outcome.

        Section 3.2: "if we find that we cannot use the optimization,
        through failed attempts to ping a correspondent host, then we can
        revert to using the unoptimized route.  We can cache this
        information ... in the Mobile Policy Table."
        """

        def reached(rtt: int) -> None:
            self.policy.record_probe_result(dst, True)
            self.sim.trace.emit("policy", "probe_ok", host=self.name,
                                destination=dst, rtt_ms=rtt / 1_000_000)
            on_result(dst, True)

        def timed_out() -> None:
            self.policy.record_probe_result(dst, False)
            self.sim.trace.emit("policy", "probe_failed", host=self.name,
                                destination=dst)
            on_result(dst, False)

        self.icmp.ping(dst, on_reply=reached, on_timeout=timed_out,
                       timeout=PROBE_TIMEOUT)


def _ignore_outcome(outcome: RegistrationOutcome) -> None:
    return None
