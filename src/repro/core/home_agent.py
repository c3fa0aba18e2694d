"""The home agent (Section 3.4).

The home agent's role is two-fold: decapsulate packets reverse-tunneled
from the mobile host (plain IPIP + IP forwarding), and intercept-then-
tunnel packets addressed to an away-from-home mobile host.  Interception
works exactly as the paper describes:

1. On a valid registration the home agent becomes the **ARP proxy** for the
   mobile host's home address, so the home subnet's router hands it the
   mobile host's packets.
2. It broadcasts a **gratuitous ARP** "on behalf of the mobile host to void
   any stale ARP cache entries on hosts in the same subnet".
3. It installs a host route sending the home address into its **VIF**,
   whose endpoint selector looks the destination up in the **mobility
   binding table** and emits an IP-in-IP packet to the registered care-of
   address.

Deregistration (the mobile host returned home) removes the binding, the
proxy-ARP entry and the host route.

The home agent does not need to be the subnet router: "we only require the
home agent to be one of the hosts on the same network" — the testbed can
build it either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple

from repro.core.bindings import MobilityBinding, MobilityBindingTable
from repro.core.registration import (
    CODE_ACCEPTED,
    CODE_DENIED_BAD_REQUEST,
    CODE_DENIED_UNKNOWN_HOME,
    REGISTRATION_PORT,
    RegistrationReply,
    RegistrationRequest,
)
from repro.core.tunnel import VirtualInterface, install_tunnel
from repro.net.addressing import IPAddress
from repro.net.packet import AppData, IPPacket
from repro.net.routing import RouteEntry
from repro.sim.fifo import FifoDelay
from repro.sim.randomness import RandomStream, jittered, lazy_stream

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.interface import EthernetInterface


class HomeAgentService:
    """Mobility service for one home subnet, attached to an existing host."""

    #: Statistics reported as counters (``MetricsRegistry.register``).
    _METRIC_FIELDS = (
        ("home_agent", "requests_received", (), "requests_received"),
        ("home_agent", "registrations_accepted", (), "registrations_accepted"),
        ("home_agent", "deregistrations", (), "deregistrations"),
        ("home_agent", "requests_denied", (), "requests_denied"),
        ("home_agent", "bindings_expired", (), "bindings_expired"),
    )

    def __init__(self, host: "Host", home_interface: "EthernetInterface") -> None:
        self.host = host
        self.sim = host.sim
        self.config = host.config
        self.home_interface = home_interface
        self.address: IPAddress = _require_address(home_interface)
        self.vif: VirtualInterface = install_tunnel(host, name="vif.ha")
        self.vif.endpoint_selector = self._select_endpoints
        self.bindings = MobilityBindingTable(host.sim,
                                             on_expire=self._binding_expired,
                                             owner=host.name)
        self._served: Set[IPAddress] = set()
        #: Fault-injection hook: return False to drop an outgoing reply
        #: (simulating a lost registration reply).
        self.reply_filter: Optional[Callable[[RegistrationReply], bool]] = None
        #: True while the agent is crashed: requests fall on the floor.
        self._down = False
        #: True while the agent is partitioned away from the hosts: its
        #: state survives (unlike a crash) but datagrams are dropped, so
        #: whatever it knew is stale by the time the partition heals.
        self.partitioned = False
        #: Replication hook: fires after every accepted (de)registration
        #: with ``(home_address, binding_or_None)``.  The binding-shard
        #: plane uses it to keep a replicated copy and to supersede other
        #: replicas' copies; None leaves the agent standalone.
        self.on_binding_change: Optional[
            Callable[[IPAddress, Optional[MobilityBinding]], None]] = None
        self._intercept_routes: Dict[IPAddress, RouteEntry] = {}
        # Registrations are processed one at a time (one CPU): a burst of
        # simultaneous arrivals queues, which is what the scalability
        # experiment measures.
        self._processing_fifo = FifoDelay(host.sim)
        self._socket = host.udp.open(REGISTRATION_PORT
                                     ).on_datagram(self._on_datagram)
        host.ip.forwarding = True
        # Statistics.
        self.requests_received = 0
        self.registrations_accepted = 0
        self.deregistrations = 0
        self.requests_denied = 0
        self.restarts = 0
        self.bindings_expired = 0
        host.sim.metrics.register(self, self._METRIC_FIELDS, host=host.name)

    @lazy_stream
    def _rng(self) -> RandomStream:
        """Processing-cost jitter, created on first draw."""
        return self.sim.rng(f"home-agent:{self.host.name}")

    # -------------------------------------------------------------- provision

    def serve(self, home_address: IPAddress) -> None:
        """Authorize mobility service for one home address."""
        self._served.add(home_address)

    def stops_serving(self, home_address: IPAddress) -> None:
        """Withdraw mobility service and any live intercept state."""
        self._served.discard(home_address)
        self._remove_intercept(home_address)
        self.bindings.deregister(home_address)

    def serves(self, home_address: IPAddress) -> bool:
        """True if mobility service is authorized for *home_address*."""
        return home_address in self._served

    def current_care_of(self, home_address: IPAddress) -> Optional[IPAddress]:
        """The registered care-of address, or None when home/expired."""
        binding = self.bindings.get(home_address)
        return binding.care_of_address if binding is not None else None

    # ------------------------------------------------------------ registration

    def _on_datagram(self, data: AppData, src: IPAddress, src_port: int,
                     dst: IPAddress) -> None:
        request = data.content
        if not isinstance(request, RegistrationRequest):
            return
        if self._down:
            self.sim.drop("home_agent", "down", request, host=self.host.name)
            return
        if self.partitioned:
            # Dropped before any other counter moves: to the hosts a
            # partitioned agent is indistinguishable from a dead one, but
            # its own statistics and bindings live on.
            self.sim.drop("home_agent", "partitioned", request,
                          host=self.host.name)
            return
        self.requests_received += 1
        timings = self.config.registration
        delay = (jittered(self._rng, timings.ha_receive_overhead, self.config.jitter)
                 + jittered(self._rng, timings.ha_processing_cost, self.config.jitter))
        trace = self.sim.trace
        if "registration" in trace.live:
            trace.emit("registration", "ha_received", host=self.host.name,
                       ident=request.identification, source=src)
        self._processing_fifo.post(delay, lambda: self._process(request, src),
                                   "ha-process")

    def _process(self, request: RegistrationRequest, src: IPAddress) -> None:
        code = self._validate(request)
        if code == CODE_ACCEPTED:
            if request.is_deregistration:
                self._deregister(request)
            else:
                self._register(request)
        else:
            self.requests_denied += 1
        lifetime = 0 if request.is_deregistration else request.lifetime
        reply = RegistrationReply(code=code,
                                  home_address=request.home_address,
                                  care_of_address=request.care_of_address,
                                  lifetime=lifetime,
                                  identification=request.identification)
        destination = src if not src.is_unspecified else request.care_of_address
        send_cost = jittered(self._rng,
                             self.config.registration.ha_send_overhead,
                             self.config.jitter)

        def transmit_reply() -> None:
            if self.partitioned:
                # The partition cut both directions mid-exchange.
                self.sim.drop("home_agent", "partitioned", reply,
                              host=self.host.name)
                return
            if self.reply_filter is not None and not self.reply_filter(reply):
                self.sim.drop("home_agent", "reply_filtered", reply,
                              host=self.host.name)
                return
            # Timestamped here so the trace delta matches the paper's
            # "time between the home agent receiving the registration
            # request and sending out its reply" (1.48 ms in Figure 7).
            trace = self.sim.trace
            if "registration" in trace.live:
                trace.emit("registration", "ha_reply", host=self.host.name,
                           ident=request.identification, code=code)
            self._socket.sendto(reply.wrap(), destination, REGISTRATION_PORT)

        self.sim.post_later(send_cost, transmit_reply, label="ha-reply-tx")

    def _validate(self, request: RegistrationRequest) -> int:
        if request.home_address not in self._served:
            return CODE_DENIED_UNKNOWN_HOME
        if request.home_agent != self.address:
            return CODE_DENIED_BAD_REQUEST
        if request.lifetime < 0:
            return CODE_DENIED_BAD_REQUEST
        return CODE_ACCEPTED

    def _register(self, request: RegistrationRequest) -> None:
        binding = self.bindings.register(request.home_address,
                                         request.care_of_address,
                                         request.lifetime,
                                         request.identification)
        self._install_intercept(request.home_address)
        self.registrations_accepted += 1
        # The replication hook fires before the trace record, so a plane
        # superseding other replicas' copies emits their "flushed" records
        # ahead of this "registered" one — auditors see a consistent order.
        if self.on_binding_change is not None:
            self.on_binding_change(request.home_address, binding)
        self.sim.trace.emit("binding", "registered",
                            agent=self.host.name,
                            home_address=request.home_address,
                            care_of=request.care_of_address,
                            lifetime_ms=request.lifetime / 1_000_000)

    def _deregister(self, request: RegistrationRequest) -> None:
        self.bindings.deregister(request.home_address)
        self._remove_intercept(request.home_address)
        self.deregistrations += 1
        if self.on_binding_change is not None:
            self.on_binding_change(request.home_address, None)
        self.sim.trace.emit("binding", "deregistered",
                            agent=self.host.name,
                            home_address=request.home_address)

    # ------------------------------------------------------------- replication

    def flush_binding(self, home_address: IPAddress) -> bool:
        """Drop a (superseded) binding and its intercept state, if held.

        The binding-shard plane calls this when another replica has won a
        *newer* registration for the address: keeping the old copy alive
        would leave the home address double-owned.  Returns True if a
        binding was actually removed.
        """
        binding = self.bindings.deregister(home_address)
        if binding is None:
            return False
        self._remove_intercept(home_address)
        self.sim.metrics.counter("home_agent", "bindings_flushed",
                                 host=self.host.name).value += 1
        self.sim.trace.emit("binding", "flushed", agent=self.host.name,
                            home_address=home_address,
                            care_of=binding.care_of_address)
        return True

    def adopt_binding(self, binding: MobilityBinding) -> bool:
        """Take over a live binding handed across by a draining replica.

        The remaining lifetime is preserved (the mobile host's next
        renewal lands here through the plane's lookup), and the intercept
        machinery comes up exactly as for a fresh registration.  Expired
        bindings are refused.
        """
        remaining = binding.remaining(self.sim.now)
        if remaining <= 0:
            return False
        self.serve(binding.home_address)
        self.bindings.register(binding.home_address, binding.care_of_address,
                               remaining, binding.identification)
        self._install_intercept(binding.home_address)
        self.sim.metrics.counter("home_agent", "bindings_adopted",
                                 host=self.host.name).value += 1
        self.sim.trace.emit("binding", "adopted", agent=self.host.name,
                            home_address=binding.home_address,
                            care_of=binding.care_of_address)
        return True

    # --------------------------------------------------------------- intercept

    def _install_intercept(self, home_address: IPAddress) -> None:
        """Proxy ARP + gratuitous ARP + host route into the VIF."""
        self.home_interface.arp.add_proxy(home_address)
        self.home_interface.arp.send_gratuitous(home_address)
        if home_address not in self._intercept_routes:
            entry = self.host.ip.routes.add_host_route(home_address, self.vif)
            self._intercept_routes[home_address] = entry

    def _remove_intercept(self, home_address: IPAddress) -> None:
        self.home_interface.arp.remove_proxy(home_address)
        entry = self._intercept_routes.pop(home_address, None)
        if entry is not None:
            self.host.ip.routes.remove(entry)

    def _binding_expired(self, binding: MobilityBinding) -> None:
        self._remove_intercept(binding.home_address)
        self.bindings_expired += 1

    # ------------------------------------------------------------------ faults

    def crash(self, down_for: int,
              on_recovered: Optional[Callable[[], None]] = None) -> None:
        """Restart the agent with state loss (the fault injector's hook).

        All mobility bindings, proxy-ARP entries and intercept routes are
        forgotten — exactly what a reboot of the paper's Pentium 90 home
        agent would do — and requests are ignored until recovery.  Mobile
        hosts win their service back only by re-registering, which is what
        lifetime-expiry renewal exists for.
        """
        if self._down:
            return
        self._down = True
        self.restarts += 1
        self.sim.trace.emit("home_agent", "crash", host=self.host.name,
                            bindings_lost=len(self.bindings))
        for binding in self.bindings.clear():
            self._remove_intercept(binding.home_address)

        def recover() -> None:
            self._down = False
            self.sim.trace.emit("home_agent", "recovered", host=self.host.name)
            if on_recovered is not None:
                on_recovered()

        self.sim.post_later(down_for, recover, label="ha-recover")

    @property
    def is_down(self) -> bool:
        """True while crashed (requests are being dropped)."""
        return self._down

    # ---------------------------------------------------------------- tunneling

    def _select_endpoints(self, inner: IPPacket
                          ) -> Optional[Tuple[IPAddress, IPAddress]]:
        """VIF endpoint selector: inner destination -> registered care-of."""
        binding = self.bindings.get(inner.dst)
        if binding is None:
            return None
        return (self.address, binding.care_of_address)


def _require_address(interface: "EthernetInterface") -> IPAddress:
    address = interface.address
    if address is None:
        raise ValueError(
            f"home agent interface {interface.name} has no address configured"
        )
    return address
