"""VIF and IP-in-IP: the encapsulation engine (Figure 4).

The paper adds "a virtual link-level interface, called VIF, to encapsulate
packets" plus an "IP-within-IP processing module (IPIP)", shaded as one
module in Figure 4 because they are implemented together.  This module is
that pair:

* :class:`VirtualInterface` — looks like any other interface to the routing
  table.  When IP routes a packet to it, the VIF wraps the packet in an
  outer header and *hands it back to IP*: "we can consider IP-within-IP to
  have delivered a new packet to IP, which treats the packet based on the
  same set of rules as before."
* :class:`IPIPModule` — the receive side: registered as the handler for IP
  protocol 4, strips the outer header and re-injects the inner packet.

The crucial invariant (Section 3.3): "to ensure the packet doesn't get
encapsulated again, VIF must set the source address in the outer header to
a specific physical interface."  The owner supplies an *endpoint selector*
that returns the outer (source, destination) pair; because the source it
returns is a physical interface's address, the mobile host's route hook
sees a bound source and routes the outer packet normally, never back into
the VIF.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.config import Config
from repro.net.addressing import IPAddress
from repro.net.interface import InterfaceState, NetworkInterface
from repro.net.packet import PROTO_IPIP, IPPacket, encapsulate, encapsulation_depth
from repro.sim.engine import Simulator
from repro.sim.fifo import FifoDelay
from repro.sim.randomness import RandomStream, jittered, lazy_stream

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: Returns (outer_src, outer_dst) for an inner packet, or None to drop.
#: The mobile host returns (care-of, home agent); the home agent returns
#: (its own address, the destination's registered care-of address).
EndpointSelector = Callable[[IPPacket], Optional[Tuple[IPAddress, IPAddress]]]


class TunnelError(RuntimeError):
    """Raised on tunnel misconfiguration (e.g. no endpoint selector)."""


class VirtualInterface(NetworkInterface):
    """The paper's ``vif``: an interface that encapsulates instead of sends."""

    #: The interface's statistics plus the tunnel's, registered by
    #: ``NetworkInterface.__init__``.
    _METRIC_FIELDS = NetworkInterface._METRIC_FIELDS + (
        ("tunnel", "encapsulated", (), "packets_encapsulated"),
        ("tunnel", "overhead_bytes", (), "overhead_bytes"),
    )

    def __init__(self, sim: Simulator, name: str, *, config: Config) -> None:
        super().__init__(sim, name, config.virtual_device, config)
        self.state = InterfaceState.UP  # software-only; born up
        self.endpoint_selector: Optional[EndpointSelector] = None
        self._fifo = FifoDelay(sim)
        self.packets_encapsulated = 0
        self.overhead_bytes = 0

    def send_ip(self, packet: IPPacket, next_hop: IPAddress) -> None:
        """Encapsulate *packet* and hand the result back to IP."""
        if self.host is None:
            raise TunnelError(f"{self.name} is not attached to a host")
        if self.endpoint_selector is None:
            raise TunnelError(f"{self.name} has no endpoint selector")
        endpoints = self.endpoint_selector(packet)
        if endpoints is None:
            self.sim.drop("tunnel", "no_endpoint", packet, iface=self.name)
            return
        outer_src, outer_dst = endpoints
        if outer_src.is_unspecified:
            raise TunnelError(
                f"{self.name}: outer source must be a physical interface "
                "address (the paper's re-encapsulation guard)"
            )
        outer = encapsulate(packet, outer_src, outer_dst,
                            ttl=self.config.default_ttl)
        if encapsulation_depth(outer) > 1:
            # This should be unreachable; the invariant tests lean on it.
            raise TunnelError(f"{self.name}: double encapsulation of "
                              f"{packet.describe()}")
        self.packets_encapsulated += 1
        self.overhead_bytes += outer.size_bytes - packet.size_bytes
        self.tx_packets += 1
        trace = self.sim.trace
        if "tunnel" in trace.live:
            trace.emit("tunnel", "encapsulated", interface=self.name,
                       outer=outer)
        cost = jittered(self._rng, self.host.timings.tunnel_cost,
                        self.config.jitter)
        self._fifo.post(cost, lambda: self.host.ip.send(outer),
                        label="vif-encap")


class IPIPModule:
    """Receive-side decapsulation: the IPIP protocol handler.

    The same code runs on the mobile host (decapsulating packets tunneled
    from its home agent — the collocated foreign agent role) and on the
    home agent (decapsulating the mobile host's reverse-tunneled packets
    before forwarding them to correspondents).
    """

    #: Statistics reported as counters (``MetricsRegistry.register``).
    _METRIC_FIELDS = (("tunnel", "decapsulated", (), "packets_decapsulated"),)

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.sim = host.sim
        self._fifo = FifoDelay(host.sim)
        self.packets_decapsulated = 0
        host.sim.metrics.register(self, self._METRIC_FIELDS, host=host.name)
        host.ip.register_protocol(PROTO_IPIP, self._receive)

    @lazy_stream
    def _rng(self) -> RandomStream:
        """Decapsulation-cost jitter stream, created on first draw."""
        return self.sim.rng(f"ipip:{self.host.name}")

    def _receive(self, outer: IPPacket, iface: NetworkInterface) -> None:
        inner = outer.inner
        trace = self.sim.trace
        if "tunnel" in trace.live:
            trace.emit("tunnel", "decapsulated", host=self.host.name,
                       inner=inner)
        self.packets_decapsulated += 1
        cost = jittered(self._rng, self.host.timings.tunnel_cost,
                        self.host.config.jitter)
        # Re-inject: the inner packet "takes the reverse of the dotted path
        # shown in Figure 4" — it re-enters IP as if freshly received.  It
        # re-enters via the loopback, not the physical interface: the inner
        # packet did not arrive on that LAN, so link-scoped reactions to it
        # (notably ICMP redirects back at a reverse-tunneling mobile host —
        # the Section 5.2 hazard) must not fire.
        self._fifo.post(
            cost,
            lambda: self._reinject(inner),
            label="ipip-decap")

    def _reinject(self, inner: IPPacket) -> None:
        self.host.ip.receive_packet(inner, self.host.loopback)


def install_tunnel(host: "Host", name: str = "vif") -> VirtualInterface:
    """Create and attach a VIF + IPIP pair on *host* (one module, as in
    Figure 4), returning the VIF.

    Decapsulation is shared: a host running several mobility services
    (e.g. a router that is both home agent for one subnet and foreign agent
    for another) still has exactly one IPIP protocol handler.
    """
    vif = VirtualInterface(host.sim, f"{name}.{host.name}", config=host.config)
    host.add_interface(vif)
    if getattr(host, "ipip", None) is None:
        host.ipip = IPIPModule(host)  # type: ignore[attr-defined]
    return vif
