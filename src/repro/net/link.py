"""Links: the physical media of the Figure 5 testbed.

Three media appear in the paper:

* **Ethernet segments** (nets 36.135 and 36.8): shared broadcast media.
  Every attached, powered-up interface hears every frame and filters by
  destination MAC.
* **Point-to-point links**: the campus backbone hop between routers (the
  paper's "cloud"), and the 115.2 kbit/s serial line between the Handbook
  and its Metricom radio.
* **Radio channels** (net 36.134): Metricom Starmode datagram service.
  STRIP does not use ARP; the channel keeps the static IP -> radio mapping
  the driver would hold.  Effective throughput is 30-40 kbit/s with high
  per-packet latency, so the radio RTT through the home agent lands in the
  paper's 200-250 ms band.

Every medium charges ``latency + size / bandwidth`` and can drop packets
with an independent loss probability drawn from a dedicated RNG stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.config import LinkTimings
from repro.net.addressing import IPAddress
from repro.net.packet import IPPacket
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStream, bernoulli, lazy_stream
from repro.sim.units import transmission_delay

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.ethernet import EthernetFrame
    from repro.net.interface import EthernetInterface, RadioInterface


class Link:
    """Common bookkeeping for all media.

    Transmissions serialize: a sender (or a shared medium) can only put one
    frame on the wire at a time, so a burst of back-to-back packets queues
    and arrives spaced by its serialization time, in order.  Without this,
    bursts would arrive effectively simultaneously in arbitrary order —
    both unphysical and fatal to TCP's in-order delivery.
    """

    #: Statistics reported as counters (``MetricsRegistry.register``).
    _METRIC_FIELDS = (
        ("link", "tx_frames", (), "frames_sent"),
        ("link", "tx_bytes", (), "bytes_sent"),
    )

    def __init__(self, sim: Simulator, name: str, timings: LinkTimings) -> None:
        self.sim = sim
        self.name = name
        self.timings = timings
        self.frames_sent = 0
        self.bytes_sent = 0
        #: Fault-injection hook, consulted before the link's own loss
        #: model; return True to drop the frame.  None (the default) costs
        #: nothing and consumes no randomness.
        self.fault_hook: Optional[Callable[[], bool]] = None
        #: Per-transmitter busy-until times; key None = the shared medium.
        self._busy_until: Dict[object, int] = {}
        sim.metrics.register(self, self._METRIC_FIELDS, link=name)

    @lazy_stream
    def _rng(self) -> RandomStream:
        """Loss-model stream, created on first draw."""
        return self.sim.rng(f"link:{self.name}")

    def _delivery_time(self, size_bytes: int, key: object = None) -> int:
        """Absolute delivery time, honouring the transmitter's queue."""
        busy_until = self._busy_until
        now = self.sim.now
        busy = busy_until.get(key, 0)
        timings = self.timings
        finish = (busy if busy > now else now) + transmission_delay(
            size_bytes, timings.bandwidth_bps)
        busy_until[key] = finish
        return finish + timings.latency

    def _drops(self, packet: object) -> bool:
        """Decide whether *packet* is lost on the wire, and drop it if so."""
        hook = self.fault_hook
        if hook is None and self.timings.loss_rate <= 0:
            # Branch-free fast path for the common case: no fault plan and a
            # lossless medium.  ``bernoulli`` consumes no randomness for
            # p <= 0, so skipping it is RNG-stream neutral.
            return False
        if hook is not None and hook():
            self.sim.drop("link", "fault", packet, link=self.name)
            return True
        if bernoulli(self._rng, self.timings.loss_rate):
            self.sim.drop("link", "loss", packet, link=self.name)
            return True
        return False


def _all_but(receivers: List[Callable], members: Sequence[object],
             sender: object) -> List[Callable]:
    """A fresh copy of *receivers* without the one belonging to *sender*.

    *members* and *receivers* run in step; a sender that is not a member
    (already unplugged) leaves every receiver in.
    """
    try:
        index = members.index(sender)
    except ValueError:
        return receivers[:]
    return receivers[:index] + receivers[index + 1:]


class EthernetSegment(Link):
    """A shared Ethernet: frames reach every other attached interface."""

    def __init__(self, sim: Simulator, name: str, timings: LinkTimings) -> None:
        super().__init__(sim, name, timings)
        self._ports: List["EthernetInterface"] = []
        #: Each port's ``deliver_frame``, in step with ``_ports``.
        self._receivers: List[Callable[["EthernetFrame"], None]] = []

    def attach(self, interface: "EthernetInterface") -> None:
        """Connect an interface to the shared medium."""
        if interface in self._ports:
            raise ValueError(f"{interface.name} already attached to {self.name}")
        self._ports.append(interface)
        self._receivers.append(interface.deliver_frame)

    def detach(self, interface: "EthernetInterface") -> None:
        """Disconnect an interface (unplug the cable)."""
        index = self._ports.index(interface)
        del self._ports[index]
        del self._receivers[index]

    def transmit(self, frame: "EthernetFrame", sender: "EthernetInterface") -> None:
        """Put *frame* on the wire; deliver to every other port after delay.

        The segment is a single shared medium: concurrent senders
        serialize behind one another (we model the ether as one queue
        rather than simulating CSMA/CD collisions).  The ports attached
        now receive the frame, even if one is unplugged before it lands.
        """
        size_bytes = frame.size_bytes
        self.frames_sent += 1
        self.bytes_sent += size_bytes
        if self._drops(frame.payload):
            return
        deliver_at = self._delivery_time(size_bytes)
        self.sim.post_each(deliver_at,
                           _all_but(self._receivers, self._ports, sender),
                           frame, "eth")


class PointToPointLink(Link):
    """A two-endpoint pipe carrying IP packets (backbone or serial line).

    Endpoints register with :meth:`connect`; anything with a
    ``deliver_from_link(packet)`` method qualifies (point-to-point
    interfaces, or internal radio plumbing for the serial hop).
    """

    def __init__(self, sim: Simulator, name: str, timings: LinkTimings) -> None:
        super().__init__(sim, name, timings)
        self._endpoints: List[object] = []

    def connect(self, endpoint: object) -> None:
        """Register one of the two endpoints."""
        if len(self._endpoints) >= 2:
            raise ValueError(f"{self.name} already has two endpoints")
        self._endpoints.append(endpoint)

    def transmit(self, packet: IPPacket, sender: object) -> None:
        """Carry *packet* to the far endpoint."""
        endpoints = self._endpoints
        if sender not in endpoints:
            raise ValueError(f"{sender!r} is not an endpoint of {self.name}")
        size_bytes = packet.size_bytes
        self.frames_sent += 1
        self.bytes_sent += size_bytes
        if self._drops(packet):
            return
        peer = endpoints[-1] if endpoints[0] is sender else endpoints[0]
        if peer is sender:
            self.sim.drop("link", "no_peer", packet, link=self.name)
            return
        # Full duplex: each direction has its own transmitter queue.
        deliver_at = self._delivery_time(size_bytes, key=id(sender))
        self.sim.post_at(
            deliver_at,
            lambda: peer.deliver_from_link(packet),  # type: ignore[attr-defined]
            "p2p",
        )


class RadioChannel(Link):
    """Metricom Starmode-style connectionless datagram radio.

    The channel maintains the static IP -> radio mapping the STRIP driver
    keeps (Starmode has no ARP).  Interfaces (re)publish their address with
    :meth:`publish`; unicast packets for an unpublished address vanish into
    the air, as they would in reality.
    """

    def __init__(self, sim: Simulator, name: str, timings: LinkTimings) -> None:
        super().__init__(sim, name, timings)
        self._radios: List["RadioInterface"] = []
        #: Each radio's ``deliver_from_radio``, in step with ``_radios``.
        self._receivers: List[Callable[[IPPacket], None]] = []
        self._by_address: Dict[IPAddress, "RadioInterface"] = {}

    def attach(self, interface: "RadioInterface") -> None:
        """Register a radio on the channel."""
        if interface in self._radios:
            raise ValueError(f"{interface.name} already attached to {self.name}")
        self._radios.append(interface)
        self._receivers.append(interface.deliver_from_radio)

    def publish(self, address: IPAddress, interface: "RadioInterface") -> None:
        """Record that *address* is reachable at *interface*'s radio."""
        self._by_address[address] = interface

    def withdraw(self, address: IPAddress) -> None:
        """Remove one address from the static IP->radio map."""
        self._by_address.pop(address, None)

    def transmit(self, packet: IPPacket, next_hop: IPAddress,
                 sender: "RadioInterface") -> None:
        """Radiate *packet* toward the radio owning *next_hop*."""
        self.frames_sent += 1
        self.bytes_sent += packet.size_bytes
        if self._drops(packet):
            return
        # One shared air interface: all radios serialize behind each other.
        deliver_at = self._delivery_time(packet.size_bytes)
        if next_hop.is_limited_broadcast:
            self.sim.post_each(deliver_at,
                               _all_but(self._receivers, self._radios, sender),
                               packet, "radio-bcast")
            return
        target = self._by_address.get(next_hop)
        if target is None or target is sender:
            self.sim.drop("link", "unreachable", packet, link=self.name)
            return
        self.sim.post_at(
            deliver_at,
            lambda: target.deliver_from_radio(packet),
            "radio",
        )
