"""Network interfaces and their device state machines.

Figure 6's headline is that cold switching loses packets "due to bringing up
the new interface", so interfaces here are real state machines — DOWN,
STARTING, UP, STOPPING — whose transitions take the calibrated times in
:class:`repro.config.DeviceTimings` (plus jitter).  While an interface is
not UP it neither sends nor receives; every packet that hits it is a
``("iface", "down")`` drop (:meth:`Simulator.drop`), so the experiment
harnesses can attribute loss.

Interfaces can hold several IPv4 addresses at once (Linux IP aliases).  The
same-subnet switch experiment relies on this: the new care-of address is
added first and the old one removed later, which is what bounds the loss
window to well under the total 7.39 ms switch time.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.config import Config, DeviceTimings
from repro.net.addressing import BROADCAST_MAC, IPAddress, MACAddress, Subnet
from repro.net.arp import ARPMessage, ARPService
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetFrame
from repro.net.packet import IPPacket
from repro.sim.engine import Simulator, Time
from repro.sim.randomness import RandomStream, jittered, lazy_stream
from repro.sim.units import transmission_delay

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.link import EthernetSegment, PointToPointLink, RadioChannel


class InterfaceState(enum.Enum):
    """Device operational state."""

    DOWN = "down"
    STARTING = "starting"
    UP = "up"
    STOPPING = "stopping"


#: The per-packet checks compare against this alias: reading a member off
#: the Enum class costs ~10x a global load on CPython 3.11.
_UP = InterfaceState.UP
_BROADCAST_MAC_VALUE = BROADCAST_MAC.value


class InterfaceError(RuntimeError):
    """Raised on invalid interface operations (e.g. send while detached)."""


class NetworkInterface:
    """Base class: state machine, address list, statistics."""

    #: Statistics reported as counters (``MetricsRegistry.register``).
    _METRIC_FIELDS = (
        ("iface", "tx_packets", (), "tx_packets"),
        ("iface", "rx_packets", (), "rx_packets"),
    )

    def __init__(self, sim: Simulator, name: str, device: DeviceTimings,
                 config: Config) -> None:
        self.sim = sim
        self.name = name
        self.device = device
        self.config = config
        self.host: Optional["Host"] = None
        #: Device operational state.
        self.state = InterfaceState.DOWN
        self._addresses: List[IPAddress] = []
        self._subnet: Optional[Subnet] = None
        # Statistics.
        self.tx_packets = 0
        self.rx_packets = 0
        sim.metrics.register(self, self._METRIC_FIELDS, iface=name)

    @lazy_stream
    def _rng(self) -> RandomStream:
        """Device-delay jitter stream, created on first draw."""
        return self.sim.rng(f"device:{self.name}")

    # ------------------------------------------------------------- addresses

    @property
    def address(self) -> Optional[IPAddress]:
        """The primary (preferred source) address, if any."""
        return self._addresses[0] if self._addresses else None

    @property
    def addresses(self) -> List[IPAddress]:
        """All addresses (primary first)."""
        return list(self._addresses)

    def owns_address(self, addr: IPAddress) -> bool:
        """True if *addr* is configured on this interface."""
        value = addr.value
        for owned in self._addresses:
            if owned.value == value:
                return True
        return False

    @property
    def subnet(self) -> Optional[Subnet]:
        """The connected prefix (None until configured)."""
        return self._subnet

    @subnet.setter
    def subnet(self, value: Optional[Subnet]) -> None:
        host = self.host
        if host is not None and self._subnet is not None:
            host.ip.release_local(self._subnet.broadcast)
        self._subnet = value
        if host is not None and value is not None:
            host.ip.claim_local(value.broadcast)

    def add_address(self, addr: IPAddress, make_primary: bool = False) -> None:
        """Install *addr* (an alias) on this interface."""
        if addr in self._addresses:
            if make_primary:
                self._addresses.remove(addr)
                self._addresses.insert(0, addr)
            return
        if make_primary:
            self._addresses.insert(0, addr)
        else:
            self._addresses.append(addr)
        if self.host is not None:
            self.host.ip.claim_local(addr)
        self._on_address_added(addr)
        self.sim.trace.emit("device", "address_added", interface=self.name,
                            address=addr)

    def remove_address(self, addr: IPAddress) -> None:
        """Remove *addr*; packets for it are no longer accepted."""
        if addr not in self._addresses:
            return
        if self.host is not None:
            self.host.ip.release_local(addr)
        self._addresses.remove(addr)
        self._on_address_removed(addr)
        self.sim.trace.emit("device", "address_removed", interface=self.name,
                            address=addr)

    def _on_address_added(self, addr: IPAddress) -> None:
        """Technology hook (radio publishes to the channel, etc.)."""

    def _on_address_removed(self, addr: IPAddress) -> None:
        """Technology hook."""

    # ------------------------------------------------------- state machine

    @property
    def is_up(self) -> bool:
        """True when the device is operational."""
        return self.state is _UP

    def _jittered(self, base: int) -> int:
        return jittered(self._rng, base, self.config.jitter)

    def bring_up(self, on_done: Optional[Callable[[], None]] = None) -> None:
        """``ifconfig up``: after the device's up-delay, start receiving."""
        if self.state == InterfaceState.UP:
            if on_done is not None:
                on_done()
            return
        if self.state == InterfaceState.STARTING:
            raise InterfaceError(f"{self.name} is already starting")
        self.state = InterfaceState.STARTING
        self.sim.trace.emit("device", "up_start", interface=self.name)

        def finish() -> None:
            if self.state != InterfaceState.STARTING:
                # A bring_down (e.g. an injected flap) raced this bring_up;
                # the later operation wins.
                self.sim.trace.emit("device", "up_aborted", interface=self.name)
                return
            self.state = InterfaceState.UP
            self.sim.trace.emit("device", "up_done", interface=self.name)
            for addr in self._addresses:
                self._on_address_added(addr)
            if on_done is not None:
                on_done()

        self.sim.post_later(self._jittered(self.device.up_delay), finish,
                            label="ifup")

    def bring_down(self, on_done: Callable[[], None]) -> None:
        """``ifconfig down``: stop sending/receiving after the down-delay."""
        if self.state == InterfaceState.DOWN:
            on_done()
            return
        self.state = InterfaceState.STOPPING
        self.sim.trace.emit("device", "down_start", interface=self.name)

        def finish() -> None:
            if self.state != InterfaceState.STOPPING:
                self.sim.trace.emit("device", "down_aborted",
                                    interface=self.name)
                return
            self.state = InterfaceState.DOWN
            self.sim.trace.emit("device", "down_done", interface=self.name)
            on_done()

        self.sim.post_later(self._jittered(self.device.down_delay), finish,
                            label="ifdown")

    def flap(self, down_for: Time) -> None:
        """Force the device down, then bring it back after *down_for* ns.

        The fault injector's interface-flap primitive.  If something else
        restarted the device while it was down, the restore step defers to
        it rather than fighting over the state machine.
        """
        self.sim.trace.emit("device", "flap", interface=self.name,
                            down_ms=down_for / 1_000_000)

        def restore() -> None:
            if self.state == InterfaceState.DOWN:
                self.bring_up()

        def downed() -> None:
            self.sim.post_later(down_for, restore,
                                label="flap-restore")

        self.bring_down(downed)

    def configure(self, addr: IPAddress, net: Subnet,
                  on_done: Callable[[], None]) -> None:
        """Configure an address (Figure 7's "configure interface" stage).

        The address becomes live only when the configure delay elapses,
        matching the ioctl round-trip on the real system.
        """
        self.sim.trace.emit("device", "configure_start", interface=self.name,
                            address=addr)

        def finish() -> None:
            self.subnet = net
            self.add_address(addr, make_primary=True)
            self.sim.trace.emit("device", "configure_done", interface=self.name,
                                address=addr)
            on_done()

        self.sim.post_later(self._jittered(self.device.configure_delay), finish,
                            label="ifconfig")

    # ------------------------------------------------------------------ I/O

    def send_ip(self, packet: IPPacket, next_hop: IPAddress) -> None:
        """Transmit an IP packet toward *next_hop* (technology-specific)."""
        raise NotImplementedError

    def _guard_send(self, packet: IPPacket) -> bool:
        """Common send-side checks; returns True if the packet may go out."""
        if self.state is not _UP:
            self.sim.drop("iface", "down", packet, iface=self.name)
            return False
        return True

    def _deliver_to_host(self, packet: IPPacket) -> None:
        if self.state is not _UP:
            self.sim.drop("iface", "down", packet, iface=self.name)
            return
        if self.host is None:
            raise InterfaceError(f"{self.name} is not attached to a host")
        self.rx_packets += 1
        self.host.ip.receive_packet(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.state.value} {self.address}>"


class EthernetInterface(NetworkInterface):
    """An Ethernet NIC on a shared segment, with its own ARP service."""

    def __init__(self, sim: Simulator, name: str, mac: MACAddress,
                 config: Config) -> None:
        super().__init__(sim, name, config.ethernet_device, config)
        self.mac = mac
        self.segment: Optional["EthernetSegment"] = None
        self.arp = ARPService(self)

    def attach(self, segment: "EthernetSegment") -> None:
        """Plug into an Ethernet segment."""
        if self.segment is not None:
            raise InterfaceError(f"{self.name} already attached")
        self.segment = segment
        segment.attach(self)

    def detach(self) -> None:
        """Unplug the cable (physically moving the mobile host)."""
        if self.segment is None:
            return
        self.segment.detach(self)
        self.segment = None
        self.arp.flush()

    def send_ip(self, packet: IPPacket, next_hop: IPAddress) -> None:
        """Transmit toward *next_hop*, resolving its MAC via ARP."""
        if not self._guard_send(packet):
            return
        if self.segment is None:
            # The cable is unplugged: packets fall on the floor, exactly
            # as on real hardware.
            self.sim.drop("iface", "unplugged", packet, iface=self.name)
            return
        self.tx_packets += 1
        hop = next_hop.value
        subnet = self._subnet
        if hop == 0xFFFFFFFF or (
            subnet is not None and hop == subnet.broadcast.value
        ):
            self.transmit_ip_frame(packet, broadcast=True)
            return
        self.arp.resolve_and_send(packet, next_hop)

    def transmit_ip_frame(self, packet: IPPacket, mac: Optional[MACAddress] = None,
                          broadcast: bool = False) -> None:
        """Frame *packet* and put it on the segment (post-ARP path)."""
        if self.segment is None or self.state is not _UP:
            self.sim.drop("iface", "down", packet, iface=self.name)
            return
        dst = BROADCAST_MAC if broadcast else mac
        assert dst is not None
        frame = EthernetFrame(src=self.mac, dst=dst, ethertype=ETHERTYPE_IPV4,
                              payload=packet)
        self.segment.transmit(frame, self)

    def transmit_arp(self, message: ARPMessage, dst: MACAddress) -> None:
        """Frame and transmit one ARP message."""
        if self.segment is None or self.state not in (InterfaceState.UP, InterfaceState.STARTING):
            return
        frame = EthernetFrame(src=self.mac, dst=dst, ethertype=ETHERTYPE_ARP,
                              payload=message)
        self.segment.transmit(frame, self)

    def deliver_frame(self, frame: EthernetFrame) -> None:
        """Receive one frame from the segment."""
        dst = frame.dst.value
        if dst != self.mac.value and dst != _BROADCAST_MAC_VALUE:
            # Not for us: the hardware filter discards it, down or not.
            return
        if self.state is not _UP:
            self.sim.drop("iface", "down", frame.payload, iface=self.name)
            return
        ethertype = frame.ethertype
        if ethertype == ETHERTYPE_ARP:
            self.arp.handle(frame.payload)  # type: ignore[arg-type]
            return
        if ethertype == ETHERTYPE_IPV4:
            self._deliver_to_host(frame.payload)  # type: ignore[arg-type]


class RadioInterface(NetworkInterface):
    """A Metricom radio behind a serial port (the STRIP driver's world).

    Outgoing packets pay the serial-line cost (115.2 kbit/s) before the
    radio hop; incoming packets pay it after.  Starmode has no ARP: owned
    addresses are published to the channel's static map.
    """

    def __init__(self, sim: Simulator, name: str, config: Config) -> None:
        super().__init__(sim, name, config.radio_device, config)
        self.channel: Optional["RadioChannel"] = None
        # The serial line is full duplex; each direction serializes
        # independently (115.2 kbit/s each way).
        self._serial_busy_until = {"tx": 0, "rx": 0}

    def attach(self, channel: "RadioChannel") -> None:
        """Join a radio channel."""
        if self.channel is not None:
            raise InterfaceError(f"{self.name} already attached")
        self.channel = channel
        channel.attach(self)

    def _serial_finish_time(self, size_bytes: int, direction: str) -> int:
        """When this packet clears the serial line (FIFO per direction)."""
        serial = self.config.serial
        start = max(self.sim.now, self._serial_busy_until[direction])
        finish = start + transmission_delay(size_bytes, serial.bandwidth_bps)
        self._serial_busy_until[direction] = finish
        return finish + serial.latency

    def _on_address_added(self, addr: IPAddress) -> None:
        if self.channel is not None and self.state == InterfaceState.UP:
            self.channel.publish(addr, self)

    def _on_address_removed(self, addr: IPAddress) -> None:
        if self.channel is not None:
            self.channel.withdraw(addr)

    def send_ip(self, packet: IPPacket, next_hop: IPAddress) -> None:
        """Haul the packet over the serial line, then radiate it."""
        if not self._guard_send(packet):
            return
        if self.channel is None:
            raise InterfaceError(f"{self.name} has no channel")
        self.tx_packets += 1
        deliver_at = self._serial_finish_time(packet.size_bytes, "tx")
        self.sim.post_at(
            deliver_at,
            lambda: self._radio_transmit(packet, next_hop),
            label="serial-tx",
        )

    def _radio_transmit(self, packet: IPPacket, next_hop: IPAddress) -> None:
        if self.channel is None or self.state is not _UP:
            self.sim.drop("iface", "down", packet, iface=self.name)
            return
        self.channel.transmit(packet, next_hop, self)

    def deliver_from_radio(self, packet: IPPacket) -> None:
        """Packet arrived over the air; haul it across the serial line."""
        if self.state is not _UP:
            self.sim.drop("iface", "down", packet, iface=self.name)
            return
        deliver_at = self._serial_finish_time(packet.size_bytes, "rx")
        self.sim.post_at(
            deliver_at,
            lambda: self._deliver_to_host(packet),
            label="serial-rx",
        )


class PointToPointInterface(NetworkInterface):
    """One end of a point-to-point IP link (backbone hop, PPP, SLIP)."""

    def __init__(self, sim: Simulator, name: str, config: Config) -> None:
        super().__init__(sim, name, config.virtual_device, config)
        self.link: Optional["PointToPointLink"] = None

    def attach(self, link: "PointToPointLink") -> None:
        """Connect to one end of a point-to-point link."""
        if self.link is not None:
            raise InterfaceError(f"{self.name} already attached")
        self.link = link
        link.connect(self)

    def send_ip(self, packet: IPPacket, next_hop: IPAddress) -> None:
        """Transmit to the far endpoint (next hop is implicit)."""
        if not self._guard_send(packet):
            return
        if self.link is None:
            raise InterfaceError(f"{self.name} has no link")
        self.tx_packets += 1
        self.link.transmit(packet, self)

    def deliver_from_link(self, packet: IPPacket) -> None:
        """Receive one packet from the link."""
        self._deliver_to_host(packet)


class LoopbackInterface(NetworkInterface):
    """The ``lo`` interface: packets bounce straight back to the host."""

    def __init__(self, sim: Simulator, config: Config, name: str) -> None:
        super().__init__(sim, name, config.virtual_device, config)
        self.state = InterfaceState.UP  # loopback is born up

    def send_ip(self, packet: IPPacket, next_hop: IPAddress) -> None:
        """Bounce the packet straight back to this host."""
        if not self._guard_send(packet):
            return
        self.tx_packets += 1
        self.sim.post_later(0, lambda: self._deliver_to_host(packet),
                            label="lo")
