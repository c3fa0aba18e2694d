"""UDP and a small socket-style API.

Sockets matter to the paper's transparency story (Section 5.2): a socket
bound to the unspecified source address is *not* mobile-aware — the stack
fills in the home address and applies mobile IP.  A socket explicitly bound
to a particular interface address ("mobile-aware software") bypasses mobile
IP entirely; that is the mobile host's local role.  Both behaviours fall
out of passing the socket's bound source address as the hint to
``ip_rt_route()``, exactly as in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.config import Config, HostTimings
from repro.net.addressing import IPAddress, UNSPECIFIED
from repro.net.packet import PROTO_UDP, AppData, IPPacket, UDPDatagram
from repro.sim.engine import Simulator
from repro.sim.fifo import FifoDelay
from repro.sim.randomness import RandomStream, jittered, lazy_stream

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.interface import NetworkInterface

#: Handler signature: (data, source_address, source_port, destination_address).
DatagramHandler = Callable[[AppData, IPAddress, int, IPAddress], None]


class UDPError(RuntimeError):
    """Raised on invalid socket operations (port in use, etc.)."""


class UDPSocket:
    """One bound UDP endpoint."""

    def __init__(self, service: "UDPService", port: int,
                 bound_address: IPAddress) -> None:
        self._service = service
        self.port = port
        #: UNSPECIFIED means "any local address, stack chooses source".
        self.bound_address = bound_address
        self.handler: Optional[DatagramHandler] = None
        self.closed = False
        self.datagrams_sent = 0
        self.datagrams_received = 0

    def on_datagram(self, handler: DatagramHandler) -> "UDPSocket":
        """Register the receive callback; returns self for chaining."""
        self.handler = handler
        return self

    def sendto(self, data: AppData, dst: IPAddress, dst_port: int,
               via: Optional["NetworkInterface"] = None) -> None:
        """Send one datagram.

        The packet's source starts as this socket's bound address; an
        unbound socket sends with the unspecified source and lets
        ``ip_rt_route()`` choose — which on a mobile host means the home
        address and full mobile-IP treatment.
        """
        if self.closed:
            raise UDPError("socket is closed")
        self.datagrams_sent += 1
        self._service.send_datagram(self, data, dst, dst_port, via=via)

    def close(self) -> None:
        """Release the port; further sends raise."""
        if not self.closed:
            self.closed = True
            self._service.release(self)

    def _deliver(self, data: AppData, src: IPAddress, src_port: int,
                 dst: IPAddress) -> None:
        self.datagrams_received += 1
        if self.handler is not None:
            self.handler(data, src, src_port, dst)


class UDPService:
    """Per-host UDP: port table, demux, datagram transmission."""

    EPHEMERAL_START = 49152

    def __init__(self, sim: Simulator, host: "Host", config: Config,
                 timings: HostTimings) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        self.timings = timings
        self._tx_fifo = FifoDelay(sim)
        self._rx_fifo = FifoDelay(sim)
        self._sockets: Dict[int, UDPSocket] = {}
        self._next_ephemeral = self.EPHEMERAL_START
        host.ip.register_protocol(PROTO_UDP, self._receive)

    @lazy_stream
    def _rng(self) -> RandomStream:
        """Jitter stream, created on first draw."""
        return self.sim.rng(f"udp:{self.host.name}")

    # --------------------------------------------------------------- sockets

    def open(self, port: int,
             bound_address: IPAddress = UNSPECIFIED) -> UDPSocket:
        """Bind a socket; port 0 picks an ephemeral port."""
        if port == 0:
            port = self._allocate_ephemeral()
        if port in self._sockets:
            raise UDPError(f"UDP port {port} already bound on {self.host.name}")
        sock = UDPSocket(self, port, bound_address)
        self._sockets[port] = sock
        return sock

    def release(self, sock: UDPSocket) -> None:
        """Unbind a socket's port (internal, called by close)."""
        existing = self._sockets.get(sock.port)
        if existing is sock:
            del self._sockets[sock.port]

    def _allocate_ephemeral(self) -> int:
        while self._next_ephemeral in self._sockets:
            self._next_ephemeral += 1
            if self._next_ephemeral > 0xFFFF:
                raise UDPError("ephemeral ports exhausted")
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # ------------------------------------------------------------------ send

    def send_datagram(self, sock: UDPSocket, data: AppData, dst: IPAddress,
                      dst_port: int, via: Optional["NetworkInterface"]
                      ) -> None:
        """Build and transmit one datagram for *sock*."""
        datagram = UDPDatagram(sock.port, dst_port, data)
        source = sock.bound_address
        if source.is_unspecified and via is None:
            route = self.host.ip.ip_rt_route(dst, source)
            if route is not None:
                source = route.source
        elif source.is_unspecified and via is not None and via.address is not None:
            source = via.address
        packet = IPPacket(source, dst, PROTO_UDP, datagram,
                          self.config.default_ttl)
        delay = jittered(self._rng, self.timings.tx_cost, self.config.jitter)
        self._tx_fifo.post(delay, lambda: self.host.ip.send(packet, via=via),
                           label="udp-tx")

    # --------------------------------------------------------------- receive

    def _receive(self, packet: IPPacket, iface: "NetworkInterface") -> None:
        datagram = packet.payload
        assert isinstance(datagram, UDPDatagram)
        sock = self._sockets.get(datagram.dst_port)
        if sock is None or sock.closed:
            self.sim.drop("udp", "no_port", packet, host=self.host.name)
            return
        if (not sock.bound_address.is_unspecified
                and not packet.dst.is_limited_broadcast
                and sock.bound_address != packet.dst):
            self.sim.drop("udp", "bound_mismatch", packet, host=self.host.name)
            return
        delay = jittered(self._rng, self.timings.rx_cost, self.config.jitter)
        self._rx_fifo.post(
            delay,
            lambda: sock._deliver(datagram.payload, packet.src,
                                  datagram.src_port, packet.dst),
            label="udp-rx",
        )
