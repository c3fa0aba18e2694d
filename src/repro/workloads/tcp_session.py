"""A long-lived TCP session: the paper's "remote login" scenario.

The introduction motivates seamless switching with applications that "run
for extended periods of time and build up nontrivial state, such as remote
logins with active processes."  This workload models that: a correspondent
streams numbered chunks over one TCP connection to the mobile host, which
acknowledges them at the application layer.  Handoffs in the middle must
not break the connection — segments lost during the outage are recovered
by TCP retransmission, and the connection's endpoints never change because
the mobile host's end is the home address.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.net.addressing import IPAddress
from repro.net.host import Host
from repro.net.packet import AppData
from repro.net.tcp import TCPConnection
from repro.sim.engine import Event

#: A telnet-ish service port.
SESSION_PORT = 23
#: Application payload per chunk.
CHUNK_BYTES = 256


class TcpBulkReceiver:
    """Mobile-host side: accepts one session and records what arrives."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.received_chunks: List[int] = []
        self.bytes_total = 0
        #: (sim time ns, payload bytes) per application delivery.
        self.arrivals: List[Tuple[int, int]] = []
        self.connection: Optional[TCPConnection] = None
        self.closed = False
        self._listener = host.tcp.listen(SESSION_PORT, self._on_connection)

    def _on_connection(self, conn: TCPConnection) -> None:
        self.connection = conn
        conn.on_data = self._on_data
        conn.on_close = self._on_close

    def _on_data(self, data: AppData) -> None:
        content = data.content
        if isinstance(content, tuple) and content[0] == "chunk":
            self.received_chunks.append(content[1])
        self.bytes_total += data.size_bytes
        self.arrivals.append((self.host.sim.now, data.size_bytes))

    def _on_close(self) -> None:
        self.closed = True

    def first_arrival_after(self, when: int) -> Optional[int]:
        """Timestamp of the first delivery at or after *when*, or None."""
        for at, _ in self.arrivals:
            if at >= when:
                return at
        return None

    def received_after(self, since: int) -> int:
        """Deliveries at or after *since* (a survival check)."""
        return sum(1 for at, _ in self.arrivals if at >= since)

    @property
    def in_order(self) -> bool:
        """True if chunks arrived exactly in sequence (TCP's promise)."""
        return self.received_chunks == sorted(set(self.received_chunks))


class TcpDrainReceiver(TcpBulkReceiver):
    """A receiver whose application drains its buffer at a fixed rate.

    With ``Config.tcp_flow_control`` on, this models the slow reader the
    advertised window exists for: delivered bytes sit in the connection's
    receive buffer (``auto_consume`` off) until the drain tick consumes
    them.  A sender outrunning ``drain_bytes / drain_interval`` fills the
    buffer, the advertised window closes, and the transfer proceeds at
    the application's pace — through zero-window stalls and persist
    probes rather than loss.
    """

    def __init__(self, host: Host, drain_bytes: int,
                 drain_interval: int) -> None:
        super().__init__(host)
        self.drain_bytes = drain_bytes
        self.drain_interval = drain_interval
        self.drained_bytes = 0

    def _on_connection(self, conn: TCPConnection) -> None:
        super()._on_connection(conn)
        conn.auto_consume = False
        self.host.sim.post_later(
            self.drain_interval, self._drain, label="tcp-drain")

    def _drain(self) -> None:
        conn = self.connection
        if conn is not None and conn.rcv_buffered > 0:
            take = min(self.drain_bytes, conn.rcv_buffered)
            conn.consume(take)
            self.drained_bytes += take
        if not self.closed:
            self.host.sim.post_later(
                self.drain_interval, self._drain, label="tcp-drain")


class TcpBulkSender:
    """Correspondent side: opens the session and streams numbered chunks."""

    def __init__(self, host: Host, target: IPAddress, interval: int,
                 chunk_bytes: int = CHUNK_BYTES) -> None:
        self.host = host
        self.sim = host.sim
        self.target = target
        self.interval = interval
        self.chunk_bytes = chunk_bytes
        self.sent_chunks = 0
        self.established = False
        self.reset = False
        self._running = False
        self._tick_event: Optional[Event] = None
        self.connection = host.tcp.connect(target, SESSION_PORT)
        self.connection.on_established = self._on_established
        self.connection.on_reset = self._on_reset

    def _on_established(self) -> None:
        self.established = True
        if self._running:
            self._tick()

    def _on_reset(self) -> None:
        self.reset = True
        self.stop()

    def start(self) -> None:
        """Start streaming (waits for the handshake if needed)."""
        self._running = True
        if self.established:
            self._tick()

    def stop(self) -> None:
        """Pause the chunk stream (connection stays open)."""
        self._running = False
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def finish(self) -> None:
        """Stop streaming and close the connection cleanly."""
        self.stop()
        if not self.reset:
            self.connection.close()

    def _tick(self) -> None:
        if not self._running or self.reset:
            return
        chunk = AppData(content=("chunk", self.sent_chunks),
                        size_bytes=self.chunk_bytes)
        self.connection.send(chunk)
        self.sent_chunks += 1
        self._tick_event = self.sim.call_later(self.interval, self._tick,
                                               label="tcp-chunk")
