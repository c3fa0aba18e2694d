"""A TCP faithful enough to measure mobility against modern transports.

The paper's motivating requirement is that "restarting all applications
every time we change locations is unacceptably annoying" — long-lived TCP
sessions (remote logins, news readers) must survive a network switch.  That
works in MosquitoNet because the connection's addresses never change: the
mobile host's end is always the home address, and segments lost during an
outage are recovered by ordinary retransmission.

This implementation covers what the reproduction needs:

* three-way handshake, data transfer, FIN teardown, RST on unknown segments;
* byte-oriented sequence numbers with cumulative ACKs;
* RFC 6298 retransmission timeout: SRTT/RTTVAR estimation
  (:class:`RtoEstimator`), Karn's algorithm (retransmitted segments are
  never timed, on any path), exponential backoff that resets on a fresh
  RTT sample, bounded by :data:`MIN_RTO` and :data:`MAX_RTO`;
* pluggable congestion control (:mod:`repro.net.congestion`): the seed's
  Tahoe variant (slow start + congestion avoidance, timeout collapse —
  the byte-identical default), Reno (RFC 5681 fast retransmit/fast
  recovery with NewReno partial ACKs), and CUBIC (RFC 8312, deterministic
  fixed-point), selected via ``Config.tcp_congestion_control``;
* selective acknowledgments (RFC 2018, ``Config.tcp_sack``): the receiver
  buffers out-of-order segments and advertises up to three SACK blocks;
  the sender keeps a :class:`~repro.net.sack.SackScoreboard` and skips
  already-received ranges when retransmitting;
* receiver flow control (RFC 9293, ``Config.tcp_flow_control``): every
  segment advertises the free space in a configurable receive buffer
  (``TCPSegment.wnd``), applications consume from the buffer explicitly
  (or implicitly — :meth:`TCPConnection.consume`), the sender's flight is
  bounded by ``min(cwnd, peer rwnd)``, and a closed window is probed by
  an exponentially backed-off persist timer rather than retransmitted
  into (zero-window probes never count against ``MAX_RETRANSMITS``);
* delayed ACKs (RFC 9293 3.8.6.3, ``Config.tcp_delayed_ack``):
  every-second-segment or :data:`DELAYED_ACK_TIMEOUT`, with immediate
  ACKs for out-of-order data, FIN, and window updates;
* simultaneous close (FIN_WAIT_1 -> CLOSING -> TIME_WAIT), TIME_WAIT
  re-ACK + 2MSL restart on a retransmitted FIN, and in-window RST
  validation.

Out of scope: urgent data, window scaling (windows are byte counts, not
16-bit wire fields, so scaling has nothing to do).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.config import Config, HostTimings
from repro.net.addressing import IPAddress
from repro.net.congestion import (
    DUP_ACK_THRESHOLD,
    CongestionControl,
    make_congestion_control,
)
from repro.net.packet import PROTO_TCP, TCP_HEADER_BYTES, AppData, IPPacket
from repro.net.sack import ReassemblyBuffer, SackScoreboard
from repro.sim.engine import Event, Simulator
from repro.sim.fifo import FifoDelay
from repro.sim.randomness import RandomStream, jittered, lazy_stream
from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.interface import NetworkInterface

FLAG_SYN = "SYN"
FLAG_ACK = "ACK"
FLAG_FIN = "FIN"
FLAG_RST = "RST"

#: Wire cost of the SACK option: 2 bytes of kind/length plus 8 per block.
SACK_OPTION_BASE_BYTES = 2
SACK_BLOCK_BYTES = 8


class TCPSegment:
    """One TCP segment; ``seq`` counts bytes, SYN/FIN occupy one each.

    A hand-rolled ``__slots__`` value class (previously a frozen
    dataclass): one is allocated per transmission including every
    retransmission, so construction cost is part of the datapath.
    Treat instances as immutable.  ``sack`` carries the receiver's
    advertised ``(start, end)`` blocks (empty when SACK is off).
    ``wnd`` is the advertised receive window in bytes, or ``-1`` when the
    sender does not advertise one (flow control off — the legacy wire
    image).  Like ``sack`` it is wire-accounted, but its 16-bit field is
    part of ``TCP_HEADER_BYTES`` (a real TCP header always carries it),
    so advertising costs no extra bytes.
    ``size_bytes`` is precomputed at construction (immutability makes the
    cache trivially sound).
    """

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "payload",
                 "sack", "wnd", "size_bytes")

    def __init__(self, src_port: int, dst_port: int, seq: int, ack: int,
                 flags: frozenset, payload: Optional[AppData] = None,
                 sack: Tuple[Tuple[int, int], ...] = (),
                 wnd: int = -1) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload = payload if payload is not None else AppData()
        self.sack = sack
        self.wnd = wnd
        size = TCP_HEADER_BYTES + self.payload.size_bytes
        if sack:
            size += SACK_OPTION_BASE_BYTES + SACK_BLOCK_BYTES * len(sack)
        self.size_bytes = size

    def __repr__(self) -> str:
        return (f"TCPSegment(src_port={self.src_port}, "
                f"dst_port={self.dst_port}, seq={self.seq}, ack={self.ack}, "
                f"flags={self.flags!r}, payload={self.payload!r}, "
                f"sack={self.sack!r}, wnd={self.wnd})")

    @property
    def seq_space(self) -> int:
        """Sequence-number space consumed: data bytes plus SYN/FIN."""
        length = self.payload.size_bytes
        if FLAG_SYN in self.flags:
            length += 1
        if FLAG_FIN in self.flags:
            length += 1
        return length

    def describe(self) -> str:
        """One-line human-readable summary."""
        names = "|".join(sorted(self.flags)) or "-"
        base = (f"{self.src_port}->{self.dst_port} {names} seq={self.seq} "
                f"ack={self.ack} len={self.payload.size_bytes}")
        if self.sack:
            blocks = ",".join(f"{start}-{end}" for start, end in self.sack)
            base += f" sack={blocks}"
        if self.wnd >= 0:
            base += f" wnd={self.wnd}"
        return base


class TCPState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSING = "closing"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"
    TIME_WAIT = "time-wait"


#: Key identifying one connection: (local port, remote addr, remote port).
ConnKey = Tuple[int, IPAddress, int]

#: Retransmission-timeout bounds and retry limit.
MIN_RTO = ms(400)
MAX_RTO = ms(16_000)
MAX_RETRANSMITS = 12
#: RTO before the first RTT sample, and the cap on timer doublings.
INITIAL_RTO = ms(1000)
RTO_BACKOFF_LIMIT = 6
TIME_WAIT_DELAY = ms(2000)
#: Delayed-ACK flush timeout (RFC 9293 caps it at 500 ms).
DELAYED_ACK_TIMEOUT = ms(200)
#: Fixed in-flight window (segments' worth of bytes).
DEFAULT_WINDOW_BYTES = 4096
#: Maximum payload bytes per segment.
DEFAULT_MSS = 512

#: States in which the sender may have data in flight.  CLOSING belongs
#: here because our FIN is still unacknowledged and must keep
#: retransmitting (simultaneous close).
_DATA_STATES = (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT,
                TCPState.FIN_WAIT_1, TCPState.CLOSING, TCPState.LAST_ACK)


class RtoEstimator:
    """RFC 6298 retransmission-timeout state, in integer nanoseconds.

    ``SRTT``/``RTTVAR`` use the RFC's EWMA gains (1/8 and 1/4) in integer
    arithmetic; ``RTO = SRTT + max(G, 4 * RTTVAR)`` clamped to the
    configured bounds.  The simulator's clock is exact, so the clock
    granularity ``G`` defaults to zero rather than the RFC's 1-second
    wall-clock guidance — the *bounds* carry the conservatism instead.
    Karn's algorithm lives in the connection (it decides which segments
    are timed); this class owns the backoff, which per RFC 6298 (5.5-5.7)
    doubles on each timer expiry and resets once a fresh sample arrives.
    """

    __slots__ = ("min_rto", "max_rto", "granularity",
                 "srtt", "rttvar", "rto", "backoff")

    def __init__(self, *, min_rto: int = MIN_RTO, max_rto: int = MAX_RTO,
                 granularity: int = 0) -> None:
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.granularity = granularity
        self.srtt: Optional[int] = None
        self.rttvar: int = 0
        self.rto: int = INITIAL_RTO
        self.backoff: int = 0

    def sample(self, measured: int) -> None:
        """Fold one RTT measurement in (RFC 6298 2.2/2.3); resets backoff."""
        if self.srtt is None:
            self.srtt = measured
            self.rttvar = measured // 2
        else:
            delta = measured - self.srtt
            self.srtt += delta // 8
            self.rttvar += (abs(delta) - self.rttvar) // 4
        self.rto = max(self.min_rto,
                       min(self.max_rto,
                           self.srtt + max(self.granularity, 4 * self.rttvar)))
        self.backoff = 0

    def back_off(self) -> None:
        """The timer expired: double the next timeout (bounded)."""
        self.backoff = min(self.backoff + 1, RTO_BACKOFF_LIMIT)

    def current(self) -> int:
        """The timeout to arm right now, backoff included."""
        return min(self.max_rto, self.rto << self.backoff)


@dataclass
class _SendItem:
    offset: int
    data: AppData
    fin: bool = False


class TCPConnection:
    """One endpoint of a TCP connection.

    Window policy is delegated to a :class:`CongestionControl` strategy
    (``congestion_control`` keyword, default from
    ``Config.tcp_congestion_control``); ``initial_cwnd`` is a
    keyword-only tuning knob.
    """

    def __init__(self, service: "TCPService", local_addr: IPAddress,
                 local_port: int, remote_addr: IPAddress, remote_port: int,
                 *,
                 congestion_control: Optional[str] = None,
                 initial_cwnd: Optional[int] = None) -> None:
        self._service = service
        self.sim = service.sim
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.state = TCPState.CLOSED
        config = service.config

        # Send side.
        self.iss = next(self.sim.tcp_iss)
        self.snd_una = self.iss          # oldest unacknowledged
        self.snd_nxt = self.iss          # next to (re)send
        self.snd_max = self.iss          # highest ever sent (for rewinds)
        self._send_buffer: List[_SendItem] = []
        self._next_offset = 0            # byte offset after SYN for app data
        self._fin_queued = False

        # Receive side.
        self.rcv_nxt = 0

        # Flow control (RFC 9293).  Off by default: segments advertise no
        # window (wnd=-1 on the wire) and the sender falls back to the
        # seed's fixed DEFAULT_WINDOW_BYTES clamp inside the strategy.
        self._fc = config.tcp_flow_control
        self.rcv_buffer = config.tcp_recv_buffer
        self._rcv_buffered = 0           # delivered-not-yet-consumed bytes
        #: When True (default), delivered data is consumed the moment the
        #: application callback returns — the legacy fast-reader model.
        #: Set False and call :meth:`consume` to model a slow application.
        self.auto_consume = True
        self._last_advertised_wnd = -1
        self.peer_rwnd: Optional[int] = None
        self._wnd_seq = -1               # RFC 9293 3.10.7.4 update ordering
        self._wnd_ack = -1
        self._persist_event: Optional[Event] = None
        self._persist_backoff = 0
        self._probe_seq: Optional[int] = None  # seq of the in-flight probe
        self.persist_probes = 0
        self._zw_accum_ns = 0            # closed stall intervals, summed
        self._zw_since: Optional[int] = None
        self._rwnd_gauge = None          # lazy: only materialises with fc on

        # Delayed ACKs (RFC 9293 3.8.6.3).
        self._delack = config.tcp_delayed_ack
        self._delack_pending = 0         # in-order data segments unACKed
        self._delack_event: Optional[Event] = None
        self.delayed_acks = 0

        # Congestion control: a pluggable strategy.  With flow control on
        # the peer's advertised window replaces the fixed clamp, so the
        # strategy's cap rises to the receive-buffer size.
        name = (congestion_control if congestion_control is not None
                else config.tcp_congestion_control)
        max_window = (max(DEFAULT_WINDOW_BYTES, self.rcv_buffer)
                      if self._fc else DEFAULT_WINDOW_BYTES)
        self.cc: CongestionControl = make_congestion_control(
            name, mss=DEFAULT_MSS, max_window=max_window,
            initial_cwnd=initial_cwnd)
        self._dupacks = 0
        self._in_recovery = False
        self._recover = self.iss         # recovery point (RFC 6582)
        self._rexmit_cursor = self.iss   # highest seq retransmitted this
        #                                  recovery (scoreboard-driven)

        # Selective acknowledgments (both directions gated on one knob).
        self._scoreboard: Optional[SackScoreboard] = (
            SackScoreboard() if config.tcp_sack else None)
        self._reassembly: Optional[ReassemblyBuffer] = (
            ReassemblyBuffer() if config.tcp_sack else None)

        # RTT estimation / RTO (RFC 6298), nanoseconds.
        self._rto_est = RtoEstimator()
        self._timing_seq: Optional[int] = None   # Karn: seq whose RTT we time
        self._timing_sent_at = 0
        self._retransmit_event: Optional[Event] = None
        self._retransmit_count = 0
        self._timewait_event: Optional[Event] = None

        # Callbacks.
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[AppData], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_reset: Optional[Callable[[], None]] = None

        # Statistics (examples and tests read these).
        self.bytes_sent = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_retransmitted = 0
        self.fast_retransmits = 0

    # ------------------------------------------------------------ public API

    @property
    def key(self) -> ConnKey:
        """The demux key: (local port, remote addr, remote port)."""
        return (self.local_port, self.remote_addr, self.remote_port)

    @property
    def cwnd(self) -> int:
        """The congestion window, owned by the strategy."""
        return self.cc.cwnd

    @property
    def ssthresh(self) -> int:
        """The slow-start threshold, owned by the strategy."""
        return self.cc.ssthresh

    # Estimator internals, exposed read-only for tests and experiments.

    @property
    def _srtt(self) -> Optional[int]:
        return self._rto_est.srtt

    @property
    def _rto_backoff(self) -> int:
        return self._rto_est.backoff

    @property
    def rcv_buffered(self) -> int:
        """Bytes delivered in order but not yet consumed by the app."""
        return self._rcv_buffered

    @property
    def zero_window_ns(self) -> int:
        """Total time spent stalled on the peer's window, live.

        Counts every persist-mode interval: windows of exactly zero and
        windows too small to admit the next (indivisible) payload both
        stall the sender identically.  An in-progress stall is included.
        """
        open_interval = (self.sim.now - self._zw_since
                         if self._zw_since is not None else 0)
        return self._zw_accum_ns + open_interval

    def _rcv_window(self) -> int:
        """Free receive-buffer space: what we may advertise (RFC 9293)."""
        return max(0, self.rcv_buffer - self._rcv_buffered)

    def consume(self, nbytes: int) -> None:
        """The application read *nbytes* from the receive buffer.

        Only meaningful with ``Config.tcp_flow_control`` and
        ``auto_consume`` off.  Reopening a window the peer last saw
        closed (or nearly so) sends an immediate window-update ACK, so a
        stalled sender recovers without waiting for its next persist
        probe.
        """
        if nbytes <= 0:
            return
        self._rcv_buffered = max(0, self._rcv_buffered - nbytes)
        if not self._fc or self.state == TCPState.CLOSED:
            return
        threshold = min(DEFAULT_MSS, self.rcv_buffer // 2)
        if (0 <= self._last_advertised_wnd < threshold
                and self._rcv_window() >= threshold):
            self._send_ack()

    def send(self, data: AppData) -> None:
        """Queue application data for reliable delivery.

        Writes larger than the MSS are segmented; the first segment keeps
        the application's content object (so small-message protocols see
        their objects intact) and continuation segments carry sizing only,
        as a byte stream would.
        """
        if self.state not in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT):
            raise TCPError(f"cannot send in state {self.state.value}")
        if data.size_bytes <= 0:
            raise TCPError("cannot send an empty payload")
        remaining = data.size_bytes
        first = True
        while remaining > 0:
            take = min(remaining, DEFAULT_MSS)
            chunk = AppData(data.content if first
                            else ("segment-of", data.content), take)
            self._send_buffer.append(_SendItem(offset=self._next_offset,
                                               data=chunk))
            self._next_offset += take
            remaining -= take
            first = False
        self._pump()

    def close(self) -> None:
        """Half-close: FIN after any queued data."""
        if self.state in (TCPState.CLOSED, TCPState.TIME_WAIT,
                          TCPState.LAST_ACK, TCPState.FIN_WAIT_1,
                          TCPState.FIN_WAIT_2, TCPState.CLOSING):
            return
        self._fin_queued = True
        self._send_buffer.append(_SendItem(offset=self._next_offset,
                                           data=AppData(None, 0), fin=True))
        self._next_offset += 1
        if self.state == TCPState.ESTABLISHED:
            self.state = TCPState.FIN_WAIT_1
        elif self.state == TCPState.CLOSE_WAIT:
            self.state = TCPState.LAST_ACK
        self._pump()

    def abort(self) -> None:
        """Send RST and drop all state."""
        self._emit(flags=frozenset({FLAG_RST}))
        self._teardown()

    # ---------------------------------------------------------- client opening

    def _open_active(self) -> None:
        self.state = TCPState.SYN_SENT
        self._emit(flags=frozenset({FLAG_SYN}), seq=self.iss)
        self.snd_nxt = self.iss + 1
        self.snd_max = self.snd_nxt
        self._start_timing(self.iss)
        self._arm_retransmit()

    # ----------------------------------------------------------------- sending

    def _pump(self) -> None:
        """Transmit whatever the window allows."""
        if self.state not in _DATA_STATES:
            return
        window_limit = self.snd_una + self.cc.effective_window(
            self.peer_rwnd if self._fc else None)
        base = self.iss + 1
        for item in self._send_buffer:
            seq = base + item.offset
            end = seq + (1 if item.fin else item.data.size_bytes)
            if seq < self.snd_nxt:
                continue  # already in flight
            if end > window_limit:
                break
            if (self._scoreboard is not None and end <= self.snd_max
                    and self._scoreboard.is_sacked(seq, end)):
                # Rewound over a range the receiver already holds: skip
                # it instead of re-sending (scoreboard-driven recovery).
                self.snd_nxt = max(self.snd_nxt, end)
                continue
            fresh = end > self.snd_max
            if item.fin:
                self._emit(flags=frozenset({FLAG_FIN, FLAG_ACK}), seq=seq)
            else:
                self._emit(flags=frozenset({FLAG_ACK}), seq=seq, payload=item.data)
                self.bytes_sent += item.data.size_bytes
            self.snd_nxt = end
            self.snd_max = max(self.snd_max, end)
            if self._timing_seq is None and fresh:
                # Karn's algorithm: only first transmissions are timed; a
                # retransmission's ACK is ambiguous and must not feed the
                # estimator.
                self._start_timing(seq)
        if (self.snd_nxt > self.snd_una and self._retransmit_event is None
                and self._persist_event is None):
            # Only arm if idle: re-arming on every application write would
            # keep pushing the deadline out and the timer would never fire
            # while the application keeps producing data.
            self._arm_retransmit()
        elif self.snd_una == self.snd_max and self._window_blocked():
            # Everything sent is acknowledged, data is queued, and the
            # peer's window admits none of it: probe (RFC 9293 3.8.6.1).
            self._enter_persist()

    def _emit(self, flags: frozenset, seq: Optional[int] = None,
              payload: Optional[AppData] = None) -> None:
        sack: Tuple[Tuple[int, int], ...] = ()
        if (self._reassembly is not None and self._reassembly
                and FLAG_ACK in flags):
            sack = self._reassembly.sack_blocks(lambda seg: seg.seq_space)
        wnd = -1
        if self._fc:
            wnd = self._rcv_window()
            self._last_advertised_wnd = wnd
            if self._rwnd_gauge is None:
                self._rwnd_gauge = self.sim.metrics.gauge(
                    "tcp", "rwnd_bytes", host=self._service.host.name)
            self._rwnd_gauge.set(wnd)
        if self._delack_pending:
            # Whatever goes out carries rcv_nxt, so the held ACK
            # piggybacks on it.
            self._delack_clear()
        segment = TCPSegment(
            self.local_port, self.remote_port,
            seq if seq is not None else self.snd_nxt,
            self.rcv_nxt, flags, payload, sack, wnd,
        )
        self.segments_sent += 1
        self._service.transmit(self, segment)

    def _send_ack(self) -> None:
        self._emit(flags=frozenset({FLAG_ACK}))

    # ------------------------------------------------- flow control (RFC 9293)

    def _update_peer_wnd(self, segment: TCPSegment) -> None:
        """Track the peer's advertised window (newest segment wins)."""
        wnd = segment.wnd
        if wnd < 0:
            return  # the peer does not advertise (legacy stack)
        if (segment.seq > self._wnd_seq
                or (segment.seq == self._wnd_seq
                    and segment.ack >= self._wnd_ack)):
            self._wnd_seq = segment.seq
            self._wnd_ack = segment.ack
            self.peer_rwnd = wnd
            if not self._window_blocked():
                probing = self._persist_event is not None
                self._exit_persist()
                if probing:
                    self._pump()

    def _window_blocked(self) -> bool:
        """True when pending data exists but the peer's window admits none.

        Payloads are indivisible application objects, so "blocked" is not
        only ``rwnd == 0``: a window smaller than the next item stalls the
        sender just as hard, and the persist machinery must cover it —
        otherwise a lost window-update ACK deadlocks the connection.
        """
        if not self._fc or self.peer_rwnd is None or not self._send_buffer:
            return False
        base = self.iss + 1
        for item in self._send_buffer:
            seq = base + item.offset
            end = seq + (1 if item.fin else item.data.size_bytes)
            if end <= self.snd_una:
                continue
            return end > self.snd_una + self.peer_rwnd
        return False

    def _enter_persist(self) -> None:
        """Begin window probing: the RTO never fires while stalled."""
        if self._persist_event is not None:
            return
        self._cancel_retransmit()
        if self._zw_since is None:
            self._zw_since = self.sim.now
        self._persist_backoff = 0
        self.sim.trace.emit("tcp", "zero_window", conn=self,
                            rwnd=self.peer_rwnd,
                            pending=len(self._send_buffer))
        self._arm_persist()

    def _exit_persist(self) -> None:
        """The window admits data again (or the connection is done)."""
        self._cancel_persist()
        self._probe_seq = None
        self._persist_backoff = 0
        if self._zw_since is not None:
            self._zw_accum_ns += self.sim.now - self._zw_since
            self._zw_since = None

    def _arm_persist(self) -> None:
        delay = min(self._rto_est.max_rto,
                    self._rto_est.current() << self._persist_backoff)
        self._persist_event = self.sim.call_later(
            delay, self._on_persist_timeout,
            label="tcp-persist")

    def _cancel_persist(self) -> None:
        if self._persist_event is not None:
            self._persist_event.cancel()
            self._persist_event = None

    def _on_persist_timeout(self) -> None:
        self._persist_event = None
        if self.state not in _DATA_STATES or not self._send_buffer:
            self._exit_persist()
            return
        if not self._window_blocked():
            self._exit_persist()
            self._pump()  # the window opened while the timer was pending
            return
        self._send_probe()
        # Exponential backoff, bounded like the RTO's; probes continue
        # indefinitely — a zero window is flow control, not a dead peer,
        # so they never count against MAX_RETRANSMITS.
        self._persist_backoff = min(self._persist_backoff + 1,
                                    RTO_BACKOFF_LIMIT)
        self._arm_persist()

    def _send_probe(self) -> None:
        """Transmit the first pending item into the closed window.

        RFC 9293's probe is one byte; payloads here are indivisible
        application objects, so the probe carries the whole next item
        (at most one MSS).  The receiver drops what it cannot buffer and
        answers with an ACK carrying its current window — which is all
        the probe is for.  Probes are never RTT-timed (Karn) and advance
        ``snd_max`` so the eventual ACK is recognised as valid.
        """
        base = self.iss + 1
        for item in self._send_buffer:
            seq = base + item.offset
            end = seq + (1 if item.fin else item.data.size_bytes)
            if end <= self.snd_una:
                continue
            self.persist_probes += 1
            self._service.persist_probes_counter().inc()
            self.sim.trace.emit("tcp", "zero_window_probe",
                                conn=self, seq=seq,
                                attempt=self._persist_backoff + 1)
            if item.fin:
                self._emit(flags=frozenset({FLAG_FIN, FLAG_ACK}), seq=seq)
            else:
                self._emit(flags=frozenset({FLAG_ACK}), seq=seq,
                           payload=item.data)
            self._probe_seq = seq
            self.snd_nxt = max(self.snd_nxt, end)
            self.snd_max = max(self.snd_max, end)
            return

    # --------------------------------------------- delayed ACKs (RFC 9293)

    def _delay_ack(self) -> None:
        """Hold the ACK for one more segment or the delack timeout."""
        self._delack_pending += 1
        if self._delack_pending >= 2:
            self._send_ack()  # _emit clears the pending state
            return
        self.delayed_acks += 1
        self._service.delayed_acks_counter().inc()
        self._delack_event = self.sim.call_later(
            DELAYED_ACK_TIMEOUT, self._on_delack_timeout,
            label="tcp-delack")

    def _on_delack_timeout(self) -> None:
        self._delack_event = None
        if self._delack_pending:
            self._send_ack()

    def _delack_clear(self) -> None:
        self._delack_pending = 0
        if self._delack_event is not None:
            self._delack_event.cancel()
            self._delack_event = None

    # ----------------------------------------------------- retransmission/RTT

    def _start_timing(self, seq: int) -> None:
        self._timing_seq = seq
        self._timing_sent_at = self.sim.now

    def _update_rtt(self, measured: int) -> None:
        self._rto_est.sample(measured)

    def _arm_retransmit(self) -> None:
        self._cancel_retransmit()
        self._retransmit_event = self.sim.call_later(
            self._rto_est.current(), self._on_retransmit_timeout,
            label="tcp-rto",
        )

    def _cancel_retransmit(self) -> None:
        if self._retransmit_event is not None:
            self._retransmit_event.cancel()
            self._retransmit_event = None

    def _on_retransmit_timeout(self) -> None:
        self._retransmit_event = None
        if self.snd_una >= self.snd_max and self.state not in (
                TCPState.SYN_SENT, TCPState.SYN_RECEIVED):
            return  # everything acknowledged meanwhile
        if self._window_blocked() and self.state in _DATA_STATES:
            # The window closed (or shrank below the next item) with data
            # in flight: this is a stall, not congestion.  Rewind and hand
            # the frontier to the persist machinery — probes never count
            # against MAX_RETRANSMITS and never back off the estimator.
            self.snd_nxt = self.snd_una
            self._enter_persist()
            return
        self._service.rto_expirations += 1
        self._retransmit_count += 1
        if self._retransmit_count > MAX_RETRANSMITS:
            self.sim.trace.emit("tcp", "gave_up", conn=self)
            if self.on_reset is not None:
                self.on_reset()
            self._teardown()
            return
        self.segments_retransmitted += 1
        self._service.retransmits += 1
        self._rto_est.back_off()
        self._timing_seq = None  # Karn's rule
        if self._in_recovery:
            # The timeout overrides fast recovery entirely.
            self._in_recovery = False
        self._dupacks = 0
        if self._scoreboard is not None:
            # RFC 2018: SACK data is advisory and the receiver may have
            # reneged; after a timeout everything unacknowledged is fair
            # game again.
            self._scoreboard.clear()
        # On timeout the strategy remembers half the flight as the
        # slow-start threshold and collapses the window; the pump then
        # resends exactly one segment now and recovery proceeds as ACKs
        # return, instead of dumping the whole window into a slow link.
        flight = self.snd_max - self.snd_una
        self.cc.on_timeout(flight, self.sim.now)
        self._set_cc_gauges()
        self.sim.trace.emit("tcp", "retransmit", conn=self,
                            snd_una=self.snd_una, attempt=self._retransmit_count)
        if self.state == TCPState.SYN_SENT:
            self._emit(flags=frozenset({FLAG_SYN}), seq=self.iss)
        elif self.state == TCPState.SYN_RECEIVED:
            self._emit(flags=frozenset({FLAG_SYN, FLAG_ACK}), seq=self.iss)
        else:
            self.snd_nxt = self.snd_una
            self._pump()
        self._arm_retransmit()

    # --------------------------------------------------------------- receiving

    def handle_segment(self, segment: TCPSegment) -> None:
        """Process one received segment (the whole state machine)."""
        if FLAG_RST in segment.flags:
            if not self._rst_acceptable(segment):
                # RFC 9293 3.10.7.3: an out-of-window RST is a blind-reset
                # attempt (or ancient duplicate) and must not kill the
                # connection.
                self.sim.trace.emit("tcp", "rst_ignored",
                                    conn=self, seq=segment.seq)
                return
            self.sim.trace.emit("tcp", "reset_received", conn=self)
            if self.on_reset is not None:
                self.on_reset()
            self._teardown()
            return
        if self._fc:
            self._update_peer_wnd(segment)
        if self.state == TCPState.TIME_WAIT:
            # RFC 9293 3.10.7.4: a retransmitted FIN (our final ACK was
            # lost, the peer is stuck in LAST_ACK) must be re-ACKed and
            # the 2MSL clock restarted.  Pure ACKs are ignored — re-ACKing
            # them would ping-pong forever between two simultaneous-close
            # peers that are both in TIME_WAIT.
            if segment.seq_space > 0:
                self._send_ack()
                self._arm_time_wait()
            return
        if self.state == TCPState.SYN_SENT:
            self._handle_syn_sent(segment)
            return
        if self.state == TCPState.SYN_RECEIVED and FLAG_ACK in segment.flags \
                and segment.ack >= self.iss + 1:
            self.state = TCPState.ESTABLISHED
            self._established()
        if FLAG_ACK in segment.flags:
            self._process_ack(segment)
        if FLAG_SYN in segment.flags and self.state == TCPState.ESTABLISHED:
            # Peer retransmitted SYN+ACK (our ACK was lost): re-ACK it.
            self._send_ack()
            return
        self._process_payload(segment)

    def _handle_syn_sent(self, segment: TCPSegment) -> None:
        if FLAG_SYN not in segment.flags or FLAG_ACK not in segment.flags:
            return
        if segment.ack != self.iss + 1:
            return
        self.rcv_nxt = segment.seq + 1
        self.snd_una = segment.ack
        self._retransmit_count = 0
        if self._timing_seq is not None and self._timing_seq == self.iss:
            self._update_rtt(self.sim.now - self._timing_sent_at)
            self._timing_seq = None
        self._cancel_retransmit()
        self.state = TCPState.ESTABLISHED
        self._send_ack()
        self._established()
        self._pump()

    def _established(self) -> None:
        self.sim.trace.emit("tcp", "established", conn=self)
        if self.on_established is not None:
            callback, self.on_established = self.on_established, None
            callback()

    # ------------------------------------------------------------- ACK intake

    def _process_ack(self, segment: TCPSegment) -> None:
        ack = segment.ack
        if self._scoreboard is not None and segment.sack:
            self._service.sack_blocks_counter().inc(len(segment.sack))
            self._scoreboard.record(segment.sack, self.snd_una)
        if ack <= self.snd_una or ack > self.snd_max:
            if ack == self.snd_una and self.snd_max > self.snd_una:
                # An ACK that advances nothing while data is in flight.
                self._service.dup_acks += 1
                if (self.cc.supports_fast_retransmit
                        and self._probe_seq is None
                        and segment.payload.size_bytes == 0
                        and FLAG_SYN not in segment.flags
                        and FLAG_FIN not in segment.flags):
                    # Rejected zero-window probes elicit dup ACKs too, but
                    # those signal a closed window, not a hole.
                    self._on_dup_ack()
            if self._fc:
                # A pure window update carries no new ack; the reopened
                # window may admit queued data.
                self._pump()
            return
        acked = ack - self.snd_una
        if self._timing_seq is not None and ack > self._timing_seq:
            self._update_rtt(self.sim.now - self._timing_sent_at)
            self._timing_seq = None
        self.snd_una = ack
        if self.snd_nxt < ack:
            self.snd_nxt = ack  # a late ACK can outrun a rewound send point
        self._retransmit_count = 0
        if self._probe_seq is not None and ack > self._probe_seq:
            self._probe_seq = None  # the probe itself was accepted
        if self._scoreboard is not None:
            self._scoreboard.advance(ack)
        if self._in_recovery:
            if ack >= self._recover:
                # Full ACK: everything outstanding at recovery entry is in.
                self._in_recovery = False
                self._dupacks = 0
                self.cc.on_exit_recovery(self.sim.now)
                self._set_cc_gauges()
            else:
                # Partial ACK (RFC 6582): repair the next hole, deflate.
                self.cc.on_partial_ack(acked, self.sim.now)
                self._retransmit_hole()
        else:
            self._dupacks = 0
            if (self._fc and self.peer_rwnd is not None
                    and self.peer_rwnd < self.cc.cwnd):
                # RFC 5681 caution: the receiver, not the network, is the
                # bottleneck — growing cwnd would only build a burst for
                # the moment the window reopens.
                self.cc.on_rwnd_limited(self.sim.now)
            else:
                self.cc.on_ack(acked, self.sim.now, self._rto_est.srtt)
        self._trim_send_buffer()
        if self.snd_una >= self.snd_max:
            self._cancel_retransmit()
            self._on_all_acked()
        elif self._persist_event is None:
            self._arm_retransmit()
        self._pump()

    # ------------------------------------------------- fast retransmit (Reno+)

    def _on_dup_ack(self) -> None:
        if self.state not in _DATA_STATES:
            return
        self._dupacks += 1
        if self._in_recovery:
            self.cc.on_dup_ack_in_recovery(self.sim.now)
            if self._scoreboard is not None:
                self._retransmit_hole()
            self._pump()  # the inflated window may admit new data
        elif self._dupacks >= DUP_ACK_THRESHOLD:
            self._enter_fast_recovery()

    def _enter_fast_recovery(self) -> None:
        self._in_recovery = True
        self._recover = self.snd_max
        self._rexmit_cursor = self.snd_una
        flight = self.snd_max - self.snd_una
        self.cc.on_enter_recovery(flight, self.sim.now)
        self._timing_seq = None  # Karn: the retransmission is never timed
        self.fast_retransmits += 1
        self._service.fast_retransmits_counter().inc()
        self.sim.trace.emit("tcp", "fast_retransmit", conn=self,
                            snd_una=self.snd_una)
        self._set_cc_gauges()
        self._retransmit_hole()
        self._arm_retransmit()  # restart the RTO for the retransmission

    def _retransmit_hole(self) -> None:
        """Retransmit one segment covering the oldest unrepaired hole."""
        if self._scoreboard is not None:
            hole = self._scoreboard.first_hole(
                max(self.snd_una, self._rexmit_cursor), self.snd_max)
            if hole is None:
                return
            target = hole[0]
        else:
            target = self.snd_una
            if self._rexmit_cursor > target:
                return  # this hole was already retransmitted this recovery
        base = self.iss + 1
        for item in self._send_buffer:
            seq = base + item.offset
            end = seq + (1 if item.fin else item.data.size_bytes)
            if end <= target:
                continue
            if (self._scoreboard is not None
                    and self._scoreboard.is_sacked(seq, end)):
                continue  # never resend what the receiver reported holding
            self.segments_retransmitted += 1
            self._service.retransmits += 1
            if self._scoreboard is not None:
                self._service.sack_retransmits_counter().inc()
            if item.fin:
                self._emit(flags=frozenset({FLAG_FIN, FLAG_ACK}), seq=seq)
            else:
                self._emit(flags=frozenset({FLAG_ACK}), seq=seq,
                           payload=item.data)
            self._rexmit_cursor = end
            return

    def _set_cc_gauges(self) -> None:
        """Record the window trajectory (lazy: keys appear on first event)."""
        metrics = self.sim.metrics
        host = self._service.host.name
        metrics.gauge("tcp", "cwnd_bytes", host=host).set(self.cc.cwnd)
        metrics.gauge("tcp", "ssthresh_bytes", host=host).set(self.cc.ssthresh)

    # ----------------------------------------------------------- data intake

    def _trim_send_buffer(self) -> None:
        """Drop the fully acknowledged items.

        The buffer is in offset order, so they are a prefix of it.
        """
        buffer = self._send_buffer
        acked = self.snd_una - (self.iss + 1)
        done = 0
        for item in buffer:
            if item.offset + (1 if item.fin else item.data.size_bytes) > acked:
                break
            done += 1
        del buffer[:done]

    def _on_all_acked(self) -> None:
        if self.state == TCPState.FIN_WAIT_1 and self._fin_queued:
            self.state = TCPState.FIN_WAIT_2
        elif self.state == TCPState.CLOSING:
            # Simultaneous close, second half: the peer just acknowledged
            # our FIN (we already consumed theirs).
            self._enter_time_wait()
        elif self.state == TCPState.LAST_ACK:
            self._teardown()

    def _process_payload(self, segment: TCPSegment) -> None:
        has_fin = FLAG_FIN in segment.flags
        length = segment.payload.size_bytes
        if length == 0 and not has_fin:
            return
        if (self._fc and segment.seq + segment.seq_space
                > self.rcv_nxt + self._rcv_window()):
            # Beyond our advertised window: a zero-window probe, or a
            # sender overrunning a window that shrank in flight.  Drop the
            # data; the immediate ACK re-advertises the current window
            # (RFC 9293 3.8.6.1) — that answer is what unblocks the peer.
            self._send_ack()
            return
        if segment.seq != self.rcv_nxt:
            if self._reassembly is not None and segment.seq > self.rcv_nxt:
                # SACK: hold the out-of-order segment and advertise it.
                self._reassembly.store(segment.seq, segment)
            # Duplicate or out of order: re-ACK what we have (the ACK
            # carries SACK blocks when the knob is on; plain go-back-N
            # otherwise).
            self._send_ack()
            return
        filled_hole = self._reassembly is not None and bool(self._reassembly)
        self._deliver(segment)
        if self._reassembly is not None:
            self._reassembly.drop_below(self.rcv_nxt)
            while True:
                queued = self._reassembly.pop(self.rcv_nxt)
                if queued is None:
                    break
                self._deliver(queued)
                self._reassembly.drop_below(self.rcv_nxt)
        if (self._delack and not has_fin and not filled_hole
                and self.state in _DATA_STATES):
            # Plain in-order data with no out-of-order condition pending:
            # the ACK may wait for a ride (RFC 9293 3.8.6.3).
            self._delay_ack()
        else:
            self._send_ack()

    def _deliver(self, segment: TCPSegment) -> None:
        """Consume one in-order segment (payload and/or FIN)."""
        length = segment.payload.size_bytes
        if length > 0:
            self.rcv_nxt += length
            self.bytes_received += length
            if self._fc:
                self._rcv_buffered += length
            if self.on_data is not None:
                self.on_data(segment.payload)
            if self._fc and self.auto_consume:
                # Legacy fast-reader model: the application keeps up, so
                # the advertised window never closes on its account.
                self._rcv_buffered -= length
        if FLAG_FIN in segment.flags:
            self.rcv_nxt += 1
            self._handle_fin()

    def _handle_fin(self) -> None:
        if self.state == TCPState.ESTABLISHED:
            self.state = TCPState.CLOSE_WAIT
        elif self.state == TCPState.FIN_WAIT_2:
            self._enter_time_wait()
        elif self.state == TCPState.FIN_WAIT_1:
            # Simultaneous close (RFC 9293 figure 13): both FINs crossed
            # in flight.  Our own FIN is still unacknowledged — CLOSING
            # holds it on the retransmit path until the peer's ACK lands,
            # and only then does TIME_WAIT begin.
            self.state = TCPState.CLOSING
        if self.on_close is not None:
            callback, self.on_close = self.on_close, None
            callback()

    def _enter_time_wait(self) -> None:
        self.state = TCPState.TIME_WAIT
        self._arm_time_wait()

    def _arm_time_wait(self) -> None:
        """(Re)start the 2MSL clock; a retransmitted FIN restarts it."""
        if self._timewait_event is not None:
            self._timewait_event.cancel()
        self._timewait_event = self.sim.call_later(
            TIME_WAIT_DELAY, self._on_time_wait_expired,
            label="tcp-timewait")

    def _on_time_wait_expired(self) -> None:
        self._timewait_event = None
        self._teardown()

    def _rst_acceptable(self, segment: TCPSegment) -> bool:
        """RFC 9293 3.10.7.3: only an in-window RST resets the connection.

        Deviation (documented in PROTOCOL.md §8): this wire format has no
        ACK flag on RSTs, so the SYN_SENT check reads the ``ack`` field
        directly, and the challenge-ACK refinement for RSTs that are
        in-window but not exactly ``rcv_nxt`` is not modelled.
        """
        if self.state == TCPState.SYN_SENT:
            return segment.ack == self.snd_nxt
        if self.rcv_nxt == 0:
            return True  # nothing learned yet; any reset is plausible
        wnd = self._rcv_window() if self._fc else DEFAULT_WINDOW_BYTES
        return (self.rcv_nxt <= segment.seq
                < self.rcv_nxt + max(wnd, 1))

    def _teardown(self) -> None:
        self._cancel_retransmit()
        self._exit_persist()
        self._delack_clear()
        if self._timewait_event is not None:
            self._timewait_event.cancel()
            self._timewait_event = None
        previous, self.state = self.state, TCPState.CLOSED
        if previous != TCPState.CLOSED:
            self._service.forget(self)

    def describe(self) -> str:
        """One-line summary: both endpoints and the state."""
        return (f"{self.local_addr}:{self.local_port}<->"
                f"{self.remote_addr}:{self.remote_port} {self.state.value}")


class TCPError(RuntimeError):
    """Raised on invalid TCP API usage."""


class TCPListener:
    """A passive socket waiting for connections on a port."""

    def __init__(self, service: "TCPService", port: int,
                 on_connection: Callable[[TCPConnection], None]) -> None:
        self.service = service
        self.port = port
        self.on_connection = on_connection
        self.closed = False

    def close(self) -> None:
        """Stop accepting; existing connections are unaffected."""
        self.closed = True
        self.service._listeners.pop(self.port, None)


class TCPService:
    """Per-host TCP: demux, connection table, transmission."""

    EPHEMERAL_START = 33000

    #: Statistics reported as counters (``MetricsRegistry.register``), so
    #: every TCP host reports these even when zero.
    _METRIC_FIELDS = (
        ("tcp", "retransmits", (), "retransmits"),
        ("tcp", "rto_expirations", (), "rto_expirations"),
        ("tcp", "dup_acks", (), "dup_acks"),
    )

    def __init__(self, sim: Simulator, host: "Host", config: Config,
                 timings: HostTimings) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        self.timings = timings
        self._tx_fifo = FifoDelay(sim)
        self._rx_fifo = FifoDelay(sim)
        self._connections: Dict[ConnKey, TCPConnection] = {}
        self._listeners: Dict[int, TCPListener] = {}
        self._next_ephemeral = self.EPHEMERAL_START
        host.ip.register_protocol(PROTO_TCP, self._receive)
        # Statistics, summed over the host's connections.
        self.retransmits = 0
        self.rto_expirations = 0
        self.dup_acks = 0
        sim.metrics.register(self, self._METRIC_FIELDS, host=host.name)

    @lazy_stream
    def _rng(self) -> RandomStream:
        """Jitter stream, created on first draw."""
        return self.sim.rng(f"tcp:{self.host.name}")

    # ------------------------------------------------------------ lazy metrics
    # Created on first touch (like repro.faults' injected counters) so
    # default Tahoe/no-SACK runs leave snapshots byte-identical to the
    # pre-seam build.

    def fast_retransmits_counter(self):
        """Counter of fast-retransmit (3-dup-ACK) recoveries entered."""
        return self.sim.metrics.counter("tcp", "fast_retransmits",
                                        host=self.host.name)

    def sack_blocks_counter(self):
        """Counter of SACK blocks received and recorded."""
        return self.sim.metrics.counter("tcp", "sack_blocks_received",
                                        host=self.host.name)

    def sack_retransmits_counter(self):
        """Counter of scoreboard-driven hole retransmissions."""
        return self.sim.metrics.counter("tcp", "sack_retransmits",
                                        host=self.host.name)

    def persist_probes_counter(self):
        """Counter of zero-window probes sent (RFC 9293 3.8.6.1)."""
        return self.sim.metrics.counter("tcp", "persist_probes",
                                        host=self.host.name)

    def delayed_acks_counter(self):
        """Counter of ACKs deferred by the delayed-ACK timer."""
        return self.sim.metrics.counter("tcp", "delayed_acks",
                                        host=self.host.name)

    # ------------------------------------------------------------- public API

    def listen(self, port: int,
               on_connection: Callable[[TCPConnection], None]) -> TCPListener:
        """Accept connections on *port*; the callback gets each new one."""
        if port in self._listeners:
            raise TCPError(f"TCP port {port} already listening on {self.host.name}")
        listener = TCPListener(self, port, on_connection)
        self._listeners[port] = listener
        return listener

    def connect(self, remote_addr: IPAddress, remote_port: int, *,
                congestion_control: Optional[str] = None,
                initial_cwnd: Optional[int] = None) -> TCPConnection:
        """Open a connection; callbacks are set on the returned object.

        ``ip_rt_route()`` chooses the source — on a mobile host that pins
        the connection to the home address, which is exactly why it
        survives later moves.  ``congestion_control`` overrides
        ``Config.tcp_congestion_control`` for this connection only.
        """
        local_port = self._allocate_ephemeral(remote_addr, remote_port)
        route = self.host.ip.ip_rt_route(remote_addr)
        if route is None:
            raise TCPError(f"no route to {remote_addr}")
        conn = TCPConnection(self, route.source, local_port, remote_addr,
                             remote_port,
                             congestion_control=congestion_control,
                             initial_cwnd=initial_cwnd)
        key = conn.key
        if key in self._connections:
            raise TCPError(f"connection {key} already exists")
        self._connections[key] = conn
        conn._open_active()
        return conn

    def _allocate_ephemeral(self, remote_addr: IPAddress, remote_port: int) -> int:
        port = self._next_ephemeral
        while (port, remote_addr, remote_port) in self._connections:
            port += 1
        self._next_ephemeral = port + 1
        return port

    # ---------------------------------------------------------------- plumbing

    def forget(self, conn: TCPConnection) -> None:
        """Drop a closed connection from the demux table."""
        self._connections.pop(conn.key, None)

    def transmit(self, conn: TCPConnection, segment: TCPSegment) -> None:
        """Wrap a segment in IP and send it (with host tx cost)."""
        packet = IPPacket(conn.local_addr, conn.remote_addr,
                          PROTO_TCP, segment, self.config.default_ttl)
        delay = jittered(self._rng, self.timings.tx_cost, self.config.jitter)
        self._tx_fifo.post(delay, lambda: self.host.ip.send(packet),
                           label="tcp-tx")

    def _receive(self, packet: IPPacket, iface: "NetworkInterface") -> None:
        segment = packet.payload
        assert isinstance(segment, TCPSegment)
        delay = jittered(self._rng, self.timings.rx_cost, self.config.jitter)
        self._rx_fifo.post(delay, lambda: self._demux(packet, segment),
                           label="tcp-rx")

    def _demux(self, packet: IPPacket, segment: TCPSegment) -> None:
        key = (segment.dst_port, packet.src, segment.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle_segment(segment)
            return
        listener = self._listeners.get(segment.dst_port)
        if listener is not None and not listener.closed and FLAG_SYN in segment.flags \
                and FLAG_ACK not in segment.flags:
            self._accept(listener, packet, segment)
            return
        if FLAG_RST not in segment.flags:
            self._send_reset(packet, segment)

    def _accept(self, listener: TCPListener, packet: IPPacket,
                segment: TCPSegment) -> None:
        conn = TCPConnection(self, packet.dst, segment.dst_port,
                             packet.src, segment.src_port)
        self._connections[conn.key] = conn
        conn.state = TCPState.SYN_RECEIVED
        conn.rcv_nxt = segment.seq + 1
        listener.on_connection(conn)
        conn._emit(flags=frozenset({FLAG_SYN, FLAG_ACK}), seq=conn.iss)
        conn.snd_nxt = conn.iss + 1
        conn._start_timing(conn.iss)
        conn._arm_retransmit()

    def _send_reset(self, packet: IPPacket, segment: TCPSegment) -> None:
        reset = TCPSegment(segment.dst_port, segment.src_port,
                           segment.ack, segment.seq + segment.seq_space,
                           frozenset({FLAG_RST}))
        response = IPPacket(packet.dst, packet.src, PROTO_TCP,
                            reset, self.config.default_ttl)
        self.sim.trace.emit("tcp", "reset_sent", host=self.host.name,
                            segment=segment)
        self.host.ip.send(response)
