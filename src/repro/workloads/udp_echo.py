"""The paper's measurement workload: a fixed-interval UDP echo stream.

"A correspondent host continuously sends a UDP packet to the mobile host
every 10 milliseconds, and the mobile host echoes the packet back.  We then
measure the number of packets that were lost during the interval in which
the mobile host switches addresses." (Section 4.)  The device-switching
experiment uses the same structure at a 250 ms interval, chosen because the
radio round-trip time is 200-250 ms.

:class:`UdpEchoStream` (correspondent side) tags each datagram with a
sequence number and send timestamp; :class:`UdpEchoResponder` (mobile
side) echoes whatever arrives.  Loss is counted end-to-end: a sequence
number whose echo never returns is a lost packet — which is how the paper
counts, since a reply can be lost on the return path too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.addressing import IPAddress
from repro.net.host import Host
from repro.net.packet import AppData
from repro.sim.engine import Event

#: The UDP echo port (RFC 862).
ECHO_PORT = 7
#: Payload bytes per probe (a small measurement packet).
PROBE_BYTES = 12


class UdpEchoResponder:
    """Echoes every received datagram back to its sender."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.echoed = 0
        self._socket = host.udp.open(ECHO_PORT).on_datagram(self._on_datagram)

    def _on_datagram(self, data: AppData, src: IPAddress, src_port: int,
                     dst: IPAddress) -> None:
        self.echoed += 1
        self._socket.sendto(data, src, src_port)


@dataclass
class EchoRecord:
    """Fate of one probe."""

    seq: int
    sent_at: int
    replied_at: Optional[int] = None

    @property
    def lost(self) -> bool:
        """True if the echo never came back."""
        return self.replied_at is None

    @property
    def rtt(self) -> Optional[int]:
        """Round-trip time, or None when lost."""
        if self.replied_at is None:
            return None
        return self.replied_at - self.sent_at


class UdpEchoStream:
    """Sends sequence-numbered probes at a fixed interval and counts echoes."""

    def __init__(self, host: Host, target: IPAddress, interval: int) -> None:
        self.host = host
        self.sim = host.sim
        self.target = target
        self.interval = interval
        self._socket = host.udp.open(0).on_datagram(self._on_reply)
        self._records: Dict[int, EchoRecord] = {}
        self._next_seq = 0
        self._running = False
        self._tick_event: Optional[Event] = None

    # ---------------------------------------------------------------- control

    def start(self) -> None:
        """Begin probing (first probe goes out immediately)."""
        if self._running:
            return
        self._running = True
        self._tick()

    def stop(self) -> None:
        """Stop sending; already-sent probes may still be answered."""
        self._running = False
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def _tick(self) -> None:
        if not self._running:
            return
        seq = self._next_seq
        self._next_seq += 1
        self._records[seq] = EchoRecord(seq=seq, sent_at=self.sim.now)
        probe = AppData(content=("echo-probe", seq), size_bytes=PROBE_BYTES)
        self._socket.sendto(probe, self.target, ECHO_PORT)
        self._tick_event = self.sim.call_later(self.interval, self._tick,
                                               label="echo-tick")

    def _on_reply(self, data: AppData, src: IPAddress, src_port: int,
                  dst: IPAddress) -> None:
        content = data.content
        if not (isinstance(content, tuple) and len(content) == 2
                and content[0] == "echo-probe"):
            return
        record = self._records.get(content[1])
        if record is not None and record.replied_at is None:
            record.replied_at = self.sim.now

    # ------------------------------------------------------------------ stats

    @property
    def sent(self) -> int:
        """Probes sent so far."""
        return len(self._records)

    @property
    def received(self) -> int:
        """Probes whose echo returned."""
        return sum(1 for record in self._records.values() if not record.lost)

    def lost_count(self, since: Optional[int] = None,
                   until: Optional[int] = None) -> int:
        """Probes sent in [since, until) whose echo never came back.

        Call only after the stream has stopped and the simulation has run
        long enough for stragglers to arrive, or in-flight probes will be
        miscounted as lost.
        """
        return len(self.lost_sequences(since=since, until=until))

    def lost_sequences(self, since: Optional[int] = None,
                       until: Optional[int] = None) -> List[int]:
        """Sorted sequence numbers of lost probes in the window."""
        out = []
        for record in self._records.values():
            if since is not None and record.sent_at < since:
                continue
            if until is not None and record.sent_at >= until:
                continue
            if record.lost:
                out.append(record.seq)
        return sorted(out)

    def received_count(self, since: int) -> int:
        """Probes sent at or after *since* whose echo returned."""
        return sum(1 for record in self._records.values()
                   if not record.lost and record.sent_at >= since)

    def rtts(self) -> List[int]:
        """Round-trip times of all answered probes, in send order."""
        return [record.rtt for record in sorted(self._records.values(),
                                                key=lambda r: r.seq)
                if record.rtt is not None]

    def longest_outage(self) -> int:
        """Longest run of consecutive lost probes (packets)."""
        longest = 0
        current = 0
        for record in sorted(self._records.values(), key=lambda r: r.seq):
            if record.lost:
                current += 1
                longest = max(longest, current)
            else:
                current = 0
        return longest

    def close(self) -> None:
        """Stop and release the socket."""
        self.stop()
        self._socket.close()
