"""The paper's measurement workload: a fixed-interval UDP echo stream.

"A correspondent host continuously sends a UDP packet to the mobile host
every 10 milliseconds, and the mobile host echoes the packet back.  We then
measure the number of packets that were lost during the interval in which
the mobile host switches addresses." (Section 4.)  The device-switching
experiment uses the same structure at a 250 ms interval, chosen because the
radio round-trip time is 200-250 ms.

:class:`UdpEchoStream` (the sender) tags each datagram with a sequence
number and remembers its send time; :class:`UdpEchoResponder` echoes
whatever arrives.  Loss is counted end-to-end: a sequence number whose
echo never returns is a lost packet — which is how the paper counts, since
a reply can be lost on the return path too.

Every experiment that measures with the stream calls :func:`run_echo`,
which owns the measurement protocol:

1. **Settle.**  Probing starts at the later of the caller's fixed settle
   time and the first moment the testbed's home agent holds a binding for
   the mobile host's home address, checked one probe interval at a time.
   A probe sent before the first registration lands dies for want of a
   binding, and that loss belongs to no switch.  A binding that has not
   arrived :data:`BINDING_WAIT` after the fixed settle fails the trial.
2. **Run.**  The stream probes for the caller's run time; an optional
   switch action fires at a fixed offset from the first probe
   (:func:`switch_phase` spreads that offset across one probe interval
   when trials sample the switch's phase).
3. **Stop, then drain.**  The stream stops sending and the simulation
   runs on for the drain time, so that echoes still in flight land before
   anything is counted; counted earlier, they would read as lost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.net.addressing import IPAddress
from repro.net.host import Host
from repro.net.packet import AppData
from repro.sim.engine import Event
from repro.sim.units import s

if TYPE_CHECKING:  # pragma: no cover
    from repro.testbed import Testbed

#: The UDP echo port (RFC 862).
ECHO_PORT = 7
#: Payload bytes per probe (a small measurement packet).
PROBE_BYTES = 12
#: Longest wait past the fixed settle for the mobile host's first binding.
BINDING_WAIT = s(10)


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


class UdpEchoStream:
    """Sends sequence-numbered probes at a fixed interval and counts echoes."""

    def __init__(self, host: Host, target: IPAddress, interval: int) -> None:
        self.host = host
        self.sim = host.sim
        self.target = target
        self.interval = interval
        self._socket = host.udp.open(0).on_datagram(self._on_reply)
        #: Send time of each probe, indexed by sequence number.
        self._sent_at: List[int] = []
        #: Echo arrival time of each probe; None until its echo returns.
        self._replied_at: List[Optional[int]] = []
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
        seq = len(self._sent_at)
        self._sent_at.append(self.sim.now)
        self._replied_at.append(None)
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
        seq = content[1]
        replied_at = self._replied_at
        if 0 <= seq < len(replied_at) and replied_at[seq] is None:
            replied_at[seq] = self.sim.now

    # ------------------------------------------------------------------ stats

    @property
    def sent(self) -> int:
        """Probes sent so far."""
        return len(self._sent_at)

    @property
    def received(self) -> int:
        """Probes whose echo returned."""
        return len(self._replied_at) - self._replied_at.count(None)

    def lost_count(self, since: Optional[int] = None,
                   until: Optional[int] = None) -> int:
        """Probes sent in [since, until) whose echo has not come back."""
        return len(self.lost_sequences(since=since, until=until))

    def lost_sequences(self, since: Optional[int] = None,
                       until: Optional[int] = None) -> List[int]:
        """Sequence numbers, ascending, of the window's lost probes."""
        return [seq for seq, (sent_at, replied_at)
                in enumerate(zip(self._sent_at, self._replied_at))
                if replied_at is None
                and (since is None or sent_at >= since)
                and (until is None or sent_at < until)]

    def received_count(self, since: int) -> int:
        """Probes sent at or after *since* whose echo returned."""
        return sum(1 for sent_at, replied_at
                   in zip(self._sent_at, self._replied_at)
                   if replied_at is not None and sent_at >= since)

    def rtts(self) -> List[int]:
        """Round-trip times of all answered probes, in send order."""
        return [replied_at - sent_at for sent_at, replied_at
                in zip(self._sent_at, self._replied_at)
                if replied_at is not None]

    def longest_outage(self) -> int:
        """Longest run of consecutive lost probes (packets)."""
        longest = 0
        current = 0
        for replied_at in self._replied_at:
            if replied_at is None:
                current += 1
                longest = max(longest, current)
            else:
                current = 0
        return longest

    def close(self) -> None:
        """Stop and release the socket."""
        self.stop()
        self._socket.close()


def switch_phase(index: int, iterations: int, interval: int) -> int:
    """Offset of trial *index*'s switch within one probe *interval*.

    A switch's loss depends on where it lands relative to the probe ticks;
    spreading the *iterations* trials evenly across one interval samples
    that phase uniformly, and deterministically.
    """
    return (index * interval) // iterations


def run_echo(testbed: "Testbed", sender: Host, echoer: Host,
             target: IPAddress, interval: int, *, settle: int, run: int,
             drain: int, switch: Optional[Callable[[], None]] = None,
             switch_at: int = 0) -> UdpEchoStream:
    """Measure one run with a probe stream from *sender* to *echoer*.

    Builds the responder on *echoer* and a stream probing *target* every
    *interval* ns, settles (the later of *settle* ns and the mobile host's
    first binding), probes for *run* ns with *switch* fired *switch_at* ns
    after the first probe, stops, and drains for *drain* ns.  The returned
    stream has stopped and drained, so its counts are final.
    """
    sim = testbed.sim
    UdpEchoResponder(echoer)
    stream = UdpEchoStream(sender, target, interval)
    sim.run_for(settle)
    give_up = sim.now + BINDING_WAIT
    while testbed.addresses.mh_home not in testbed.home_agent.bindings:
        if sim.now >= give_up:
            raise RuntimeError(
                f"no binding for {testbed.addresses.mh_home} at the home "
                f"agent by t={sim.now / 1e9:g}s")
        sim.run_for(interval)
    start = sim.now
    stream.start()
    if switch is not None:
        sim.post_at(start + switch_at, switch, label="exp-switch")
    sim.run(until=start + run)
    stream.stop()
    sim.run_for(drain)
    return stream
