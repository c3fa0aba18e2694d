"""TCP congestion-control sweep (x6): modern transports over mobility.

The paper keeps long-lived TCP sessions alive across network switches by
keeping the connection's addresses fixed (the mobile host's end is always
the home address) and letting ordinary retransmission recover whatever a
handoff loses.  "Ordinary retransmission" in 1996 meant Tahoe-style
timeout recovery; this experiment measures how much a modern transport
changes the picture on the same Figure-5 testbed.

The sweep is congestion control (``tahoe`` / ``reno`` / ``cubic``) ×
Gilbert-Elliott bursty loss on the department segment × a mid-stream
handoff from Ethernet to the Metricom radio.  Tahoe runs the seed's
legacy stack (no SACK, go-back-N); Reno and CUBIC run with SACK enabled
(``Config.tcp_sack``), exercising fast retransmit and scoreboard-driven
hole repair.  Reported per cell: application goodput, retransmissions
(total / fast / RTO expirations), the peak congestion window, and how
long after the handoff the first data arrived at the new attachment
(post-handoff recovery time).

Every cell is one :class:`~repro.parallel.Trial` whose simulator seed is
derived from the cell index, so reports are byte-identical at any
``--jobs`` value.  The trial builds its run directly: the config
selects the transport, a :class:`~repro.faults.FaultInjector` arms the
loss phase, and two scheduled calls perform the handoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.config import Config, DEFAULT_CONFIG
from repro.experiments.harness import format_table
from repro.faults import FaultInjector, FaultPlan, GilbertElliottPhase
from repro.net.tcp import TCPConnection
from repro.parallel import Trial
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.testbed import build_testbed
from repro.workloads.tcp_session import TcpBulkReceiver, TcpBulkSender

#: Sweep grid.
DEFAULT_CCS = ("tahoe", "reno", "cubic")
DEFAULT_LOSS_RATES = (0.0, 0.25)
DEFAULT_HANDOFFS = (False, True)

#: One 256-byte chunk every 20 ms: ~100 kbit/s offered load — light for
#: the Ethernet, beyond the radio's 34 kbit/s, so the handoff also flips
#: the session from application-limited to window-limited.
SEND_INTERVAL = ms(20)
CHUNK_BYTES = 256

#: The Gilbert-Elliott phase runs on the department segment (the name is
#: fixed by the testbed builder) while the session is at full tilt.
DEPT_LINK = "net-36.8"
LOSS_AT = s(3)
LOSS_DURATION = s(8)

#: Make-before-break handoff: radio registers first, the Ethernet card is
#: pulled shortly after (the paper's seamless-switch discipline).
HANDOFF_AT = s(10)
UNPLUG_AFTER = ms(300)

HORIZON = s(20)
DRAIN = s(4)
CWND_SAMPLE_INTERVAL = ms(100)


class CwndSampler:
    """Samples one connection's congestion window on a fixed cadence."""

    def __init__(self, conn: TCPConnection) -> None:
        self.conn = conn
        self.samples: List[int] = []
        conn.sim.post_later(CWND_SAMPLE_INTERVAL, self._tick,
                            label="cwnd-sample")

    def _tick(self) -> None:
        self.samples.append(self.conn.cwnd)
        if self.conn.sim.now + CWND_SAMPLE_INTERVAL <= HORIZON:
            self.conn.sim.post_later(CWND_SAMPLE_INTERVAL, self._tick,
                                     label="cwnd-sample")

    @property
    def cwnd_max(self) -> int:
        return max(self.samples) if self.samples else 0


@dataclass
class TcpCcPoint:
    """One sweep cell's outcome."""

    cc: str
    loss_rate: float
    handoff: bool
    chunks_sent: int
    goodput_kbps: float
    retransmits: int
    fast_retransmits: int
    rto_expirations: int
    cwnd_max: int
    recovery_ms: float  # -1 when the cell has no handoff


@dataclass
class TcpCcReport:
    points: List[TcpCcPoint] = field(default_factory=list)

    def format_report(self) -> str:
        """Render the sweep as a plain-text table."""
        rows = [(point.cc,
                 f"{point.loss_rate:g}",
                 "yes" if point.handoff else "no",
                 f"{point.goodput_kbps:.1f}",
                 point.retransmits,
                 point.fast_retransmits,
                 point.rto_expirations,
                 point.cwnd_max,
                 f"{point.recovery_ms:.0f}" if point.recovery_ms >= 0 else "-")
                for point in self.points]
        table = format_table(("cc", "loss rate", "handoff", "goodput kbps",
                              "retrans", "fast rtx", "rtos", "cwnd max",
                              "recovery ms"),
                             rows)
        return ("TCP congestion-control sweep: Tahoe (legacy) vs Reno vs "
                "CUBIC (+SACK)\nover bursty loss and an Ethernet-to-radio "
                "handoff\n" + table)


def run_tcp_cc_trial(cc: str, loss_rate: float, handoff: bool, seed: int,
                     config: Config = DEFAULT_CONFIG) -> dict:
    """One sweep cell as a pure trial: (params, seed) -> plain data."""
    # Tahoe is measured as the seed shipped it: no SACK.  The modern
    # stacks get the full treatment.
    config = config.with_overrides(tcp_congestion_control=cc,
                                   tcp_sack=(cc != "tahoe"))
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim, config, with_remote_correspondent=False)
    sim.trace.record_only()
    testbed.visit_dept()
    receiver = TcpBulkReceiver(testbed.mobile)
    sender = TcpBulkSender(testbed.correspondent, testbed.addresses.mh_home,
                           interval=SEND_INTERVAL, chunk_bytes=CHUNK_BYTES)
    sender.start()
    sampler = CwndSampler(sender.connection)
    sim.post_later(HORIZON, sender.stop, label="tcp-cc-stop")
    if loss_rate > 0.0:
        FaultInjector.for_testbed(testbed, FaultPlan.of(GilbertElliottPhase(
            at=LOSS_AT, link=DEPT_LINK, duration=LOSS_DURATION,
            p_good_bad=loss_rate, p_bad_good=0.3,
            loss_good=0.0, loss_bad=0.85))).arm()
    if handoff:
        sim.post_at(HANDOFF_AT, lambda: testbed.connect_radio(register=True),
                    label="handoff-radio-up")
        sim.post_at(HANDOFF_AT + UNPLUG_AFTER, testbed.unplug_ethernet,
                    label="handoff-unplug-eth")
    sim.run_for(HORIZON + DRAIN)

    goodput_kbps = receiver.bytes_total * 8 / (HORIZON / 1e9) / 1e3
    recovery_ms = -1.0
    if handoff:
        # Measured from the moment the old attachment disappears: data
        # arriving during the make-before-break overlap doesn't count.
        cutover = HANDOFF_AT + UNPLUG_AFTER
        first = receiver.first_arrival_after(cutover)
        if first is not None:
            recovery_ms = (first - cutover) / 1e6
    metrics = sim.metrics
    sender_host = testbed.correspondent.name
    retransmits = metrics.get("tcp", "retransmits", host=sender_host)
    rtos = metrics.get("tcp", "rto_expirations", host=sender_host)
    assert retransmits is not None and rtos is not None
    return {
        "cc": cc,
        "loss_rate": loss_rate,
        "handoff": handoff,
        "chunks_sent": sender.sent_chunks,
        "goodput_kbps": goodput_kbps,
        "retransmits": retransmits.value,
        "fast_retransmits": sender.connection.fast_retransmits,
        "rto_expirations": rtos.value,
        "cwnd_max": sampler.cwnd_max,
        "recovery_ms": recovery_ms,
    }


def build_tcp_cc_trials(ccs: Sequence[str], loss_rates: Sequence[float],
                        handoffs: Sequence[bool], seed: int,
                        config: Config) -> List[Trial]:
    """One trial per grid cell, seed = base + cell index."""
    trials = []
    index = 0
    for cc in ccs:
        for loss_rate in loss_rates:
            for handoff in handoffs:
                trials.append(Trial(
                    "repro.experiments.exp_tcp_cc:run_tcp_cc_trial",
                    dict(cc=cc, loss_rate=loss_rate, handoff=handoff,
                         seed=seed + index, config=config)))
                index += 1
    return trials


def merge_tcp_cc_trials(results: List[dict], **_) -> TcpCcReport:
    """Reassemble ordered grid results into the report."""
    report = TcpCcReport()
    for result in results:
        report.points.append(TcpCcPoint(**result))
    return report
