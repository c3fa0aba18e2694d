"""TCP chaos experiment (x9): the x5 grid over a *windowed* transport.

x5 established that the mobility plane survives a hostile half-minute —
measured with stateless UDP probes.  This experiment re-runs the same
fault grid (Gilbert-Elliott bursty loss x Ethernet interface flaps, plus
the fixed home-agent restart / DHCP outage / reply-drop schedule) with
the thing the paper actually cares about as the measurement instrument: a
long-lived TCP session under RFC 9293 flow control.

The transfer is receiver-limited by construction: the correspondent
offers ~100 kbit/s while the mobile host's application drains its
2 KiB receive buffer at half that, so the advertised window breathes
between full and closed for the whole run.  Every fault therefore lands
on a connection that is mid-stall or mid-window-update, exercising the
interactions the vertical-handover literature warns about (a zero-window
stall is indistinguishable from an outage until the persist probe gets
through).  Reported per cell: application goodput, total time the sender
sat in zero-window, persist probes sent, delayed ACKs on the receiver,
retransmission work, recovery latency after the home-agent restart, and
whether data was still flowing in the final five seconds.

Each cell is one :class:`~repro.parallel.Trial` (seed = base + cell
index), so reports are byte-identical at any ``--jobs`` value.  The cell
builds its run the way x5 does, with the ``tcp_*`` knobs on top of x5's
config; the fault schedule, the registration config and the
Ethernet + radio auto-switcher are imported from x5 so the two
experiments stay in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.config import Config, DEFAULT_CONFIG
from repro.experiments.exp_chaos import (
    DEFAULT_FLAP_PERIODS_MS as DEFAULT_FLAP_PERIODS_MS,  # x9's grid is x5's
    DEFAULT_LOSS_RATES as DEFAULT_LOSS_RATES,
    HORIZON,
    SURVIVAL_WINDOW,
    WARMUP,
    _build_plan,
    _chaos_config,
    _start_manager,
)
from repro.experiments.harness import format_table
from repro.faults import FaultInjector
from repro.parallel import Trial
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.testbed import build_testbed
from repro.workloads.tcp_session import TcpBulkSender, TcpDrainReceiver

#: Offered load: one 256-byte chunk every 20 ms (~100 kbit/s).
SEND_INTERVAL = ms(20)
CHUNK_BYTES = 256
#: Application drain: 320 bytes every 50 ms (~51 kbit/s) — half the
#: offered load, so the window is the binding constraint throughout.
DRAIN_BYTES = 320
DRAIN_INTERVAL = ms(50)
#: Receive buffer small enough that a closed window is routine.
RECV_BUFFER = 2048
#: The modern stack: Reno + SACK under the new flow-control knobs.
TRANSPORT_CC = "reno"
#: The home-agent restart lands at s(14) in the x5 schedule; recovery is
#: measured from there.
HA_RESTART_AT = s(14)
DRAIN_TAIL = s(3)


@dataclass
class TcpChaosPoint:
    """One grid cell's outcome."""

    loss_rate: float
    flap_period_ms: float
    goodput_kbps: float
    zero_window_ms: float
    persist_probes: int
    delayed_acks: int
    retransmits: int
    rto_expirations: int
    recovery_ms: float  # first delivery after the HA restart; -1 if none
    survived: bool


@dataclass
class TcpChaosReport:
    points: List[TcpChaosPoint] = field(default_factory=list)

    def format_report(self) -> str:
        """Render the grid as a plain-text table."""
        rows = [(f"{point.loss_rate:g}",
                 f"{point.flap_period_ms:g}",
                 f"{point.goodput_kbps:.1f}",
                 f"{point.zero_window_ms:.0f}",
                 point.persist_probes,
                 point.delayed_acks,
                 point.retransmits,
                 point.rto_expirations,
                 f"{point.recovery_ms:.0f}" if point.recovery_ms >= 0 else "-",
                 "yes" if point.survived else "NO")
                for point in self.points]
        table = format_table(("loss rate", "flap period ms", "goodput kbps",
                              "zero-window ms", "probes", "delayed acks",
                              "retrans", "rtos", "recovery ms", "survived"),
                             rows)
        return ("TCP chaos grid: the x5 fault schedule over a "
                "receiver-limited RFC 9293 session\n"
                "(flow control + delayed ACKs + Reno/SACK; drain at half "
                "the offered load)\n" + table)


def run_tcp_chaos_trial(loss_rate: float, flap_period_ns: int, seed: int,
                        config: Config = DEFAULT_CONFIG) -> dict:
    """One grid cell as a pure trial: (params, seed) -> plain data."""
    config = _chaos_config(config).with_overrides(
        tcp_flow_control=True,
        tcp_recv_buffer=RECV_BUFFER,
        tcp_delayed_ack=True,
        tcp_sack=True,
        tcp_congestion_control=TRANSPORT_CC)
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim, config,
                            with_remote_correspondent=False, with_dhcp=True)
    sim.trace.record_only()
    testbed.visit_dept()
    testbed.connect_radio(register=False)
    receiver: Optional[TcpDrainReceiver] = None
    sender: Optional[TcpBulkSender] = None

    def start_session() -> None:
        nonlocal receiver, sender
        _start_manager(testbed)
        receiver = TcpDrainReceiver(testbed.mobile, DRAIN_BYTES,
                                    DRAIN_INTERVAL)
        sender = TcpBulkSender(testbed.correspondent,
                               testbed.addresses.mh_home,
                               interval=SEND_INTERVAL,
                               chunk_bytes=CHUNK_BYTES)
        sender.start()
        sim.post_later(HORIZON - WARMUP, sender.stop, label="tcp-chaos-stop")

    sim.post_at(WARMUP, start_session, label="tcp-chaos-start")
    plan = _build_plan(loss_rate, flap_period_ns,
                       dept_link=testbed.dept_segment.name,
                       eth_interface=testbed.mh_eth.name)
    FaultInjector.for_testbed(testbed, plan).arm()
    sim.run_for(HORIZON + DRAIN_TAIL)

    assert receiver is not None and sender is not None
    sender_conn = sender.connection
    stream_time = HORIZON - WARMUP
    goodput_kbps = receiver.bytes_total * 8 / (stream_time / 1e9) / 1e3
    recovery_ms = -1.0
    first = receiver.first_arrival_after(HA_RESTART_AT)
    if first is not None:
        recovery_ms = (first - HA_RESTART_AT) / 1e6
    survived = receiver.received_after(HORIZON - SURVIVAL_WINDOW) > 0
    metrics = sim.metrics
    sender_host = testbed.correspondent.name
    retransmits = metrics.get("tcp", "retransmits", host=sender_host)
    rtos = metrics.get("tcp", "rto_expirations", host=sender_host)
    assert retransmits is not None and rtos is not None
    receiver_conn = receiver.connection
    return {
        "loss_rate": loss_rate,
        "flap_period_ms": flap_period_ns / 1e6,
        "goodput_kbps": goodput_kbps,
        "zero_window_ms": sender_conn.zero_window_ns / 1e6,
        "persist_probes": sender_conn.persist_probes,
        "delayed_acks": (receiver_conn.delayed_acks
                         if receiver_conn is not None else 0),
        "retransmits": retransmits.value,
        "rto_expirations": rtos.value,
        "recovery_ms": recovery_ms,
        "survived": survived,
    }


def build_tcp_chaos_trials(loss_rates: Sequence[float],
                           flap_periods_ms: Sequence[float],
                           seed: int, config: Config) -> List[Trial]:
    """One trial per grid cell, seed = base + cell index."""
    trials = []
    index = 0
    for loss_rate in loss_rates:
        for flap_period_ms in flap_periods_ms:
            trials.append(Trial(
                "repro.experiments.exp_tcp_chaos:run_tcp_chaos_trial",
                dict(loss_rate=loss_rate, flap_period_ns=ms(flap_period_ms),
                     seed=seed + index, config=config)))
            index += 1
    return trials


def merge_tcp_chaos_trials(results: List[dict], **_) -> TcpChaosReport:
    """Reassemble ordered grid results into the report."""
    report = TcpChaosReport()
    for result in results:
        report.points.append(TcpChaosPoint(**result))
    return report
