"""Properties of the RFC 9293 flow-control seam.

Three contracts:

1. Knobs-off is the status quo: spelling out every ``tcp_*`` flow knob
   at its default value is byte-identical to the default config for the
   pre-existing experiments, so the flow-control machinery is invisible
   until opted into.
2. The x9 sweep is ``--jobs``-invariant and run-to-run deterministic:
   every cell's randomness is addressed by its own seed, never by the
   worker that happened to execute it.
3. A receiver-limited transfer that stalls on a closed window recovers
   via persist probes even when a mobility handoff lands mid-stall —
   the scenario where a lost window-update ACK would otherwise deadlock
   the connection forever.
"""

from repro.config import DEFAULT_CONFIG
from repro.experiments import run_experiment
from repro.experiments.harness import as_plain_data
from repro.experiments.exp_tcp_chaos import (
    build_tcp_chaos_trials,
    run_tcp_chaos_trial,
)
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.testbed import build_testbed
from repro.workloads.tcp_session import TcpBulkSender, TcpDrainReceiver

#: Every flow-control knob spelled out at its default value.
FLOW_OFF_CONFIG = DEFAULT_CONFIG.with_overrides(
    tcp_flow_control=False, tcp_recv_buffer=4096, tcp_delayed_ack=False)
#: Reduced x9 grid: the clean cell and the fast-flap cell.
GRID = dict(loss_rates=(0.2,), flap_periods_ms=(0.0, 7000.0))


# --------------------------------------------------- default == knobs off
# Reduced parameters keep the suite fast; the config plumbing exercised
# (Config -> TCPConnection gating) is the same as the full
# experiments'.

def test_x1_smart_correspondent_default_is_flow_control_off():
    default = run_experiment("x1", seed=0, probes=5)
    explicit = run_experiment("x1", seed=0, probes=5, config=FLOW_OFF_CONFIG)
    assert as_plain_data(explicit) == as_plain_data(default)


def test_x5_chaos_default_is_flow_control_off():
    grid = dict(loss_rates=(0.2,), flap_periods_ms=(0,))
    default = run_experiment("x5", seed=0, **grid)
    explicit = run_experiment("x5", seed=0, config=FLOW_OFF_CONFIG, **grid)
    assert as_plain_data(explicit) == as_plain_data(default)


def test_x6_tcp_cc_default_is_flow_control_off():
    grid = dict(ccs=("reno",), loss_rates=(0.25,), handoffs=(True,))
    default = run_experiment("x6", seed=0, **grid)
    explicit = run_experiment("x6", seed=0, config=FLOW_OFF_CONFIG, **grid)
    assert as_plain_data(explicit) == as_plain_data(default)


# --------------------------------------------------------- x9 determinism

def test_tcp_chaos_report_is_jobs_invariant():
    serial = run_experiment("x9", jobs=1, seed=5, **GRID)
    parallel = run_experiment("x9", jobs=2, seed=5, **GRID)
    assert as_plain_data(parallel) == as_plain_data(serial)


def test_tcp_chaos_trial_is_run_to_run_deterministic():
    first = run_tcp_chaos_trial(0.2, flap_period_ns=ms(7000), seed=9)
    second = run_tcp_chaos_trial(0.2, flap_period_ns=ms(7000), seed=9)
    assert first == second


def test_windowed_x9_cell_stalls_probes_and_reruns_identically():
    """x9's (loss 0, flap 7 s) cell at full size: the receiver-limited
    sender must stall on the closed window, the interface flaps must force
    persist probes, data must still move, and a same-seed rerun must be
    field-identical (a lost window update must be survivable, not merely
    unlikely)."""
    first = run_tcp_chaos_trial(0.0, flap_period_ns=ms(7000), seed=132)
    assert first == run_tcp_chaos_trial(0.0, flap_period_ns=ms(7000),
                                        seed=132)
    assert first["goodput_kbps"] > 0
    assert first["zero_window_ms"] > 0
    assert first["persist_probes"] > 0


def test_tcp_chaos_trial_seeds_are_addressed_by_cell_index():
    trials = build_tcp_chaos_trials((0.0, 0.2), (0.0, 7000.0),
                                    seed=40, config=DEFAULT_CONFIG)
    assert [t.params["seed"] for t in trials] == [40, 41, 42, 43]


# ------------------------------------------- stall survives a handoff

def test_zero_window_stall_recovers_across_mid_transfer_handoff():
    """Fill the receive buffer, hand off mid-stall, then let the app
    drain: persist probing must carry the connection across the move and
    the backlog must arrive complete and in order afterwards."""
    config = DEFAULT_CONFIG.with_overrides(tcp_flow_control=True,
                                           tcp_recv_buffer=1024)
    sim = Simulator(seed=9)
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=True)
    testbed.visit_dept()
    # drain_bytes=0: the application reads nothing until told to.
    receiver = TcpDrainReceiver(testbed.mobile, drain_bytes=0,
                                drain_interval=s(100))
    sender = TcpBulkSender(testbed.correspondent, testbed.addresses.mh_home,
                           interval=ms(100), chunk_bytes=256)
    sender.start()
    conn = sender.connection
    sim.run_for(s(2))
    sender.stop()
    sim.run_for(s(1))
    stalled_at_handoff = conn._persist_event is not None
    testbed.connect_radio(register=True)
    sim.run_for(s(5))
    probes_during_stall = conn.persist_probes
    receiver_conn = receiver.connection
    receiver_conn.auto_consume = True
    receiver_conn.consume(receiver_conn.rcv_buffered)
    sim.run_for(s(12))

    # The window really was closed when the handoff hit...
    assert stalled_at_handoff
    # ...probes kept firing across the move (not silenced by it)...
    assert probes_during_stall > 0
    assert conn.persist_probes >= probes_during_stall
    assert conn.zero_window_ns > 0
    # ...and once the app drained, every queued chunk came through.
    assert not sender.reset
    assert len(receiver.received_chunks) == sender.sent_chunks
    assert receiver.in_order
