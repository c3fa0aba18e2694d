"""Whole-scenario determinism of the engine.

For the same seed, a full testbed scenario — build, traffic, a mid-run
handoff — must reproduce a byte-identical metrics snapshot and an
identical trace.  Anything less means event ordering depends on something
other than ``(time, seq)``, which would silently unfix every seed in the
repository.  The engine has one scheduler, its ``(time, seq)`` heap, so
"same seed, same scheduler" is simply "same seed".
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.testbed.topology import build_testbed
from repro.workloads.udp_echo import UdpEchoResponder, UdpEchoStream

SEEDS = range(5)


def run_scenario(seed: int, duration_ns: int) -> Simulator:
    """Figure-5 testbed, a 20 ms UDP echo stream from the mobile host to
    the department correspondent, and a handoff to the department net at
    2 s (so table updates run under load)."""
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim, DEFAULT_CONFIG, with_remote_correspondent=False,
                            with_dhcp=False)
    UdpEchoResponder(testbed.correspondent)
    stream = UdpEchoStream(testbed.mobile, testbed.addresses.ch_dept,
                           interval=ms(20))
    stream.start()
    sim.call_later(s(2), lambda: testbed.visit_dept(), label="handoff")
    sim.run(until=duration_ns)
    stream.stop()
    return sim


def observable_state(sim):
    snapshot = sim.metrics.snapshot()
    trace = [(r.time, r.category, r.event, sorted(r.fields.items()))
             for r in sim.trace]
    return snapshot, trace


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_scheduler_reproduces(seed):
    first = run_scenario(seed=seed, duration_ns=s(3))
    second = run_scenario(seed=seed, duration_ns=s(3))
    assert observable_state(first) == observable_state(second)
    assert first.events_run == second.events_run


def test_different_seeds_differ():
    """Sanity check that the reproduction above is not vacuous."""
    a = run_scenario(seed=0, duration_ns=s(3))
    b = run_scenario(seed=1, duration_ns=s(3))
    assert observable_state(a) != observable_state(b)
