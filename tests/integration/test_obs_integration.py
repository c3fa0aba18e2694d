"""End-to-end observability: a real mobility scenario must leave a
metrics trail — tunnel traffic, a registration latency histogram, and
engine dispatch counts — without disturbing the simulation itself."""

import re

from repro import Simulator, ms, s
from repro.experiments.exp_ha_scalability import run_fleet_trial
from repro.obs import capture_simulators
from repro.parallel import spawn_seed
from repro.testbed import build_testbed
from repro.workloads.udp_echo import UdpEchoResponder, UdpEchoStream


def _visit_dept_run(seed=5):
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim)
    testbed.visit_dept()
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent,
                           testbed.addresses.mh_home, interval=ms(100))
    stream.start()
    sim.run_for(s(5))
    return sim, testbed


def test_visit_dept_produces_tunnel_and_registration_metrics():
    sim, testbed = _visit_dept_run()
    snap = sim.metrics.snapshot()

    encap = sum(value for key, value in snap.items()
                if key.startswith("tunnel/encapsulated"))
    decap = sum(value for key, value in snap.items()
                if key.startswith("tunnel/decapsulated"))
    assert encap > 0, "home agent never encapsulated traffic for the visitor"
    assert decap > 0, "mobile host never decapsulated tunneled traffic"

    latency_counts = [value for key, value in snap.items()
                      if key.startswith("registration/latency_ms")
                      and key.endswith(":count")]
    assert latency_counts and sum(latency_counts) >= 1

    assert any(key.startswith("engine/dispatched") for key in snap)
    assert snap["engine/queue_depth_max"] > 0


def test_vif_tx_packets_counts_every_encapsulation():
    sim, testbed = _visit_dept_run()
    snap = sim.metrics.snapshot()
    vifs = [key[len("tunnel/encapsulated{iface="):-1] for key in snap
            if key.startswith("tunnel/encapsulated{iface=vif.")]
    assert sorted(vifs) == ["vif.ha.router", "vif.mh"]
    for vif in vifs:
        encapsulated = snap[f"tunnel/encapsulated{{iface={vif}}}"]
        assert encapsulated > 0
        assert snap[f"iface/tx_packets{{iface={vif}}}"] == encapsulated
    assert testbed.home_agent.vif.tx_packets == \
        testbed.home_agent.vif.packets_encapsulated


def test_metrics_reading_does_not_change_behavior():
    sim_a, _ = _visit_dept_run(seed=11)
    sim_b, _ = _visit_dept_run(seed=11)
    # Read registry A heavily mid-comparison; B untouched until the end.
    for _ in range(3):
        sim_a.metrics.snapshot()
    assert sim_a.metrics.snapshot() == sim_b.metrics.snapshot()
    assert len(sim_a.trace) == len(sim_b.trace)


def test_snapshot_values_are_plain_numbers():
    sim, _ = _visit_dept_run(seed=2)
    for key, value in sim.metrics.snapshot().items():
        assert isinstance(value, (int, float)), (key, value)


def _x4_shard_series(fleet_size):
    """(dispatch labels, instance names) of one x4 shard's registry.

    The instance names are every host, interface and link name the
    registry's other series are labelled with.
    """
    with capture_simulators() as sims:
        run_fleet_trial(fleet_size=fleet_size, seed=spawn_seed(97, 0, 0))
    (sim,) = sims
    labels, names = set(), set()
    for key in sim.metrics.snapshot():
        for name, value in re.findall(r"(\w+)=([^,}]+)", key):
            if name == "label" and key.startswith("engine/dispatched"):
                labels.add(value)
            elif name in ("host", "iface", "link"):
                names.add(value)
    return labels, names


def test_dispatch_labels_are_kinds_independent_of_fleet_size():
    """Engine dispatch series are bounded: the label is the kind of work,
    never the host, interface, link or address it ran for, so doubling
    the fleet adds no series."""
    labels_20, names_20 = _x4_shard_series(20)
    labels_40, names_40 = _x4_shard_series(40)
    assert labels_20 == labels_40
    assert len(names_40) > len(names_20) > 20
    for label in labels_40:
        assert not re.search(r"\d+\.\d+\.\d+\.\d+", label), label
        for name in names_40:
            assert not re.search(
                rf"(?<![\w.-]){re.escape(name)}(?![\w.-])", label), (
                    label, name)
