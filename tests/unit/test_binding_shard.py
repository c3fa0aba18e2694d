"""Unit tests for the consistent-hash home-agent plane."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.binding_shard import (
    BindingShardPlane,
    DEFAULT_VNODES,
    HashRing,
    stable_hash64,
)
from repro.experiments.exp_plane_chaos import _build_shard, plane_chaos_config
from repro.faults import FaultInjector, FaultPlan, HomeAgentRestart
from repro.net.addressing import ip
from repro.sim import ms, s

HOME = ip("36.135.0.10")


def names(count):
    return [f"ha{index}" for index in range(count)]


class TestStableHash:
    def test_is_64_bit(self):
        value = stable_hash64("mosquito")
        assert 0 <= value < (1 << 64)

    def test_distinct_keys_distinct_hashes(self):
        values = {stable_hash64(f"key{i}") for i in range(1000)}
        assert len(values) == 1000

    def test_survives_hash_randomization(self):
        # Python's builtin hash() varies with PYTHONHASHSEED; the ring's
        # hash must not, or workers would disagree on placements.
        script = (
            "from repro.core.binding_shard import HashRing, stable_hash64\n"
            "ring = HashRing(['ha%d' % i for i in range(8)])\n"
            "print(stable_hash64('mosquito'))\n"
            "print(','.join(ring.lookup('host%d' % i) for i in range(64)))\n")
        src_dir = str(Path(repro.__file__).resolve().parents[1])

        def run(hash_seed):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src_dir)
            return subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)

        outputs = {run(seed).stdout for seed in ("0", "1", "12345")}
        assert len(outputs) == 1


class TestHashRing:
    def test_placements_ignore_insertion_order(self):
        forward = HashRing(names(8))
        backward = HashRing(reversed(names(8)))
        for index in range(500):
            key = f"host{index}"
            assert forward.lookup(key) == backward.lookup(key)

    def test_balance_within_20_percent_at_default_vnodes(self):
        # Ownership shares are the expected fraction of uniformly hashed
        # keys; with 64 virtual nodes each replica stays within +-20% of
        # its fair share for the plane sizes x7 uses.
        assert DEFAULT_VNODES == 64
        for count in (5, 8, 10):
            ring = HashRing(names(count))
            fair = 1.0 / count
            for name, share in ring.ownership().items():
                assert abs(share / fair - 1.0) <= 0.20, (count, name, share)

    def test_add_moves_keys_only_to_the_new_node(self):
        ring = HashRing(names(8))
        keys = [f"host{index}" for index in range(2000)]
        before = {key: ring.lookup(key) for key in keys}
        ring.add("ha8")
        moved = 0
        for key in keys:
            after = ring.lookup(key)
            if after != before[key]:
                assert after == "ha8"  # keys only ever move to the joiner
                moved += 1
        # The joiner takes roughly 1/9 of the keys, never a reshuffle.
        assert 0 < moved < len(keys) / 4

    def test_remove_moves_only_the_removed_nodes_keys(self):
        ring = HashRing(names(8))
        keys = [f"host{index}" for index in range(2000)]
        before = {key: ring.lookup(key) for key in keys}
        ring.remove("ha3")
        for key in keys:
            if before[key] != "ha3":
                assert ring.lookup(key) == before[key]
            else:
                assert ring.lookup(key) != "ha3"

    def test_replicas_are_distinct_and_led_by_the_primary(self):
        ring = HashRing(names(6))
        for index in range(200):
            key = f"host{index}"
            replicas = ring.replicas(key, 3)
            assert len(replicas) == len(set(replicas)) == 3
            assert replicas[0] == ring.lookup(key)

    def test_replicas_cap_at_membership(self):
        ring = HashRing(names(2))
        assert sorted(ring.replicas("host0", 5)) == ["ha0", "ha1"]

    def test_lookup_avoid_walks_to_a_live_replica(self):
        ring = HashRing(names(4))
        downs = {"ha0", "ha2"}
        for index in range(200):
            owner = ring.lookup(f"host{index}", avoid=downs.__contains__)
            assert owner not in downs

    def test_ownership_sums_to_one(self):
        ring = HashRing(names(7))
        assert sum(ring.ownership().values()) == pytest.approx(1.0)

    def test_effective_ownership_fails_over_arcs(self):
        ring = HashRing(names(4))
        healthy = ring.ownership()
        degraded = ring.effective_ownership(frozenset({"ha1"}))
        assert degraded["ha1"] == 0.0
        assert sum(degraded.values()) == pytest.approx(1.0)
        # The lost share lands on live replicas, never vanishes.
        for name in ("ha0", "ha2", "ha3"):
            assert degraded[name] >= healthy[name]

    def test_empty_ring_and_bad_membership_raise(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.lookup("host0")
        with pytest.raises(LookupError):
            ring.replicas("host0", 1)
        ring.add("ha0")
        with pytest.raises(ValueError, match="already contains"):
            ring.add("ha0")
        with pytest.raises(ValueError, match="does not contain"):
            ring.remove("ha9")
        with pytest.raises(LookupError, match="avoided"):
            ring.lookup("host0", avoid=lambda name: True)


def build_plane(sim):
    """x8's shard with no hosts: replicas ha0-ha3 plus the spare ha4."""
    plane, _, _ = _build_shard(sim, plane_chaos_config(), 0, 0)
    return plane


class TestBindingShardPlane:
    def test_serve_provisions_every_replica(self, sim):
        plane = build_plane(sim)
        owners = plane.serve(HOME)
        assert owners == plane.owners(HOME)
        assert len(owners) == 2
        for name in owners:
            assert plane.agents[name].serves(HOME)

    def test_agent_for_prefers_the_primary(self, sim):
        plane = build_plane(sim)
        primary = plane.owners(HOME)[0]
        assert plane.agent_for(HOME) is plane.agents[primary]
        assert plane.takeovers == 0

    def test_crash_fails_over_to_the_next_replica(self, sim):
        plane = build_plane(sim)
        primary, secondary = plane.owners(HOME)
        plane.crash(primary, down_for=s(1))
        assert plane.is_down(primary)
        assert plane.down_agents() == [primary]
        assert plane.agent_for(HOME) is plane.agents[secondary]
        assert plane.takeovers == 1
        sim.run_for(s(2))
        assert not plane.is_down(primary)
        assert plane.agent_for(HOME) is plane.agents[primary]

    def test_all_replicas_down_walks_the_whole_ring(self, sim):
        plane = build_plane(sim)
        owners = plane.owners(HOME)
        for name in owners:
            plane.crash(name, down_for=s(1))
        survivor = plane.agent_for(HOME)
        assert survivor is not None
        assert not survivor.is_down
        for name in plane.agents:
            plane.crash(name, down_for=s(1))
        assert plane.agent_for(HOME) is None

    def test_serve_gauge_counts_distinct_addresses_once(self, sim):
        plane = build_plane(sim)
        plane.serve(HOME)
        plane.serve(HOME)  # idempotent: re-serving must not double-count
        name = plane.owners(HOME)[0]
        gauge = sim.metrics.gauge("binding_shard", "served", agent=name)
        assert gauge.value == 1

    def test_crash_of_unknown_agent_raises(self, sim):
        plane = build_plane(sim)
        with pytest.raises(ValueError, match="no agent"):
            plane.crash("ha99", down_for=s(1))

    def test_constructor_rejects_bad_arguments(self, sim):
        with pytest.raises(ValueError, match="at least one agent"):
            BindingShardPlane(sim, {}, spares={})


class TestPlaneFaults:
    def test_targeted_restart_crashes_the_named_replica(self, sim):
        plane = build_plane(sim)
        plan = FaultPlan.of(
            HomeAgentRestart(at=s(1), down_for=ms(500), agent="ha1"))
        injector = FaultInjector.for_plane(plane, plan)
        injector.arm()
        sim.run_for(ms(1200))  # t=1.2s: mid-outage
        assert plane.is_down("ha1")
        assert plane.down_agents() == ["ha1"]
        sim.run_for(s(1))
        assert not plane.is_down("ha1")
        assert injector.injected == {"home_agent_restart": 1}
        assert plane.agents["ha1"].restarts == 1

    def test_unknown_agent_in_plan_fails_arming(self, sim):
        plane = build_plane(sim)
        plan = FaultPlan.of(
            HomeAgentRestart(at=s(1), down_for=ms(500), agent="ha99"))
        injector = FaultInjector.for_plane(plane, plan)
        with pytest.raises(ValueError, match="unknown agent"):
            injector.arm()

    def test_agentless_restart_still_drives_a_single_home_agent(self, testbed):
        # The PR-4 path: no agent name, the injector's home_agent crashes.
        plan = FaultPlan.of(HomeAgentRestart(at=s(1), down_for=ms(500)))
        injector = FaultInjector.for_testbed(testbed, plan)
        injector.arm()
        testbed.sim.run_for(ms(1200))
        assert testbed.home_agent.is_down

    def test_plane_wraps_a_real_home_agent_service(self, testbed):
        plane = BindingShardPlane(testbed.sim, {"ha": testbed.home_agent},
                                  spares={})
        plane.serve(HOME)
        assert testbed.home_agent.serves(HOME)
        plane.crash("ha", down_for=ms(800))
        assert plane.agent_for(HOME) is None  # sole replica is down
        testbed.sim.run_for(s(2))
        assert plane.agent_for(HOME) is testbed.home_agent
