"""Determinism properties of the plane chaos experiment (x8).

Two contracts: the report is byte-identical at any ``--jobs`` count, and
every host's retry randomness is *stream-isolated* — keyed by global
host index (splitmix64) or host name (named simulator streams), so a
fleet-wide failure never synchronizes a retry storm and growing the
fleet never shifts an existing host's schedule.
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.registration import RegistrationClient
from repro.experiments import run_experiment
from repro.net.addressing import ip
from repro.net.host import Host
from repro.parallel import spawn_seed
from repro.sim import Simulator
from repro.workloads.aggregate import _SplitMix

SMALL_FLEETS = (24,)
SMALL_SHARD = 12


@pytest.mark.parametrize("seed", [3, 71])
def test_x8_report_is_byte_identical_across_jobs(seed):
    serial = run_experiment("x8", jobs=1, seed=seed,
                            fleet_sizes=SMALL_FLEETS, shard_hosts=SMALL_SHARD)
    sharded = run_experiment("x8", jobs=2, seed=seed,
                             fleet_sizes=SMALL_FLEETS, shard_hosts=SMALL_SHARD)
    assert serial.format_report() == sharded.format_report()


def test_x8_seed_changes_the_report():
    first = run_experiment(
        "x8", seed=1, fleet_sizes=SMALL_FLEETS, shard_hosts=SMALL_SHARD)
    second = run_experiment(
        "x8", seed=2, fleet_sizes=SMALL_FLEETS, shard_hosts=SMALL_SHARD)
    assert first.format_report() != second.format_report()


def test_x8_audit_gate_holds_on_the_small_grid():
    report = run_experiment(
        "x8", seed=71, fleet_sizes=SMALL_FLEETS, shard_hosts=SMALL_SHARD)
    assert report.points, "grid must produce cells"
    for point in report.points:
        assert point.violations == 0
        assert point.accepted > 0
    chaos = [p for p in report.points if p.churn and p.partition]
    # Each shard runs its own plane and fires the full 4-event plan.
    assert chaos and all(p.faults_injected == 4 * p.shards for p in chaos)


# ----------------------------------------------------- stream isolation


def storm_schedule(base_seed, global_index, draws=8):
    """The per-host splitmix stream x8 derives retry jitter from."""
    stream = _SplitMix(spawn_seed(base_seed, global_index))
    return [stream.random() for _ in range(draws)]


def test_two_hosts_draw_from_distinct_storm_streams():
    # After the same HA crash, hosts 0 and 1 must not retry in lockstep.
    schedules = [storm_schedule(1234, g) for g in range(16)]
    for index, schedule in enumerate(schedules):
        for other in schedules[index + 1:]:
            assert schedule != other


def test_adding_a_host_never_shifts_anothers_schedule():
    # splitmix64 keyed by global index: host g's draws are a pure
    # function of (base, g), so growing the fleet is invisible to
    # existing hosts.  Regression for the storm-retry determinism x8's
    # byte-identity rides on.
    small = [storm_schedule(99, g) for g in range(8)]
    large = [storm_schedule(99, g) for g in range(64)]
    assert large[:8] == small


def test_registration_backoff_streams_are_isolated_per_host():
    # Same crash, two clients: their jittered retransmit delays come
    # from per-host named streams, not a shared one.
    def delays(host_names, probe):
        sim = Simulator(seed=5)
        config = DEFAULT_CONFIG.with_overrides(
            registration=DEFAULT_CONFIG.registration.__class__(
                **{**DEFAULT_CONFIG.registration.__dict__,
                   "backoff_jitter": 0.3}))
        clients = {
            name: RegistrationClient(Host(sim, name, config),
                                     ip("36.135.0.10"), ip("36.135.0.1"))
            for name in host_names}
        return [clients[probe]._retry_delay(n) for n in range(1, 6)]

    alone = delays(["mh0"], "mh0")
    with_neighbour = delays(["mh0", "mh1"], "mh0")
    neighbour = delays(["mh0", "mh1"], "mh1")
    assert alone == with_neighbour  # adding mh1 cannot shift mh0
    assert alone != neighbour       # and mh1 draws its own stream
