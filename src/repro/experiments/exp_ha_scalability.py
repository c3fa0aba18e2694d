"""Home-agent scalability: testing the paper's closing performance claim.

"The data shows that the software overhead in the registration process is
small, and the home agent should be able to deal with a large number of
mobile hosts simultaneously." (Section 4.)

This experiment makes that claim quantitative: N mobile hosts, all homed
on net 36.135 and all visiting net 36.8, fire their registrations at the
same instant.  The home agent serializes processing (one CPU), so the
question is how registration latency degrades with N — linearly in the
~1.5 ms per-request processing cost, which stays comfortably under a
typical binding lifetime even for hundreds of hosts.

Two experiments share the fleet machinery:

* ``x2`` — the original single-agent sweep (1–50 hosts, one simulation
  per fleet size).
* ``x4`` — the production-scale extension: fleets of
  100–1000 hosts **sharded across workers**, each shard a replica home
  agent serving ~100 hosts in its own simulation (the /24 home subnet
  bounds a single agent's address pool at ~150 hosts — sharding is how a
  real deployment would scale past it).  Per-shard latency ``Stats``
  merge via Welford partials into fleet-level numbers.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import Config, DEFAULT_CONFIG
from repro.core.mobile_host import MobileHost
from repro.core.registration import RegistrationOutcome
from repro.experiments.harness import format_table
from repro.net.interface import EthernetInterface, InterfaceState
from repro.parallel import Trial, balanced_shards, spawn_seed
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.stats import Stats, merge_stats, summarize_ms
from repro.testbed import build_testbed

DEFAULT_FLEET_SIZES = (1, 5, 10, 25, 50)
#: The production-scale sweep (run via experiment id ``x4``).
LARGE_FLEET_SIZES = (100, 250, 500, 1000)
#: Hosts per shard in the large sweep: keeps each replica agent's pool
#: well inside the /24 home subnet (indices 100..254) and the shards
#: balanced across a typical worker count.
SHARD_HOSTS = 100


@dataclass
class FleetResult:
    fleet_size: int
    accepted: int
    latency: Stats


@dataclass
class HAScalabilityReport:
    results: List[FleetResult] = field(default_factory=list)

    def format_report(self) -> str:
        """Render the latency-vs-fleet-size table."""
        rows = [(result.fleet_size, result.accepted,
                 result.latency.format_ms(),
                 f"{result.latency.maximum:.2f}")
                for result in self.results]
        table = format_table(("mobile hosts", "accepted",
                              "reg latency ms: mean (std)", "max ms"), rows)
        return ("Home-agent scalability: simultaneous registrations "
                "(Section 4's closing claim)\n" + table)


def _run_fleet(fleet_size: int, seed: int, config: Config) -> FleetResult:
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=False)
    addresses = testbed.addresses
    agent = testbed.home_agent

    fleet: List[MobileHost] = []
    for index in range(fleet_size):
        home = addresses.home_net.host(100 + index)
        mobile = MobileHost(sim, f"mh{index}", home_address=home,
                            home_subnet=addresses.home_net,
                            home_agent=agent.address, config=config)
        iface = EthernetInterface(sim, f"eth0.mh{index}",
                                  testbed.macs.allocate(), config)
        mobile.add_interface(iface)
        iface.attach(testbed.dept_segment)
        iface.state = InterfaceState.UP
        mobile.home_interface = iface
        agent.serve(home)
        care_of = addresses.dept_net.host(100 + index)
        mobile.start_visiting(iface, care_of, addresses.dept_net,
                              addresses.router_dept, register=False)
        fleet.append(mobile)

    outcomes: Dict[int, RegistrationOutcome] = {}

    def fire(index: int) -> None:
        fleet[index].register_current(
            on_registered=lambda outcome, index=index:
            outcomes.__setitem__(index, outcome))

    # Everyone registers at the same instant.
    for index in range(fleet_size):
        sim.post_at(ms(100), lambda index=index: fire(index))
    sim.run_for(s(30))

    latencies = [outcome.round_trip for outcome in outcomes.values()
                 if outcome.accepted]
    return FleetResult(fleet_size=fleet_size,
                       accepted=len(latencies),
                       latency=summarize_ms(latencies))


def run_fleet_trial(fleet_size: int, seed: int,
                    config: Config = DEFAULT_CONFIG) -> dict:
    """One fleet (or one shard of a larger fleet) as a pure trial.

    Returns the accepted count plus the latency summary as plain data —
    shards ship their partial ``Stats``, not raw samples, and the merge
    step combines them exactly (Welford partial merge).

    A fleet is one large cyclic object graph (hosts, their stacks and the
    simulator refer to each other), which only a full collection frees.
    A sweep runs fleet after fleet in one process, and the interpreter's
    own cadence (one full collection per ~70k container allocations)
    lets several dead fleets pile up, so each trial collects once its
    fleet has run.  See docs/PERFORMANCE.md for the cost.
    """
    result = _run_fleet(fleet_size, seed, config)
    gc.collect()
    return {"fleet_size": result.fleet_size,
            "accepted": result.accepted,
            "latency": {"count": result.latency.count,
                        "mean": result.latency.mean,
                        "std": result.latency.std,
                        "minimum": result.latency.minimum,
                        "maximum": result.latency.maximum}}


def build_ha_scalability_trials(fleet_sizes, seed: int,
                                config: Config) -> List[Trial]:
    """One trial per fleet size, seed = base + index."""
    return [Trial("repro.experiments.exp_ha_scalability:run_fleet_trial",
                  dict(fleet_size=fleet_size, seed=seed + index,
                       config=config))
            for index, fleet_size in enumerate(fleet_sizes)]


def merge_ha_scalability_trials(results: List[dict],
                                **_) -> HAScalabilityReport:
    """Reassemble per-fleet trial results into the report."""
    report = HAScalabilityReport()
    for result in results:
        report.results.append(FleetResult(
            fleet_size=result["fleet_size"],
            accepted=result["accepted"],
            latency=Stats(**result["latency"])))
    return report


# --------------------------------------------------------------- large fleets


@dataclass
class ShardedFleetResult:
    """One fleet size of the large sweep, merged across its shards."""

    fleet_size: int
    shards: int
    accepted: int
    latency: Stats


@dataclass
class HAFleetSweepReport:
    """Fleets of 100-1000 hosts, each sharded across replica agents."""

    results: List[ShardedFleetResult] = field(default_factory=list)

    def format_report(self) -> str:
        """Render the fleet-size vs latency table, with shard counts."""
        rows = [(result.fleet_size, result.shards, result.accepted,
                 result.latency.format_ms(),
                 f"{result.latency.maximum:.2f}")
                for result in self.results]
        table = format_table(
            ("mobile hosts", "HA shards", "accepted",
             "reg latency ms: mean (std)", "max ms"), rows)
        return ("Home-agent fleet sweep: 100-1000 hosts sharded across "
                f"replica agents ({SHARD_HOSTS} hosts/shard)\n" + table)


def build_ha_fleet_sweep_trials(fleet_sizes, seed: int,
                                config: Config) -> List[Trial]:
    """Shard every fleet into ~:data:`SHARD_HOSTS` chunks, one trial per
    shard.

    Shard seeds are ``spawn_seed(base, fleet_index, shard_index)`` —
    a pure function of position, so worker count never changes them.
    """
    trials: List[Trial] = []
    for fleet_index, fleet_size in enumerate(fleet_sizes):
        for shard_index, shard_size in enumerate(
                balanced_shards(fleet_size, SHARD_HOSTS)):
            trials.append(Trial(
                "repro.experiments.exp_ha_scalability:run_fleet_trial",
                dict(fleet_size=shard_size,
                     seed=spawn_seed(seed, fleet_index, shard_index),
                     config=config)))
    return trials


def merge_ha_fleet_sweep_trials(results: List[dict], fleet_sizes,
                                **_) -> HAFleetSweepReport:
    """Fold per-shard partial Stats into fleet-level results, in order."""
    report = HAFleetSweepReport()
    cursor = iter(results)
    for fleet_size in fleet_sizes:
        shard_sizes = balanced_shards(fleet_size, SHARD_HOSTS)
        shard_results = [next(cursor) for _ in shard_sizes]
        report.results.append(ShardedFleetResult(
            fleet_size=fleet_size,
            shards=len(shard_sizes),
            accepted=sum(result["accepted"] for result in shard_results),
            latency=merge_stats([Stats(**result["latency"])
                                 for result in shard_results])))
    return report
