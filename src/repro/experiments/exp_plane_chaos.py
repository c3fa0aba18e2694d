"""Plane chaos (x8): membership churn and partitions under real load.

x7 scaled the binding plane statistically; this experiment goes back to
*real* traffic and attacks the plane itself.  Each shard simulates up to
:data:`SHARD_HOSTS` mobile hosts — every one a live
:class:`~repro.core.registration.RegistrationClient` on its own
point-to-point access link — registering against a
:class:`~repro.core.binding_shard.BindingShardPlane` of home-agent
replicas while a fault plan throws the binding plane's worst days at it:

* a **crash-join** (:class:`~repro.faults.plan.ReplicaJoin`): a spare
  replica enters the ring empty and wins its arcs back through ordinary
  renewals;
* a **graceful drain** (:class:`~repro.faults.plan.ReplicaDrain`): a
  replica re-serves and hands its live bindings over before leaving;
* a **partition** (:class:`~repro.faults.plan.PlanePartition`): a replica
  becomes unreachable *without losing state*, so its stale bindings must
  be reconciled at heal time;
* a **crash** (:class:`~repro.faults.plan.HomeAgentRestart`): the PR-4
  state-loss restart, in every cell.

Every cell runs under a :class:`~repro.faults.auditor.PlaneAuditor`
subscribed to the simulator trace; the trial *raises*
:class:`~repro.faults.auditor.AuditViolation` if any consistency
invariant (double ownership, bounded convergence, takeover accounting)
fails — the report's ``audit`` column is a gate, not a vibe.

Cross-validation: the measured mean registration latency sits next to
the M/D/1 prediction from PR 7's aggregate model
(:func:`~repro.workloads.aggregate.predicted_latency_ms`), and the
report footer feeds the measured totals back through
:func:`~repro.workloads.aggregate.calibrated_fleet_timings` — the loop
between event-level truth and the 10^6-host statistical model.

Sharding: fleets split into :data:`SHARD_HOSTS`-host shards, one
:class:`~repro.parallel.Trial` each, seeds ``spawn_seed(base, row,
shard)``; host addresses, RNG streams and retry jitter are keyed by
*global* host index, so ``--jobs N`` reports are byte-identical to
serial at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.config import Config, DEFAULT_CONFIG, LinkTimings
from repro.core.binding_shard import BindingShardPlane, HashRing
from repro.core.home_agent import HomeAgentService
from repro.core.registration import RegistrationClient, RegistrationOutcome
from repro.experiments.harness import format_table
from repro.faults import (
    FaultInjector,
    FaultPlan,
    HomeAgentRestart,
    PlaneAuditor,
    PlanePartition,
    ReplicaDrain,
    ReplicaJoin,
)
from repro.net.addressing import (
    IPAddress,
    MACAllocator,
    Subnet,
    ip,
    subnet,
)
from repro.net.host import Host
from repro.net.interface import EthernetInterface, PointToPointInterface
from repro.net.link import EthernetSegment, PointToPointLink
from repro.net.router import Router
from repro.parallel import Trial, balanced_shards, spawn_seed
from repro.sim.engine import Simulator
from repro.sim.units import MBPS, ms, s, us
from repro.stats import LatencyHistogram, Stats, Welford, merge_stats
from repro.workloads.aggregate import (
    _SplitMix,
    calibrated_fleet_timings,
    predicted_latency_ms,
)

#: The default grid: fleet size x membership churn x partition.
DEFAULT_FLEET_SIZES = (2_500, 10_000)
#: Mobile hosts per shard simulation (each shard runs its own plane).
SHARD_HOSTS = 1_250
#: Base replicas of each shard's plane, plus one standby for the join.
BASE_AGENTS = ("ha0", "ha1", "ha2", "ha3")
SPARE_AGENT = "ha4"

#: The home subnet: a /16 so 10^4 global host indices fit one prefix.
HOME_NET = subnet("36.135.0.0/16")
ROUTER_HOME = ip("36.135.0.1")
#: First host index of the mobile block (replica hosts sit below it).
HOME_HOST_BASE = 256
#: Per-host /30 access subnets are carved from this block.
ACCESS_BASE = ip("36.192.0.0")
#: Per-host access link: Ethernet-class so the wire share of the round
#: trip matches the Figure 7 calibration the M/D/1 model predicts.
ACCESS_LINK = LinkTimings(latency=us(150), bandwidth_bps=10 * MBPS)

#: Binding lifetime / renewal cadence for the chaos runs: short enough
#: that every fault is healed by renewals well inside the horizon.
LIFETIME = s(6)
RENEWAL_FRACTION = 0.5
#: Registrations start staggered across the first renewal period ...
REG_START = ms(200)
#: ... and stop issuing here so the tail drains before the run ends.
REG_STOP = s(24)
RUN_FOR = s(28)

#: The fault schedule (same wall positions in every cell).
JOIN_AT = s(6)
PARTITION_AT = s(10)
PARTITION_FOR = s(4)
PARTITIONED = ("ha1",)
DRAIN_AT = s(15)
CRASH_AT = s(17)
CRASH_FOR = s(3)
CRASH_AGENT = "ha2"

#: Data-plane lookup sampling (exercises the bounded-staleness mode).
SAMPLE_START = s(5)
SAMPLE_STOP = s(22)
SAMPLE_INTERVAL = ms(500)
SAMPLE_ADDRESSES = 32


def plane_chaos_config(config: Config = DEFAULT_CONFIG) -> Config:
    """The x8 timing profile layered over *config*.

    Short lifetimes and a tightened retransmit schedule keep recovery
    well inside :data:`~repro.faults.auditor.CONVERGENCE_DEADLINE` (a
    host that loses a request mid-partition must give up, back off and
    re-resolve before the auditor's deadline expires); the fleet timing
    calibrates the M/D/1 model's arrival interval to the actual renewal
    cadence.
    """
    return config.with_overrides(
        registration=replace(config.registration,
                             default_lifetime=LIFETIME,
                             renewal_fraction=RENEWAL_FRACTION,
                             retransmit_interval=ms(500),
                             max_transmissions=3,
                             backoff_cap=ms(2000),
                             backoff_jitter=0.25),
        fleet=replace(config.fleet,
                      mean_registration_interval=int(
                          LIFETIME * RENEWAL_FRACTION)),
    )


def home_address_of(global_index: int) -> IPAddress:
    """The home address of global host *global_index* (shared scheme)."""
    return HOME_NET.host(HOME_HOST_BASE + global_index)


def access_subnet_of(global_index: int) -> Subnet:
    """The per-host /30 access subnet of global host *global_index*."""
    return Subnet(IPAddress(ACCESS_BASE.value + 4 * global_index), 30)


def build_plan(churn: bool, partition: bool) -> FaultPlan:
    """One cell's deterministic fault schedule."""
    events: list = [HomeAgentRestart(at=CRASH_AT, down_for=CRASH_FOR,
                                     agent=CRASH_AGENT)]
    if churn:
        events.append(ReplicaJoin(at=JOIN_AT, agent=SPARE_AGENT))
        events.append(ReplicaDrain(at=DRAIN_AT, agent="ha0"))
    if partition:
        events.append(PlanePartition(at=PARTITION_AT, duration=PARTITION_FOR,
                                     agents=PARTITIONED))
    return FaultPlan.of(*events)


class _Registrant:
    """One mobile host's registration driver against the plane.

    Follows the plane's directory: every renewal re-resolves
    :meth:`~repro.core.binding_shard.BindingShardPlane.agent_for` and
    addresses that replica explicitly (the ``home_agent=`` override), so
    membership changes migrate bindings through ordinary renewals.  A
    request that exhausts its retransmissions (it was pinned to a
    replica that crashed or partitioned mid-exchange) backs off by a
    per-host jittered delay — drawn from a splitmix64 stream keyed by
    *global* host index, so one replica's failure never synchronizes a
    fleet-wide retry storm and adding a host never shifts another's
    schedule.
    """

    __slots__ = ("sim", "plane", "client", "home", "care_of", "rng",
                 "renewal", "storm_base", "storm_jitter", "last_agent",
                 "stats")

    def __init__(self, sim: Simulator, plane: BindingShardPlane,
                 client: RegistrationClient, home: IPAddress,
                 care_of: IPAddress, global_index: int, jitter_seed: int,
                 stats: Dict[str, object]) -> None:
        self.sim = sim
        self.plane = plane
        self.client = client
        self.home = home
        self.care_of = care_of
        self.rng = _SplitMix(spawn_seed(jitter_seed, global_index))
        config = client.config
        self.renewal = int(config.registration.default_lifetime
                           * config.registration.renewal_fraction)
        self.storm_base = config.fleet.reregister_delay
        self.storm_jitter = config.fleet.reregister_jitter
        self.last_agent: Optional[str] = None
        self.stats = stats

    def start(self) -> None:
        """Schedule the first registration, staggered within one period."""
        delay = REG_START + int(self.renewal * self.rng.random())
        self.sim.post_later(delay, self.attempt, label="x8-first-reg")

    def attempt(self) -> None:
        if self.sim.now >= REG_STOP:
            return
        agent = self.plane.agent_for(self.home)
        if agent is None:  # the whole plane is unreachable: back off
            self._storm_retry()
            return
        self.client.register(self.care_of,
                             on_done=lambda outcome, name=agent.host.name:
                             self._done(outcome, name),
                             on_fail=self._storm_retry,
                             lifetime=LIFETIME,
                             home_agent=agent.address)

    def _done(self, outcome: RegistrationOutcome, agent_name: str) -> None:
        if not outcome.accepted:
            self._storm_retry()
            return
        self.stats["accepted"] += 1  # type: ignore[operator]
        if self.last_agent is not None and agent_name != self.last_agent:
            self.stats["handoffs"] += 1  # type: ignore[operator]
        self.last_agent = agent_name
        latency_ms = outcome.round_trip / 1e6
        self.stats["latency"].add(latency_ms)  # type: ignore[union-attr]
        self.stats["latency_hist"].add(latency_ms)  # type: ignore[union-attr]
        self.sim.post_later(self.renewal, self.attempt, label="x8-renew")

    def _storm_retry(self) -> None:
        if self.sim.now >= REG_STOP:
            return
        self.stats["storm_retries"] += 1  # type: ignore[operator]
        span = self.storm_jitter * (2.0 * self.rng.random() - 1.0)
        delay = max(1, int(self.storm_base * (1.0 + span)))
        self.sim.post_later(delay, self.attempt, label="x8-storm-retry")


def _build_shard(sim: Simulator, config: Config, n_hosts: int,
                 host_offset: int):
    """One shard's topology: router hub, HA plane, per-host access links.

    Every mobile host hangs off its own /30 point-to-point link (a
    shared Ethernet segment delivers each frame to every port — O(N)
    per packet — so a star of cheap p2p links is what keeps 10^3 hosts
    per shard tractable); the replicas and the spare share the home
    Ethernet segment the intercept machinery needs.
    """
    macs = MACAllocator()
    home_segment = EthernetSegment(sim, "net-36.135", config.ethernet)

    router = Router(sim, "router", config)
    r_home = EthernetInterface(sim, "eth0.router", macs.allocate(), config)
    router.add_interface(r_home)
    r_home.attach(home_segment)
    router.configure_interface(r_home, ROUTER_HOME, HOME_NET)

    agents: Dict[str, HomeAgentService] = {}
    for index, name in enumerate((*BASE_AGENTS, SPARE_AGENT)):
        ha_host = Host(sim, name, config, timings=config.server_host)
        ha_iface = EthernetInterface(sim, f"eth0.{name}", macs.allocate(),
                                     config)
        ha_host.add_interface(ha_iface)
        ha_iface.attach(home_segment)
        ha_host.configure_interface(ha_iface, HOME_NET.host(10 + index),
                                    HOME_NET)
        ha_host.add_default_route(ROUTER_HOME, ha_iface)
        agents[name] = HomeAgentService(ha_host, ha_iface)

    plane = BindingShardPlane(
        sim, {name: agents[name] for name in BASE_AGENTS},
        spares={SPARE_AGENT: agents[SPARE_AGENT]})

    registrants: List[_Registrant] = []
    stats: Dict[str, object] = {
        "accepted": 0, "handoffs": 0, "storm_retries": 0,
        "latency": Welford(), "latency_hist": LatencyHistogram(),
    }
    jitter_seed = sim.rng("x8:storm-jitter").getrandbits(63)
    for local_index in range(n_hosts):
        global_index = host_offset + local_index
        home = home_address_of(global_index)
        access = access_subnet_of(global_index)
        link = PointToPointLink(sim, f"p2p-{global_index}", ACCESS_LINK)

        r_iface = PointToPointInterface(sim, f"p2p{global_index}.router",
                                        config)
        router.add_interface(r_iface)
        r_iface.attach(link)
        router.configure_interface(r_iface, access.host(1), access)

        mobile = Host(sim, f"mh{global_index}", config,
                      timings=config.mobile_host)
        m_iface = PointToPointInterface(sim, f"p2p0.mh{global_index}", config)
        mobile.add_interface(m_iface)
        m_iface.attach(link)
        care_of = access.host(2)
        mobile.configure_interface(m_iface, care_of, access)
        mobile.add_default_route(access.host(1), m_iface)
        plane.serve(home)

        client = RegistrationClient(mobile, home,
                                    home_agent=agents[BASE_AGENTS[0]].address)
        registrants.append(_Registrant(sim, plane, client, home, care_of,
                                       global_index, jitter_seed, stats))
    return plane, registrants, stats


def _sample_lookups(sim: Simulator, plane: BindingShardPlane,
                    host_offset: int, n_hosts: int,
                    tallies: Dict[str, int]) -> None:
    """Periodic data-plane lookups over a fixed slice of addresses.

    This is the consumer of the bounded-staleness mode: while a
    binding's replicas are unreachable the plane may answer from its
    replicated (possibly stale) copy, and the tallies make the degraded
    mode's hit rate a reported number.
    """
    def sample() -> None:
        for index in range(host_offset,
                           host_offset + min(n_hosts, SAMPLE_ADDRESSES)):
            answer = plane.lookup_binding(home_address_of(index))
            if answer is None:
                tallies["lookup_misses"] += 1
            elif answer[1] == "stale":
                tallies["lookup_stale"] += 1
            else:
                tallies["lookup_authoritative"] += 1
        if sim.now + SAMPLE_INTERVAL <= SAMPLE_STOP:
            sim.post_later(SAMPLE_INTERVAL, sample, label="x8-sample")

    sim.post_at(SAMPLE_START, sample, label="x8-sample")


def run_plane_chaos_trial(fleet_size: int, n_hosts: int, host_offset: int,
                          churn: bool, partition: bool, seed: int,
                          config: Config = DEFAULT_CONFIG) -> dict:
    """One shard of one grid cell as a pure trial: (params, seed) -> data.

    Raises :class:`~repro.faults.auditor.AuditViolation` if the plane
    breaks any audited invariant during the run — a chaos cell cannot
    "pass" on throughput while quietly double-owning a home address.
    """
    trial_config = plane_chaos_config(config)
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    plane, registrants, stats = _build_shard(sim, trial_config, n_hosts,
                                             host_offset)

    auditor = PlaneAuditor(plane)
    auditor.attach()

    injector = FaultInjector.for_plane(plane, build_plan(churn, partition))
    injector.arm()

    tallies = {"lookup_authoritative": 0, "lookup_stale": 0,
               "lookup_misses": 0}
    _sample_lookups(sim, plane, host_offset, n_hosts, tallies)

    for registrant in registrants:
        registrant.start()
    sim.run_for(RUN_FOR)

    violations = auditor.finish(raise_on_violation=True)
    attempts = sum(registrant.client.registrations_sent
                   for registrant in registrants)
    latency: Welford = stats["latency"]  # type: ignore[assignment]
    return {
        "fleet_size": fleet_size,
        "n_hosts": n_hosts,
        "churn": churn,
        "partition": partition,
        "attempts": attempts,
        "accepted": stats["accepted"],
        "handoffs": stats["handoffs"],
        "storm_retries": stats["storm_retries"],
        "takeovers": plane.takeovers,
        "stale_served": plane.stale_served,
        "faults_injected": injector.total_injected(),
        "violations": len(violations),
        "latency": latency.finalize().__dict__,
        "latency_hist": stats["latency_hist"].to_counts(),  # type: ignore
        **tallies,
    }


@dataclass
class PlaneChaosPoint:
    """One grid cell, merged across its shards."""

    fleet_size: int
    churn: bool
    partition: bool
    shards: int
    attempts: int
    accepted: int
    handoffs: int
    storm_retries: int
    takeovers: int
    stale_served: int
    faults_injected: int
    violations: int
    latency: Stats
    p99_ms: float
    model_ms: float
    lookup_authoritative: int
    lookup_stale: int
    lookup_misses: int


@dataclass
class PlaneChaosReport:
    points: List[PlaneChaosPoint] = field(default_factory=list)
    calibrated_interval_s: float = 0.0
    calibrated_churn: float = 0.0

    def format_report(self) -> str:
        """Render the audited chaos grid plus the calibration footer."""
        rows = []
        for point in self.points:
            rows.append((f"{point.fleet_size:,}",
                         "on" if point.churn else "off",
                         "on" if point.partition else "off",
                         point.shards,
                         f"{point.accepted:,}",
                         point.takeovers,
                         point.stale_served,
                         point.storm_retries,
                         point.latency.format_ms(),
                         f"{point.p99_ms:.2f}",
                         f"{point.model_ms:.2f}",
                         "ok" if point.violations == 0
                         else f"{point.violations} VIOLATIONS"))
        table = format_table(
            ("fleet hosts", "churn", "partition", "shards", "registrations",
             "takeovers", "stale served", "storms",
             "reg latency ms: mean (std)", "p99 ms", "model ms", "audit"),
            rows)
        footer = (f"calibrated aggregate fleet (from the fullest cell): "
                  f"mean registration interval "
                  f"{self.calibrated_interval_s:.2f} s, "
                  f"churn p={self.calibrated_churn:.3f}")
        return ("Plane chaos: membership churn, partitions and crashes "
                "under live registration load (audited)\n" + table + "\n"
                + footer)


def _grid(fleet_sizes: Sequence[int]) -> List[tuple]:
    """(fleet, churn, partition) cells in report order."""
    return [(fleet_size, churn, partition)
            for fleet_size in fleet_sizes
            for churn in (False, True)
            for partition in (False, True)]


def build_plane_chaos_trials(fleet_sizes: Sequence[int], seed: int,
                             shard_hosts: int) -> List[Trial]:
    """Every cell's balanced shard trials, seeds by (row, shard)."""
    trials: List[Trial] = []
    for row_index, (fleet_size, churn, partition) in enumerate(
            _grid(fleet_sizes)):
        offset = 0
        for shard_index, shard_size in enumerate(
                balanced_shards(fleet_size, shard_hosts)):
            trials.append(Trial(
                "repro.experiments.exp_plane_chaos:run_plane_chaos_trial",
                dict(fleet_size=fleet_size, n_hosts=shard_size,
                     host_offset=offset, churn=churn, partition=partition,
                     seed=spawn_seed(seed, row_index, shard_index),
                     config=DEFAULT_CONFIG)))
            offset += shard_size
    return trials


def merge_plane_chaos_trials(results: List[dict],
                             fleet_sizes: Sequence[int],
                             shard_hosts: int) -> PlaneChaosReport:
    """Fold ordered shard results into grid cells, losslessly."""
    trial_config = plane_chaos_config()
    report = PlaneChaosReport()
    cursor = iter(results)
    for fleet_size, churn, partition in _grid(fleet_sizes):
        shard_sizes = balanced_shards(fleet_size, shard_hosts)
        shard_results = [next(cursor) for _ in shard_sizes]
        histogram = LatencyHistogram()
        for result in shard_results:
            histogram.merge(LatencyHistogram.from_counts(
                result["latency_hist"]))
        # Each shard runs its own plane, so the M/D/1 prediction is per
        # plane: the shard's host count against the base replica ring.
        ring = HashRing(BASE_AGENTS)
        report.points.append(PlaneChaosPoint(
            fleet_size=fleet_size,
            churn=churn,
            partition=partition,
            shards=len(shard_sizes),
            attempts=sum(r["attempts"] for r in shard_results),
            accepted=sum(r["accepted"] for r in shard_results),
            handoffs=sum(r["handoffs"] for r in shard_results),
            storm_retries=sum(r["storm_retries"] for r in shard_results),
            takeovers=sum(r["takeovers"] for r in shard_results),
            stale_served=sum(r["stale_served"] for r in shard_results),
            faults_injected=sum(r["faults_injected"]
                                for r in shard_results),
            violations=sum(r["violations"] for r in shard_results),
            latency=merge_stats([Stats(**r["latency"])
                                 for r in shard_results]),
            p99_ms=histogram.quantile(0.99),
            model_ms=predicted_latency_ms(trial_config, shard_sizes[0],
                                          ring=ring),
            lookup_authoritative=sum(r["lookup_authoritative"]
                                     for r in shard_results),
            lookup_stale=sum(r["lookup_stale"] for r in shard_results),
            lookup_misses=sum(r["lookup_misses"] for r in shard_results),
        ))
    # Close the loop to the aggregate model: fit its arrival/churn knobs
    # to the fullest cell's measured traffic.
    fullest = report.points[-1]
    fitted = calibrated_fleet_timings(trial_config.fleet,
                                      registrations=fullest.accepted,
                                      handoffs=fullest.handoffs,
                                      hosts=fullest.fleet_size,
                                      horizon_ns=REG_STOP)
    report.calibrated_interval_s = fitted.mean_registration_interval / 1e9
    report.calibrated_churn = fitted.churn_probability
    return report
