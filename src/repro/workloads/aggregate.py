"""Aggregate mobile-host models: N hosts as one statistical object.

The x4 fleet sweep tops out around 10^3 hosts because every
:class:`~repro.core.mobile_host.MobileHost` is a full object graph —
interfaces, sockets, timers, per-packet events.  To reach 10^5-10^6
hosts, :class:`AggregateHostModel` replaces the object graph with the
*processes* it generates, the way MIPv6 scaling studies model
registration load as an arrival process rather than simulating each
host:

* **registration arrivals** — each host (re)registers as an independent
  Poisson process (mean interval from
  :class:`~repro.config.FleetTimings`), the superposition of which is
  the home-agent plane's offered load;
* **binding churn** — each arrival is a genuine move (new care-of
  address) with probability ``churn_probability``, otherwise a renewal;
* **binding latency** — the Figure 7 round trip decomposed into a
  jittered network share, the home agent's deterministic service time,
  and an M/D/1 queueing delay at the replica that owns the host on the
  :class:`~repro.core.binding_shard.HashRing` (so ring imbalance and
  failed-replica takeover load are visible in the tail);
* **tunnel traffic volume** — per-host expected bytes while registered.

Determinism: the model draws from its own named simulator stream
(``aggregate:<name>``) exactly once, to derive a base seed; every
per-host draw then comes from a splitmix64 generator keyed by
``(base seed, global host index)``.  Host *h*'s samples therefore do not
depend on how the fleet is partitioned into models, which is what makes
an aggregate shard's :class:`~repro.stats.Stats`/histogram partials
merge **losslessly**: one model over N hosts and k models over the same
hosts produce the same sample multiset, and the Welford/bucket merges
are exact over it.

Nothing here posts per-registration simulator events — 10^6 hosts in a
discrete-event loop is exactly the scaling wall this model removes.  The
model reads the simulator for seed/metrics/trace context and publishes
lazy summary counters when run.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

from repro.config import Config, DEFAULT_CONFIG, FleetTimings
from repro.parallel.seeds import _GOLDEN, _MASK64, _MIX1, _MIX2, spawn_seed
from repro.stats import LatencyHistogram, Stats, Welford

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.binding_shard import HashRing
    from repro.sim.engine import Simulator

_INV_2_53 = 1.0 / (1 << 53)


class _SplitMix:
    """A tiny, fast, platform-stable PRNG for per-host draws.

    ``random.Random`` hashes its string seed through SHA-512 on every
    construction — microseconds that matter when a fleet constructs one
    generator per host.  splitmix64 is a handful of integer ops, passes
    BigCrush, and produces identical streams on every CPython.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        state = (self._state + _GOLDEN) & _MASK64
        self._state = state
        value = ((state ^ (state >> 30)) * _MIX1) & _MASK64
        value = ((value ^ (value >> 27)) * _MIX2) & _MASK64
        value = value ^ (value >> 31)
        return (value >> 11) * _INV_2_53

    def expovariate(self, mean: float) -> float:
        """Exponential with the given *mean* (not rate)."""
        return -mean * math.log(1.0 - self.random())

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()


def registration_service_ns(config: Config) -> int:
    """Home-agent service time per registration (receive+process+send)."""
    registration = config.registration
    return (registration.ha_receive_overhead
            + registration.ha_processing_cost
            + registration.ha_send_overhead)


def agent_mean_waits(config: Config, service_ns: int, fleet_hosts: int,
                     ring: "HashRing",
                     failed: FrozenSet[str] = frozenset()
                     ) -> Tuple[Dict[str, float], int]:
    """M/D/1 mean queueing delay (ns) at each live replica.

    The shared closed form behind :meth:`AggregateHostModel.
    mean_wait_by_agent` and the x8 cross-validation: utilization of a
    replica is (hosts it effectively owns) x (service time / mean
    registration interval); the waiting time of an M/D/1 queue is
    ``rho * S / (2 (1 - rho))``.  Utilization is capped
    (:attr:`~repro.config.FleetTimings.utilization_cap`) so an overloaded
    plane reports a deep-but-finite tail.  Returns ``(waits,
    saturated_agent_count)``.
    """
    fleet = config.fleet
    interval = float(fleet.mean_registration_interval)
    service = float(service_ns)
    waits: Dict[str, float] = {}
    saturated = 0
    for agent, share in ring.effective_ownership(failed).items():
        if agent in failed:
            continue
        rho = fleet_hosts * share * service / interval
        if rho >= fleet.utilization_cap:
            rho = fleet.utilization_cap
            saturated += 1
        waits[agent] = rho * service / (2.0 * (1.0 - rho))
    return waits, saturated


def predicted_latency_ms(config: Config, fleet_hosts: int,
                         ring: "HashRing") -> float:
    """Model-predicted mean registration latency, milliseconds.

    Figure 7's decomposition under the fleet calibration: the non-HA
    network share plus deterministic service time plus the
    ownership-weighted M/D/1 wait across live replicas.  This is what x8
    cross-validates against *measured* per-registration round trips from
    real :class:`~repro.core.registration.RegistrationClient` traffic.
    """
    service_ns = registration_service_ns(config)
    waits, _ = agent_mean_waits(config, service_ns, fleet_hosts, ring)
    shares = ring.ownership()
    weight = sum(shares[agent] for agent in waits)
    wait = (sum(shares[agent] * waits[agent] for agent in waits) / weight
            if weight > 0.0 else 0.0)
    return (float(config.fleet.network_overhead) + service_ns + wait) / 1e6


def calibrated_fleet_timings(fleet: FleetTimings, *, registrations: int,
                             handoffs: int, hosts: int,
                             horizon_ns: int) -> FleetTimings:
    """Fit the aggregate model's arrival/churn knobs to measured traffic.

    The churn-calibration hook: given counts measured from a real-traffic
    run (x8's per-host clients, or production telemetry), return a
    :class:`~repro.config.FleetTimings` whose Poisson arrival interval
    and churn probability reproduce the observed rates — closing the loop
    between the event-level simulation and the 10^6-host aggregate model.
    Degenerate inputs (no traffic, no hosts) return *fleet* unchanged.
    """
    if registrations <= 0 or hosts <= 0 or horizon_ns <= 0:
        return fleet
    interval = max(1, int(hosts * horizon_ns / registrations))
    return replace(fleet, mean_registration_interval=interval,
                   churn_probability=handoffs / registrations)


class AggregateHostModel:
    """One object statistically representing ``n_hosts`` mobile hosts.

    Parameters
    ----------
    sim:
        Simulator supplying the named RNG stream, metrics and trace.
    name:
        Stream name: the model draws its base seed from
        ``sim.rng("aggregate:<name>")``, so distinct models in one
        simulation get independent streams.
    n_hosts:
        How many hosts this model represents (its slice of the fleet).
    horizon:
        Modeled duration, ns: arrivals land in ``[0, horizon)``.
    fleet_hosts:
        Total fleet size driving per-agent load.  Defaults to
        ``n_hosts``; a model representing one *shard* of a larger fleet
        must pass the fleet-wide count so utilization reflects every
        shard's load on the shared home-agent plane.
    host_offset:
        Global index of this model's first host.  Draws are keyed by
        global index, so partitioning a fleet into models at different
        offsets reproduces exactly the per-host samples of one big model
        (the lossless-merge property the x7 cross-check test asserts).
    ring:
        :class:`~repro.core.binding_shard.HashRing` of home-agent replica
        names: each host's registrations queue at the replica owning
        ``host<index>``.
    failed_agents:
        Ring members currently crashed: their hosts and hash-space fail
        over to ring successors (inflating those queues), modeling the
        plane's takeover path under a
        :class:`~repro.faults.plan.HomeAgentRestart`.
    """

    def __init__(self, sim: "Simulator", name: str, n_hosts: int, *,
                 horizon: int,
                 fleet_hosts: Optional[int] = None,
                 host_offset: int = 0,
                 ring: "HashRing",
                 failed_agents: FrozenSet[str] = frozenset(),
                 config: Config = DEFAULT_CONFIG) -> None:
        if n_hosts < 0:
            raise ValueError(f"n_hosts must be >= 0, got {n_hosts}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.sim = sim
        self.name = name
        self.n_hosts = n_hosts
        self.horizon = horizon
        self.fleet_hosts = fleet_hosts if fleet_hosts is not None else n_hosts
        self.host_offset = host_offset
        self.ring = ring
        self.failed_agents = frozenset(failed_agents)
        self.config = config
        #: The model's own named stream; consumed once, for the base seed.
        self._base_seed = sim.rng(f"aggregate:{name}").getrandbits(63)
        #: Home-agent service time per registration, ns (shared
        #: calibration with the per-host simulation).
        self.service_ns = registration_service_ns(config)
        # Results (filled by run()).
        self.registrations = 0
        self.handoffs = 0
        self.tunnel_bytes = 0
        self.saturated_agents = 0
        self.latency = Welford()
        self.latency_hist = LatencyHistogram()
        self._ran = False

    # ------------------------------------------------------------------ load

    def mean_wait_by_agent(self) -> Dict[str, float]:
        """M/D/1 mean queueing delay (ns) at each live replica
        (:func:`agent_mean_waits`); capped replicas are counted in
        :attr:`saturated_agents`."""
        waits, self.saturated_agents = agent_mean_waits(
            self.config, self.service_ns, self.fleet_hosts, self.ring,
            self.failed_agents)
        return waits

    # ------------------------------------------------------------------- run

    def run(self) -> None:
        """Generate every host's processes and accumulate the partials.

        Idempotence guard: running twice would double-count, so a second
        call raises.
        """
        if self._ran:
            raise RuntimeError("AggregateHostModel.run() already ran")
        self._ran = True
        fleet = self.config.fleet
        horizon = self.horizon
        interval = float(fleet.mean_registration_interval)
        service = float(self.service_ns)
        churn = fleet.churn_probability
        overhead = float(fleet.network_overhead)
        jitter = fleet.latency_jitter
        low, high = 1.0 - jitter, 1.0 + jitter
        bytes_per_ns = fleet.tunnel_bytes_per_sec / 1e9
        waits = self.mean_wait_by_agent()
        ring = self.ring
        failed = self.failed_agents
        avoid = failed.__contains__ if failed else None
        base_seed = self._base_seed
        latency = self.latency
        hist = self.latency_hist
        registrations = 0
        handoffs = 0
        tunnel_bytes = 0

        for index in range(self.host_offset, self.host_offset + self.n_hosts):
            rng = _SplitMix(spawn_seed(base_seed, index))
            first_arrival = rng.expovariate(interval)
            if first_arrival >= horizon:
                continue
            mean_wait = waits[ring.lookup(f"host{index}", avoid=avoid)]
            arrival = first_arrival
            while arrival < horizon:
                registrations += 1
                if churn > 0.0 and rng.random() < churn:
                    handoffs += 1
                wait = rng.expovariate(mean_wait) if mean_wait > 0.0 else 0.0
                sample_ns = overhead * rng.uniform(low, high) + service + wait
                sample_ms = sample_ns / 1e6
                latency.add(sample_ms)
                hist.add(sample_ms)
                arrival += rng.expovariate(interval)
            # Tunnel volume: expected rate over the registered span (first
            # registration through the horizon; renewals keep it bound).
            tunnel_bytes += int((horizon - first_arrival) * bytes_per_ns)

        self.registrations = registrations
        self.handoffs = handoffs
        self.tunnel_bytes = tunnel_bytes
        self._publish()

    def _publish(self) -> None:
        """Lazy summary counters (created only when a model actually ran)."""
        metrics = self.sim.metrics
        metrics.counter("aggregate", "hosts",
                        model=self.name).value += self.n_hosts
        metrics.counter("aggregate", "registrations",
                        model=self.name).value += self.registrations
        metrics.counter("aggregate", "handoffs",
                        model=self.name).value += self.handoffs
        metrics.counter("aggregate", "tunnel_bytes",
                        model=self.name).value += self.tunnel_bytes
        self.sim.trace.emit("aggregate", "ran", model=self.name,
                            hosts=self.n_hosts,
                            registrations=self.registrations)

    # -------------------------------------------------------------- partials

    def partials(self) -> dict:
        """Plain-data shard result: mergeable summaries, no raw samples.

        The ``latency`` entry is a :class:`~repro.stats.Stats` dict the
        experiment merge step folds with
        :func:`~repro.stats.merge_stats`; ``latency_hist`` is the sparse
        bucket map for exact p99 merging.
        """
        stats = self.latency.finalize()
        return {
            "hosts": self.n_hosts,
            "registrations": self.registrations,
            "handoffs": self.handoffs,
            "tunnel_bytes": self.tunnel_bytes,
            "saturated_agents": self.saturated_agents,
            "latency": {"count": stats.count, "mean": stats.mean,
                        "std": stats.std, "minimum": stats.minimum,
                        "maximum": stats.maximum},
            "latency_hist": self.latency_hist.to_counts(),
        }

    @staticmethod
    def stats_from_partial(partial: dict) -> Stats:
        """Rebuild the :class:`Stats` shipped in a :meth:`partials` dict."""
        return Stats(**partial["latency"])
