"""A consistent-hash plane of home-agent replicas (fleet-scale anchor).

The paper's single home agent serializes every registration on one CPU;
our x4 sweep showed that per-binding state at the anchor is the scaling
limit (the same bottleneck Dynamic Index NAT attacks for NAT-based
mobility).  This module shards the binding plane the way a production
deployment would:

* :class:`HashRing` — a classic consistent-hash ring over replica
  *names*.  Every replica contributes ``DEFAULT_VNODES`` virtual points
  placed by a **seed-free** hash (BLAKE2b, never Python's per-process
  randomized ``hash()``), so two processes — or two machines — that build
  a ring from the same names agree on every placement without
  coordination.  Adding or removing a replica moves only the keys
  adjacent to its points (~1/n of the space).
* :class:`BindingShardPlane` — wires the ring to live
  :class:`~repro.core.home_agent.HomeAgentService` replicas.  A home
  address is *served* by its ``DEFAULT_REPLICATION`` ring successors,
  so when the primary
  :meth:`~repro.core.home_agent.HomeAgentService.crash`\\ es (the
  restart machinery, reachable from a fault plan via
  :class:`~repro.faults.plan.HomeAgentRestart`'s ``agent`` field) lookups
  fail over to the next live replica — takeover without re-registration.

The aggregate fleet models (:mod:`repro.workloads.aggregate`) use the
ring purely mathematically: :meth:`HashRing.ownership` and
:meth:`HashRing.effective_ownership` give each replica's share of the
key space, which is what sets per-replica registration load at 10^5-10^6
hosts without instantiating per-host state.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.home_agent import HomeAgentService
    from repro.net.addressing import IPAddress
    from repro.sim.engine import Simulator

_SPACE = 1 << 64

#: Virtual points each replica contributes to the ring.  64 keeps every
#: replica's share within ~±15-20% of fair; more smooths further at
#: linear memory/build cost.
DEFAULT_VNODES = 64
#: How many distinct successor replicas serve (are provisioned for) each
#: home address.
DEFAULT_REPLICATION = 2
#: Bounded-staleness cap, ns: a replicated binding older than this is
#: never served stale (the consistency bound of the degraded mode).
STALE_SERVE_CAP = ms(30_000)


def stable_hash64(key: str) -> int:
    """A 64-bit hash of *key* that never varies across processes.

    Python's builtin ``hash()`` is salted per process (PYTHONHASHSEED),
    which would scatter ring placements across workers and break the
    byte-identical ``--jobs`` contract; BLAKE2b is fast, stable and
    well-mixed.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hashing over replica names with virtual nodes.

    Deterministic by construction: placements depend only on the member
    names, never on insertion order, process, or seed.
    """

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        self._points: List[int] = []
        self._owners: List[str] = []
        self._nodes: Dict[str, List[int]] = {}
        for name in nodes:
            self.add(name)

    # ------------------------------------------------------------ membership

    @property
    def nodes(self) -> List[str]:
        """Member names, sorted (stable regardless of insertion order)."""
        return sorted(self._nodes)

    def add(self, name: str) -> None:
        """Add a replica: ``DEFAULT_VNODES`` points join, the rest stay."""
        if name in self._nodes:
            raise ValueError(f"ring already contains {name!r}")
        points = []
        for index in range(DEFAULT_VNODES):
            point = stable_hash64(f"{name}#{index}")
            position = bisect_right(self._points, point)
            # A full 64-bit collision between different names is beyond
            # unlikely; tie-break by name so even that stays deterministic.
            while (position < len(self._points)
                   and self._points[position] == point
                   and self._owners[position] < name):
                position += 1  # pragma: no cover
            self._points.insert(position, point)
            self._owners.insert(position, name)
            points.append(point)
        self._nodes[name] = points

    def remove(self, name: str) -> None:
        """Remove a replica; only its arcs change owners."""
        if name not in self._nodes:
            raise ValueError(f"ring does not contain {name!r}")
        del self._nodes[name]
        keep = [(point, owner)
                for point, owner in zip(self._points, self._owners)
                if owner != name]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    # ---------------------------------------------------------------- lookup

    def _successor_index(self, point: int) -> int:
        index = bisect_right(self._points, point)
        return index % len(self._points)

    def lookup(self, key: str,
               avoid: Optional[Callable[[str], bool]] = None) -> str:
        """The replica owning *key*: the first point clockwise of its hash.

        ``avoid`` is the takeover hook: a predicate marking replicas that
        cannot serve right now (crashed); the walk continues clockwise to
        the first point owned by an acceptable replica.  Raises
        ``LookupError`` when the ring is empty or every replica is
        avoided.
        """
        if not self._points:
            raise LookupError("hash ring is empty")
        index = self._successor_index(stable_hash64(key))
        if avoid is None:
            return self._owners[index]
        for step in range(len(self._points)):
            owner = self._owners[(index + step) % len(self._points)]
            if not avoid(owner):
                return owner
        raise LookupError("every replica on the ring is avoided")

    def replicas(self, key: str, count: int) -> List[str]:
        """The first *count* **distinct** replicas clockwise from *key*.

        The primary comes first; the rest are the takeover order.  Fewer
        than *count* members yields them all.
        """
        if not self._points:
            raise LookupError("hash ring is empty")
        found: List[str] = []
        index = self._successor_index(stable_hash64(key))
        for step in range(len(self._points)):
            owner = self._owners[(index + step) % len(self._points)]
            if owner not in found:
                found.append(owner)
                if len(found) == count:
                    break
        return found

    # ------------------------------------------------------------- ownership

    def ownership(self) -> Dict[str, float]:
        """Each replica's fraction of the hash space (sums to 1.0).

        This is the *expected* share of uniformly hashed keys, which the
        aggregate fleet models use to set per-replica registration load
        without hashing every host.
        """
        return self.effective_ownership(frozenset())

    def effective_ownership(self, failed: frozenset) -> Dict[str, float]:
        """Ownership after the *failed* replicas' arcs fail over.

        Each arc owned by a failed replica is inherited by the next
        clockwise point whose owner is live — exactly what
        :meth:`lookup` with an ``avoid`` predicate does per key, computed
        in closed form over arcs.  Failed replicas report share 0.0.
        """
        shares: Dict[str, float] = {name: 0.0 for name in self._nodes}
        live = [name for name in self._nodes if name not in failed]
        if not live:
            return shares
        count = len(self._points)
        for index, point in enumerate(self._points):
            previous = self._points[index - 1] if index else self._points[-1]
            arc = (point - previous) % _SPACE
            if arc == 0 and count == 1:
                arc = _SPACE  # a single point owns the whole circle
            owner = self._owners[index]
            if owner in failed:
                for step in range(1, count + 1):
                    candidate = self._owners[(index + step) % count]
                    if candidate not in failed:
                        owner = candidate
                        break
            shares[owner] += arc / _SPACE
        return shares


class BindingShardPlane:
    """The distributed home-agent control plane: ring + live replicas.

    ``agents`` maps replica names to :class:`HomeAgentService` instances;
    the plane reads and drives their bindings, partition flag and
    ``on_binding_change`` hook directly.  A home address is
    provisioned on its ``DEFAULT_REPLICATION`` ring successors so a crashed
    primary's bindings can be re-won at a live replica without waiting
    for it to come back.

    Observability is lazy: the per-shard gauges and takeover counters
    appear in the metrics snapshot only once the plane actually serves an
    address or fails a lookup over, so building (and never using) a plane
    leaves snapshots byte-identical.
    """

    def __init__(self, sim: "Simulator",
                 agents: Mapping[str, "HomeAgentService"], *,
                 spares: Mapping[str, "HomeAgentService"]) -> None:
        if not agents:
            raise ValueError("a binding-shard plane needs at least one agent")
        self.sim = sim
        self.agents: Dict[str, "HomeAgentService"] = dict(agents)
        #: Standby replicas a :class:`~repro.faults.plan.ReplicaJoin` (or a
        #: direct :meth:`add_replica`) can promote into the plane by name.
        self.spares: Dict[str, "HomeAgentService"] = dict(spares)
        overlap = set(self.agents) & set(self.spares)
        if overlap:
            raise ValueError(f"agents also listed as spares: {sorted(overlap)}")
        self.replication = min(DEFAULT_REPLICATION, len(self.agents))
        self.ring = HashRing(self.agents)
        self.takeovers = 0
        self.stale_served = 0
        self._provisioned: Dict[str, set] = {}
        #: Every address ever served, for re-provisioning on membership
        #: changes (sorted iteration keeps those deterministic).
        self._served_addresses: set = set()
        #: Current takeover replica per address (edge accounting: a
        #: takeover is counted when responsibility *moves*, not per call).
        self._takeover_from: Dict[str, str] = {}
        #: The plane's replicated binding copies: str(home) -> (care-of,
        #: updated-at, origin replica).  Fed by the agents'
        #: ``on_binding_change`` hooks; serves the bounded-staleness
        #: degraded mode and survives origin crashes (that is the point).
        self._replicated: Dict[str, Tuple["IPAddress", int, str]] = {}
        for name, agent in self.agents.items():
            self._install_sync(name, agent)

    # ------------------------------------------------------------- provision

    def owners(self, home_address: object) -> List[str]:
        """The replica names serving *home_address*, primary first."""
        return self.ring.replicas(str(home_address), self.replication)

    def serve(self, home_address: object) -> List[str]:
        """Authorize service for *home_address* on all its replicas."""
        self._served_addresses.add(home_address)
        names = self.owners(home_address)
        for name in names:
            self._provision(name, home_address)
        return names

    def _provision(self, name: str, home_address: object) -> None:
        provisioned = self._provisioned.setdefault(name, set())
        if home_address in provisioned:
            return
        self.agents[name].serve(home_address)
        provisioned.add(home_address)
        # Lazy per-shard gauge: distinct addresses provisioned here.
        gauge = self.sim.metrics.gauge("binding_shard", "served", agent=name)
        gauge.value += 1

    def _reprovision(self) -> None:
        """Re-derive every served address's owners after a ring change."""
        for home_address in sorted(self._served_addresses, key=str):
            for name in self.owners(home_address):
                self._provision(name, home_address)

    # ---------------------------------------------------------------- lookup

    def reachable(self, name: str) -> bool:
        """True when the named replica is a live, unpartitioned member."""
        agent = self.agents.get(name)
        return (agent is not None and not agent.is_down
                and not agent.partitioned)

    def _responsible(self, home_address: object
                     ) -> Tuple[Optional[str], str]:
        """``(replica, primary)``: the first reachable owner of
        *home_address*, else any reachable ring member (it accepts
        re-registrations once provisioned), else ``None``."""
        names = self.owners(home_address)
        for name in names:
            if self.reachable(name):
                return name, names[0]
        try:
            return (self.ring.lookup(str(home_address),
                                     avoid=lambda n: not self.reachable(n)),
                    names[0])
        except LookupError:
            return None, names[0]

    def agent_for(self, home_address: object) -> Optional["HomeAgentService"]:
        """The reachable replica currently responsible for *home_address*.

        The primary when it is up and unpartitioned; otherwise the next
        reachable replica clockwise (takeover).  ``None`` when every
        replica is unreachable.  Takeovers are counted on *transitions* —
        responsibility moving to a (different) non-primary replica — so
        polling this during one continuous outage counts one takeover,
        and a fault-free run never touches the takeover counters.
        """
        name, primary = self._responsible(home_address)
        if name is None:
            return None
        key = str(home_address)
        if name == primary:
            self._takeover_from.pop(key, None)
        elif self._takeover_from.get(key) != name:
            self._takeover_from[key] = name
            self._count_takeover(primary, name)
        return self.agents[name]

    def _count_takeover(self, primary: str, takeover: str) -> None:
        self.takeovers += 1
        counter = self.sim.metrics.counter("binding_shard", "takeovers",
                                           agent=takeover)
        counter.value += 1
        self.sim.trace.emit("binding_shard", "takeover",
                            primary=primary, takeover=takeover)

    def lookup_binding(self, home_address: object
                       ) -> Optional[Tuple["IPAddress", str]]:
        """Resolve *home_address* to its care-of address, if anyone can.

        Returns ``(care_of, source)`` where ``source`` is
        ``"authoritative"`` (the responsible replica's live binding) or
        ``"stale"`` (the bounded-staleness degraded mode: the replicated
        copy, served because the authoritative lookup missed and the copy
        is younger than :data:`STALE_SERVE_CAP`).  ``None`` when nobody
        can answer.
        """
        agent = self.agent_for(home_address)
        if agent is not None:
            binding = agent.bindings.get(home_address)
            if binding is not None:
                return (binding.care_of_address, "authoritative")
        record = self._replicated.get(str(home_address))
        if record is None:
            return None
        care_of, updated_at, origin = record
        if self.sim.now - updated_at > STALE_SERVE_CAP:
            return None
        self.stale_served += 1
        self.sim.metrics.counter("binding_shard", "stale_served").value += 1
        self.sim.trace.emit("binding_shard", "stale_served",
                            home_address=home_address,
                            origin=origin,
                            age_ms=(self.sim.now - updated_at) / 1e6)
        return (care_of, "stale")

    # ------------------------------------------------------------ replication

    def _install_sync(self, name: str, agent: "HomeAgentService") -> None:
        """Feed the plane's replicated copies from an agent's registrations."""
        agent.on_binding_change = (
            lambda home, binding, name=name:
            self._on_binding_change(name, home, binding))

    def _on_binding_change(self, name: str, home_address: "IPAddress",
                           binding) -> None:
        key = str(home_address)
        if binding is None:
            self._replicated.pop(key, None)
            return
        self._replicated[key] = (binding.care_of_address, self.sim.now, name)
        # A fresh registration supersedes every other *reachable* copy of
        # the binding: leaving one alive would double-own the address.
        # Unreachable copies cannot be touched (that is what makes a
        # partition nasty); they are reconciled when the partition heals.
        for other_name, other in self.agents.items():
            if other_name == name or not self.reachable(other_name):
                continue
            if other.bindings.get(home_address) is not None:
                other.flush_binding(home_address)

    # ------------------------------------------------------------ membership

    def add_replica(self, name: str) -> "HomeAgentService":
        """Promote a spare (crash-join) into the plane under live load.

        The joiner arrives empty: the addresses its arcs now own are
        (re-)provisioned on it immediately, and their *bindings* are won
        back through ordinary re-registration — exactly how a rebooted
        replica would rejoin.  The joiner is the plane's ``spares`` entry
        for *name*.
        """
        if name in self.agents:
            raise ValueError(f"plane already has agent {name!r}; "
                             f"members: {sorted(self.agents)}")
        agent = self.spares.pop(name, None)
        if agent is None:
            raise ValueError(
                f"plane has no spare {name!r}; "
                f"spares: {sorted(self.spares)}, "
                f"members: {sorted(self.agents)}")
        self.agents[name] = agent
        self.ring.add(name)
        self.replication = min(DEFAULT_REPLICATION, len(self.agents))
        self._install_sync(name, agent)
        self._reprovision()
        self.sim.metrics.counter("binding_shard", "joins").value += 1
        self.sim.trace.emit("binding_shard", "join", agent=name,
                            members=len(self.agents))
        return agent

    def drain_replica(self, name: str) -> int:
        """Gracefully remove a replica: re-serve and hand over, then leave.

        The drained replica's addresses are provisioned on their new
        owners first, its live bindings are *adopted* by the reachable
        new primary (remaining lifetime preserved), and only then does it
        stop serving — so a planned departure moves every binding without
        a re-registration storm.  Returns the number of bindings moved.
        The drained agent goes back into ``spares`` (it can rejoin).
        """
        agent = self.agents.get(name)
        if agent is None:
            raise ValueError(f"plane has no agent {name!r}; "
                             f"known: {sorted(self.agents)}")
        if len(self.agents) == 1:
            raise ValueError(f"cannot drain {name!r}: it is the plane's "
                             "last replica")
        # Announced before any state moves so auditors retire the member
        # first and see the hand-over records against the new membership.
        self.sim.trace.emit("binding_shard", "drain", agent=name,
                            members=len(self.agents) - 1)
        del self.agents[name]
        self.ring.remove(name)
        agent.partitioned = False
        self.replication = min(DEFAULT_REPLICATION, len(self.agents))
        provisioned = self._provisioned.pop(name, set())
        self._reprovision()
        moved = 0
        for binding in sorted(agent.bindings.all_active(),
                              key=lambda b: str(b.home_address)):
            target_name, _ = self._responsible(binding.home_address)
            if target_name is None:
                continue  # unreachable plane: hosts must re-win later
            if self.agents[target_name].adopt_binding(binding):
                self._replicated[str(binding.home_address)] = (
                    binding.care_of_address, self.sim.now, target_name)
                moved += 1
        for home_address in sorted(provisioned, key=str):
            agent.stops_serving(home_address)
        gauge = self.sim.metrics.gauge("binding_shard", "served", agent=name)
        gauge.value = 0
        self.spares[name] = agent
        self.sim.metrics.counter("binding_shard", "drains").value += 1
        self.sim.trace.emit("binding_shard", "drained", agent=name,
                            moved=moved)
        return moved

    # ---------------------------------------------------------------- faults

    def crash(self, name: str, down_for: int,
              on_recovered: Optional[Callable[[], None]] = None) -> None:
        """Crash one replica (state loss + downtime, PR-4 machinery)."""
        agent = self.agents.get(name)
        if agent is None:
            raise ValueError(f"plane has no agent {name!r}; "
                             f"known: {sorted(self.agents)}")
        agent.crash(down_for, on_recovered=on_recovered)

    def partition(self, names: Iterable[str], duration: int) -> None:
        """Make the named replicas unreachable for *duration*, state intact.

        Unlike :meth:`crash`, nothing is lost: the partitioned replicas
        keep their bindings and keep believing they own them — by heal
        time that state is stale, and the plane reconciles it (newest
        registration wins, older copies are flushed).
        """
        requested = sorted(set(names))
        unknown = [name for name in requested if name not in self.agents]
        if unknown:
            raise ValueError(f"plane cannot partition unknown agents "
                             f"{unknown}; known: {sorted(self.agents)}")
        fresh = [name for name in requested
                 if not self.agents[name].partitioned]
        if not fresh:
            return
        for name in fresh:
            self.agents[name].partitioned = True
        self.sim.metrics.counter("binding_shard", "partitions").value += 1
        self.sim.trace.emit("binding_shard", "partition",
                            agents=",".join(fresh))
        self.sim.post_later(duration, lambda: self._heal(fresh),
                            label="plane-heal")

    def _heal(self, names: List[str]) -> None:
        flushed = 0
        healed = [name for name in names
                  if name in self.agents and self.agents[name].partitioned]
        for name in healed:
            self.agents[name].partitioned = False
        # Reconciliation: for every binding a healed replica still holds,
        # the *newest* registration among reachable holders wins; older
        # copies — usually the healed replica's, superseded while it was
        # away — are flushed so no address stays double-owned.
        for name in healed:
            for binding in sorted(self.agents[name].bindings.all_active(),
                                  key=lambda b: str(b.home_address)):
                flushed += self._reconcile(binding.home_address)
        self.sim.trace.emit("binding_shard", "healed",
                            agents=",".join(healed), flushed=flushed)

    def _reconcile(self, home_address: "IPAddress") -> int:
        """Flush all but the newest reachable copy of one binding."""
        holders = []
        for name in sorted(self.agents):
            if not self.reachable(name):
                continue
            agent = self.agents[name]
            binding = agent.bindings.get(home_address)
            if binding is not None:
                holders.append((binding.registered_at, name, agent))
        if len(holders) <= 1:
            return 0
        holders.sort(key=lambda entry: (entry[0], entry[1]))
        for _, _, agent in holders[:-1]:
            agent.flush_binding(home_address)
        return len(holders) - 1

    def is_down(self, name: str) -> bool:
        """True while the named replica is crashed."""
        return self.agents[name].is_down

    def down_agents(self) -> List[str]:
        """Names of currently crashed replicas, sorted."""
        return sorted(name for name, agent in self.agents.items()
                      if agent.is_down)

    def partitioned_agents(self) -> List[str]:
        """Names of currently partitioned replicas, sorted."""
        return sorted(name for name, agent in self.agents.items()
                      if agent.partitioned)
