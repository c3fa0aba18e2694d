"""The plane invariant auditor: machine-checked binding consistency.

Chaos experiments used to eyeball their survival numbers; the
:class:`PlaneAuditor` turns the binding-shard plane's consistency
contract into *gating* checks.  It subscribes to the ``binding``,
``binding_shard`` and ``home_agent`` categories of the simulator trace
(:meth:`repro.sim.trace.Trace.subscribe`), which delivers them whether
or not the trial keeps them, and replays those records into its own view
of who holds which binding, continuously verifying three invariants:

1. **No double ownership** — at no point do two live, reachable replicas
   both hold a binding for the same home address.  (Unreachable replicas
   are exempt while partitioned — that staleness is expected — and must
   be reconciled by the time the partition heals.)
2. **Bounded convergence** — every binding disturbed by a fault (crash,
   partition, membership change) is re-won at a reachable replica within
   :data:`CONVERGENCE_DEADLINE`.
3. **Takeover consistency** — every takeover the plane counts coincides
   with its primary actually being unreachable, and the plane's
   ``takeovers`` total matches the takeover records observed.

Violations raise :class:`AuditViolation` carrying the offending trace
window, so a failing chaos cell points straight at the records around
the inconsistency instead of at a summary number.

The plane's replicas are :class:`~repro.core.home_agent.HomeAgentService`
instances; the auditor correlates their ``host=`` trace fields with the
plane's replica names.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set,
                    Tuple)

from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.binding_shard import BindingShardPlane
    from repro.sim.trace import TraceRecord


class AuditViolation(AssertionError):
    """One or more plane invariants failed; carries the trace window.

    ``violations`` is the list of human-readable findings;``window`` the
    last few trace records (time, category, event, fields) preceding the
    first finding.
    """

    def __init__(self, violations: List[str],
                 window: List[Tuple[int, str, str, dict]]) -> None:
        self.violations = list(violations)
        self.window = list(window)
        lines = "\n".join(f"  - {violation}" for violation in self.violations)
        trail = "\n".join(
            f"    t={time / 1e9:.6f}s {category}/{event} {fields}"
            for time, category, event, fields in self.window[-12:])
        super().__init__(
            f"{len(self.violations)} plane invariant violation(s):\n"
            f"{lines}\n  trace window:\n{trail}")


#: Time, ns, within which every binding disturbed by a fault must be
#: re-won at a live reachable replica.
CONVERGENCE_DEADLINE = ms(8_000)
#: Trace records an :class:`AuditViolation` carries as its window.
WINDOW = 64

#: A replay step: ``handler(time, fields)``.
_Handler = Callable[[int, dict], None]


def _without(holders: Tuple[str, ...], name: str) -> Tuple[str, ...]:
    """*holders* less *name*."""
    return tuple(holder for holder in holders if holder != name)


class PlaneAuditor:
    """Continuously audit a :class:`BindingShardPlane` via its trace."""

    def __init__(self, plane: "BindingShardPlane") -> None:
        self.plane = plane
        self.sim = plane.sim
        self.violations: List[str] = []
        self._window: Deque[Tuple[int, str, str, dict]] = deque(maxlen=WINDOW)
        #: Who holds a binding for each address: str(home) -> replica
        #: names.  Nearly every address has one holder, so a tuple.
        self._holdings: Dict[str, Tuple[str, ...]] = {}
        self._members: Set[str] = set(plane.agents)
        self._down: Set[str] = set()
        self._partitioned: Set[str] = set(plane.partitioned_agents())
        #: Re-win deadlines for disturbed addresses: str(home) -> time.
        self._pending: Dict[str, int] = {}
        #: ``(deadline, home)`` for every deadline ever armed, earliest
        #: first.  An entry whose deadline is no longer ``_pending[home]``
        #: (re-won, or replaced by an earlier one) is stale and skipped
        #: when it surfaces.
        self._deadlines: List[Tuple[int, str]] = []
        self._takeover_records = 0
        self._takeover_base = plane.takeovers
        self._host_to_replica: Dict[str, str] = {}
        self._map_hosts()
        self._attached = False
        #: (category, event) -> handler, for the records the replay reads.
        self._handlers: Dict[Tuple[str, str], _Handler] = {
            ("binding", "registered"): self._binding_won,
            ("binding", "adopted"): self._binding_won,
            ("binding", "deregistered"): self._binding_lost,
            ("binding", "expired"): self._binding_lost,
            ("binding", "flushed"): self._binding_lost,
            ("home_agent", "crash"): self._on_home_agent_crash,
            ("home_agent", "recovered"): self._on_home_agent_recovered,
            ("binding_shard", "takeover"): self._on_binding_shard_takeover,
            ("binding_shard", "partition"): self._on_binding_shard_partition,
            ("binding_shard", "healed"): self._on_binding_shard_healed,
            ("binding_shard", "join"): self._on_binding_shard_join,
            ("binding_shard", "drain"): self._on_binding_shard_drain,
        }

    # -------------------------------------------------------------- lifecycle

    def attach(self) -> None:
        """Start auditing (idempotent)."""
        if not self._attached:
            self._attached = True
            self.sim.trace.subscribe(self._on_record, "binding",
                                     "binding_shard", "home_agent")

    def finish(self, raise_on_violation: bool = True) -> List[str]:
        """End-of-run checks; optionally raise :class:`AuditViolation`.

        Expires every outstanding convergence deadline against the
        current simulated time and cross-checks the plane's takeover
        counter against the takeover records observed.
        """
        self._expire_pending(self.sim.now)
        counted = self.plane.takeovers - self._takeover_base
        if counted != self._takeover_records:
            self._violation(
                f"takeover counter inconsistent: plane counts {counted}, "
                f"trace shows {self._takeover_records} takeover record(s)")
        if self.violations and raise_on_violation:
            raise AuditViolation(self.violations, list(self._window))
        return list(self.violations)

    # ------------------------------------------------------------- the replay

    def _on_record(self, record: "TraceRecord") -> None:
        time = record.time
        category = record.category
        event = record.event
        fields = record.fields
        self._window.append((time, category, event, fields))
        deadlines = self._deadlines
        if deadlines and deadlines[0][0] < time:
            self._expire_pending(time)
        handler = self._handlers.get((category, event))
        if handler is not None:
            handler(time, fields)

    # --- binding table movements: won (registered, adopted) ...

    def _binding_won(self, time: int, fields: dict) -> None:
        name = self._replica_of(fields.get("agent", ""))
        if name is None or name not in self._members:
            return  # a standalone HA outside the plane
        home = fields["home_address"]
        # Only a *reachable* replica's win satisfies a convergence
        # deadline: a partitioned agent registering a pre-partition
        # in-flight request does not make the binding servable.
        if self._reachable(name):
            self._pending.pop(home, None)
        holders = self._holdings.get(home, ())
        if name not in holders:
            holders = self._holdings[home] = holders + (name,)
        others = [other for other in holders
                  if other != name and self._reachable(other)]
        if others:
            self._violation(
                f"home address {home} double-owned: registered at {name} "
                f"while live replica(s) {sorted(others)} still hold it")

    # --- ... and lost (deregistered, expired, flushed)

    def _binding_lost(self, time: int, fields: dict) -> None:
        name = self._replica_of(fields.get("agent", ""))
        if name is None:
            return
        home = fields["home_address"]
        holders = self._holdings.get(home, ())
        if name in holders:
            self._holdings[home] = _without(holders, name)

    # --- home-agent faults

    def _on_home_agent_crash(self, time: int, fields: dict) -> None:
        name = self._replica_of(fields.get("host", ""))
        if name is None or name not in self._members:
            return
        self._down.add(name)
        for home, holders in self._holdings.items():
            if name in holders:
                # The crash loses the state.
                holders = self._holdings[home] = _without(holders, name)
                if not any(self._reachable(other) for other in holders):
                    self._disturb(home, time)

    def _on_home_agent_recovered(self, time: int, fields: dict) -> None:
        name = self._replica_of(fields.get("host", ""))
        if name is not None:
            self._down.discard(name)

    # --- plane membership and partitions

    def _on_binding_shard_takeover(self, time: int, fields: dict) -> None:
        self._takeover_records += 1
        primary = fields.get("primary", "")
        if (primary in self._members and primary not in self._down
                and primary not in self._partitioned):
            self._violation(
                f"takeover from {primary} to {fields.get('takeover')!r} "
                f"at t={time / 1e9:.6f}s while the primary was live and "
                "reachable")

    def _on_binding_shard_partition(self, time: int, fields: dict) -> None:
        names = set(fields.get("agents", "").split(","))
        self._partitioned.update(names)
        for home, holders in self._holdings.items():
            if holders and not any(self._reachable(other)
                                   for other in holders):
                self._disturb(home, time)

    def _on_binding_shard_healed(self, time: int, fields: dict) -> None:
        names = set(fields.get("agents", "").split(","))
        self._partitioned.difference_update(names)
        # Post-heal sweep: reconciliation must have left each address with
        # at most one reachable holder — stale survivors are the bug this
        # partition fault exists to catch.
        for home, holders in sorted(self._holdings.items()):
            reachable = sorted(other for other in holders
                               if self._reachable(other))
            if len(reachable) > 1:
                self._violation(
                    f"home address {home} still double-owned after heal of "
                    f"{sorted(names)}: reachable holders {reachable}")

    def _on_binding_shard_join(self, time: int, fields: dict) -> None:
        name = fields.get("agent", "")
        self._members.add(name)
        self._map_hosts()
        # Addresses whose primary moved onto the (empty) joiner must be
        # re-won there by the next renewal.
        for home, holders in self._holdings.items():
            try:
                primary = self.plane.owners(home)[0]
            except LookupError:  # pragma: no cover - plane cannot be empty
                continue
            if primary == name and name not in holders:
                self._disturb(home, time)

    def _on_binding_shard_drain(self, time: int, fields: dict) -> None:
        name = fields.get("agent", "")
        self._members.discard(name)
        self._down.discard(name)
        self._partitioned.discard(name)
        for home, holders in self._holdings.items():
            if name in holders:
                holders = self._holdings[home] = _without(holders, name)
                if not any(self._reachable(other) for other in holders):
                    # Cleared synchronously by the hand-over's "adopted"
                    # records; anything left must be re-won by renewal.
                    self._disturb(home, time)

    # ------------------------------------------------------------- internals

    def _reachable(self, name: str) -> bool:
        return (name in self._members and name not in self._down
                and name not in self._partitioned)

    def _disturb(self, home: str, time: int) -> None:
        """Arm (or keep the earlier of) a re-win deadline for *home*."""
        deadline = time + CONVERGENCE_DEADLINE
        existing = self._pending.get(home)
        if existing is None or deadline < existing:
            self._pending[home] = deadline
            heappush(self._deadlines, (deadline, home))

    def _expire_pending(self, now: int) -> None:
        """Report every deadline before *now*, in address order."""
        deadlines = self._deadlines
        pending = self._pending
        expired = []
        while deadlines and deadlines[0][0] < now:
            deadline, home = heappop(deadlines)
            if pending.get(home) == deadline:
                del pending[home]
                expired.append((home, deadline))
        for home, deadline in sorted(expired):
            self._violation(
                f"binding for {home} not re-won by its convergence "
                f"deadline t={deadline / 1e9:.6f}s "
                f"(deadline {CONVERGENCE_DEADLINE / 1e6:.0f} ms)")

    def _violation(self, message: str) -> None:
        self.violations.append(message)

    def _map_hosts(self) -> None:
        for name, agent in list(self.plane.agents.items()) + \
                list(self.plane.spares.items()):
            self._host_to_replica[agent.host.name] = name

    def _replica_of(self, hostname: str) -> Optional[str]:
        return self._host_to_replica.get(hostname)
