"""Structured event trace.

The experiment harnesses (Figures 6 and 7, the same-subnet switch) need to
reconstruct what happened and when: which packet was lost, when each
registration stage started and ended.  Components emit trace records through
``sim.trace.emit(category, event, **fields)``; harnesses filter them back out
with :meth:`Trace.select`.

The trace is append-only and deliberately dumb: no aggregation, no I/O.
Keeping measurement outside the protocol code mirrors the paper's method of
instrumenting the kernel with timestamps and post-processing off-line.

Recording is demand-driven.  A trace keeps every category until someone
calls :meth:`Trace.record_only` with the categories it will read (possibly
none); live consumers :meth:`Trace.subscribe` to the categories they read
and receive them whether or not they are kept.  Call sites pass raw field
values (a packet, an address, a TCP connection) and :meth:`Trace.emit`
renders them only when the record is kept or delivered.

:attr:`Trace.live` holds the categories someone reads: every category
until :meth:`Trace.record_only`, then the kept ones plus the subscribed
ones.  Guard rule: a site that fires per packet or per registration
tests ``"<category>" in trace.live`` before it builds the emit's
arguments, so a record nobody reads costs one set test instead of a
call, a keyword dict and the field reads at the call site.  Those sites
are IP send and receive, tunnel encapsulation and decapsulation, the
mobile host's policy decision, the registration client's request, send
and reply records, the home agent's received and reply records, and ARP
proxy-added and gratuitous announcements.  Every other site calls
:meth:`Trace.emit` unguarded; ``emit`` makes the same test itself.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Container, Dict, FrozenSet,
                    Iterator, List, Optional)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class TraceRecord:
    """One traced occurrence.

    ``category`` is a coarse stream name (``"ip"``, ``"registration"``,
    ``"handoff"`` ...), ``event`` the specific occurrence within it, and
    ``fields`` free-form structured data, already rendered to plain values.

    A ``__slots__`` value class rather than a dataclass: one is allocated
    per kept or delivered record, which makes construction part of the
    datapath.
    """

    __slots__ = ("time", "category", "event", "fields")

    def __init__(self, time: int, category: str, event: str,
                 fields: Dict[str, Any]) -> None:
        self.time = time
        self.category = category
        self.event = event
        self.fields = fields

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Field lookup with a default (dict.get semantics)."""
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time == other.time and self.category == other.category
                and self.event == other.event and self.fields == other.fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecord(time={self.time}, category={self.category!r}, "
                f"event={self.event!r}, fields={self.fields!r})")


#: Field types a record holds as they are.
_PLAIN = frozenset({str, int, float, bool, type(None)})


class _Everything:
    """:attr:`Trace.live` before :meth:`Trace.record_only`: every
    category is read."""

    __slots__ = ()

    def __contains__(self, category: object) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<every category>"


_EVERYTHING = _Everything()

Subscriber = Callable[[TraceRecord], None]


class Trace:
    """Append-only record sink bound to a simulator clock."""

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._records: List[TraceRecord] = []
        #: Categories kept; ``None`` keeps every category.
        self._kept: Optional[FrozenSet[str]] = None
        self._subscribers: Dict[str, List[Subscriber]] = {}
        #: The categories someone reads (kept or subscribed): hot call
        #: sites test ``category in trace.live`` before emitting.
        self.live: Container[str] = _EVERYTHING

    def record_only(self, *categories: str) -> None:
        """Keep only records in *categories* (none: keep nothing).

        Each experiment trial declares what it reads; without a call the
        trace keeps everything.  Records already kept outside *categories*
        (a testbed's build emits a few) are dropped.  Subscribers are
        unaffected.
        """
        kept = self._kept = frozenset(categories)
        self._records = [record for record in self._records
                         if record.category in kept]
        self.live = kept.union(self._subscribers)

    def subscribe(self, callback: Subscriber, *categories: str) -> None:
        """Deliver every future record in *categories* to *callback*.

        Delivery does not depend on :meth:`record_only`: a subscriber sees
        its categories whether or not they are kept.  Callbacks run
        synchronously inside :meth:`emit`, in subscription order.
        """
        if not categories:
            raise TypeError("subscribe() needs at least one category")
        for category in categories:
            self._subscribers.setdefault(category, []).append(callback)
        if self._kept is not None:
            self.live = self._kept.union(self._subscribers)

    def emit(self, category: str, event: str, **fields: Any) -> None:
        """Record *event* in *category* at the current virtual time.

        Only if the record is kept or some subscriber reads *category* are
        its fields rendered: plain values stay as they are, an object with
        a ``describe()`` method (packet, segment, connection) goes through
        it, anything else (an address) through ``str()``.
        """
        if category not in self.live:
            return
        for key, value in fields.items():
            if type(value) not in _PLAIN:
                describe = getattr(value, "describe", None)
                fields[key] = describe() if describe is not None else str(value)
        record = TraceRecord(self._sim.now, category, event, fields)
        if self._kept is None or category in self._kept:
            self._records.append(record)
        callbacks = self._subscribers.get(category)
        if callbacks is not None:
            for callback in callbacks:
                callback(record)

    @property
    def records(self) -> List[TraceRecord]:
        """The recorded stream in emission order (read-only view)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def select(
        self,
        category: str,
        event: Optional[str] = None,
        since: Optional[int] = None,
        **field_filters: Any,
    ) -> List[TraceRecord]:
        """Return the records in *category* matching every other criterion.

        ``field_filters`` match on equality against ``record.fields``; a
        record lacking the key does not match.
        """
        out: List[TraceRecord] = []
        for record in self._records:
            if record.category != category:
                continue
            if event is not None and record.event != event:
                continue
            if since is not None and record.time < since:
                continue
            if any(record.get(key, _MISSING) != value for key, value in field_filters.items()):
                continue
            out.append(record)
        return out

    def clear(self) -> None:
        """Drop all records (tests call this between phases)."""
        self._records.clear()


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
