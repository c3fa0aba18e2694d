"""The metrics registry: counters, gauges and fixed-bucket histograms.

The paper's method is "instrument the kernel with timestamps and
post-process off-line" (Section 6).  The :class:`~repro.sim.trace.Trace`
stream is the timestamp half; this module is the aggregation half — cheap
monotonic counters and histograms the protocol code bumps inline, so a run
can explain *where* its time and packets went without anyone replaying the
trace.

Design rules (they keep runs reproducible):

* Metrics are **passive**.  Incrementing a counter never schedules an
  event, draws randomness, or otherwise perturbs the simulation; a run
  with nobody reading the metrics behaves byte-for-byte like one without.
* Metrics are keyed by ``component/name`` plus a sorted label dict, so
  two components (or two interfaces of one component) never collide.
* A component that always reports a fact keeps it as one plain int
  attribute and registers once, in ``__init__``, with one label and a
  class-level field table (:meth:`MetricsRegistry.register`).  The
  registry reads those ints, and builds their label sets, only when
  something reads the registry, so building a component builds no
  metric or label objects, and its hot path bumps one int.  Facts that
  only some runs produce use get-or-create handles
  (:meth:`MetricsRegistry.counter`), created on first use.
* :meth:`MetricsRegistry.snapshot` is a flat dict with deterministically
  ordered keys: two runs with the same seed serialize identically.
* The registry is owned by the :class:`~repro.sim.engine.Simulator`
  (exactly like the trace), so concurrent simulations stay isolated.

Naming convention: ``component`` is the subsystem (``link``, ``arp``,
``ip``, ``tcp``, ``tunnel``, ``policy``, ``registration``, ``handoff``,
``engine``), ``name`` is a snake_case quantity with the unit suffixed when
it is not a plain count (``tx_bytes``, ``latency_ms``), and labels carry
the instance (``iface=eth0.mh``, ``host=router``, ``kind=cold-switch``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: A sorted label set, e.g. ``(("host", "mh"), ("mode", "tunnel"))``.
Labels = Tuple[Tuple[str, str], ...]

#: A metric's identity: (component, name, sorted label items).
MetricKey = Tuple[str, str, Labels]

#: One pulled counter of a component class: ``(component, name, extra
#: labels, attribute)``.  The extra labels join the owner's label set;
#: ``attribute`` names the int the registry reads, or is an
#: ``(attribute, key)`` pair for an int kept in a dict.
Field = Tuple[str, str, Labels, object]

#: Default bucket upper edges for latency histograms, in milliseconds.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0,
)


def _labels_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    # Label values are nearly always str already (host and interface
    # names, modes), and most metrics have one label: skip the str()
    # calls, and the sort too when there is nothing to sort.
    if len(labels) == 1:
        for key, value in labels.items():
            return ((key, value if type(value) is str else str(value)),)
    for value in labels.values():
        if type(value) is not str:
            return tuple(sorted((key, str(value))
                                for key, value in labels.items()))
    return tuple(sorted(labels.items()))


def format_key(component: str, name: str,
               labels: Tuple[Tuple[str, str], ...]) -> str:
    """Render one metric's flat-dict key, e.g. ``tcp/retransmits{host=mh}``."""
    base = f"{component}/{name}"
    if not labels:
        return base
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{base}{{{rendered}}}"


class Metric:
    """Common identity bookkeeping for all metric kinds.

    Slotted (as are all subclasses): registries hold thousands of counters
    in big runs and are pickled across process boundaries by the parallel
    runner, so the per-instance ``__dict__`` is pure overhead.
    """

    kind = "metric"
    __slots__ = ("component", "name", "labels")

    def __init__(self, component: str, name: str,
                 labels: Tuple[Tuple[str, str], ...]) -> None:
        self.component = component
        self.name = name
        self.labels = labels

    @property
    def key(self) -> str:
        """The flat snapshot key for this metric."""
        return format_key(self.component, self.name, self.labels)

    def snapshot_items(self) -> List[Tuple[str, object]]:
        """(key, value) pairs this metric contributes to a snapshot."""
        raise NotImplementedError

    def merge_from(self, other: "Metric") -> None:
        """Fold another instance of the same metric into this one."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonic count of occurrences (packets, drops, retransmits)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, component: str, name: str,
                 labels: Tuple[Tuple[str, str], ...], value: int = 0) -> None:
        super().__init__(component, name, labels)
        self.value: int = value

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative: counters only go up)."""
        if amount < 0:
            raise ValueError(f"counter {self.key} cannot decrease "
                             f"(inc({amount}))")
        self.value += amount

    def snapshot_items(self) -> List[Tuple[str, object]]:
        return [(self.key, self.value)]

    def merge_from(self, other: "Metric") -> None:
        assert isinstance(other, Counter)
        self.value += other.value


class Gauge(Metric):
    """A point-in-time value that can move both ways (queue depth)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, component: str, name: str,
                 labels: Tuple[Tuple[str, str], ...]) -> None:
        super().__init__(component, name, labels)
        self.value: float = 0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = value

    def snapshot_items(self) -> List[Tuple[str, object]]:
        return [(self.key, self.value)]

    def merge_from(self, other: "Metric") -> None:
        assert isinstance(other, Gauge)
        # Merging simulations: the high-water mark is the useful combination
        # for every gauge this codebase exports (depth maxima).
        self.value = max(self.value, other.value)


class Histogram(Metric):
    """Fixed upper-edge buckets plus count/sum/min/max.

    Buckets are cumulative-style on export (``le_<edge>`` counts all
    observations at or below the edge; ``le_inf`` equals ``count``), which
    makes snapshots mergeable and diffable.
    """

    kind = "histogram"
    __slots__ = ("buckets", "bucket_counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, component: str, name: str,
                 labels: Tuple[Tuple[str, str], ...],
                 buckets: Sequence[float]) -> None:
        super().__init__(component, name, labels)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {component}/{name} needs sorted, "
                             f"non-empty bucket edges (got {buckets!r})")
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count: int = 0
        self.total: float = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        for index, edge in enumerate(self.buckets):
            if value <= edge:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[str, int]]:
        """``(le_<edge>, cumulative count)`` pairs, ending with ``le_inf``."""
        out: List[Tuple[str, int]] = []
        running = 0
        for edge, bucket in zip(self.buckets, self.bucket_counts):
            running += bucket
            label = f"{edge:g}"
            out.append((f"le_{label}", running))
        out.append(("le_inf", self.count))
        return out

    def snapshot_items(self) -> List[Tuple[str, object]]:
        base = self.key
        items: List[Tuple[str, object]] = [
            (f"{base}:count", self.count),
            (f"{base}:sum", self.total),
        ]
        for label, value in self.cumulative_buckets():
            items.append((f"{base}:{label}", value))
        return items

    def merge_from(self, other: "Metric") -> None:
        assert isinstance(other, Histogram) and other.buckets == self.buckets
        self.count += other.count
        self.total += other.total
        for index, value in enumerate(other.bucket_counts):
            self.bucket_counts[index] += value
        if other.minimum is not None:
            self.minimum = other.minimum if self.minimum is None \
                else min(self.minimum, other.minimum)
        if other.maximum is not None:
            self.maximum = other.maximum if self.maximum is None \
                else max(self.maximum, other.maximum)


class MetricsRegistry:
    """All metrics of one simulation, keyed by ``component/name`` + labels.

    Two ways in:

    * :meth:`register` -- a component reports plain int attributes it
      keeps anyway.  It calls it once in ``__init__`` with one label
      and a class-level :data:`Field` table; the registry keeps only the
      owner and its label value, and reads the ints, and builds the
      label sets, when it is read.  Every registered field is reported,
      zero-valued ones included.
    * ``counter``/``gauge``/``histogram`` -- get-or-create handles:
      calling them twice with the same identity returns the same object.
      For facts that only some runs produce, touched on first use.

    Every read (:meth:`snapshot`, iteration, :meth:`get`, :meth:`find`,
    :meth:`merge_from`) builds plain :class:`Counter` objects for the
    registered fields it matches, and only those.  Identities that
    collide sum, as get-or-create shares one object: two owners, or an
    owner and a handle.  A field that collides with a gauge or a
    histogram raises :class:`TypeError`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Metric] = {}
        #: ``(id(fields), label key)`` -> (fields, label key, owners,
        #: label values): the owners registered with each field table
        #: and label key, in registration order, and the label value
        #: each passed.  The label set is built when the registry is
        #: read, so registering allocates nothing per owner.
        self._owners: Dict[Tuple[int, str],
                           Tuple[Tuple[Field, ...], str,
                                 List[object], List[str]]] = {}
        #: One shared tuple per distinct handle label set, so repeated
        #: get-or-create calls allocate no fresh copy for each.
        self._label_sets: Dict[Labels, Labels] = {}

    # ---------------------------------------------------------------- factories

    def register(self, owner: object, fields: Tuple[Field, ...],
                 **label: str) -> None:
        """Report each of *owner*'s :data:`Field` ints as a counter.

        *fields* should be a class-level constant: owners sharing one
        table are kept together, and the registry holds it as given.
        *label* is exactly one ``key=value`` naming the owner, its value
        a string the owner already holds.
        """
        (key, value), = label.items()
        entry = self._owners.get((id(fields), key))
        if entry is None:
            entry = self._owners[(id(fields), key)] = (fields, key, [], [])
        entry[2].append(owner)
        entry[3].append(value)

    def owners(self, fields: Tuple[Field, ...]) -> List[object]:
        """The owners registered with field table *fields*, in
        registration order."""
        return [owner for table, _, owners, _ in self._owners.values()
                if table is fields for owner in owners]

    def counter(self, component: str, name: str, **labels: object) -> Counter:
        """Get or create the counter ``component/name{labels}``."""
        return self._get_or_create(Counter, component, name, labels)

    def gauge(self, component: str, name: str, **labels: object) -> Gauge:
        """Get or create the gauge ``component/name{labels}``."""
        return self._get_or_create(Gauge, component, name, labels)

    def histogram(self, component: str, name: str,
                  **labels: object) -> Histogram:
        """Get or create a histogram over the latency buckets in ms."""
        key = self._key(component, name, labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(f"{format_key(*key)} is a {existing.kind}, "
                                f"not a histogram")
            return existing
        metric = Histogram(component, name, key[2], DEFAULT_LATENCY_BUCKETS_MS)
        self._metrics[key] = metric
        return metric

    def _key(self, component: str, name: str,
             labels: Dict[str, object]) -> MetricKey:
        label_set = _labels_key(labels)
        return (component, name,
                self._label_sets.setdefault(label_set, label_set))

    def _get_or_create(self, cls, component: str, name: str,
                       labels: Dict[str, object]):
        key = self._key(component, name, labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(f"{format_key(*key)} is a {existing.kind}, "
                                f"not a {cls.kind}")
            return existing
        metric = cls(component, name, key[2])
        self._metrics[key] = metric
        return metric

    # --------------------------------------------------------------- inspection

    def _view(self, component: Optional[str] = None,
              name: Optional[str] = None,
              labels: Optional[Labels] = None) -> Dict[MetricKey, Metric]:
        """Every metric matching the filter (None matches anything), with
        registered fields read now into fresh counters."""
        view = {key: metric for key, metric in self._metrics.items()
                if (component is None or key[0] == component)
                and (name is None or key[1] == name)
                and (labels is None or key[2] == labels)}
        wanted = None if labels is None else dict(labels)
        for fields, label_key, owners, values in self._owners.values():
            if wanted is not None and label_key not in wanted:
                continue
            for field_component, field_name, extra, attr in fields:
                if (component is not None and field_component != component) \
                        or (name is not None and field_name != name):
                    continue
                attr, item = (attr, None) if type(attr) is str else attr
                for owner, label_value in zip(owners, values):
                    if wanted is not None and \
                            wanted[label_key] != label_value:
                        continue
                    full = ((label_key, label_value),)
                    if extra:
                        full = tuple(sorted(full + extra))
                    if labels is not None and full != labels:
                        continue
                    value = getattr(owner, attr)
                    if item is not None:
                        value = value[item]
                    key = (field_component, field_name, full)
                    metric = view.get(key)
                    if metric is None:
                        view[key] = Counter(field_component, field_name,
                                            full, value)
                    elif not isinstance(metric, Counter):
                        raise TypeError(f"{format_key(*key)} is a "
                                        f"{metric.kind}, not a counter")
                    elif metric is self._metrics.get(key):
                        # Sum into a copy: a read never moves a handle.
                        view[key] = Counter(field_component, field_name,
                                            full, metric.value + value)
                    else:
                        metric.value += value
        return view

    def __len__(self) -> int:
        return len(self._view())

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._view().values())

    def get(self, component: str, name: str, **labels: object) -> Optional[Metric]:
        """The metric with this exact identity, or None."""
        label_set = _labels_key(labels)
        return self._view(component, name, label_set).get(
            (component, name, label_set))

    def find(self, component: str, name: str) -> List[Metric]:
        """Every metric with the given component and name, any labels."""
        return list(self._view(component, name).values())

    def snapshot(self) -> Dict[str, object]:
        """A flat, deterministically ordered ``{key: value}`` dict.

        Counters and gauges contribute one entry; histograms contribute
        ``:count``, ``:sum`` and cumulative ``:le_*`` entries.  Keys are
        sorted, so two runs with the same seed serialize byte-identically.
        """
        items: List[Tuple[str, object]] = []
        for metric in self._view().values():
            items.extend(metric.snapshot_items())
        return dict(sorted(items))

    # ------------------------------------------------------------------ merging

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (summing counters, etc.).

        Only plain metrics land here: *other*'s registered fields arrive
        as counters holding their current values, not as owners.
        """
        for key, metric in other._view().items():
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(metric, Histogram):
                    mine = Histogram(metric.component, metric.name,
                                     metric.labels, metric.buckets)
                else:
                    mine = type(metric)(metric.component, metric.name,
                                        metric.labels)
                self._metrics[key] = mine
            mine.merge_from(metric)

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """A fresh registry combining *registries* (for multi-sim reports).

        It holds no owners, so it references no component and pickles as
        just its metrics.
        """
        out = cls()
        for registry in registries:
            out.merge_from(registry)
        return out
