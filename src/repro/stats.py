"""Mergeable statistics: Welford accumulators and quantile histograms.

This is the numeric foundation of every sharded experiment.  It lives at
the package root — below :mod:`repro.experiments`, :mod:`repro.workloads`
and :mod:`repro.parallel` alike — so that any layer can produce or merge
partial summaries without import cycles.

Two summary kinds compose a shard's partial result:

* :class:`Welford` / :class:`Stats` — single-pass mean/std/min/max with
  Chan et al. pairwise merging, so shards ship five floats instead of raw
  samples and the merged fleet summary is exact.
* :class:`LatencyHistogram` — fixed log-spaced buckets whose integer
  counts merge exactly (addition), giving deterministic quantiles (p99
  binding latency) across any sharding of the same sample multiset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence


@dataclass(frozen=True)
class Stats:
    """Mean/std summary of one measured quantity."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def format_ms(self) -> str:
        """Render as the paper does: ``mean (std)`` in milliseconds."""
        return f"{self.mean:.2f} ({self.std:.2f})"


class Welford:
    """Single-pass mean/variance accumulator with partial-merge support.

    Welford's online update gives mean and sum-of-squared-deviations in
    one pass; :meth:`merge` is Chan et al.'s pairwise combination, which
    lets each shard of a parallel experiment summarize its own samples
    and the merge step fold the partials into one :class:`Stats` without
    ever shipping the raw values between processes.
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample in."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def add_many(self, values: Iterable[float]) -> "Welford":
        """Fold a sequence of samples in; returns self for chaining."""
        for value in values:
            self.add(value)
        return self

    def merge(self, other: "Welford") -> "Welford":
        """Fold another accumulator's partial state in (Chan et al.)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def merge_stats(self, stats: "Stats") -> "Welford":
        """Fold a finalized :class:`Stats` in (recovers its m2)."""
        partial = Welford()
        partial.count = stats.count
        partial.mean = stats.mean
        partial.m2 = stats.std * stats.std * max(stats.count - 1, 0)
        partial.minimum = stats.minimum if stats.count else math.inf
        partial.maximum = stats.maximum if stats.count else -math.inf
        return self.merge(partial)

    def finalize(self) -> Stats:
        """The accumulated samples as a :class:`Stats` (sample std)."""
        if self.count == 0:
            return Stats(count=0, mean=0.0, std=0.0, minimum=0.0, maximum=0.0)
        variance = self.m2 / (self.count - 1) if self.count > 1 else 0.0
        return Stats(count=self.count, mean=self.mean,
                     std=math.sqrt(max(variance, 0.0)),
                     minimum=self.minimum, maximum=self.maximum)


def summarize(values: Sequence[float]) -> Stats:
    """Mean and *sample* standard deviation of *values* (single pass)."""
    return Welford().add_many(values).finalize()


def merge_stats(parts: Sequence[Stats]) -> Stats:
    """Combine per-shard :class:`Stats` into one, exactly and in order.

    A single part is returned unchanged (no float round-trip), so a
    one-shard experiment reports identically to the unsharded original.
    """
    parts = [part for part in parts if part.count]
    if not parts:
        return Stats(count=0, mean=0.0, std=0.0, minimum=0.0, maximum=0.0)
    if len(parts) == 1:
        return parts[0]
    accumulator = Welford()
    for part in parts:
        accumulator.merge_stats(part)
    return accumulator.finalize()


def summarize_ms(values_ns: Sequence[int]) -> Stats:
    """Summarize nanosecond samples in milliseconds."""
    return summarize([value / 1_000_000 for value in values_ns])


#: :class:`LatencyHistogram`'s bucket layout: 200 geometric buckets from
#: 0.05 ms growing by 8%, which reaches beyond 100 s.
HISTOGRAM_LO = 0.05
HISTOGRAM_GROWTH = 1.08
HISTOGRAM_BUCKETS = 200
_LOG_GROWTH = math.log(HISTOGRAM_GROWTH)


class LatencyHistogram:
    """Log-spaced bucket counts with exact merging and quantile lookup.

    Buckets are geometric: bucket *i* covers ``(lo * growth**i,
    lo * growth**(i + 1)]`` with the module's ``HISTOGRAM_*`` layout,
    values at or below ``lo`` land in bucket 0 and values beyond the top
    bucket clamp into it.  Every histogram shares that one layout, so two
    built in different shards or processes merge by integer addition with
    no loss.  Quantiles report a bucket's *upper edge*, which makes them
    deterministic under any sharding of the same samples (at the cost of
    up to one bucket width, ~8%, of overestimate).

    The layout covers 0.05 ms to beyond 100 s, wide enough for a binding
    latency that is a few milliseconds at an idle home agent and seconds
    under overload.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        #: Sparse bucket counts: index -> occurrences.
        self.counts: Dict[int, int] = {}

    @property
    def total(self) -> int:
        """Number of samples folded in."""
        return sum(self.counts.values())

    def bucket_index(self, value: float) -> int:
        """The bucket *value* falls into (clamped at both ends)."""
        if value <= HISTOGRAM_LO:
            return 0
        index = int(math.log(value / HISTOGRAM_LO) / _LOG_GROWTH)
        return min(max(index, 0), HISTOGRAM_BUCKETS - 1)

    def bucket_edge(self, index: int) -> float:
        """Upper edge of bucket *index* (the value quantiles report)."""
        return HISTOGRAM_LO * HISTOGRAM_GROWTH ** (index + 1)

    def add(self, value: float) -> None:
        """Count one sample."""
        index = self.bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another histogram's counts in."""
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        return self

    def quantile(self, q: float) -> float:
        """The upper edge of the bucket holding the *q*-quantile sample.

        Returns 0.0 for an empty histogram.  Exact in the sense that the
        true quantile lies within the reported bucket, and deterministic
        for a given sample multiset regardless of insertion or merge
        order.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.total
        if total == 0:
            return 0.0
        # The ceiling rank: the sample such that >= q of the mass is at or
        # below its bucket.
        rank = max(1, math.ceil(q * total))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return self.bucket_edge(index)
        return self.bucket_edge(max(self.counts))  # pragma: no cover

    # ------------------------------------------------------- serialization

    def to_counts(self) -> Dict[int, int]:
        """Plain-data view of the sparse counts (for trial results)."""
        return dict(self.counts)

    @classmethod
    def from_counts(cls, counts: Dict[int, int]) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`to_counts` output."""
        histogram = cls()
        for index, count in counts.items():
            histogram.counts[int(index)] = int(count)
        return histogram


def merge_histograms(parts: Iterable[LatencyHistogram]) -> LatencyHistogram:
    """Merge histograms in order into a fresh one (empty input allowed)."""
    merged = LatencyHistogram()
    for part in parts:
        merged.merge(part)
    return merged


__all__: List[str] = [
    "Stats",
    "Welford",
    "summarize",
    "merge_stats",
    "summarize_ms",
    "LatencyHistogram",
    "merge_histograms",
]
