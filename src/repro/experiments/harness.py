"""Shared experiment machinery: histograms, tables, serialization.

The statistics core (Welford accumulators, mergeable ``Stats``, quantile
histograms) lives in :mod:`repro.stats`, below every layer that merges
partial summaries.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, Iterable, List, Sequence


def histogram(values: Iterable[int]) -> Dict[int, int]:
    """Count occurrences of each integer value (Figure 6's bar heights)."""
    counts: Dict[int, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))


def format_histogram(counts: Dict[int, int]) -> str:
    """ASCII rendering of a loss histogram, one bar per value."""
    if not counts:
        return "(no data)"
    lines = []
    for value in sorted(counts):
        bar = "#" * counts[value]
        lines.append(f"  {value:>3} packets lost: {bar} ({counts[value]})")
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Left-aligned plain-text table."""
    cells = [[str(header) for header in headers]]
    cells.extend([str(value) for value in row] for row in rows)
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    out: List[str] = []
    for index, row in enumerate(cells):
        line = "  ".join(value.ljust(width) for value, width in zip(row, widths))
        out.append(line.rstrip())
        if index == 0:
            out.append("  ".join("-" * width for width in widths))
    return "\n".join(out)


def as_plain_data(value: Any) -> Any:
    """Convert any experiment report to JSON-ready plain data.

    Dataclasses become dicts, enums become their values, dict keys are
    stringified when they are not already plain.  Lets downstream tooling
    (plots, CSV, regression tracking) consume every report uniformly:

    >>> import json
    >>> json.dumps(as_plain_data(report))  # doctest: +SKIP
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: as_plain_data(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {
            (key if isinstance(key, (str, int, float, bool)) or key is None
             else (key.value if isinstance(key, enum.Enum) else str(key))):
            as_plain_data(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [as_plain_data(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)

