"""ASCII renderings of the paper's figures from measured reports.

The reports' ``format_report()`` methods give compact tables; these
renderers reproduce the *figures* — Figure 6's per-case histograms with
iteration counts on the y-axis, and Figure 7's proportional time-line —
so a terminal diff against the paper is possible at a glance.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.handoff import (
    STAGE_CONFIGURE,
    STAGE_POST,
    STAGE_ROUTE_UPDATE,
)
from repro.experiments.exp_device_switch import DeviceSwitchReport, SwitchCase
from repro.experiments.exp_registration import RegistrationReport


def render_histogram(counts: Dict[int, int],
                     x_label: str = "packets lost") -> str:
    """A vertical bar chart: x = value, y = occurrences (Figure 6 style)."""
    if not counts:
        return "(no data)"
    max_value = max(counts)
    peak = max(counts.values())
    scale = max(peak, 1)
    rows: List[str] = []
    height = min(10, scale)  # rows of bars
    for level in range(height, 0, -1):
        threshold = level * scale / height
        cells = []
        for value in range(max_value + 1):
            filled = counts.get(value, 0) >= threshold
            cells.append(" # " if filled else "   ")
        label = f"{int(threshold):>3} |" if level in (height, 1) \
            else "    |"
        rows.append(label + "".join(cells))
    axis = "    +" + "---" * (max_value + 1)
    ticks = "     " + "".join(f"{value:^3}" for value in range(max_value + 1))
    rows.append(axis)
    rows.append(ticks)
    rows.append(f"     {x_label}")
    return "\n".join(rows)


def render_figure6(report: DeviceSwitchReport) -> str:
    """The four histograms of Figure 6, side by side vertically."""
    blocks = [f"Figure 6 — device switching overhead "
              f"({report.iterations} iterations per case)"]
    for case in SwitchCase:
        result = report.cases[case]
        blocks.append(f"\n{case.value}:")
        blocks.append(render_histogram(result.loss_histogram))
    return "\n".join(blocks)


def render_figure7(report: RegistrationReport) -> str:
    """Figure 7's time-line: proportional horizontal bars per step."""
    steps = [
        ("configure interface", report.stages[STAGE_CONFIGURE].mean),
        ("change route table", report.stages[STAGE_ROUTE_UPDATE].mean),
        ("registration req->reply", report.request_reply.mean),
        ("post-registration", report.stages[STAGE_POST].mean),
    ]
    total = report.total.mean
    longest = max(duration for _, duration in steps)
    width = 48  # characters of the longest bar
    lines = [f"Figure 7 — registration time-line "
             f"(total {total:.2f} ms, average of {report.iterations} tests)"]
    for label, duration in steps:
        bar = "#" * max(1, int(round(duration / longest * width)))
        lines.append(f"  {label:<26}|{bar:<{width}}| {duration:5.2f} ms")
    marker = " " * 28 + "^" + " " * (width - 2) + "^"
    lines.append(marker)
    lines.append(" " * 28 + "start" + " " * (width - 9) + "end")
    return "\n".join(lines)
