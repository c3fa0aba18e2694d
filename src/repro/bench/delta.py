"""Compare freshly generated BENCH_*.json files against committed ones.

CI runs the benchmarks, then invokes this module to diff the new numbers
against the BENCH files committed at the repository root and uploads the
result as an artifact.  The delta is *advisory by design*: absolute wall
times vary across runner generations, so the bench gates on its identity
checks and throughput floors, never on this report.  Exit status is
non-zero only when an input file is missing/unreadable or the report
cannot be written.

Usage::

    python -m repro.bench.delta --old . --new bench-results \
        --out bench-results/BENCH_delta.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The benchmark documents a full ``python -m repro.bench`` run writes.
BENCH_FILES = (
    "BENCH_engine.json",
    "BENCH_datapath.json",
    "BENCH_tcp.json",
    "BENCH_parallel.json",
    "BENCH_fleet.json",
)


def _numeric_leaves(doc: object, prefix: str = "") -> Dict[str, float]:
    """Flatten every numeric leaf of a JSON document to ``a.b.c`` paths."""
    out: Dict[str, float] = {}
    if isinstance(doc, bool):
        return out
    if isinstance(doc, (int, float)):
        out[prefix] = float(doc)
        return out
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(_numeric_leaves(value, path))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            path = f"{prefix}[{index}]"
            out.update(_numeric_leaves(value, path))
    return out


def compare_docs(old: object, new: object) -> List[Dict[str, object]]:
    """Per-leaf deltas between two BENCH documents, sorted by path."""
    old_leaves = _numeric_leaves(old)
    new_leaves = _numeric_leaves(new)
    rows: List[Dict[str, object]] = []
    for path in sorted(set(old_leaves) | set(new_leaves)):
        before = old_leaves.get(path)
        after = new_leaves.get(path)
        row: Dict[str, object] = {"path": path, "old": before, "new": after}
        if before is not None and after is not None and before != 0:
            row["ratio"] = after / before
        rows.append(row)
    return rows


def _load(path: Path) -> Tuple[Optional[object], Optional[str]]:
    try:
        return json.loads(path.read_text()), None
    except OSError as exc:
        return None, f"unreadable: {exc}"
    except ValueError as exc:
        return None, f"invalid JSON: {exc}"


def build_delta(old_dir: Path, new_dir: Path) -> Tuple[Dict[str, object], List[str]]:
    """The full delta document plus a list of hard errors."""
    report: Dict[str, object] = {"old_dir": str(old_dir),
                                 "new_dir": str(new_dir),
                                 "benches": {}}
    errors: List[str] = []
    for name in BENCH_FILES:
        old_doc, old_err = _load(old_dir / name)
        new_doc, new_err = _load(new_dir / name)
        if old_err:
            errors.append(f"{old_dir / name}: {old_err}")
        if new_err:
            errors.append(f"{new_dir / name}: {new_err}")
        if old_doc is None or new_doc is None:
            continue
        report["benches"][name] = compare_docs(old_doc, new_doc)  # type: ignore[index]
    return report, errors


#: Headline ratios summarized on stdout (path, label, higher-is-better).
_HEADLINES = (
    ("BENCH_datapath.json", "scenario_regeneration.events_per_sec",
     "scenario events/sec"),
    ("BENCH_parallel.json", "total.speedup", "parallel total speedup"),
    ("BENCH_fleet.json", "regs_per_sec", "fleet regs/sec"),
    ("BENCH_fleet.json", "audited_churn.regs_per_sec",
     "audited churn regs/sec"),
)


def _print_summary(report: Dict[str, object]) -> None:
    benches = report["benches"]
    for file_name, path, label in _HEADLINES:
        rows = benches.get(file_name)  # type: ignore[union-attr]
        if not rows:
            continue
        for row in rows:
            if row["path"] == path and row.get("ratio") is not None:
                print(f"{label:<24} {row['old']:>12.2f} -> {row['new']:>12.2f}"
                      f"  ({row['ratio']:.2f}x of committed)")
                break


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.delta",
        description=__doc__.splitlines()[0])
    parser.add_argument("--old", type=Path, default=Path("."),
                        help="directory with the committed BENCH files "
                             "(default: cwd)")
    parser.add_argument("--new", type=Path, required=True,
                        help="directory with freshly generated BENCH files")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the delta report JSON here")
    args = parser.parse_args(argv)

    report, errors = build_delta(args.old, args.new)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 1
    _print_summary(report)
    if args.out is not None:
        try:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"error: failed to write delta report {args.out}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
