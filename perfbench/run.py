"""The repository's benchmark: real experiment workloads, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plane_churn|tcp_mobility|ha_fleet \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload ha_fleet --cprofile   # cross-check
    python3 perfbench/run.py --workload ha_fleet --write-expected

Each repetition runs the whole workload in a fresh interpreter
(``rep.py``), serially, with no worker pool.  ``--trace 0`` repeats the
untraced workload at least three times and until ``--seconds`` would be
exceeded, and reports the medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``
plus ``us_per_event``.  ``--trace 1`` runs one untraced and one traced
repetition and reports the per-layer table.

Every run checks correctness: no trial may raise, every repetition must
reproduce the first one's per-trial result digests, event counts and
report digests, and at seed 0 they must equal ``expected.json``.  A
traced run must also close its attribution within 1%.  The last line of
standard output is one JSON object; the exit code is 0 only if the run
was correct.  Full records (digests, span sample) go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: Largest allowed |sum of layer self times - run time| / run time.
CLOSURE_TOLERANCE = 0.01
#: A repetition that takes longer than this is killed and the run fails.
REP_TIMEOUT_S = 150
#: Untraced repetitions per run at least, so one slow one never sets the
#: median.
MIN_REPS = 3


class RepFailed(RuntimeError):
    """A repetition's process crashed, timed out or printed no record."""


def run_rep(workload: str, seed: int, mode: str, size: str) -> Dict[str, object]:
    """Run one repetition in a fresh interpreter and return its record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--size", size]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{mode} repetition exceeded {REP_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{mode} repetition exited {proc.returncode}:\n"
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def fingerprint(record: Dict[str, object]) -> Dict[str, object]:
    """What must repeat exactly: per-trial digests and events, reports."""
    return {"trials": [{"digest": trial["digest"], "events": trial["events"]}
                       for trial in record["trials"]],
            "reports": record["reports"]}


def check_rep(record: Dict[str, object],
              reference: Optional[Dict[str, object]]) -> List[str]:
    """One problem per failed trial (raised or mismatched), plus one for
    mismatched report digests."""
    problems = []
    trials = record["trials"]
    ref_trials = reference["trials"] if reference else [None] * len(trials)
    if len(ref_trials) != len(trials):
        return [f"{len(trials)} trials, expected {len(ref_trials)}"] * len(trials)
    for index, (trial, ref) in enumerate(zip(trials, ref_trials)):
        if trial["error"]:
            problems.append(f"trial {index} raised {trial['error']}")
        elif ref is not None and (trial["digest"], trial["events"]) != (
                ref["digest"], ref["events"]):
            problems.append(f"trial {index}: digest/events {trial['digest'][:12]}/"
                            f"{trial['events']} != {ref['digest'][:12]}/{ref['events']}")
    if reference is not None and record["reports"] != reference["reports"]:
        problems.append(f"report digests {record['reports']} != {reference['reports']}")
    return problems


def load_expected(workload: str) -> Optional[Dict[str, object]]:
    if not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(workload)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(plain: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    wall = statistics.median(rep["wall_s"] for rep in plain)
    return {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(rep["setup_s"] for rep in plain), "s"),
        "us_per_event": metric(wall * 1e6 / plain[0]["events"], "us"),
        "peak_rss_mb": metric(statistics.median(rep["peak_rss_mb"] for rep in plain),
                              "MB"),
    }


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("ns_per_lookup"):
        return "ns"
    if name.endswith("per_frame"):
        return "deliveries/frame"
    return "count"


def per_layer(traced: Dict[str, object], plain: List[Dict[str, object]]
              ) -> Dict[str, Dict[str, object]]:
    table = dict(traced["layers"])
    table["bench.trace_overhead_s"] = (
        traced["wall_s"] - statistics.median(rep["wall_s"] for rep in plain))
    return {name: metric(value, layer_unit(name)) for name, value in table.items()}


def print_layer_shares(traced: Dict[str, object]) -> None:
    run_s = traced["run_s"]
    print(f"traced loop time {run_s:.3f} s; closure error "
          f"{traced['closure_error']:.2e}")
    for layer, self_s in sorted(traced["layer_self_s"].items(),
                                key=lambda item: -item[1]):
        share = self_s / run_s if run_s else 0.0
        print(f"  {layer:<8} {self_s:8.3f} s  {share:6.1%}")


def cross_check(workload: str, seed: int, size: str) -> int:
    """Compare the traced run's two largest layers with cProfile's."""
    traced = run_rep(workload, seed, "traced", size)
    profiled = run_rep(workload, seed, "cprofile", size)
    ranked = {}
    for label, times in (("traced", traced["layer_self_s"]),
                         ("cprofile", profiled["profile_layers"])):
        total = sum(times.values()) or 1.0
        order = sorted(times, key=lambda name: -times[name])
        ranked[label] = order[:2]
        print(f"{label:<9}" + "  ".join(f"{name} {times[name] / total:.1%}"
                                        for name in order[:5]))
    agree = set(ranked["traced"]) == set(ranked["cprofile"])
    print(f"top two: traced {ranked['traced']}, cprofile {ranked['cprofile']} -> "
          f"{'agree' if agree else 'DISAGREE'}")
    return 0 if agree else 1


def write_expected(workload: str) -> int:
    record = run_rep(workload, 0, "plain", "full")
    problems = check_rep(record, None)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    table[workload] = fingerprint(record)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workload} to {EXPECTED.name}")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few seconds of work, for the benchmark's tests")
    parser.add_argument("--cprofile", action="store_true",
                        help="cross-check the traced attribution against cProfile")
    parser.add_argument("--write-expected", action="store_true",
                        help="record seed-0 digests and event counts")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.cprofile:
        return cross_check(args.workload, args.seed, args.size)
    if args.write_expected:
        return write_expected(args.workload)

    started = time.monotonic()
    min_reps = MIN_REPS if args.size == "full" else 1
    plain: List[Dict[str, object]] = []
    try:
        while True:
            rep_started = time.monotonic()
            plain.append(run_rep(args.workload, args.seed, "plain", args.size))
            now = time.monotonic()
            if args.trace or (len(plain) >= min_reps
                              and now - started + (now - rep_started) > args.seconds):
                break
        traced = (run_rep(args.workload, args.seed, "traced", args.size)
                  if args.trace else None)
    except RepFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    expected = (load_expected(args.workload)
                if args.seed == 0 and args.size == "full" else None)
    reference = expected or fingerprint(plain[0])
    reps = plain + ([traced] if traced else [])
    problems = [f"{rep['mode']} repetition {index}: {problem}"
                for index, rep in enumerate(reps)
                for problem in check_rep(rep, reference)]
    attempted = sum(len(rep["trials"]) for rep in reps)
    failed = len(problems)
    if traced and traced["closure_error"] > CLOSURE_TOLERANCE:
        problems.append(f"attribution does not close: error "
                        f"{traced['closure_error']:.3%}")
    correct = not problems

    for index, rep in enumerate(reps):
        print(f"{rep['mode']:<7} rep {index}: wall {rep['wall_s']:.3f} s, setup "
              f"{rep['setup_s']:.3f} s, rss {rep['peak_rss_mb']:.1f} MB, "
              f"events {rep['events']}")
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    print(f"report digests ({'checked against expected.json' if expected else 'recorded'}):"
          f" {json.dumps(fingerprint(plain[0])['reports'])}; trial digests in {out_file.relative_to(ROOT)}")
    print(f"failed_ratio {failed / attempted:.3f} ({failed}/{attempted} trials)")
    for problem in problems:
        print(f"FAILED: {problem}")
    if traced:
        print_layer_shares(traced)

    OUT.mkdir(exist_ok=True)
    out_file.write_text(json.dumps({"reps": reps, "problems": problems}, indent=1))
    metrics = per_layer(traced, plain) if traced else end_to_end(plain)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
