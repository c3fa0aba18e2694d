"""Run every experiment and print paper-style reports.

Usage::

    python -m repro.experiments            # everything
    python -m repro.experiments f6 f7      # just those experiments
    python -m repro.experiments --jobs 4   # shard trials across 4 workers
    python -m repro.experiments --figures  # ASCII renderings of fig. 6 & 7
    python -m repro.experiments --metrics  # append per-component counters
    python -m repro.experiments --list     # print ids and titles, exit

Experiment ids: ``e1`` (same-subnet switch), ``f6`` (device switching),
``f7`` (registration time-line), ``f3`` (routing options), ``a1``
(foreign-agent ablation), ``x1``-``x9`` (extensions; ``x4`` is the
sharded 100-1000-host home-agent fleet sweep, ``x5`` the fault-injection
chaos sweep, ``x6`` the TCP congestion-control sweep, ``x7`` the
10^3-10^6 aggregate fleet-scale sweep, ``x8`` the audited binding-plane
chaos grid under live registration load, ``x9`` the x5 fault grid re-run
over a receiver-limited RFC 9293 TCP session).  Each id is one entry of
:data:`repro.experiments.EXPERIMENTS`, run at its default grid and seed
by :func:`repro.experiments.run_experiment`.

``--figures`` renders Figures 7 and 6 from the default f7 and f6 runs;
it takes no ids, ``--metrics`` or ``--profile`` (exit 2 if given).

``--jobs N`` runs each experiment's independent trials across N worker
processes; reports are byte-identical to ``--jobs 1`` (seeds are
addressed by trial, not by worker).  ``--jobs 0`` uses one worker per
CPU.

``--profile`` prints an aggregated :meth:`Simulator.profile` after each
experiment's report: dispatch counts by label kind, queue high-water
mark, simulated-vs-wall throughput.  ``--metrics`` prints the merged
:mod:`repro.obs` registry after its report — link/interface traffic,
tunnel encap/decap, TCP retransmits, registration latency histograms,
and the engine's dispatch counters — followed by every Mobile Policy
Table the run built.  Both read only the run's
:class:`repro.parallel.TrialRecord`, into which the runner folds each
trial's record, built the same way in-process and in pool workers, so
everything but ``--profile``'s wall-clock figures is the same at any
``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs import format_policy_tables, format_report
from repro.experiments import EXPERIMENTS, run_experiment
from repro.parallel import TrialRecord


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments and print their reports.")
    parser.add_argument("ids", nargs="*", metavar="id",
                        help=f"experiment ids to run "
                             f"(default: all of {', '.join(EXPERIMENTS)})")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for trial execution "
                             "(1 = in-process, 0 = one per CPU; results "
                             "are identical at any value)")
    parser.add_argument("--metrics", action="store_true",
                        help="print merged metrics registries per experiment")
    parser.add_argument("--profile", action="store_true",
                        help="print the aggregated engine profile (dispatch "
                             "counts, queue high-water) after each experiment")
    parser.add_argument("--figures", action="store_true",
                        help="render ASCII figures 6 and 7 instead")
    parser.add_argument("--list", action="store_true", dest="list_ids",
                        help="print every experiment id and title, then exit")
    return parser


def aggregate_profiles(record: TrialRecord) -> dict:
    """Fold the simulator profiles of a run's record into one view.

    Monotonic quantities (events, wall time, dispatch counts) sum; the
    queue high-water is the max across simulators.
    """
    total: dict = {
        "simulators": len(record.profiles),
        "events_run": 0,
        "sim_time_ns": 0,
        "wall_time_ns": 0,
        "queue_depth_max": 0,
        "dispatched_by_label": {},
    }
    dispatched = total["dispatched_by_label"]
    for profile in record.profiles:
        total["events_run"] += profile["events_run"]
        total["sim_time_ns"] += profile["sim_time_ns"]
        total["wall_time_ns"] += profile["wall_time_ns"]
        total["queue_depth_max"] = max(total["queue_depth_max"],
                                       profile["queue_depth_max"])
        for label, count in profile["dispatched_by_label"].items():
            dispatched[label] = dispatched.get(label, 0) + count
    wall = total["wall_time_ns"]
    total["sim_to_wall_ratio"] = (total["sim_time_ns"] / wall) if wall else None
    total["dispatched_by_label"] = dict(sorted(dispatched.items()))
    return total


def main(argv: list) -> int:
    try:
        return _run(argv)
    except OSError as exc:
        # A full disk or closed pipe under shell redirection must not look
        # like a successful run to CI.
        print(f"error: failed to write report output: {exc}", file=sys.stderr)
        return 1


def _run(argv: list) -> int:
    args = _parser().parse_args(argv)
    if args.list_ids:
        for name, experiment in EXPERIMENTS.items():
            print(f"{name}  {experiment.title}")
        return _flush_stdout()
    if args.jobs < 0:
        print(f"--jobs must be >= 0, got {args.jobs}", file=sys.stderr)
        return 2
    if args.figures:
        ignored = list(args.ids)
        if args.metrics:
            ignored.append("--metrics")
        if args.profile:
            ignored.append("--profile")
        if ignored:
            print(f"--figures renders figures 6 and 7 only; it cannot take "
                  f"{', '.join(ignored)}", file=sys.stderr)
            return 2
        from repro.experiments.figures import render_figure6, render_figure7

        print(render_figure7(run_experiment("f7", jobs=args.jobs)))
        print()
        print(render_figure6(run_experiment("f6", jobs=args.jobs)))
        return _flush_stdout()
    requested = [name.lower() for name in args.ids] or list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}; "
              f"valid: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in requested:
        print(f"=== {name}: {EXPERIMENTS[name].title} ===")
        record = TrialRecord() if args.metrics or args.profile else None
        report = run_experiment(name, jobs=args.jobs, record=record)
        print(report.format_report())
        if args.metrics:
            print()
            print(format_report(record.metrics, title=f"{name} metrics"))
            if record.policy_tables:
                print(format_policy_tables(record.policy_tables))
        if args.profile:
            print()
            profile = aggregate_profiles(record)
            print(f"--- {name} engine profile "
                  f"({profile['simulators']} simulators) ---")
            print(json.dumps(profile, indent=2, sort_keys=True))
        print()
    return _flush_stdout()


def _flush_stdout() -> int:
    """Force buffered report text out while we can still report failure."""
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
