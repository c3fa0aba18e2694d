"""Benchmark CLI.

Usage::

    python -m repro.bench              # full run, writes BENCH_*.json here
    python -m repro.bench --quick      # smaller workloads (CI-friendly)
    python -m repro.bench --out DIR    # write the JSON files elsewhere
    python -m repro.bench --jobs 4     # worker count for the parallel bench

Runs the engine benchmark, the datapath benchmarks, the same-seed
determinism guard, the TCP congestion-control comparison (plus its
flow-controlled windowed-transfer stage), the
serial-vs-parallel experiment-suite bench, and the aggregate fleet-scale
bench, then writes ``BENCH_engine.json``, ``BENCH_datapath.json``,
``BENCH_tcp.json``, ``BENCH_parallel.json`` and ``BENCH_fleet.json``.
The exit status reflects correctness plus the fleet floors: it is
non-zero if a determinism check fails (the guard, TCP reruns, the
windowed-transfer gate, serial/parallel report divergence, or fleet rerun
divergence), if fleet registration throughput falls below its
registrations/sec floor, or if a BENCH file cannot be written.  Absolute
wall times stay advisory — they belong to the machine; the floors and
identity belong to us.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.datapath_bench import run_datapath_bench
from repro.bench.engine_bench import run_engine_bench
from repro.bench.fleet_bench import run_fleet_bench
from repro.bench.guard import run_determinism_guard
from repro.bench.parallel_bench import run_parallel_bench
from repro.bench.tcp_bench import run_tcp_bench


def _write(path: Path, doc: dict) -> None:
    """Write one BENCH document; a failed write is a failed run.

    CI diffs these files against the committed ones, so silently carrying
    on after an unwritable --out directory would upload stale results.
    """
    try:
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: failed to write benchmark output {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(1)
    print(f"wrote {path}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (for CI smoke runs)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for BENCH_*.json (default: cwd)")
    parser.add_argument("--jobs", type=int, default=4, metavar="N",
                        help="worker processes for the parallel bench "
                             "(0 = one per CPU; default 4)")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    print("== engine benchmark ==")
    engine = run_engine_bench(quick=args.quick)
    heap = engine["heap"]
    print(f"heap             : {heap['ns_per_event']:8.1f} ns/event "
          f"({heap['events_per_sec']:,.0f} events/sec)")

    print("== datapath benchmarks ==")
    datapath = run_datapath_bench(quick=args.quick)
    packets = datapath["packet_construction"]
    print(f"packet build     : {packets['ns_per_packet']:8.1f} ns/packet")
    policy = datapath["policy_lookup"]
    print(f"policy lookup    : {policy['cached_ns_per_lookup']:8.1f} ns cached "
          f"({policy['speedup']:.2f}x, hit rate {policy['cache_hit_rate']:.3f})")
    routing = datapath["routing_lookup"]
    print(f"route lookup     : {routing['cached_ns_per_lookup']:8.1f} ns cached "
          f"({routing['speedup']:.2f}x, hit rate {routing['cache_hit_rate']:.3f})")
    scenario = datapath["scenario_regeneration"]
    print(f"scenario regen   : {scenario['events_per_sec']:,.0f} events/sec")

    print("== determinism guard ==")
    guard = run_determinism_guard()
    for run in guard["runs"]:
        status = "ok" if run["matches_reference"] else "MISMATCH"
        print(f"{run['config']:<20} {run['events_run']:>7} events  {status}")
    datapath["determinism_guard"] = guard

    print("== tcp congestion control ==")
    tcp = run_tcp_bench(quick=args.quick)
    for cc, cell in tcp["cells"].items():
        status = "ok" if cell["rerun_identical"] else "MISMATCH"
        print(f"{cc:<8} goodput {cell['goodput_kbps']:6.1f} kbit/s  "
              f"retrans {cell['retransmits']:>3}  "
              f"{cell['wall_s']:6.2f}s  {status}")
    windowed = tcp["windowed"]
    cell = windowed["cell"]
    status = "ok" if windowed["passed"] else "MISMATCH"
    print(f"windowed goodput {cell['goodput_kbps']:6.1f} kbit/s  "
          f"stall {cell['zero_window_ms']:6.0f} ms  "
          f"probes {cell['persist_probes']:>2}  "
          f"{cell['wall_s']:6.2f}s  {status}")

    print("== parallel experiment runner ==")
    parallel = run_parallel_bench(jobs=args.jobs, quick=args.quick)
    for name, entry in parallel["experiments"].items():
        status = "ok" if entry["identical"] else "MISMATCH"
        print(f"{name:<16} serial {entry['serial_s']:6.2f}s  "
              f"jobs={parallel['jobs']} {entry['parallel_s']:6.2f}s  "
              f"({entry['speedup']:.2f}x)  {status}")
    total = parallel["total"]
    print(f"{'TOTAL':<16} serial {total['serial_s']:6.2f}s  "
          f"jobs={parallel['jobs']} {total['parallel_s']:6.2f}s  "
          f"({total['speedup']:.2f}x on {parallel['cpu_count']} CPUs)")

    print("== fleet scale (aggregate hosts) ==")
    fleet = run_fleet_bench(quick=args.quick)
    fleet_status = "ok" if fleet["rerun_identical"] else "MISMATCH"
    print(f"{fleet['fleet_hosts']:,} hosts  "
          f"{fleet['registrations']:,} registrations  "
          f"{fleet['wall_s']:6.2f}s  "
          f"({fleet['regs_per_sec']:,.0f} regs/sec)  {fleet_status}")
    churn = fleet["audited_churn"]
    churn_status = ("ok" if churn["rerun_identical"]
                    and churn["violations"] == 0 else "MISMATCH")
    print(f"audited churn: {churn['hosts']:,} hosts  "
          f"{churn['registrations']:,} registrations  "
          f"{churn['takeovers']} takeovers  "
          f"{churn['wall_s']:6.2f}s  "
          f"({churn['regs_per_sec']:,.0f} regs/sec)  {churn_status}")

    _write(args.out / "BENCH_engine.json", engine)
    _write(args.out / "BENCH_datapath.json", datapath)
    _write(args.out / "BENCH_tcp.json", tcp)
    _write(args.out / "BENCH_parallel.json", parallel)
    _write(args.out / "BENCH_fleet.json", fleet)

    failed = False
    if not guard["passed"]:
        print("determinism guard FAILED: the lookup caches changed "
              "simulation results",
              file=sys.stderr)
        failed = True
    else:
        print("determinism guard passed: snapshots byte-identical "
              "across configs")
    if not tcp["deterministic"]:
        print("tcp bench FAILED: a congestion-control strategy is "
              "nondeterministic", file=sys.stderr)
        failed = True
    else:
        print("tcp bench passed: same-seed reruns identical for "
              + ", ".join(tcp["cells"]))
    if not tcp["windowed"]["passed"]:
        print("windowed transfer FAILED: rerun diverged, no data moved, "
              "no zero-window stall, or (full mode) no persist probes",
              file=sys.stderr)
        failed = True
    else:
        print("windowed transfer passed: rerun identical, "
              f"{tcp['windowed']['cell']['zero_window_ms']:.0f} ms stalled, "
              f"{tcp['windowed']['cell']['persist_probes']} probes")
    if not parallel["identical"]:
        print("parallel determinism FAILED: --jobs changed experiment "
              "reports", file=sys.stderr)
        failed = True
    else:
        print(f"parallel determinism passed: jobs={parallel['jobs']} "
              f"reports identical to serial")
    if not fleet["meets_floor"]:
        print(f"fleet bench FAILED: {fleet['regs_per_sec']:,.0f} regs/sec is "
              f"below the {fleet['min_regs_per_sec']:,.0f} floor",
              file=sys.stderr)
        failed = True
    elif not fleet["rerun_identical"]:
        print("fleet bench FAILED: same-seed rerun produced a different "
              "report", file=sys.stderr)
        failed = True
    else:
        print(f"fleet bench passed: {fleet['regs_per_sec']:,.0f} regs/sec "
              f"(floor {fleet['min_regs_per_sec']:,.0f}), rerun identical")
    churn = fleet["audited_churn"]
    if churn["violations"] != 0:
        print(f"audited churn FAILED: {churn['violations']} plane "
              "invariant violation(s)", file=sys.stderr)
        failed = True
    elif not churn["meets_floor"]:
        print(f"audited churn FAILED: {churn['regs_per_sec']:,.0f} regs/sec "
              f"is below the {churn['min_regs_per_sec']:,.0f} floor",
              file=sys.stderr)
        failed = True
    elif not churn["rerun_identical"]:
        print("audited churn FAILED: same-seed rerun produced a different "
              "result", file=sys.stderr)
        failed = True
    else:
        print(f"audited churn passed: zero violations, "
              f"{churn['regs_per_sec']:,.0f} regs/sec "
              f"(floor {churn['min_regs_per_sec']:,.0f}), rerun identical")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
