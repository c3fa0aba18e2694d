"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that every
repetition's peak RSS is its own.  It runs the workload's trials
serially, in order, and prints one JSON record as its last line: host
times, per-trial result digests and event counts, report digests, and —
in ``traced`` mode — the per-layer table, or in ``cprofile`` mode the
cProfile tottime grouped into the same layers.

Usage (``src`` must be importable)::

    PYTHONPATH=src python3 perfbench/rep.py --workload ha_fleet --seed 0 \
        --mode plain|traced|cprofile [--size full|tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from typing import Dict, List, Optional

from spans import SpanTracer, group_profile, layer_metrics
from workloads import WORKLOADS

MODES = ("plain", "traced", "cprofile")


def digest_result(result: object) -> str:
    """sha256 of a trial result's canonical JSON form."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _counter_total(sims: list, component: str, name: str) -> int:
    return sum(metric.value for sim in sims
               for metric in sim.metrics.find(component, name))


@contextlib.contextmanager
def _profiled_runs(profiler):
    """Profile only inside ``Simulator.run``, as the traced run times."""
    from repro.sim.engine import Simulator

    original = Simulator.__dict__["run"]

    def run(sim, *args, **kwargs):
        profiler.enable()
        try:
            return original(sim, *args, **kwargs)
        finally:
            profiler.disable()

    Simulator.run = run
    try:
        yield
    finally:
        Simulator.run = original


def import_all() -> None:
    """Import every ``repro`` module up front.

    Trials import some modules lazily; doing it here keeps import time
    out of the timed region in every mode, and means no module can bind
    a wrapped function after the tracer is installed.
    """
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def run_workload(name: str, seed: int, mode: str = "plain",
                 size: str = "full") -> Dict[str, object]:
    """Run every trial of workload *name*; return the repetition record."""
    import_all()
    from repro.obs import capture_simulators
    from repro.parallel import resolve_trial

    workload = WORKLOADS[name]
    trials = workload.trials(seed, size)
    funcs = [resolve_trial(trial.func) for trial in trials]
    tracer = SpanTracer(layered=(mode == "traced"))
    profiler = None
    if mode == "cprofile":
        import cProfile
        profiler = cProfile.Profile()

    results: List[Optional[dict]] = []
    records: List[Dict[str, object]] = []
    extras = {"events": 0, "queue_depth_max": 0, "retransmits": 0,
              "records_retained": 0, "reg_accepted": 0, "reg_attempts": 0}
    setup_ns = wall_ns = 0
    clock = time.perf_counter_ns
    with tracer, (_profiled_runs(profiler) if profiler else contextlib.nullcontext()):
        for trial, func in zip(trials, funcs):
            tracer.first_run_ns = None
            error = None
            with capture_simulators() as sims:
                trial_start = clock()
                try:
                    result = func(**trial.params)
                except Exception as exc:  # a failed trial is counted, not fatal
                    result, error = None, f"{type(exc).__name__}: {exc}"
                trial_end = clock()
            wall_ns += trial_end - trial_start
            setup_ns += (tracer.first_run_ns or trial_end) - trial_start
            # Bookkeeping below is outside the timed region.
            events = sum(sim.events_run for sim in sims)
            extras["events"] += events
            extras["queue_depth_max"] = max(
                [extras["queue_depth_max"]]
                + [sim.metrics.gauge("engine", "queue_depth_max").value for sim in sims])
            extras["records_retained"] += sum(len(sim.trace) for sim in sims)
            extras["retransmits"] += _counter_total(sims, "tcp", "retransmits")
            extras["reg_accepted"] += _counter_total(
                sims, "home_agent", "registrations_accepted")
            extras["reg_attempts"] += _counter_total(sims, "registration", "attempts")
            del sims
            results.append(result)
            records.append({"events": events, "error": error})
        merge_start = clock()
        reports = ({} if any(r is None for r in results)
                   else workload.reports(results, size))
        wall_ns += clock() - merge_start

    for record, result in zip(records, results):
        record["digest"] = None if result is None else digest_result(result)
    out: Dict[str, object] = {
        "workload": name, "seed": seed, "mode": mode, "size": size,
        "wall_s": wall_ns / 1e9,
        "setup_s": setup_ns / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "events": extras["events"],
        "trials": records,
        "reports": {key: digest_text(text) for key, text in reports.items()},
    }
    if mode == "traced":
        accepted, attempts = (extras["reg_accepted"], extras["reg_attempts"])
        if all(r is not None for r in results):
            outcome = workload.registrations(results)
            if outcome is not None:
                accepted, attempts = outcome
        out["layers"] = layer_metrics(tracer, dict(extras, accepted=accepted,
                                                   attempts=attempts))
        out["layer_self_s"] = {layer: ns / 1e9
                               for layer, ns in tracer.layer_self_ns().items()}
        out["run_s"] = tracer.run_ns() / 1e9
        out["closure_error"] = tracer.closure_error()
        out["span_sample"] = tracer.sample
    if profiler is not None:
        import pstats
        out["profile_layers"] = group_profile(pstats.Stats(profiler).stats)
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    record = run_workload(args.workload, args.seed, args.mode, args.size)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
