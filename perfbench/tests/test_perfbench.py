"""The benchmark's own checks, at tiny workload sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _originals():
    """Every attribute the tracer may replace, as currently bound."""
    rep.import_all()
    found = {}
    for probe in spans.PROBES + (spans.Probe("engine", "repro.sim.engine", "Simulator",
                                             "run", spans.RUN_KEY),):
        module = importlib.import_module(probe.module)
        if probe.owner:
            owner = getattr(module, probe.owner)
            found[(probe.owner, probe.attr)] = owner.__dict__[probe.attr]
        else:
            for name, other in list(sys.modules.items()):
                if name.startswith("repro.") and probe.attr in vars(other):
                    found[(name, probe.attr)] = vars(other)[probe.attr]
    return found


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_is_neutral(workload):
    before = _originals()
    plain = rep.run_workload(workload, 0, "plain", "tiny")
    traced = rep.run_workload(workload, 0, "traced", "tiny")
    assert run.check_rep(plain, None) == []
    assert run.fingerprint(traced) == run.fingerprint(plain)
    after = _originals()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key
    assert traced["closure_error"] <= run.CLOSURE_TOLERANCE


def test_attribution_adds_up():
    traced = rep.run_workload("tcp_mobility", 0, "traced", "tiny")
    layers = traced["layers"]
    total = layers["engine.self_s"] + sum(
        value for name, value in layers.items()
        if name.endswith(".self_s") and name != "engine.self_s")
    assert total == pytest.approx(traced["run_s"], rel=run.CLOSURE_TOLERANCE)


def test_reentrant_spans_count_once():
    tracer = spans.SpanTracer()
    stat = [0, 0, 0, 0]

    def nest(depth):
        time.sleep(0.001)
        if depth:
            wrapped(depth - 1)

    wrapped = tracer._wrap(nest, stat, "k")
    tracer._stack.append(0)
    start = time.perf_counter_ns()
    wrapped(2)
    outer = time.perf_counter_ns() - start
    assert stat[0] == 3
    # Inclusive time is the outermost span's alone, and the three self
    # times add up to it.
    assert stat[1] == stat[2] == tracer._stack[0] <= outer


def test_cprofile_grouping_bills_callers():
    layered = ("/x/src/repro/net/ip.py", 1, "send")
    engine = ("/x/src/repro/sim/engine.py", 1, "run")
    helper = ("/x/src/repro/net/addressing.py", 1, "__contains__")
    raw = {
        engine: (1, 1, 1.0, 9.0, {}),
        layered: (1, 1, 2.0, 8.0, {engine: (1, 1, 2.0, 8.0)}),
        helper: (2, 2, 4.0, 4.0, {layered: (1, 1, 3.0, 3.0),
                                  engine: (1, 1, 1.0, 1.0)}),
    }
    grouped = spans.group_profile(raw)
    assert grouped["ip"] == pytest.approx(2.0 + 3.0)
    assert grouped["engine"] == pytest.approx(1.0 + 1.0)


def _last_json(args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_and_workload_names_match_benchmark_json():
    workload_names = [entry["name"] for entry in BENCHMARK["workloads"]]
    assert workload_names == list(workloads.WORKLOADS)
    declared = {"0": BENCHMARK["end_to_end"], "1": BENCHMARK["per_layer"]}
    for trace, entries in declared.items():
        result = _last_json(["--workload", "ha_fleet", "--size", "tiny",
                             "--seconds", "1", "--trace", trace])
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [entry["name"] for entry in entries]
        for entry in entries:
            assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    for name in workload_names + [entry["name"] for entries in declared.values()
                                  for entry in entries]:
        assert NAME.fullmatch(name), name
