"""Experiment reports and one run's metrics must match committed digests.

Eight kinds of golden, all sha256 digests in ``report_goldens.json``:

* the extension experiments (x1-x6: UDP probes, registration storms,
  sharded fleets, fault injection, TCP congestion control over handoffs)
  at a shrunk parameterization and seeds 0-2 (``x4/1``);
* the fast paper experiments, x1-x6 and x9 at their default seed,
  exactly as ``python -m repro.experiments <id>`` prints them
  (``e1/default``);
* x7's aggregate fleet-scale sweep cut to its two smallest fleet sizes
  plus the default 100k-host failover row (``x7/reduced``);
* x8's audited plane-chaos grid cut to one 24-host fleet in two
  12-host shards (``x8/small``), which pins its shared-Ethernet
  segments through the report, and the same run's ``--metrics`` text
  (``x8/small/metrics``), which pins the order in which the run record
  folds its eight shard trials and the plane's per-host series;
* the full ``metrics.snapshot()`` of one 20-host x4 shard
  (``x4-shard/metrics``), which pins every engine dispatch count and the
  queue high-water exactly, not only through report text;
* the ``--metrics`` text of e1, f6 and x6 at their default seed
  (``e1/metrics``): every counter the CLI prints, zero-valued ones
  included, across TCP, tunnel, handoff and policy-miss traffic;
* the typed record stream of one record-everything Figure-5 testbed run
  (``trace-stream/commute``): DHCP, then the office-radio-home commute
  under a TCP transfer.  Each record contributes its time, category,
  event and every field's name, type name and value, so a packet or
  address object leaking into a field where a string belongs fails here
  even if it would print the same;
* the stdout of every ``examples/*.py`` (``example/quickstart``), which
  ``test_examples.py`` checks as it runs each one.

A change that moves any of these fails this test.  Each default-seed
report is built once per test run by :func:`default_report`; the paper
shape tests in ``test_paper_shapes.py`` read the same objects.

Run from the repo root, the module compares every digest with the file,
prints the keys that differ and exits 1 on any mismatch; ``--write``
rewrites the file instead.  Rewrite it only for an intended change, and
say in the commit why the digests moved::

    PYTHONPATH=src python -m tests.integration.test_report_goldens [--write]
"""

import functools
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import run_experiment
from repro.experiments.exp_ha_scalability import run_fleet_trial
from repro.net.addressing import ip
from repro.obs import capture_simulators, format_report
from repro.parallel import TrialRecord, spawn_seed
from repro.sim import Simulator, ms, s
from repro.testbed import build_testbed
from tests.scenarios import commute
from repro.workloads import TcpBulkReceiver, TcpBulkSender

GOLDEN_PATH = Path(__file__).with_name("report_goldens.json")
EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples")
                  .glob("*.py"))

#: ``(id, reduced grid)`` pairs pinned at seeds 0-2.
SHRUNK_GRIDS = [
    ("x1", dict(probes=4)),
    ("x2", dict(fleet_sizes=(4, 8))),
    ("x3", dict(intervals_ms=(300,))),
    ("x4", dict(fleet_sizes=(40,))),
    ("x5", dict(loss_rates=(0.2,), flap_periods_ms=(700,))),
    ("x6", dict(ccs=("tahoe", "reno"), loss_rates=(0.25,),
                handoffs=(True,))),
]

#: Ids whose full default run takes a couple of seconds at most.
DEFAULT_SEED_IDS = ("e1", "f6", "f7", "f3", "a1", "x1", "x2", "x3", "x4",
                    "x5", "x6", "x9")

#: Default-seed ids whose ``--metrics`` text is pinned as well.
METRICS_IDS = ("e1", "f6", "x6")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def metrics_text(name: str, record: TrialRecord) -> str:
    """The registry report ``python -m repro.experiments <name> --metrics``
    prints after the report, built as the CLI builds it."""
    return format_report(record.metrics, title=f"{name} metrics")


@functools.lru_cache(maxsize=None)
def _default_run(name: str):
    """``(report, --metrics text, kept trace categories)`` of one default
    run; the text is None for ids outside :data:`METRICS_IDS`.  Only these
    survive the run, not its simulators.  The text is built as the CLI
    builds it, from the run's record."""
    record = TrialRecord()
    with capture_simulators() as sims:
        report = run_experiment(name, record=record)
    metrics = metrics_text(name, record) if name in METRICS_IDS else None
    kept = {entry.category for sim in sims for entry in sim.trace}
    return report, metrics, kept


def default_report(name: str):
    """The report ``python -m repro.experiments <name>`` prints, as an
    object; built once per test run and shared, so callers must not
    mutate it."""
    return _default_run(name)[0]


def default_report_digest(name: str) -> str:
    return _sha256(default_report(name).format_report())


def default_metrics_digest(name: str) -> str:
    """The metrics block ``python -m repro.experiments <name> --metrics``
    prints after the report."""
    return _sha256(_default_run(name)[1])


@functools.lru_cache(maxsize=None)
def x8_small_digests() -> tuple:
    """The report and ``--metrics`` digests of x8's grid at one 24-host
    fleet size, two 12-host shards per cell."""
    record = TrialRecord()
    report = run_experiment("x8", fleet_sizes=(24,), shard_hosts=12,
                            record=record)
    return (_sha256(report.format_report()),
            _sha256(metrics_text("x8", record)))


def x7_reduced_digest() -> str:
    """x7's aggregate-model sweep at its two smallest fleet sizes plus the
    default 100k-host failover row, at its default seed."""
    return _sha256(run_experiment(
        "x7", fleet_sizes=(1_000, 10_000)).format_report())


def x4_shard_metrics_digest() -> str:
    """The first shard of x4's default sweep, cut to 20 hosts."""
    with capture_simulators() as sims:
        run_fleet_trial(fleet_size=20, seed=spawn_seed(97, 0, 0))
    (sim,) = sims
    return _sha256(json.dumps(sim.metrics.snapshot(), sort_keys=True))


def commute_trace() -> Simulator:
    """A default (record-everything) testbed run that emits the ip,
    device, tunnel, arp, dhcp, registration, handoff, policy and tcp
    categories: DHCP on the department net, then the commute while the
    correspondent streams to the mobile host over TCP.
    """
    sim = Simulator(seed=2026)
    testbed = build_testbed(sim, with_remote_correspondent=False)
    testbed.move_mh_cable(testbed.dept_segment)
    testbed.mh_eth.remove_address(testbed.addresses.mh_home)
    testbed.mobile.ip.routes.remove_matching(interface=testbed.mh_eth)
    testbed.mh_eth.subnet = testbed.addresses.dept_net
    testbed.mh_dhcp.acquire(on_bound=lambda lease: None)
    sim.run_for(s(1))
    TcpBulkReceiver(testbed.mobile)
    sender = TcpBulkSender(testbed.correspondent, ip("36.135.0.10"),
                           interval=ms(200))
    sender.start()
    commute(testbed)
    sim.run_for(s(12))
    sender.finish()
    sim.run_for(s(5))
    return sim


def typed_stream_digest(trace) -> str:
    """sha256 over every record's time, category, event and sorted
    ``(field, type name, value)`` triples."""
    digest = hashlib.sha256()
    for record in trace:
        fields = tuple((key, type(value).__name__, value)
                       for key, value in sorted(record.fields.items()))
        digest.update(repr((record.time, record.category, record.event,
                            fields)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def golden_digests() -> dict:
    """Every digest this module checks, keyed as in the golden file."""
    digests = {
        f"{name}/{seed}":
            _sha256(run_experiment(name, seed=seed, **grid).format_report())
        for name, grid in SHRUNK_GRIDS for seed in (0, 1, 2)}
    digests.update({f"{name}/default": default_report_digest(name)
                    for name in DEFAULT_SEED_IDS})
    digests.update({f"{name}/metrics": default_metrics_digest(name)
                    for name in METRICS_IDS})
    digests["x8/small"], digests["x8/small/metrics"] = x8_small_digests()
    digests["x7/reduced"] = x7_reduced_digest()
    digests["x4-shard/metrics"] = x4_shard_metrics_digest()
    digests["trace-stream/commute"] = typed_stream_digest(
        commute_trace().trace)
    digests.update({f"example/{path.stem}": example_digest(path)
                    for path in EXAMPLES})
    return digests


def run_example(path: Path) -> subprocess.CompletedProcess:
    """Run one example as its own process, capturing its text output."""
    return subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, timeout=120)


def example_digest(path: Path) -> str:
    return _sha256(run_example(path).stdout)


def golden(key: str) -> str:
    return json.loads(GOLDEN_PATH.read_text())[key]


@pytest.mark.parametrize("name,grid", SHRUNK_GRIDS,
                         ids=[name for name, _ in SHRUNK_GRIDS])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_report_matches_golden(name, grid, seed):
    with capture_simulators() as sims:
        report = run_experiment(name, seed=seed, **grid).format_report()
    assert _sha256(report) == golden(f"{name}/{seed}")
    # Nothing reads these trials' traces: they declare, and keep, nothing.
    assert sims and all(len(sim.trace) == 0 for sim in sims)


@pytest.mark.parametrize("name", DEFAULT_SEED_IDS)
def test_default_seed_report_matches_golden(name):
    assert default_report_digest(name) == golden(f"{name}/default")


@pytest.mark.parametrize("name", METRICS_IDS)
def test_default_seed_metrics_match_golden(name):
    assert default_metrics_digest(name) == golden(f"{name}/metrics")


@pytest.mark.parametrize("name", ["f7", "a1"])
def test_registration_readers_keep_only_registration_records(name):
    """f7 and a1 read the registration trace and declare only that."""
    assert _default_run(name)[2] == {"registration"}


def test_x8_small_grid_report_matches_golden():
    assert x8_small_digests()[0] == golden("x8/small")


def test_x8_small_grid_metrics_match_golden():
    assert x8_small_digests()[1] == golden("x8/small/metrics")


def test_x7_reduced_report_matches_golden():
    assert x7_reduced_digest() == golden("x7/reduced")


def test_x4_shard_metrics_snapshot_matches_golden():
    assert x4_shard_metrics_digest() == golden("x4-shard/metrics")


def test_typed_record_stream_matches_golden():
    sim = commute_trace()
    emitted = {record.category for record in sim.trace}
    assert {"ip", "device", "tunnel", "arp", "dhcp", "registration",
            "handoff", "policy", "tcp"} <= emitted
    assert typed_stream_digest(sim.trace) == golden("trace-stream/commute")


def main(argv) -> int:
    """Compare every digest with the golden file (``--write``: rewrite it)."""
    digests = golden_digests()
    if "--write" in argv:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True)
                               + "\n")
        return 0
    golden = json.loads(GOLDEN_PATH.read_text())
    moved = sorted(key for key in digests.keys() | golden.keys()
                   if digests.get(key) != golden.get(key))
    for key in moved:
        print(key)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
