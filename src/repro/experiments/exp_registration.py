"""Figure 7: the registration time-line.

"We have also collected data to break down the time in each step of the
mobile host's switch to a new address and its registration with the home
agent ...  The measurement is performed with the mobile host registering a
new IP address on the same Ethernet subnet.  The data reflects the average
of 10 tests."

Paper numbers (means):

* total switch (configure + route change + registration + post): 7.39 ms
* registration request -> reply latency: 4.79 ms
* home-agent processing (request received -> reply sent): 1.48 ms

The harness drives :class:`repro.core.handoff.AddressSwitcher` ten times,
alternating between two addresses on net 36.8, and reports per-stage mean
and standard deviation exactly like the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import Config, DEFAULT_CONFIG
from repro.core.handoff import (
    STAGE_CONFIGURE,
    STAGE_POST,
    STAGE_REGISTRATION,
    STAGE_ROUTE_UPDATE,
    AddressSwitcher,
    SwitchTimeline,
)
from repro.experiments.harness import format_table
from repro.parallel import Trial
from repro.sim.engine import Simulator
from repro.sim.units import ms
from repro.stats import Stats, summarize_ms
from repro.testbed import build_testbed

#: Paper values, milliseconds (for EXPERIMENTS.md comparisons).
PAPER_TOTAL_MS = 7.39
PAPER_REQUEST_REPLY_MS = 4.79
PAPER_HA_PROCESSING_MS = 1.48


@dataclass
class RegistrationReport:
    """Per-stage statistics over all iterations, milliseconds."""

    iterations: int
    stages: Dict[str, Stats] = field(default_factory=dict)
    request_reply: Stats = None  # type: ignore[assignment]
    ha_processing: Stats = None  # type: ignore[assignment]
    total: Stats = None  # type: ignore[assignment]

    def format_report(self) -> str:
        """Render the Figure 7 table with paper columns."""
        rows = [
            ("configure interface", self.stages[STAGE_CONFIGURE].format_ms(), "-"),
            ("change route table", self.stages[STAGE_ROUTE_UPDATE].format_ms(), "-"),
            ("registration request -> reply", self.request_reply.format_ms(),
             f"{PAPER_REQUEST_REPLY_MS:.2f}"),
            ("  of which: home agent processing", self.ha_processing.format_ms(),
             f"{PAPER_HA_PROCESSING_MS:.2f}"),
            ("post-registration", self.stages[STAGE_POST].format_ms(), "-"),
            ("TOTAL switch", self.total.format_ms(),
             f"{PAPER_TOTAL_MS:.2f}"),
        ]
        table = format_table(
            ("step", "measured ms: mean (std)", "paper ms"), rows)
        return (f"Figure 7 — registration time-line "
                f"(average of {self.iterations} tests)\n{table}")


def run_registration_trial(iterations: int, seed: int,
                           config: Config = DEFAULT_CONFIG) -> dict:
    """The whole Figure 7 time-line as one trial, plain-data out.

    The iterations share one testbed (each switch starts from the state
    the previous one left), so this experiment is a *single* sequential
    trial — the parallel runner cannot split it, but can overlap it with
    other experiments' trials.
    """
    sim = Simulator(seed=seed)
    sim.trace.record_only("registration")
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=False)
    addresses = testbed.addresses
    testbed.visit_dept()
    sim.run_for(ms(2000))  # settle initial registration

    switcher = AddressSwitcher(testbed.mobile)
    timelines: List[SwitchTimeline] = []
    candidates = [addresses.mh_dept_care_of_2, addresses.mh_dept_care_of]

    for index in range(iterations):
        target = candidates[index % 2]
        done: List[SwitchTimeline] = []
        switcher.switch_address(target, on_done=done.append)
        sim.run_for(ms(2000))
        if not done or not done[0].success:
            raise RuntimeError(f"registration iteration {index} failed")
        timelines.append(done[0])

    stage_durations = {
        stage_name: [timeline.duration_of(stage_name)
                     for timeline in timelines]
        for stage_name in (STAGE_CONFIGURE, STAGE_ROUTE_UPDATE,
                           STAGE_REGISTRATION, STAGE_POST)
    }
    return {
        "stages": stage_durations,
        "request_reply": [timeline.registration_round_trip
                          for timeline in timelines],
        "total": [timeline.total for timeline in timelines],
        "ha_processing": _ha_processing_times(
            sim, [t.registration.reply.identification for t in timelines
                  if t.registration and t.registration.reply]),
    }


def build_registration_trials(iterations: int, seed: int) -> List[Trial]:
    """One sequential trial (the iterations share a testbed)."""
    return [Trial("repro.experiments.exp_registration:run_registration_trial",
                  dict(iterations=iterations, seed=seed,
                       config=DEFAULT_CONFIG))]


def merge_registration_trials(results: List[dict],
                              iterations: int) -> RegistrationReport:
    """Summarize the single trial's raw nanosecond samples."""
    (result,) = results
    report = RegistrationReport(iterations=iterations)
    for stage_name, samples in result["stages"].items():
        report.stages[stage_name] = summarize_ms(samples)
    report.request_reply = summarize_ms(result["request_reply"])
    report.total = summarize_ms(result["total"])
    report.ha_processing = summarize_ms(result["ha_processing"])
    return report


def _ha_processing_times(sim: Simulator, idents: List[int]) -> List[int]:
    """HA-side request-received -> reply-sent deltas, from the trace."""
    received = {record["ident"]: record.time
                for record in sim.trace.select("registration", "ha_received")}
    replied = {record["ident"]: record.time
               for record in sim.trace.select("registration", "ha_reply")}
    out = []
    for ident in idents:
        if ident in received and ident in replied:
            out.append(replied[ident] - received[ident])
    return out
