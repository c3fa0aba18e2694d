"""Canned movement scenarios over the Figure-5 testbed.

The paper's narrative movements, packaged as schedulable scripts so tests
can replay them: the daily commute (office Ethernet -> radio on the move ->
home) and a configurable random walk for soak testing.

A scenario is a list of timed steps; :func:`play` schedules them on the
simulator and returns a :class:`ScenarioRun` that records what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from repro.core.handoff import DeviceSwitcher, SwitchTimeline
from repro.net.interface import InterfaceState
from repro.sim.units import s
from repro.testbed.topology import Testbed

#: The commute's time at the office, then on the radio in transit.
OFFICE_DWELL = s(4)
TRANSIT_DWELL = s(6)


@dataclass
class Step:
    """One movement action at a relative time."""

    at: int                      # ns after scenario start
    label: str
    action: Callable[[Testbed, "ScenarioRun"], None]


@dataclass
class ScenarioRun:
    """What a played scenario produced."""

    name: str
    started_at: int
    steps_executed: List[str] = field(default_factory=list)
    switch_timelines: List[SwitchTimeline] = field(default_factory=list)

    @property
    def all_switches_succeeded(self) -> bool:
        """True if every recorded switch completed."""
        return all(timeline.success for timeline in self.switch_timelines)


def play(testbed: Testbed, name: str, steps: List[Step]) -> ScenarioRun:
    """Schedule *steps* relative to now; returns the (live) run record."""
    run = ScenarioRun(name=name, started_at=testbed.sim.now)
    for step in steps:
        def execute(step: Step = step) -> None:
            testbed.sim.trace.emit("scenario", "step", name=name,
                                   label=step.label)
            run.steps_executed.append(step.label)
            step.action(testbed, run)

        testbed.sim.post_later(step.at, execute, label=f"scenario:{step.label}")
    return run


# --------------------------------------------------------------- the commute

def commute(testbed: Testbed) -> ScenarioRun:
    """Office Ethernet -> radio on the move -> back home.

    The paper's motivating journey: "we may need to switch from an
    Ethernet connection to a radio modem as we leave our offices, taking
    our computers with us."
    """
    addresses = testbed.addresses

    def to_office(tb: Testbed, run: ScenarioRun) -> None:
        tb.visit_dept()
        tb.connect_radio(register=False)

    def leave_office(tb: Testbed, run: ScenarioRun) -> None:
        # Cold switch: the Ethernet card comes out of the PCMCIA slot.
        DeviceSwitcher(tb.mobile).cold_switch(
            tb.mh_eth, tb.mh_radio, addresses.mh_radio,
            addresses.radio_net, addresses.router_radio,
            on_done=run.switch_timelines.append)

    def arrive_home(tb: Testbed, run: ScenarioRun) -> None:
        tb.move_mh_cable(tb.home_segment)
        tb.mh_eth.state = InterfaceState.UP
        tb.mobile.come_home(tb.mh_eth, gateway=addresses.router_home)

    return play(testbed, "commute", [
        Step(at=0, label="arrive at the office", action=to_office),
        Step(at=OFFICE_DWELL, label="leave the office (cold to radio)",
             action=leave_office),
        Step(at=OFFICE_DWELL + TRANSIT_DWELL, label="arrive home",
             action=arrive_home),
    ])


# -------------------------------------------------------------- random walk

def random_walk(testbed: Testbed, moves: int,
                dwell: int = s(3)) -> ScenarioRun:
    """Bounce between the department Ethernet and the radio *moves* times.

    Movement order is drawn from the simulation's seeded RNG, so a walk is
    reproducible per seed.  Used for soak tests: whatever the sequence,
    connections must survive and the binding must track the mobile host.
    """
    rng = testbed.sim.rng("scenario")
    steps: List[Step] = []

    def go_ethernet(tb: Testbed, run: ScenarioRun) -> None:
        tb.visit_dept()

    def go_radio(tb: Testbed, run: ScenarioRun) -> None:
        tb.connect_radio(register=True)

    choices = [("ethernet", go_ethernet), ("radio", go_radio)]
    previous = None
    when = 0
    for index in range(moves):
        label, action = choices[rng.randrange(len(choices))]
        if label == previous:
            label, action = choices[(choices[0][0] == label) * 1]
        previous = label
        steps.append(Step(at=when, label=f"move {index}: {label}",
                          action=action))
        when += dwell
    return play(testbed, "random-walk", steps)
