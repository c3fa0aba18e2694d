"""Figure 6: device switching overhead.

"The second experiment measures the disruption when switching between two
types of devices, both from wired to wireless and from wireless to wired.
We further subdivide this latter experiment to distinguish between cold
switching and hot switching. ...  For these tests the correspondent host
sends a UDP packet every 250 milliseconds ...  Figure 6 shows our results
for this second set of experiments, after running each experiment 10
times."

Paper shape: cold switches lose packets over an interval "generally less
than 1.25 seconds" (so up to ~5 packets at 250 ms spacing), dominated by
bringing up the new interface; hot switches "usually see no packet loss"
(one observed loss was the radio itself dropping a packet).

Four cases, ten iterations each, loss histograms per case — exactly the
figure's bar chart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import Config, DEFAULT_CONFIG
from repro.core.handoff import DeviceSwitcher, SwitchTimeline
from repro.experiments.harness import format_histogram, histogram
from repro.net.interface import InterfaceState
from repro.parallel import Trial
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.testbed import Testbed, build_testbed
from repro.workloads.udp_echo import run_echo, switch_phase

#: Probe spacing: "we chose the 250 ms interval because the round-trip time
#: between the home agent and the mobile host through the radio interface
#: is 200~250 ms".
PROBE_INTERVAL = ms(250)
PAPER_ITERATIONS = 10
#: Paper: cold-switch loss interval is generally under 1.25 s.
PAPER_COLD_OUTAGE_BOUND_MS = 1250.0


class SwitchCase(enum.Enum):
    """The four bars of Figure 6."""

    COLD_WIRED_TO_WIRELESS = "cold ethernet->radio"
    COLD_WIRELESS_TO_WIRED = "cold radio->ethernet"
    HOT_WIRED_TO_WIRELESS = "hot ethernet->radio"
    HOT_WIRELESS_TO_WIRED = "hot radio->ethernet"

    @property
    def cold(self) -> bool:
        """True for the cold (tear-down-first) cases."""
        return self in (SwitchCase.COLD_WIRED_TO_WIRELESS,
                        SwitchCase.COLD_WIRELESS_TO_WIRED)

    @property
    def starts_on_radio(self) -> bool:
        """True when the starting attachment is the radio."""
        return self in (SwitchCase.COLD_WIRELESS_TO_WIRED,
                        SwitchCase.HOT_WIRELESS_TO_WIRED)


@dataclass
class CaseResult:
    """Ten iterations of one switch case."""

    case: SwitchCase
    losses: List[int] = field(default_factory=list)
    switch_totals_ms: List[float] = field(default_factory=list)

    @property
    def loss_histogram(self) -> Dict[int, int]:
        """Losses as {packets lost: iterations}."""
        return histogram(self.losses)

    @property
    def max_loss(self) -> int:
        """Worst single-iteration loss."""
        return max(self.losses) if self.losses else 0

    @property
    def mean_loss(self) -> float:
        """Average packets lost per iteration."""
        return sum(self.losses) / len(self.losses) if self.losses else 0.0


@dataclass
class DeviceSwitchReport:
    """All four cases of Figure 6."""

    iterations: int
    cases: Dict[SwitchCase, CaseResult] = field(default_factory=dict)

    def format_report(self) -> str:
        """Render all four cases, paper-style."""
        lines = [f"Figure 6 — device switching overhead "
                 f"({self.iterations} iterations per case, UDP probe every "
                 f"{PROBE_INTERVAL / 1_000_000:g} ms)"]
        for case in SwitchCase:
            result = self.cases[case]
            mean_total = (sum(result.switch_totals_ms)
                          / len(result.switch_totals_ms))
            lines.append(f"\n{case.value}  (mean switch {mean_total:.0f} ms)")
            lines.append(format_histogram(result.loss_histogram))
        cold_max = max(self.cases[c].max_loss for c in SwitchCase if c.cold)
        hot_mean = sum(self.cases[c].mean_loss
                       for c in SwitchCase if not c.cold) / 2
        lines.append(
            f"\ncold switches lose up to {cold_max} packets "
            f"(paper: outage generally < 1.25 s, i.e. <= ~5 packets); "
            f"hot switches lose {hot_mean:.2f} packets on average "
            f"(paper: usually none)")
        return "\n".join(lines)


def _prepare(seed: int, config: Config, case: SwitchCase) -> Testbed:
    """Fresh testbed positioned at the case's starting attachment."""
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=False)
    addresses = testbed.addresses
    if case.starts_on_radio:
        # Start attached via the radio; the Ethernet card is plugged into
        # net 36.8 but the interface is down (cold) or up+configured (hot).
        testbed.connect_radio(register=True)
        testbed.move_mh_cable(testbed.dept_segment)
        testbed.mh_eth.remove_address(addresses.mh_home)
        testbed.mobile.ip.routes.remove_matching(interface=testbed.mh_eth)
        if case.cold:
            testbed.mh_eth.state = InterfaceState.DOWN
        else:
            testbed.mh_eth.subnet = addresses.dept_net
            testbed.mh_eth.add_address(addresses.mh_dept_care_of,
                                       make_primary=True)
    else:
        # Start attached via Ethernet on net 36.8; radio down (cold) or
        # up with its static address (hot).
        testbed.visit_dept()
        if case.cold:
            testbed.mh_radio.subnet = addresses.radio_net
            testbed.mh_radio.add_address(addresses.mh_radio, make_primary=True)
        else:
            testbed.connect_radio(register=False)
    return testbed


def _switch(testbed: Testbed, case: SwitchCase,
            on_done) -> None:
    addresses = testbed.addresses
    switcher = DeviceSwitcher(testbed.mobile)
    if case.starts_on_radio:
        new_iface, old_iface = testbed.mh_eth, testbed.mh_radio
        care_of, net, gateway = (addresses.mh_dept_care_of, addresses.dept_net,
                                 addresses.router_dept)
    else:
        new_iface, old_iface = testbed.mh_radio, testbed.mh_eth
        care_of, net, gateway = (addresses.mh_radio, addresses.radio_net,
                                 addresses.router_radio)
    if case.cold:
        switcher.cold_switch(old_iface, new_iface, care_of, net, gateway,
                             on_done=on_done)
    else:
        switcher.hot_switch(new_iface, care_of, net, gateway, on_done=on_done)


def run_device_switch_trial(case_name: str, index: int, iterations: int,
                            seed: int,
                            config: Config = DEFAULT_CONFIG) -> dict:
    """One (case, iteration) cell of Figure 6 as a pure trial unit."""
    case = SwitchCase[case_name]
    testbed = _prepare(seed, config, case)
    timelines: List[SwitchTimeline] = []
    stream = run_echo(
        testbed, testbed.correspondent, testbed.mobile,
        testbed.addresses.mh_home, PROBE_INTERVAL, settle=ms(800),
        run=s(8), drain=s(3),
        switch=lambda: _switch(testbed, case, timelines.append),
        switch_at=s(2) + switch_phase(index, iterations, PROBE_INTERVAL))

    if not timelines or not timelines[0].success:
        raise RuntimeError(f"{case.value} iteration {index} failed")
    return {"loss": stream.lost_count(),
            "switch_total_ms": timelines[0].total / 1_000_000}


def build_device_switch_trials(iterations: int, seed: int) -> List[Trial]:
    """4 cases x *iterations* trials, seeds exactly as the serial loop."""
    trials: List[Trial] = []
    for case_index, case in enumerate(SwitchCase):
        for index in range(iterations):
            trials.append(Trial(
                "repro.experiments.exp_device_switch:run_device_switch_trial",
                dict(case_name=case.name, index=index, iterations=iterations,
                     seed=seed + index * 131 + case_index * 9973,
                     config=DEFAULT_CONFIG)))
    return trials


def merge_device_switch_trials(results: List[dict],
                               iterations: int) -> DeviceSwitchReport:
    """Regroup the ordered (case-major) trial results into the report."""
    report = DeviceSwitchReport(iterations=iterations)
    cursor = iter(results)
    for case in SwitchCase:
        case_result = CaseResult(case=case)
        for _ in range(iterations):
            result = next(cursor)
            case_result.losses.append(result["loss"])
            case_result.switch_totals_ms.append(result["switch_total_ms"])
        report.cases[case] = case_result
    return report
