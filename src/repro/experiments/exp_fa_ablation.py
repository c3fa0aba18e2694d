"""Section 5.1's foreign-agent ablation: does an FA reduce packet loss?

The paper's honest accounting of its own design choice:

"Foreign agents may somewhat reduce packet loss.  When a mobile host
leaves a network, it must inform its home agent of its new care-of
address.  However, any packets already sent by the home agent before it
receives the new registration will arrive at the old network and will be
lost.  If, however, a foreign agent in the old network receives the new
registration before the packets arrive, it can forward the packets to the
mobile host's new care-of address."

The scenario that makes the difference visible is a cold switch *away
from the radio network*: the radio path holds ~100 ms of in-flight
packets, so packets tunneled before the home agent learns the new
location keep arriving at the old network for a while.

* **Without FA** (MosquitoNet): those packets hit the mobile host's dead
  radio interface and are lost.
* **With FA** on the radio network: the mobile host was attached through
  the FA; when it registers its new care-of address it also notifies the
  old FA (the "new registration" reaching the old network), which
  re-tunnels late arrivals to the new location.

Both configurations perform the same movement with the same probe stream;
the report compares loss distributions.  The paper predicts a modest
reduction — and concludes the benefit is not worth requiring FAs
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.config import Config, DEFAULT_CONFIG
from repro.core.handoff import DeviceSwitcher, SwitchTimeline
from repro.experiments.harness import format_histogram, histogram
from repro.net.interface import InterfaceState
from repro.parallel import Trial
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.testbed import build_testbed
from repro.workloads.udp_echo import run_echo

#: Probe spacing.  Chosen so the radio channel is not saturated even in
#: the FA configuration, where every probe crosses the air twice on the
#: way in (router -> FA -> mobile host) and once on the way out.
PROBE_INTERVAL = ms(150)


@dataclass
class FAAblationReport:
    """Loss comparison: collocated care-of vs foreign agent."""

    iterations: int
    losses_without_fa: List[int] = field(default_factory=list)
    losses_with_fa: List[int] = field(default_factory=list)
    forwarded_by_fa: List[int] = field(default_factory=list)

    @property
    def mean_without(self) -> float:
        """Mean loss without a foreign agent."""
        return sum(self.losses_without_fa) / max(len(self.losses_without_fa), 1)

    @property
    def mean_with(self) -> float:
        """Mean loss with the FA forwarding after departure."""
        return sum(self.losses_with_fa) / max(len(self.losses_with_fa), 1)

    def format_report(self) -> str:
        """Render both configurations' histograms."""
        lines = [
            "Foreign-agent ablation (Section 5.1): cold radio->ethernet move,"
            f" UDP probe every {PROBE_INTERVAL / 1_000_000:g} ms,"
            f" {self.iterations} iterations per configuration",
            "",
            f"without FA (MosquitoNet)  mean loss {self.mean_without:.1f}:",
            format_histogram(histogram(self.losses_without_fa)),
            f"with FA smooth handoff   mean loss {self.mean_with:.1f}:",
            format_histogram(histogram(self.losses_with_fa)),
            "",
            f"packets the old FA saved per run: "
            f"{sum(self.forwarded_by_fa) / max(len(self.forwarded_by_fa), 1):.1f} "
            "(paper: FAs 'may somewhat reduce packet loss' — a modest, real, "
            "but not decisive benefit)",
        ]
        return "\n".join(lines)


def _run_once_without_fa(seed: int, config: Config) -> int:
    """MosquitoNet: collocated care-of on the radio, cold switch to eth."""
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=False)
    addresses = testbed.addresses
    testbed.connect_radio(register=True)
    testbed.move_mh_cable(testbed.dept_segment)
    testbed.mh_eth.remove_address(addresses.mh_home)
    testbed.mobile.ip.routes.remove_matching(interface=testbed.mh_eth)
    testbed.mh_eth.state = InterfaceState.DOWN

    done: List[SwitchTimeline] = []
    stream = run_echo(
        testbed, testbed.correspondent, testbed.mobile, addresses.mh_home,
        PROBE_INTERVAL, settle=ms(1200), run=s(7), drain=s(3),
        switch=lambda: DeviceSwitcher(testbed.mobile).cold_switch(
            testbed.mh_radio, testbed.mh_eth, addresses.mh_dept_care_of,
            addresses.dept_net, addresses.router_dept, on_done=done.append),
        switch_at=s(2))
    if not done or not done[0].success:
        raise RuntimeError("cold switch failed (no-FA configuration)")
    return stream.lost_count()


def _run_once_with_fa(seed: int, config: Config) -> tuple:
    """Baseline: attached via the radio FA, which forwards after departure."""
    sim = Simulator(seed=seed)
    sim.trace.record_only("registration")
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=False, with_radio_foreign_agent=True)
    addresses = testbed.addresses
    fa = testbed.radio_foreign_agent
    assert fa is not None

    # Attach through the FA on the radio network.
    testbed.connect_radio(register=False)
    testbed.mobile.attach_via_foreign_agent(
        testbed.mh_radio, fa.care_of_address, addresses.radio_net)
    testbed.move_mh_cable(testbed.dept_segment)
    testbed.mobile.ip.routes.remove_matching(interface=testbed.mh_eth)
    testbed.mh_eth.state = InterfaceState.DOWN

    done: List[SwitchTimeline] = []

    # Notify the old FA when the new registration request goes out.
    def watch_registration() -> None:
        sent = sim.trace.select("registration", "request_sent")
        fresh = [record for record in sent
                 if record.get("target") == str(testbed.home_agent.address)]
        if fresh:
            fa.notify_departure(addresses.mh_home, addresses.mh_dept_care_of)
        else:
            sim.post_later(ms(50), watch_registration)

    def switch() -> None:
        DeviceSwitcher(testbed.mobile).cold_switch(
            testbed.mh_radio, testbed.mh_eth, addresses.mh_dept_care_of,
            addresses.dept_net, addresses.router_dept, on_done=done.append)
        # "A foreign agent in the old network receives the new
        # registration": the MH's binding update reaches the old FA as
        # soon as the new registration is sent, which the trace-driven
        # watch above notices.
        sim.post_later(ms(50), watch_registration)

    # The FA-relayed registration takes a radio round trip to settle.
    stream = run_echo(
        testbed, testbed.correspondent, testbed.mobile, addresses.mh_home,
        PROBE_INTERVAL, settle=ms(2500), run=s(7), drain=s(3),
        switch=switch, switch_at=s(2))
    if not done or not done[0].success:
        raise RuntimeError("cold switch failed (FA configuration)")
    return stream.lost_count(), fa.packets_forwarded_after_departure


def run_fa_trial(with_fa: bool, seed: int,
                 config: Config = DEFAULT_CONFIG) -> dict:
    """One cold radio->ethernet move in either configuration."""
    if with_fa:
        lost, forwarded = _run_once_with_fa(seed, config)
        return {"loss": lost, "forwarded": forwarded}
    return {"loss": _run_once_without_fa(seed, config), "forwarded": None}


def build_fa_ablation_trials(iterations: int, seed: int) -> List[Trial]:
    """Interleaved (without, with) pairs, seeds as the serial loop."""
    func = "repro.experiments.exp_fa_ablation:run_fa_trial"
    trials: List[Trial] = []
    for index in range(iterations):
        trials.append(Trial(func, dict(with_fa=False, seed=seed + index,
                                       config=DEFAULT_CONFIG)))
        trials.append(Trial(func, dict(with_fa=True,
                                       seed=seed + 1000 + index,
                                       config=DEFAULT_CONFIG)))
    return trials


def merge_fa_ablation_trials(results: List[dict],
                             iterations: int) -> FAAblationReport:
    """Split the interleaved results back into the two configurations."""
    report = FAAblationReport(iterations=iterations)
    for without, with_fa in zip(results[0::2], results[1::2]):
        report.losses_without_fa.append(without["loss"])
        report.losses_with_fa.append(with_fa["loss"])
        report.forwarded_by_fa.append(with_fa["forwarded"])
    return report
