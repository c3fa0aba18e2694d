"""The Section 3.2 routing-options ablation (Figure 3's triangle route).

The paper lists four ways the mobile host can send, evaluated on three
criteria: path/overhead improvement, correspondent-side requirements, and
whether "routers or firewalls are likely to object".  This ablation
measures all four on the testbed:

* round-trip time of a UDP echo to the correspondent under each mode
  (tunneling pays the extra home-agent hop; the direct modes don't);
* per-packet encapsulation overhead in bytes on the wire;
* whether the mode keeps working when the visited network's router
  forbids transit traffic — and the Mobile Policy Table's probe-and-
  fallback behaviour when it doesn't.

The transit-filter scenario uses the remote network (36.40), which belongs
to a different administrative domain, with ingress filtering enabled on
its router.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import Config, DEFAULT_CONFIG
from repro.core.policy import RoutingMode
from repro.experiments.harness import format_table
from repro.net.packet import IP_HEADER_BYTES
from repro.parallel import Trial
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.stats import Stats, summarize_ms
from repro.testbed import build_testbed
from repro.workloads.udp_echo import run_echo

#: Paper: "encapsulation adds 20 bytes or more to the packet length".
PAPER_ENCAP_OVERHEAD_BYTES = IP_HEADER_BYTES


@dataclass
class ModeResult:
    """Measurements for one routing mode."""

    mode: RoutingMode
    #: RTT to a correspondent on the *visited* network's LAN: this is where
    #: "the extra path through the home agent adds latency" shows up —
    #: tunneled packets detour across the backbone to the home agent and
    #: back, the direct modes stay on the LAN.
    rtt_nearby: Stats
    #: RTT to the department correspondent across the backbone.
    rtt_distant: Stats
    encap_overhead_bytes: int
    survives_transit_filter: bool
    preserves_mobility: bool


@dataclass
class RoutingOptionsReport:
    """All four modes plus the dynamic-fallback demonstration."""

    probes_per_mode: int
    results: Dict[RoutingMode, ModeResult] = field(default_factory=dict)
    #: The probe-and-fallback run: losses before/after the policy update.
    fallback_probe_failed: bool = False
    fallback_recovered: bool = False

    def format_report(self) -> str:
        """Render the four-mode comparison table."""
        rows = []
        for mode in RoutingMode:
            result = self.results[mode]
            rows.append((
                mode.value,
                result.rtt_nearby.format_ms(),
                result.rtt_distant.format_ms(),
                result.encap_overhead_bytes,
                "yes" if result.survives_transit_filter else "NO",
                "yes" if result.preserves_mobility else "NO",
            ))
        table = format_table(
            ("mode", "RTT nearby CH ms", "RTT distant CH ms", "encap bytes",
             "passes transit filter", "preserves mobility"), rows)
        lines = [
            "Routing options ablation (Section 3.2 / Figure 3)",
            table,
            "",
            "Dynamic fallback (Mobile Policy Table): triangle-route probe "
            f"{'failed as expected' if self.fallback_probe_failed else 'UNEXPECTEDLY PASSED'} "
            "behind the filtering router; after caching the fallback the "
            f"tunnel {'restored connectivity' if self.fallback_recovered else 'DID NOT recover'}.",
        ]
        return "\n".join(lines)


def run_mode_probe_trial(mode_name: str, probes: int, seed: int,
                         transit_filter: bool, nearby: bool,
                         config: Config = DEFAULT_CONFIG) -> dict:
    """One (mode, correspondent, filter) measurement as a pure trial.

    Returns ``{"rtts_ns": [...]}``; the list is empty when every probe
    was lost (mode unusable in this setup).
    """
    stats = _measure_mode(RoutingMode[mode_name], probes, seed, config,
                          transit_filter=transit_filter, nearby=nearby)
    return {"rtts_ns": stats}


def run_fallback_trial(seed: int, config: Config = DEFAULT_CONFIG) -> dict:
    """The probe-and-fallback demonstration as a pure trial."""
    probe_failed, recovered = _fallback_demo(seed, config)
    return {"probe_failed": probe_failed, "recovered": recovered}


def _measure_mode(mode: RoutingMode, probes: int, seed: int,
                  config: Config, transit_filter: bool,
                  nearby: bool) -> List[int]:
    """Echo RTTs (raw ns) from the visiting MH to a correspondent.

    Returns an empty list if every probe was lost (mode unusable in this
    setup).  The MH visits the *remote* network (36.40); with ``nearby``
    the probes target the correspondent on that same LAN, otherwise the
    department correspondent across the backbone.  With *transit_filter*
    the remote router enforces ingress filtering.
    """
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    testbed = build_testbed(sim, config, with_dhcp=False)
    addresses = testbed.addresses
    assert testbed.remote_router is not None
    assert testbed.remote_correspondent is not None
    if transit_filter:
        testbed.remote_router.enable_transit_filter()
    testbed.visit_remote()

    # The correspondent echoes; the MH probes it under the given policy.
    correspondent = (testbed.remote_correspondent if nearby
                     else testbed.correspondent)
    target = addresses.ch_remote if nearby else addresses.ch_dept
    testbed.mobile.policy.set_policy(target, mode)
    if mode is RoutingMode.ENCAP_DIRECT:
        # The encapsulated-direct variant requires the correspondent to
        # have "transparent IP-in-IP decapsulation capability such as is
        # found in recent Linux development kernels".
        from repro.core.tunnel import IPIPModule

        IPIPModule(correspondent)
    stream = run_echo(testbed, testbed.mobile, correspondent, target,
                      ms(120), settle=ms(1500), run=ms(120) * probes,
                      drain=s(2))
    return stream.rtts()


def _encap_overhead(mode: RoutingMode) -> int:
    return IP_HEADER_BYTES if mode.encapsulates else 0


def _fallback_demo(seed: int, config: Config) -> tuple:
    """Probe-and-fallback: ping fails under TRIANGLE, tunnel recovers."""
    sim = Simulator(seed=seed)
    sim.trace.record_only()
    testbed = build_testbed(sim, config, with_dhcp=False)
    addresses = testbed.addresses
    assert testbed.remote_router is not None
    testbed.remote_router.enable_transit_filter()
    testbed.visit_remote()
    testbed.mobile.policy.default_mode = RoutingMode.TRIANGLE
    sim.run_for(ms(1500))

    probe_outcomes: List[bool] = []
    testbed.mobile.probe_correspondent(
        addresses.ch_dept,
        on_result=lambda dst, ok: probe_outcomes.append(ok))
    sim.run_for(s(4))
    probe_failed = bool(probe_outcomes) and not probe_outcomes[0]
    # The failed probe cached a TUNNEL fallback; traffic now flows.
    assert testbed.mobile.policy.lookup(addresses.ch_dept) is RoutingMode.TUNNEL

    stream = run_echo(testbed, testbed.mobile, testbed.correspondent,
                      addresses.ch_dept, ms(100), settle=0, run=s(2),
                      drain=s(2))
    recovered = stream.received >= stream.sent - 1 and stream.sent > 0
    return probe_failed, recovered


def build_routing_options_trials(probes: int, seed: int) -> List[Trial]:
    """Three measurements per mode plus the fallback demo, mode-major."""
    measure = "repro.experiments.exp_routing_options:run_mode_probe_trial"
    trials: List[Trial] = []
    for index, mode in enumerate(RoutingMode):
        trials.append(Trial(measure, dict(
            mode_name=mode.name, probes=probes, seed=seed + index,
            transit_filter=False, nearby=True, config=DEFAULT_CONFIG)))
        trials.append(Trial(measure, dict(
            mode_name=mode.name, probes=probes, seed=seed + 50 + index,
            transit_filter=False, nearby=False, config=DEFAULT_CONFIG)))
        trials.append(Trial(measure, dict(
            mode_name=mode.name, probes=probes, seed=seed + 100 + index,
            transit_filter=True, nearby=False, config=DEFAULT_CONFIG)))
    trials.append(Trial(
        "repro.experiments.exp_routing_options:run_fallback_trial",
        dict(seed=seed + 500, config=DEFAULT_CONFIG)))
    return trials


def merge_routing_options_trials(results: List[dict],
                                 probes: int) -> RoutingOptionsReport:
    """Reassemble the mode-major (nearby, distant, filtered) triples."""
    report = RoutingOptionsReport(probes_per_mode=probes)
    cursor = iter(results)
    for mode in RoutingMode:
        nearby_rtts = next(cursor)["rtts_ns"]
        distant_rtts = next(cursor)["rtts_ns"]
        filtered_rtts = next(cursor)["rtts_ns"]
        if not nearby_rtts or not distant_rtts:
            raise RuntimeError(f"mode {mode.value} failed on the open network")
        report.results[mode] = ModeResult(
            mode=mode,
            rtt_nearby=summarize_ms(nearby_rtts),
            rtt_distant=summarize_ms(distant_rtts),
            encap_overhead_bytes=_encap_overhead(mode),
            survives_transit_filter=bool(filtered_rtts),
            preserves_mobility=mode.preserves_mobility,
        )
    fallback = next(cursor)
    report.fallback_probe_failed = fallback["probe_failed"]
    report.fallback_recovered = fallback["recovered"]
    return report
