"""Datapath microbenchmarks: packets, table lookups, trace gating, scenario.

Four measurements, each deterministic in *what* it does (wall time is the
only non-reproducible output):

* packet construction — one UDP packet plus its forwarded copy;
* Mobile Policy Table lookups over a small mixed-prefix table;
* routing-table LPM lookups over a small mixed-prefix table;
* trace emission — an enabled category vs a gated-off one;

plus one macro measurement: regenerating a full testbed scenario (build,
traffic, a mid-run handoff) end to end, which is what a user actually
waits for when re-running an experiment.
"""

from __future__ import annotations

import time as _wallclock
from typing import Dict

from repro.config import DEFAULT_CONFIG
from repro.core.policy import MobilePolicyTable, RoutingMode
from repro.net.addressing import IPAddress, Subnet
from repro.net.packet import PROTO_UDP, AppData, IPPacket, UDPDatagram
from repro.net.routing import RouteEntry, RoutingTable
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.testbed.topology import build_testbed
from repro.workloads.udp_echo import UdpEchoResponder, UdpEchoStream


def _time_ns(fn, *args) -> int:
    start = _wallclock.perf_counter_ns()
    fn(*args)
    return _wallclock.perf_counter_ns() - start


# ----------------------------------------------------- packet construction

def _build_packets(n: int, src: IPAddress, dst: IPAddress) -> None:
    for i in range(n):
        payload = AppData(content=i, size_bytes=512)
        datagram = UDPDatagram(src_port=7, dst_port=7, payload=payload)
        IPPacket(src=src, dst=dst, protocol=PROTO_UDP, payload=datagram,
                 ident=i).decremented()


def _packet_bench(n: int) -> Dict[str, object]:
    src = IPAddress.parse("36.135.0.10")
    dst = IPAddress.parse("36.8.0.20")
    _build_packets(2_000, src, dst)   # warm-up
    return {
        "n_packets": n,
        "ns_per_packet": _time_ns(_build_packets, n, src, dst) / n,
    }


# --------------------------------------------------------- policy lookups

def _policy_table() -> MobilePolicyTable:
    table = MobilePolicyTable(default_mode=RoutingMode.TUNNEL)
    table.set_policy(Subnet(IPAddress.parse("36.8.0.0"), 24),
                     RoutingMode.LOCAL)
    table.set_policy(Subnet(IPAddress.parse("36.40.0.0"), 24),
                     RoutingMode.TRIANGLE)
    table.set_policy(Subnet(IPAddress.parse("36.0.0.0"), 8),
                     RoutingMode.ENCAP_DIRECT)
    for host in range(8):
        table.set_policy(IPAddress.parse(f"36.8.0.{100 + host}"),
                         RoutingMode.TUNNEL, origin="probe")
    return table

#: Distinct destinations the lookup loop cycles through (a mobile host
#: talks to a handful of correspondents, not the whole Internet).
POLICY_DESTINATIONS = 32


def _policy_bench(n: int) -> Dict[str, object]:
    destinations = [IPAddress.parse(f"36.8.0.{20 + i}")
                    for i in range(POLICY_DESTINATIONS)]

    def run(table: MobilePolicyTable) -> None:
        for i in range(n):
            table.lookup(destinations[i % POLICY_DESTINATIONS])

    run(_policy_table())                       # warm-up
    return {
        "n_lookups": n,
        "distinct_destinations": POLICY_DESTINATIONS,
        "ns_per_lookup": _time_ns(run, _policy_table()) / n,
    }


# -------------------------------------------------------- routing lookups

class _BenchInterface:
    """The minimal interface surface RoutingTable touches."""

    is_up = True

    def __init__(self, name: str) -> None:
        self.name = name


def _routing_table() -> RoutingTable:
    table = RoutingTable()
    eth = _BenchInterface("bench-eth0")
    radio = _BenchInterface("bench-strip0")
    table.add(RouteEntry(destination=Subnet(IPAddress.parse("36.8.0.0"), 24),
                         interface=eth))
    table.add(RouteEntry(destination=Subnet(IPAddress.parse("36.135.0.0"), 24),
                         interface=eth))
    table.add(RouteEntry(destination=Subnet(IPAddress.parse("36.134.0.0"), 24),
                         interface=radio))
    for host in range(8):
        table.add_host_route(IPAddress.parse(f"36.8.0.{100 + host}"), eth)
    table.add_default(eth, gateway=IPAddress.parse("36.8.0.1"))
    return table


def _routing_bench(n: int) -> Dict[str, object]:
    destinations = [IPAddress.parse(f"36.8.0.{20 + i}")
                    for i in range(POLICY_DESTINATIONS)]

    def run(table: RoutingTable) -> None:
        for i in range(n):
            table.lookup(destinations[i % POLICY_DESTINATIONS])

    run(_routing_table())                      # warm-up
    return {
        "n_lookups": n,
        "distinct_destinations": POLICY_DESTINATIONS,
        "ns_per_lookup": _time_ns(run, _routing_table()) / n,
    }


# ----------------------------------------------------------- trace gating

def _trace_bench(n: int) -> Dict[str, object]:
    sim = Simulator(seed=0)
    trace = sim.trace
    packet = IPPacket(src=IPAddress.parse("36.135.0.10"),
                      dst=IPAddress.parse("36.8.0.20"),
                      protocol=PROTO_UDP,
                      payload=UDPDatagram(7, 7, AppData(None, 512)))

    def emit_enabled() -> None:
        for _ in range(n):
            if trace.wants("ip"):
                trace.emit("ip", "send", host="bench",
                           packet=packet.describe())

    def emit_gated() -> None:
        for _ in range(n):
            # "engine.debug" is in VERBOSE_CATEGORIES: off by default.
            if trace.wants("engine.debug"):
                trace.emit("engine.debug", "hit", host="bench",
                           packet=packet.describe())

    enabled_ns = _time_ns(emit_enabled)
    trace.clear()
    gated_ns = _time_ns(emit_gated)
    return {
        "n_emits": n,
        "enabled_ns_per_emit": enabled_ns / n,
        "gated_ns_per_emit": gated_ns / n,
        "speedup_when_gated": enabled_ns / gated_ns,
    }


# ------------------------------------------------- scenario regeneration

def run_scenario(seed: int = 0, duration_ns: int = s(6)) -> Simulator:
    """The standard benchmark scenario, returned for inspection.

    Figure-5 testbed, a 20 ms UDP echo stream from the mobile host to the
    department correspondent, and a mid-run handoff to the department net
    (so table updates run under load).  Deterministic for a given
    (seed, duration).
    """
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim, DEFAULT_CONFIG, with_remote_correspondent=False,
                            with_dhcp=False)
    UdpEchoResponder(testbed.correspondent)
    stream = UdpEchoStream(testbed.mobile, testbed.addresses.ch_dept,
                           interval=ms(20))
    stream.start()
    sim.call_later(s(2), lambda: testbed.visit_dept(), label="bench-handoff")
    sim.run(until=duration_ns)
    stream.stop()
    return sim


def _scenario_bench(quick: bool) -> Dict[str, object]:
    duration = s(3) if quick else s(6)
    wall_start = _wallclock.perf_counter_ns()
    sim = run_scenario(seed=0, duration_ns=duration)
    wall_ns = _wallclock.perf_counter_ns() - wall_start
    profile = sim.profile()
    return {
        "duration_sim_ns": duration,
        "wall_ns": wall_ns,
        "events_run": profile["events_run"],
        "events_per_sec": profile["events_run"] * 1e9 / wall_ns,
    }


def run_datapath_bench(quick: bool = False) -> Dict[str, object]:
    """Run every datapath benchmark; returns the BENCH_datapath doc."""
    n = 20_000 if quick else 100_000
    return {
        "bench": "datapath",
        "quick": quick,
        "packet_construction": _packet_bench(n),
        "policy_lookup": _policy_bench(n),
        "routing_lookup": _routing_bench(n),
        "trace_emit": _trace_bench(n // 4),
        "scenario_regeneration": _scenario_bench(quick),
    }
