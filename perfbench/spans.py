"""Per-layer host-time attribution, measured from outside the simulator.

The tracer replaces public functions of the simulator's layers with thin
timing wrappers, installed on the classes (and module namespaces) before
any topology is built and removed afterwards.  Nothing under ``src/``
knows it is being measured.

Every wrapped call inside :meth:`Simulator.run` is a *span*.  A span's
self time is its duration minus the time covered by the spans nested in
it, so the self times of all spans inside one ``run`` call add up to
that call's duration: the attribution closes by construction, and
:meth:`SpanTracer.closure_error` checks that it did.  Calls made outside
``run`` (topology set-up) are counted but not timed.

Per span key the tracer keeps ``[calls, inclusive_ns, self_ns, depth]``.
Inclusive time is only added by the outermost active span of a key, so
re-entrant nesting (``IPPacket.describe`` describing its inner packet)
counts once.  A bounded sample of raw spans is kept for inspection.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple


class Probe(NamedTuple):
    """One wrapped function: where it lives and which span key it feeds."""

    layer: str
    module: str
    owner: str  # class name; "" for a module-level function
    attr: str
    key: str


#: Every wrapped function.  ``engine.run`` (``Simulator.run``) is the
#: root span and is handled separately; every other key is a child.
#: ``plane`` is timed apart from ``reg`` so each layer's self time is
#: disjoint and the table adds up.
PROBES: Tuple[Probe, ...] = (
    Probe("engine", "repro.sim.engine", "Simulator", "post_at", "engine.schedule"),
    Probe("engine", "repro.sim.engine", "Simulator", "call_at", "engine.schedule"),
    Probe("link", "repro.net.link", "EthernetSegment", "transmit", "link.eth_transmit"),
    Probe("link", "repro.net.link", "PointToPointLink", "transmit", "link.p2p_transmit"),
    Probe("link", "repro.net.link", "RadioChannel", "transmit", "link.radio_transmit"),
    Probe("iface", "repro.net.interface", "NetworkInterface", "send_ip", "iface.send"),
    Probe("iface", "repro.net.interface", "EthernetInterface", "send_ip", "iface.send"),
    Probe("iface", "repro.net.interface", "RadioInterface", "send_ip", "iface.send"),
    Probe("iface", "repro.net.interface", "PointToPointInterface", "send_ip", "iface.send"),
    Probe("iface", "repro.net.interface", "LoopbackInterface", "send_ip", "iface.send"),
    Probe("iface", "repro.net.interface", "EthernetInterface", "deliver_frame",
          "iface.deliver_frame"),
    Probe("iface", "repro.net.interface", "PointToPointInterface", "deliver_from_link",
          "iface.deliver_link"),
    Probe("iface", "repro.net.interface", "RadioInterface", "deliver_from_radio",
          "iface.deliver_radio"),
    Probe("arp", "repro.net.arp", "ARPService", "handle", "arp.handle"),
    Probe("arp", "repro.net.arp", "ARPService", "resolve_and_send", "arp.resolve"),
    Probe("ip", "repro.net.ip", "IPStack", "send", "ip.send"),
    Probe("ip", "repro.net.ip", "IPStack", "receive_packet", "ip.receive"),
    Probe("ip", "repro.net.ip", "IPStack", "deliver", "ip.deliver"),
    Probe("ip", "repro.net.ip", "IPStack", "is_local", "ip.is_local"),
    Probe("routing", "repro.net.routing", "RoutingTable", "lookup", "routing.lookup"),
    Probe("routing", "repro.net.routing", "RoutingTable", "add", "routing.mutate"),
    Probe("routing", "repro.net.routing", "RoutingTable", "remove", "routing.mutate"),
    Probe("routing", "repro.net.routing", "RoutingTable", "remove_matching",
          "routing.mutate"),
    Probe("policy", "repro.core.policy", "MobilePolicyTable", "lookup", "policy.lookup"),
    Probe("tunnel", "repro.core.tunnel", "VirtualInterface", "send_ip", "tunnel.send"),
    Probe("tunnel", "repro.net.packet", "", "encapsulate", "tunnel.encapsulate"),
    # decapsulate() is never called on the datapath: the IPIP protocol
    # handler unwraps packets itself, so that handler is the decap span.
    Probe("tunnel", "repro.core.tunnel", "IPIPModule", "_receive", "tunnel.decapsulate"),
    Probe("udp", "repro.net.udp", "UDPService", "send_datagram", "udp.send"),
    Probe("udp", "repro.net.udp", "UDPService", "_receive", "udp.receive"),
    Probe("tcp", "repro.net.tcp", "TCPConnection", "handle_segment", "tcp.segment_in"),
    Probe("tcp", "repro.net.tcp", "TCPConnection", "send", "tcp.app_send"),
    Probe("tcp", "repro.net.tcp", "TCPService", "transmit", "tcp.segment_out"),
    Probe("reg", "repro.core.registration", "RegistrationClient", "register", "reg.register"),
    # The layer's private entry points: the handlers UDP hands datagrams
    # to, and the callbacks the engine runs for a request's transmissions
    # and the agent's processing.  Without them agent work would be
    # billed to ip.deliver or to the engine.
    Probe("reg", "repro.core.registration", "RegistrationClient", "_transmit",
          "reg.client_transmit"),
    Probe("reg", "repro.core.registration", "RegistrationClient", "_on_datagram",
          "reg.client_reply"),
    Probe("reg", "repro.core.home_agent", "HomeAgentService", "_on_datagram",
          "reg.agent_request"),
    Probe("reg", "repro.core.home_agent", "HomeAgentService", "_process",
          "reg.agent_process"),
    Probe("reg", "repro.core.home_agent", "HomeAgentService", "current_care_of",
          "reg.current_care_of"),
    Probe("plane", "repro.core.binding_shard", "BindingShardPlane", "agent_for",
          "plane.agent_for"),
    Probe("plane", "repro.core.binding_shard", "BindingShardPlane", "lookup_binding",
          "plane.lookup_binding"),
    Probe("trace", "repro.sim.trace", "Trace", "emit", "trace.emit"),
    Probe("trace", "repro.net.packet", "IPPacket", "describe", "trace.render"),
    Probe("trace", "repro.net.tcp", "TCPSegment", "describe", "trace.render"),
)

#: Layers in report order; ``engine`` is the run loop plus scheduling.
LAYERS = ("engine", "link", "iface", "arp", "ip", "routing", "policy",
          "tunnel", "udp", "tcp", "reg", "plane", "trace")

RUN_KEY = "engine.run"
_KEY_LAYER = {probe.key: probe.layer for probe in PROBES}
_KEY_LAYER[RUN_KEY] = "engine"

#: Raw spans kept per traced process: (key, start_ns, duration_ns, depth).
SAMPLE_CAP = 4096


class SpanTracer:
    """Installs the wrappers, keeps the aggregates, removes the wrappers.

    ``layered=False`` wraps only :meth:`Simulator.run`, to time set-up
    (trial start to the first ``run`` entry) with nothing else hooked:
    that is the mode end-to-end metrics are measured in.
    """

    def __init__(self, layered: bool = True) -> None:
        self.layered = layered
        self.stats: Dict[str, List[int]] = {}
        self.sample: List[Tuple[str, int, int, int]] = []
        self.first_run_ns: Optional[int] = None
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        engine = importlib.import_module("repro.sim.engine")
        self._patch(engine.Simulator, "run", self._wrap_run)
        if not self.layered:
            return
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            stat = self.stats.setdefault(probe.key, [0, 0, 0, 0])
            if probe.owner:
                self._patch(getattr(module, probe.owner), probe.attr,
                            lambda fn, stat=stat, key=probe.key:
                            self._wrap(fn, stat, key))
            else:
                self._patch_function(module, probe.attr, stat, probe.key)

    def _patch(self, owner: object, attr: str, make) -> None:
        original = owner.__dict__[attr]  # type: ignore[attr-defined]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _patch_function(self, module, attr: str, stat: List[int], key: str) -> None:
        """Wrap a module-level function in every repro module bound to it."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, stat, key)
        for name, other in list(sys.modules.items()):
            if (name.startswith("repro.") and other is not None
                    and other.__dict__.get(attr) is original):
                self._saved.append((other, attr, original))
                setattr(other, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------ wrappers

    def _wrap_run(self, run):
        clock = time.perf_counter_ns
        tracer = self
        if not self.layered:
            def run_probe(sim, *args, **kwargs):
                if tracer.first_run_ns is None:
                    tracer.first_run_ns = clock()
                return run(sim, *args, **kwargs)
            return run_probe

        stack = self._stack
        stat = self.stats.setdefault(RUN_KEY, [0, 0, 0, 0])

        def run_span(sim, *args, **kwargs):
            if tracer.first_run_ns is None:
                tracer.first_run_ns = clock()
            stat[0] += 1
            stack.append(0)
            start = clock()
            try:
                return run(sim, *args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[1] += elapsed
                stat[2] += elapsed - stack.pop()
        return run_span

    def _wrap(self, fn, stat: List[int], key: str):
        stack = self._stack
        sample = self.sample
        cap = SAMPLE_CAP
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stat[0] += 1
            if not stack:  # outside Simulator.run: count, don't time
                return fn(*args, **kwargs)
            stack.append(0)
            stat[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[2] += elapsed - stack.pop()
                stack[-1] += elapsed
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += elapsed
                if len(sample) < cap:
                    sample.append((key, start, elapsed, len(stack)))
        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    # ------------------------------------------------------------ readout

    def calls(self, *keys: str) -> int:
        return sum(self.stats.get(key, (0,))[0] for key in keys)

    def inclusive_ns(self, *keys: str) -> int:
        return sum(self.stats.get(key, (0, 0))[1] for key in keys)

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer; ``engine`` includes the run loop's own."""
        totals = dict.fromkeys(LAYERS, 0)
        for key, stat in self.stats.items():
            totals[_KEY_LAYER[key]] += stat[2]
        return totals

    def run_ns(self) -> int:
        """Total inclusive time of every ``Simulator.run`` call."""
        return self.inclusive_ns(RUN_KEY)

    def closure_error(self) -> float:
        """|sum of layer self times - run time| as a share of run time."""
        total = self.run_ns()
        if not total:
            return 0.0
        return abs(sum(self.layer_self_ns().values()) - total) / total


def layer_metrics(tracer: SpanTracer, extras: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric table of one traced run, by metric name.

    *extras* carries what spans cannot see: ``events``,
    ``queue_depth_max``, ``retransmits``, ``records_retained`` and
    ``accepted``/``attempts``.  ``bench.trace_overhead_s`` needs the
    untraced run too, so the caller adds it.
    """
    own = tracer.layer_self_ns()
    calls = tracer.calls

    def seconds(ns: int) -> float:
        return ns / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    eth_frames = calls("link.eth_transmit")
    lookups = calls("routing.lookup")
    segments_out = calls("tcp.segment_out")
    return {
        "engine.events": extras["events"],
        "engine.self_s": seconds(own["engine"]),
        "engine.schedule_calls": calls("engine.schedule"),
        "engine.schedule_s": seconds(tracer.inclusive_ns("engine.schedule")),
        "engine.queue_depth_max": extras["queue_depth_max"],
        "link.transmits": calls("link.eth_transmit", "link.p2p_transmit",
                                "link.radio_transmit"),
        "link.self_s": seconds(own["link"]),
        "link.eth_deliveries_per_frame": ratio(calls("iface.deliver_frame"),
                                               eth_frames),
        "iface.sends": calls("iface.send"),
        "iface.deliveries": calls("iface.deliver_frame", "iface.deliver_link",
                                  "iface.deliver_radio"),
        "iface.self_s": seconds(own["iface"]),
        "arp.handles": calls("arp.handle"),
        "arp.resolves": calls("arp.resolve"),
        "arp.self_s": seconds(own["arp"]),
        "ip.sends": calls("ip.send"),
        "ip.receives": calls("ip.receive"),
        "ip.self_s": seconds(own["ip"]),
        "ip.is_local_calls": calls("ip.is_local"),
        "ip.is_local_s": seconds(tracer.inclusive_ns("ip.is_local")),
        "routing.lookups": lookups,
        "routing.self_s": seconds(own["routing"]),
        "routing.ns_per_lookup": ratio(tracer.inclusive_ns("routing.lookup"), lookups),
        "routing.mutations": calls("routing.mutate"),
        "policy.lookups": calls("policy.lookup"),
        "policy.self_s": seconds(own["policy"]),
        "tunnel.encaps": calls("tunnel.encapsulate"),
        "tunnel.decaps": calls("tunnel.decapsulate"),
        "tunnel.self_s": seconds(own["tunnel"]),
        "udp.sends": calls("udp.send"),
        "udp.self_s": seconds(own["udp"]),
        "tcp.segments_in": calls("tcp.segment_in"),
        "tcp.segments_out": segments_out,
        "tcp.self_s": seconds(own["tcp"]),
        "tcp.retransmit_ratio": ratio(extras["retransmits"], segments_out),
        "reg.requests": calls("reg.register"),
        "reg.accept_ratio": ratio(extras["accepted"], extras["attempts"]),
        "reg.self_s": seconds(own["reg"]),
        "plane.resolves": calls("plane.agent_for", "plane.lookup_binding"),
        "plane.self_s": seconds(own["plane"]),
        "trace.emits": calls("trace.emit"),
        "trace.self_s": seconds(own["trace"]),
        "trace.render_calls": calls("trace.render"),
        "trace.render_s": seconds(tracer.inclusive_ns("trace.render")),
        "trace.records_retained": extras["records_retained"],
    }


# ---------------------------------------------------------------- cProfile

#: ``repro`` module (dotted, without the ``repro.`` prefix) -> layer, for
#: grouping cProfile tottime.  Modules not listed (addressing, packet
#: construction, hosts, experiment callbacks, builtins) are billed to
#: their callers, as the traced run bills them to the enclosing span.
MODULE_LAYERS = {
    "sim.engine": "engine", "sim.fifo": "engine", "sim.scheduler": "engine",
    "net.link": "link", "net.interface": "iface", "net.arp": "arp",
    "net.ip": "ip", "net.routing": "routing", "core.policy": "policy",
    "core.tunnel": "tunnel", "net.udp": "udp",
    "net.tcp": "tcp", "net.congestion": "tcp", "net.sack": "tcp",
    "core.registration": "reg", "core.home_agent": "reg",
    "core.binding_shard": "plane",
    "sim.trace": "trace", "obs.metrics": "trace", "obs.capture": "trace",
    "obs.export": "trace", "faults.auditor": "trace",
}
#: Functions whose layer differs from their module's.
FUNCTION_LAYERS = {("net.packet", "describe"): "trace",
                   ("net.tcp", "describe"): "trace",
                   ("net.packet", "encapsulate"): "tunnel"}


def _repro_module(filename: str) -> Optional[str]:
    """``.../repro/net/ip.py`` -> ``net.ip``; None outside ``repro``."""
    path = filename.replace("\\", "/")
    start = path.rfind("/repro/")
    if start < 0 or not path.endswith(".py"):
        return None
    return path[start + len("/repro/"):-3].replace("/", ".")


def group_profile(raw_stats: dict) -> Dict[str, float]:
    """Group a cProfile ``Stats.stats`` table's tottime into layers.

    A function in a layered module is billed to that layer; any other
    function's tottime is split across its callers in proportion to the
    time spent on each call edge, recursively, until a layered caller is
    reached.  Time with no layered caller (the run loop's root) goes to
    ``engine``.
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def layer_of(func: tuple) -> Optional[str]:
        module = _repro_module(func[0])
        if module is None:
            return None
        return FUNCTION_LAYERS.get((module, func[2]), MODULE_LAYERS.get(module))

    def shares(func: tuple, visiting: set) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        callers = {caller: edge for caller, edge in raw_stats[func][4].items()
                   if caller not in visiting and caller in raw_stats}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[1] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            result = {"engine": 1.0}
        else:
            result = {}
            visiting.add(func)
            for caller, weight in weights.items():
                for name, share in shares(caller, visiting).items():
                    result[name] = result.get(name, 0.0) + share * weight / total
            visiting.discard(func)
        memo[func] = result
        return result

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, entry in raw_stats.items():
        tottime = entry[2]
        if tottime <= 0:
            continue
        for name, share in shares(func, set()).items():
            totals[name] += tottime * share
    return totals
