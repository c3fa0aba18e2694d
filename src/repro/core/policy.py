"""The Mobile Policy Table (Section 3.3) and routing modes (Section 3.2).

A mobile host away from home must make three decisions per packet:

1. send directly or tunnel through the home agent,
2. if direct, whether to encapsulate,
3. use the home address or the local (care-of) address as source.

The four consistent combinations are the paper's routing options, encoded
here as :class:`RoutingMode`:

===============  =========  ======  ==============  =======================
mode             route      encap   source address  paper reference
===============  =========  ======  ==============  =======================
TUNNEL           via HA     yes     home            basic protocol (§3.1)
TRIANGLE         direct     no      home            triangle route (§3.2)
ENCAP_DIRECT     direct     yes     care-of outer   transit-filter variant
LOCAL            direct     no      care-of         local role (§5.2)
===============  =========  ======  ==============  =======================

The table maps destination prefixes to modes, with a configurable default.
"We do not yet update the table dynamically" says the paper of its own
implementation, but describes the intended mechanism — cache a fallback to
TUNNEL when a triangle-routed probe (ping) fails.  :meth:`record_probe_result`
implements that intended behaviour; experiments exercise it against a
transit-filtering router.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.net.addressing import IPAddress, Subnet
from repro.obs.capture import note_policy_table
from repro.obs.metrics import MetricsRegistry


class RoutingMode(enum.Enum):
    """How the mobile host sends one packet (the three §3.2 decisions)."""

    TUNNEL = "tunnel"              # via HA, encapsulated, home source
    TRIANGLE = "triangle"          # direct, plain, home source
    ENCAP_DIRECT = "encap-direct"  # direct, encapsulated, care-of outer
    LOCAL = "local"                # direct, plain, care-of source

    @property
    def uses_home_source(self) -> bool:
        """Whether packets carry the home address as source."""
        return self in (RoutingMode.TUNNEL, RoutingMode.TRIANGLE,
                        RoutingMode.ENCAP_DIRECT)

    @property
    def encapsulates(self) -> bool:
        """Whether the mode wraps packets in IP-in-IP."""
        return self in (RoutingMode.TUNNEL, RoutingMode.ENCAP_DIRECT)

    @property
    def via_home_agent(self) -> bool:
        """Whether packets detour through the home agent."""
        return self is RoutingMode.TUNNEL

    @property
    def preserves_mobility(self) -> bool:
        """Whether correspondents keep seeing the home address."""
        return self.uses_home_source


@dataclass(frozen=True)
class PolicyEntry:
    """One row of the Mobile Policy Table."""

    destination: Subnet
    mode: RoutingMode
    #: Where the entry came from: "static" (operator), "probe" (dynamic
    #: fallback after a failed ping), "redirect", ...
    origin: str = "static"


class MobilePolicyTable:
    """Longest-prefix policy lookup, separate from the routing table.

    "To keep the implementation simple, we have separated out routing
    decisions and mobility decisions.  This allows us to leave the routing
    tables unchanged and merely add our Mobile Policy Table for IP's use."
    """

    def __init__(self, *,
                 default_mode: Optional[RoutingMode] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 owner: str = "",
                 cache_size: int = 128) -> None:
        self._default_mode = default_mode if default_mode is not None \
            else RoutingMode.TUNNEL
        self._entries: List[PolicyEntry] = []
        # Per-destination LRU memo of (entry, mode): one linear LPM scan per
        # distinct destination between invalidations.  Any table mutation —
        # set_policy, clear_policy, probe results, default-mode changes,
        # handoffs — clears it wholesale; correctness never depends on it.
        self._cache_size = cache_size
        self._cache: "OrderedDict[IPAddress, Tuple[Optional[PolicyEntry], RoutingMode]]" = OrderedDict()
        # One-entry inline cache in front of the LRU: a burst of packets to
        # one correspondent repeats the same policy lookup, and a single
        # address comparison beats the OrderedDict probe.  A hot hit records
        # exactly the counters an LRU hit would; every invalidation clears
        # it together with the LRU.
        self._hot_dst: Optional[IPAddress] = None
        self._hot_cached: Optional[Tuple[Optional[PolicyEntry], RoutingMode]] = None
        # A table built without a registry (bare tables in tests) records
        # into a private one, keeping the lookup path branch-free.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._owner = owner
        self._lookup_counters = {
            (mode, result): self._metrics.counter(
                "policy", "lookups", host=owner, mode=mode.value,
                result=result)
            for mode in RoutingMode for result in ("hit", "miss")
        }
        self._probe_fallback_counter = self._metrics.counter(
            "policy", "probe_fallbacks", host=owner)
        # Cache diagnostics.  These are perf-observability counters, not
        # simulation results: the determinism guard (repro.bench.guard)
        # strips ``policy/lookup_cache`` before comparing snapshots, since
        # hit/miss splits legitimately differ with cache configuration.
        self._cache_hit_counter = self._metrics.counter(
            "policy", "lookup_cache", host=owner, result="hit")
        self._cache_miss_counter = self._metrics.counter(
            "policy", "lookup_cache", host=owner, result="miss")
        note_policy_table(self)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def default_mode(self) -> RoutingMode:
        """Mode used when no entry matches (cached lookups track changes)."""
        return self._default_mode

    @default_mode.setter
    def default_mode(self, mode: RoutingMode) -> None:
        self._default_mode = mode
        self.invalidate_cache()

    def invalidate_cache(self) -> None:
        """Drop every memoized lookup (any mutation calls this)."""
        self._cache.clear()
        self._hot_dst = None
        self._hot_cached = None

    def set_policy(self, destination: Union[Subnet, IPAddress],
                   mode: RoutingMode, origin: str = "static") -> PolicyEntry:
        """Install (or replace) the policy for a prefix or single host."""
        prefix = destination if isinstance(destination, Subnet) \
            else Subnet(destination, 32)
        self._entries = [entry for entry in self._entries
                         if entry.destination != prefix]
        entry = PolicyEntry(destination=prefix, mode=mode, origin=origin)
        self._entries.append(entry)
        self.invalidate_cache()
        return entry

    def clear_policy(self, destination: Union[Subnet, IPAddress]) -> None:
        """Remove the entry for a prefix or host, if present."""
        prefix = destination if isinstance(destination, Subnet) \
            else Subnet(destination, 32)
        self._entries = [entry for entry in self._entries
                         if entry.destination != prefix]
        self.invalidate_cache()

    def lookup_entry(self, dst: IPAddress) -> Optional[PolicyEntry]:
        """The most specific entry covering *dst*, if any."""
        best: Optional[PolicyEntry] = None
        for entry in self._entries:
            if dst not in entry.destination:
                continue
            if best is None or entry.destination.prefix_len > best.destination.prefix_len:
                best = entry
        return best

    def lookup(self, dst: IPAddress) -> RoutingMode:
        """The routing mode for *dst* (default when no entry matches).

        Results are memoized per destination; a cache hit records exactly
        the same ``policy/lookups`` counter increment the scan would have,
        so the metrics snapshot is identical with the cache on or off
        (only the diagnostic ``policy/lookup_cache`` counters differ).
        """
        if dst == self._hot_dst:
            entry, mode = self._hot_cached
            self._cache_hit_counter.value += 1
            if entry is not None:
                self._lookup_counters[(mode, "hit")].value += 1
            else:
                self._lookup_counters[(mode, "miss")].value += 1
            return mode
        cache = self._cache
        cached = cache.get(dst)
        if cached is not None:
            cache.move_to_end(dst)
            self._hot_dst = dst
            self._hot_cached = cached
            self._cache_hit_counter.value += 1
            entry, mode = cached
            if entry is not None:
                self._lookup_counters[(mode, "hit")].value += 1
            else:
                self._lookup_counters[(mode, "miss")].value += 1
            return mode
        self._cache_miss_counter.value += 1
        entry = self.lookup_entry(dst)
        if entry is not None:
            mode = entry.mode
            self._lookup_counters[(mode, "hit")].value += 1
        else:
            mode = self._default_mode
            self._lookup_counters[(mode, "miss")].value += 1
        if self._cache_size > 0:
            cache[dst] = (entry, mode)
            if len(cache) > self._cache_size:
                cache.popitem(last=False)
            self._hot_dst = dst
            self._hot_cached = (entry, mode)
        return mode

    # --------------------------------------------------------- dynamic updates

    def record_probe_result(self, dst: IPAddress, reachable: bool) -> None:
        """Cache the outcome of a reachability probe for *dst*.

        A failed probe under a direct mode means the foreign network drops
        transit traffic: fall back to the always-working tunnel, per-host.
        A successful probe removes a previous dynamic fallback.
        """
        entry = self.lookup_entry(dst)
        self.invalidate_cache()
        if not reachable:
            self._probe_fallback_counter.value += 1
            self.set_policy(dst, RoutingMode.TUNNEL, origin="probe")
            return
        if entry is not None and entry.origin == "probe" \
                and entry.destination == Subnet(dst, 32):
            self.clear_policy(dst)

    # ------------------------------------------------------------- inspection

    def snapshot(self) -> Dict[str, Any]:
        """Structured dump: default mode plus every entry with its origin.

        Entries are sorted most-specific-first (the lookup's preference
        order), so the dump reads as the table's decision sequence.  The
        observability exporter renders this in its human-readable report.
        """
        return {
            "owner": self._owner,
            "default_mode": self._default_mode.value,
            "entries": [
                {
                    "destination": str(entry.destination),
                    "mode": entry.mode.value,
                    "origin": entry.origin,
                }
                for entry in sorted(
                    self._entries,
                    key=lambda e: (-e.destination.prefix_len,
                                   e.destination.network.value))
            ],
        }

    def describe(self) -> str:
        """Dump for examples/debugging, one entry per line."""
        lines = [f"default: {self.default_mode.value}"]
        for entry in sorted(self._entries,
                            key=lambda e: (-e.destination.prefix_len,
                                           e.destination.network.value)):
            lines.append(f"{entry.destination} -> {entry.mode.value} "
                         f"({entry.origin})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        owner = f" owner={self._owner!r}" if self._owner else ""
        body = "; ".join(
            f"{entry.destination}->{entry.mode.value}({entry.origin})"
            for entry in self._entries)
        return (f"<MobilePolicyTable{owner} "
                f"default={self._default_mode.value}"
                f"{' ' + body if body else ''}>")
