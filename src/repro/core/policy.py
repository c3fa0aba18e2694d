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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.net.addressing import PREFIX_MASKS, IPAddress, Subnet
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

    #: Statistics reported as counters (``MetricsRegistry.register``): the
    #: lookups per mode and result, and the probe fallbacks.
    _METRIC_FIELDS = tuple(
        ("policy", "lookups", (("mode", mode.value), ("result", result)),
         (counts, mode.value))
        for mode in RoutingMode
        for result, counts in (("hit", "_hits"), ("miss", "_misses"))
    ) + (("policy", "probe_fallbacks", (), "probe_fallbacks"),)

    def __init__(self, *, metrics: MetricsRegistry, owner: str = "") -> None:
        #: Mode used when no entry matches.
        self.default_mode = RoutingMode.TUNNEL
        #: Entries by prefix, in insertion order (a replaced prefix moves
        #: to the end).
        self._entries: Dict[Subnet, PolicyEntry] = {}
        #: prefix length -> network value -> entry (one per prefix).
        self._index: Dict[int, Dict[int, PolicyEntry]] = {}
        #: The keys of ``_index``, longest first.
        self._lengths: List[int] = []
        self._owner = owner
        # Statistics: lookups by mode value, and probe fallbacks.  An Enum
        # member hashes through Python code and ``.value`` is a Python
        # property, so ``lookup`` keys by the plain ``_value_`` str.
        self._hits: Dict[str, int] = dict.fromkeys(
            (mode.value for mode in RoutingMode), 0)
        self._misses: Dict[str, int] = dict.fromkeys(
            (mode.value for mode in RoutingMode), 0)
        self.probe_fallbacks = 0
        metrics.register(self, self._METRIC_FIELDS, host=owner)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(list(self._entries.values()))

    def set_policy(self, destination: Union[Subnet, IPAddress],
                   mode: RoutingMode, origin: str = "static") -> PolicyEntry:
        """Install (or replace) the policy for a prefix or single host."""
        prefix = destination if isinstance(destination, Subnet) \
            else Subnet(destination, 32)
        self._entries.pop(prefix, None)
        entry = PolicyEntry(destination=prefix, mode=mode, origin=origin)
        self._entries[prefix] = entry
        by_network = self._index.get(prefix.prefix_len)
        if by_network is None:
            by_network = self._index[prefix.prefix_len] = {}
            self._lengths = sorted(self._index, reverse=True)
        by_network[prefix.network.value] = entry
        return entry

    def clear_policy(self, destination: Union[Subnet, IPAddress]) -> None:
        """Remove the entry for a prefix or host, if present."""
        prefix = destination if isinstance(destination, Subnet) \
            else Subnet(destination, 32)
        if self._entries.pop(prefix, None) is None:
            return
        by_network = self._index[prefix.prefix_len]
        del by_network[prefix.network.value]
        if not by_network:
            del self._index[prefix.prefix_len]
            self._lengths.remove(prefix.prefix_len)

    def lookup_entry(self, dst: IPAddress) -> Optional[PolicyEntry]:
        """The most specific entry covering *dst*, if any."""
        value = dst.value
        index = self._index
        for length in self._lengths:
            entry = index[length].get(value & PREFIX_MASKS[length])
            if entry is not None:
                return entry
        return None

    def lookup(self, dst: IPAddress) -> RoutingMode:
        """The routing mode for *dst* (default when no entry matches).

        Counts one ``policy/lookups{mode,result}`` per call: ``hit`` when
        an entry matched, ``miss`` when the default mode applied.
        """
        entry = self.lookup_entry(dst)
        if entry is not None:
            mode = entry.mode
            self._hits[mode._value_] += 1
        else:
            mode = self.default_mode
            self._misses[mode._value_] += 1
        return mode

    # --------------------------------------------------------- dynamic updates

    def record_probe_result(self, dst: IPAddress, reachable: bool) -> None:
        """Cache the outcome of a reachability probe for *dst*.

        A failed probe under a direct mode means the foreign network drops
        transit traffic: fall back to the always-working tunnel, per-host.
        A successful probe removes a previous dynamic fallback.
        """
        entry = self.lookup_entry(dst)
        if not reachable:
            self.probe_fallbacks += 1
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
            "default_mode": self.default_mode.value,
            "entries": [
                {
                    "destination": str(entry.destination),
                    "mode": entry.mode.value,
                    "origin": entry.origin,
                }
                for entry in sorted(
                    self._entries.values(),
                    key=lambda e: (-e.destination.prefix_len,
                                   e.destination.network.value))
            ],
        }

    def describe(self) -> str:
        """Dump for examples/debugging, one entry per line."""
        lines = [f"default: {self.default_mode.value}"]
        for entry in sorted(self._entries.values(),
                            key=lambda e: (-e.destination.prefix_len,
                                           e.destination.network.value)):
            lines.append(f"{entry.destination} -> {entry.mode.value} "
                         f"({entry.origin})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        owner = f" owner={self._owner!r}" if self._owner else ""
        body = "; ".join(
            f"{entry.destination}->{entry.mode.value}({entry.origin})"
            for entry in self._entries.values())
        return (f"<MobilePolicyTable{owner} "
                f"default={self.default_mode.value}"
                f"{' ' + body if body else ''}>")


def policy_tables(metrics: MetricsRegistry) -> List[MobilePolicyTable]:
    """Every Mobile Policy Table registered with *metrics*, in build order.

    Each table registers itself with its simulator's registry when it is
    built, so the registry is where a simulator's tables are found.
    """
    return metrics.owners(MobilePolicyTable._METRIC_FIELDS)
