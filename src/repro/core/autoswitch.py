"""Automatic network selection: Section 6's "when to switch" (extension).

"As for further work on mobile IP, we plan to experiment with techniques
for determining when to switch between networks."  And from Section 4:
"With sufficient warning, for instance, the user or the mobile host can
bring up a newly available wireless interface before the old interface is
disabled" — i.e. the payoff of knowing early is a lossless hot switch.

:class:`ConnectivityManager` is that technique, built from the primitives
the reproduction already has:

* each candidate attachment is an :class:`AttachmentOption` (interface,
  care-of address, subnet, gateway, and a preference score — by default
  the link's bandwidth);
* the manager probes every *up* candidate's gateway with ICMP echoes on a
  fixed interval, from the candidate's own address (local-role traffic);
* a candidate becomes *eligible* after :data:`UP_THRESHOLD` consecutive
  probe successes and *ineligible* after :data:`DOWN_THRESHOLD`
  consecutive failures — classic hysteresis, so one lost radio packet
  doesn't bounce the host between networks;
* whenever the best eligible candidate differs from the current
  attachment, the manager performs a **hot switch** (both interfaces are
  up by construction — this is exactly the paper's "sufficient warning"
  scenario, and it is lossless).

The manager never brings interfaces up or down itself; discovering that a
device exists is the operator's (or hardware's) job, deciding *when to use
it* is the manager's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core.handoff import DeviceSwitcher, SwitchTimeline
from repro.core.notify import profile_of
from repro.net.addressing import IPAddress, Subnet
from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.mobile_host import MobileHost
    from repro.net.interface import NetworkInterface

#: Default probe cadence: interval between probes of each candidate, and
#: how long to wait for a reply before counting a failure.
DEFAULT_PROBE_INTERVAL = ms(500)
DEFAULT_PROBE_TIMEOUT = ms(400)
#: Hysteresis: consecutive successes before a candidate becomes eligible,
#: consecutive failures before it becomes ineligible.
UP_THRESHOLD = 2
DOWN_THRESHOLD = 2


@dataclass
class AttachmentOption:
    """One place the mobile host could attach."""

    name: str
    interface: "NetworkInterface"
    care_of: IPAddress
    subnet: Subnet
    gateway: IPAddress
    #: Higher wins among eligible options.  Defaults to link bandwidth, so
    #: "switch to the faster network when it works" falls out naturally.
    score: Optional[float] = None

    # Probe bookkeeping (managed by the ConnectivityManager).
    consecutive_successes: int = 0
    consecutive_failures: int = 0
    eligible: bool = False
    probes_sent: int = 0
    probes_answered: int = 0

    def effective_score(self) -> float:
        """The preference score: explicit, or the link's bandwidth."""
        if self.score is not None:
            return self.score
        return profile_of(self.interface).bandwidth_bps


class ConnectivityManager:
    """Probe candidates, apply hysteresis, switch to the best network."""

    def __init__(self, mobile: "MobileHost", *,
                 probe_interval: int = DEFAULT_PROBE_INTERVAL,
                 probe_timeout: int = DEFAULT_PROBE_TIMEOUT) -> None:
        self.mobile = mobile
        self.sim = mobile.sim
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.options: List[AttachmentOption] = []
        self.switcher = DeviceSwitcher(mobile)
        self.running = False
        self.switches_performed = 0
        self.failed_switches = 0
        self.on_switch: Optional[Callable[[SwitchTimeline], None]] = None
        self._switching = False

    # ------------------------------------------------------------ provisioning

    def add_option(self, option: AttachmentOption) -> AttachmentOption:
        """Register a candidate attachment for probing."""
        self.options.append(option)
        return option

    def option(self, name: str) -> AttachmentOption:
        """Look a candidate up by name (KeyError if absent)."""
        for candidate in self.options:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no attachment option named {name!r}")

    # ----------------------------------------------------------------- control

    def start(self) -> None:
        """Begin the periodic probe cycle."""
        if self.running:
            return
        self.running = True
        self._tick()

    # ------------------------------------------------------------------ probing

    def _tick(self) -> None:
        for option in self.options:
            if option.interface.is_up:
                self._probe(option)
            else:
                # A down interface is trivially ineligible.
                option.consecutive_successes = 0
                option.consecutive_failures += 1
                self._apply_hysteresis(option)
        self.sim.post_later(self.probe_interval, self._tick,
                            label="connmgr-tick")

    def _probe(self, option: AttachmentOption) -> None:
        option.probes_sent += 1

        def success(rtt: int) -> None:
            option.probes_answered += 1
            option.consecutive_successes += 1
            option.consecutive_failures = 0
            self._apply_hysteresis(option)

        def failure() -> None:
            option.consecutive_failures += 1
            option.consecutive_successes = 0
            self._apply_hysteresis(option)

        # Probe from the candidate's own address: local-role traffic that
        # works whether or not this candidate is the active attachment.
        self.mobile.icmp.ping(option.gateway, on_reply=success,
                              on_timeout=failure, src=option.care_of,
                              timeout=self.probe_timeout, data_bytes=8)

    def _apply_hysteresis(self, option: AttachmentOption) -> None:
        if not option.eligible and option.consecutive_successes >= UP_THRESHOLD:
            option.eligible = True
            self.sim.trace.emit("connmgr", "eligible", option=option.name)
            self._reconsider()
        elif option.eligible and option.consecutive_failures >= DOWN_THRESHOLD:
            option.eligible = False
            self.sim.trace.emit("connmgr", "ineligible", option=option.name)
            self._reconsider()

    # ----------------------------------------------------------------- deciding

    def best_option(self) -> Optional[AttachmentOption]:
        """Highest-scoring eligible candidate, or None."""
        eligible = [option for option in self.options if option.eligible]
        if not eligible:
            return None
        return max(eligible, key=lambda option: option.effective_score())

    def current_option(self) -> Optional[AttachmentOption]:
        """The candidate matching the active attachment, if any."""
        for option in self.options:
            if option.interface is self.mobile.active_interface \
                    and option.care_of == self.mobile.care_of:
                return option
        return None

    def _reconsider(self) -> None:
        if self._switching:
            return
        best = self.best_option()
        if best is None:
            return
        current = self.current_option()
        if current is best:
            return
        if current is not None and current.eligible \
                and best.effective_score() <= current.effective_score():
            return
        self._switch_to(best)

    def _demote(self, option: AttachmentOption) -> None:
        """Strip an option's eligibility after a failed switch or flap.

        It must re-earn :data:`UP_THRESHOLD` consecutive probe successes, so
        a recovered network promotes itself back without operator help.
        """
        option.eligible = False
        option.consecutive_successes = 0
        self.sim.trace.emit("connmgr", "demoted", option=option.name)

    def _switch_to(self, option: AttachmentOption) -> None:
        if not option.interface.is_up:
            # The candidate died (e.g. an injected flap) between becoming
            # eligible and our decision; demote it and fall back to the
            # next preference instead of crashing the hot switch.
            self._demote(option)
            self._reconsider()
            return
        self._switching = True
        self.sim.trace.emit("connmgr", "switching", option=option.name)

        def done(timeline: SwitchTimeline) -> None:
            self._switching = False
            self.switches_performed += 1
            if not timeline.success:
                self.failed_switches += 1
                self._demote(option)
            self.sim.trace.emit("connmgr", "switched", option=option.name,
                                success=timeline.success,
                                total_ms=timeline.total / 1_000_000)
            if self.on_switch is not None:
                self.on_switch(timeline)
            # Conditions may have changed while we were busy.
            self._reconsider()

        self.switcher.hot_switch(option.interface, option.care_of,
                                 option.subnet, option.gateway, on_done=done)
