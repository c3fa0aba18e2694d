"""Handoff engines: the measured switch procedures of Section 4.

Three procedures, matching the paper's three experiments:

* :class:`AddressSwitcher` — switch to a different care-of address on the
  *same* subnet.  "Not something we usually do in practice, but ... a
  measurement of the minimal essential software overhead of our system."
  Its instrumented stages are exactly Figure 7's time-line: configure the
  interface, change the route table, the registration request/reply, and
  post-registration processing.
* :meth:`DeviceSwitcher.cold_switch` — "the mobile host deletes the route
  to the first interface, brings the interface down, brings the new
  interface up, adds its route, and finally registers the new IP address
  with its home agent."
* :meth:`DeviceSwitcher.hot_switch` — both interfaces stay up; "the mobile
  host merely changes its route and registers the new address."

Every stage is timestamped into a :class:`SwitchTimeline` so the
experiment harnesses can reproduce Figure 7's per-stage breakdown and
Figure 6's packet-loss histograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.mobile_host import MobileHost
from repro.core.registration import RegistrationOutcome
from repro.net.addressing import IPAddress, Subnet
from repro.net.dhcp import BoundLease, DHCPClient
from repro.net.interface import NetworkInterface
from repro.sim.randomness import jittered

#: Stage names (shared with the experiment harnesses).
STAGE_CONFIGURE = "configure_interface"
STAGE_ROUTE_UPDATE = "update_routes"
STAGE_DELETE_ROUTE = "delete_route"
STAGE_IF_DOWN = "interface_down"
STAGE_IF_UP = "interface_up"
STAGE_ACQUIRE = "acquire_address"
STAGE_ADD_ROUTE = "add_route"
STAGE_REGISTRATION = "registration"
STAGE_POST = "post_registration"


@dataclass
class Stage:
    """One timed step of a switch."""

    name: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        """Stage length in nanoseconds."""
        return self.end - self.start


@dataclass
class SwitchTimeline:
    """The full record of one handoff."""

    kind: str
    started_at: int
    finished_at: int = 0
    stages: List[Stage] = field(default_factory=list)
    success: bool = False
    registration: Optional[RegistrationOutcome] = None

    @property
    def total(self) -> int:
        """End-to-end switch time (Figure 7's 7.39 ms headline)."""
        return self.finished_at - self.started_at

    def stage(self, name: str) -> Optional[Stage]:
        """The named stage, or None if it did not occur."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def duration_of(self, name: str) -> int:
        """The named stage's duration (0 if absent)."""
        stage = self.stage(name)
        return stage.duration if stage is not None else 0

    @property
    def registration_round_trip(self) -> int:
        """Request -> reply latency (Figure 7's 4.79 ms line)."""
        if self.registration is None:
            return 0
        return self.registration.round_trip


class _TimelineBuilder:
    """Shared stage bookkeeping for the switchers."""

    def __init__(self, mobile: MobileHost, kind: str) -> None:
        self.mobile = mobile
        self.sim = mobile.sim
        self.timeline = SwitchTimeline(kind=kind, started_at=mobile.sim.now)
        self._stage_start = mobile.sim.now
        self.sim.metrics.counter("handoff", "attempts", host=mobile.name,
                                 kind=kind).value += 1
        self.sim.trace.emit("handoff", "start", host=mobile.name, kind=kind)

    def begin_stage(self) -> None:
        self._stage_start = self.sim.now

    def end_stage(self, name: str) -> None:
        stage = Stage(name=name, start=self._stage_start, end=self.sim.now)
        self.timeline.stages.append(stage)
        self.sim.trace.emit("handoff", "stage", host=self.mobile.name,
                            kind=self.timeline.kind, stage=name,
                            duration_ms=stage.duration / 1_000_000)
        self._stage_start = self.sim.now

    def finish(self, success: bool,
               on_done: Callable[[SwitchTimeline], None]) -> None:
        self.timeline.success = success
        self.timeline.finished_at = self.sim.now
        metrics = self.sim.metrics
        if success:
            metrics.histogram("handoff", "latency_ms",
                              host=self.mobile.name,
                              kind=self.timeline.kind
                              ).observe(self.timeline.total / 1e6)
        else:
            metrics.counter("handoff", "failures", host=self.mobile.name,
                            kind=self.timeline.kind).value += 1
        self.sim.trace.emit("handoff", "done", host=self.mobile.name,
                            kind=self.timeline.kind, success=success,
                            total_ms=self.timeline.total / 1_000_000)
        on_done(self.timeline)


class AddressSwitcher:
    """Same-subnet care-of address switch (experiment E1 / Figure 7)."""

    def __init__(self, mobile: MobileHost) -> None:
        self.mobile = mobile
        self.sim = mobile.sim

    def switch_address(self, new_care_of: IPAddress,
                       on_done: Callable[[SwitchTimeline], None]) -> None:
        """Replace the current care-of with *new_care_of* (same subnet).

        The new address is configured as an alias first; the old one is
        withdrawn when the route table is updated.  The loss window is
        therefore *not* the whole 7.39 ms switch but only the tail from the
        route change until the home agent's binding points at the new
        address — which is why the paper sees at most one lost packet at
        10 ms spacing.
        """
        mobile = self.mobile
        iface = mobile.active_interface
        if iface is None or mobile.care_of is None or iface.subnet is None:
            raise ValueError(f"{mobile.name} is not visiting a foreign subnet")
        old_care_of = mobile.care_of
        build = _TimelineBuilder(mobile, kind="same-subnet")
        timings = mobile.config.registration
        rng = self.sim.rng(f"handoff:{mobile.name}")

        def configure_done() -> None:
            build.end_stage(STAGE_CONFIGURE)
            delay = jittered(rng, mobile.timings.route_update_cost,
                             mobile.config.jitter)
            self.sim.post_later(delay, routes_updated, label="switch-routes")

        def routes_updated() -> None:
            # The atomic cutover: the old address dies here, the preferred
            # source flips to the new one.
            iface.remove_address(old_care_of)
            mobile.care_of = new_care_of
            build.end_stage(STAGE_ROUTE_UPDATE)
            mobile.registration.register(new_care_of, on_done=registered,
                                         on_fail=failed, via=iface)

        def registered(outcome: RegistrationOutcome) -> None:
            build.timeline.registration = outcome
            build.end_stage(STAGE_REGISTRATION)
            delay = jittered(rng, timings.mh_post_registration_cost,
                             mobile.config.jitter)
            self.sim.post_later(delay, post_done, label="switch-post")

        def post_done() -> None:
            build.end_stage(STAGE_POST)
            build.finish(success=True, on_done=on_done)

        def failed() -> None:
            build.end_stage(STAGE_REGISTRATION)
            build.finish(success=False, on_done=on_done)

        build.begin_stage()
        iface.configure(new_care_of, iface.subnet, on_done=configure_done)


class DeviceSwitcher:
    """Switching between network devices (experiment F6, Figure 6)."""

    def __init__(self, mobile: MobileHost) -> None:
        self.mobile = mobile
        self.sim = mobile.sim

    # -------------------------------------------------------------- cold switch

    def cold_switch(self, old_iface: NetworkInterface,
                    new_iface: NetworkInterface,
                    care_of: IPAddress, net: Subnet, gateway: IPAddress,
                    on_done: Callable[[SwitchTimeline], None],
                    dhcp: Optional[DHCPClient] = None) -> None:
        """Tear the old device down before bringing the new one up.

        With ``dhcp`` given, the care-of address is acquired dynamically
        once the new interface is up (and *care_of* is ignored).
        """
        mobile = self.mobile
        build = _TimelineBuilder(mobile, kind="cold-switch")
        rng = self.sim.rng(f"handoff:{mobile.name}")
        timings = mobile.config.registration
        chosen = {"care_of": care_of, "net": net, "gateway": gateway}

        def delete_route() -> None:
            mobile.ip.routes.remove_matching(interface=old_iface)
            build.end_stage(STAGE_DELETE_ROUTE)
            build.begin_stage()
            old_iface.bring_down(on_done=old_down)

        def old_down() -> None:
            build.end_stage(STAGE_IF_DOWN)
            build.begin_stage()
            new_iface.bring_up(on_done=new_up)

        def new_up() -> None:
            build.end_stage(STAGE_IF_UP)
            build.begin_stage()
            if dhcp is not None:
                dhcp.acquire(on_bound=acquired, on_failed=failed)
            elif not new_iface.owns_address(care_of):
                new_iface.configure(care_of, net, on_done=configured)
            else:
                configured()

        def acquired(lease: BoundLease) -> None:
            chosen["care_of"] = lease.address
            chosen["net"] = lease.subnet
            if lease.gateway is not None:
                chosen["gateway"] = lease.gateway
            build.end_stage(STAGE_ACQUIRE)
            build.begin_stage()
            new_iface.configure(lease.address, lease.subnet, on_done=configured)

        def configured() -> None:
            build.end_stage(STAGE_CONFIGURE)
            delay = jittered(rng, mobile.timings.route_update_cost,
                             mobile.config.jitter)
            self.sim.post_later(delay, routes_added, label="cold-add-route")

        def routes_added() -> None:
            mobile.start_visiting(new_iface, chosen["care_of"], chosen["net"],
                                  chosen["gateway"], register=False)
            build.end_stage(STAGE_ADD_ROUTE)
            mobile.register_current(on_registered=registered, on_failed=failed)

        def registered(outcome: RegistrationOutcome) -> None:
            build.timeline.registration = outcome
            build.end_stage(STAGE_REGISTRATION)
            delay = jittered(rng, timings.mh_post_registration_cost,
                             mobile.config.jitter)
            self.sim.post_later(delay, post_done, label="cold-post")

        def post_done() -> None:
            build.end_stage(STAGE_POST)
            build.finish(success=True, on_done=on_done)

        def failed() -> None:
            build.finish(success=False, on_done=on_done)

        build.begin_stage()
        delay = jittered(rng, mobile.timings.route_update_cost,
                         mobile.config.jitter)
        self.sim.post_later(delay, delete_route, label="cold-del-route")

    # --------------------------------------------------------------- hot switch

    def hot_switch(self, new_iface: NetworkInterface,
                   care_of: IPAddress, net: Subnet, gateway: IPAddress,
                   on_done: Callable[[SwitchTimeline], None]) -> None:
        """Switch to an already-up, already-configured interface.

        "The mobile host merely changes its route and registers the new
        address with its home agent."  The old interface keeps receiving
        until the home agent's binding flips, which is why hot switches
        normally lose nothing.
        """
        mobile = self.mobile
        if not new_iface.is_up:
            raise ValueError(f"hot switch requires {new_iface.name} to be up")
        build = _TimelineBuilder(mobile, kind="hot-switch")
        rng = self.sim.rng(f"handoff:{mobile.name}")
        timings = mobile.config.registration

        def routes_changed() -> None:
            mobile.start_visiting(new_iface, care_of, net, gateway,
                                  register=False)
            build.end_stage(STAGE_ROUTE_UPDATE)
            mobile.register_current(on_registered=registered, on_failed=failed)

        def registered(outcome: RegistrationOutcome) -> None:
            build.timeline.registration = outcome
            build.end_stage(STAGE_REGISTRATION)
            delay = jittered(rng, timings.mh_post_registration_cost,
                             mobile.config.jitter)
            self.sim.post_later(delay, post_done, label="hot-post")

        def post_done() -> None:
            build.end_stage(STAGE_POST)
            build.finish(success=True, on_done=on_done)

        def failed() -> None:
            build.finish(success=False, on_done=on_done)

        build.begin_stage()
        delay = jittered(rng, mobile.timings.route_update_cost,
                         mobile.config.jitter)
        self.sim.post_later(delay, routes_changed, label="hot-routes")
