"""The registration protocol between mobile host and home agent.

"The mobile host serves as its own foreign agent and sends a registration
message to its home agent to notify it of the new care-of address."
(Section 3.1.)  The exchange is a UDP request/reply on port 434 (the IETF
mobile-IP registration port the paper's implementation follows):

* :class:`RegistrationRequest` — home address, care-of address, requested
  lifetime and an identification number that matches replies to requests
  (no authentication extension: the paper does "not yet implement any
  special security measures").
* :class:`RegistrationReply` — accept/deny code plus the granted lifetime.

A request whose care-of address equals the home address (equivalently,
lifetime zero) is a **deregistration**: the mobile host has returned home.

:class:`RegistrationClient` runs on the mobile host.  It retransmits lost
requests, matches replies by identification number, and exposes the
timestamps Figure 7 reports (request sent, reply received).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.net.addressing import IPAddress
from repro.net.packet import AppData
from repro.sim.engine import Event
from repro.sim.randomness import RandomStream, jittered

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.interface import NetworkInterface

#: UDP port home agents listen on (IETF mobile IP registration port).
REGISTRATION_PORT = 434
#: Growth factor of the retransmit interval after each unanswered
#: transmission (RFC 2002-style exponential backoff).
BACKOFF_MULTIPLIER = 2

#: Reply codes (subset of the IETF draft's).
CODE_ACCEPTED = 0
CODE_DENIED_UNKNOWN_HOME = 128
CODE_DENIED_BAD_REQUEST = 134

#: Wire sizes of the messages (fixed part; we carry no real extensions).
REQUEST_BYTES = 52
REPLY_BYTES = 44


@dataclass(frozen=True)
class RegistrationRequest:
    """A (re-)registration or deregistration request."""

    home_address: IPAddress
    care_of_address: IPAddress
    home_agent: IPAddress
    lifetime: int
    identification: int

    @property
    def is_deregistration(self) -> bool:
        """True for lifetime-zero or care-of == home requests."""
        return self.lifetime == 0 or self.care_of_address == self.home_address

    def wrap(self) -> AppData:
        """Box the message as a sized UDP payload."""
        return AppData(content=self, size_bytes=REQUEST_BYTES)


@dataclass(frozen=True)
class RegistrationReply:
    """The home agent's answer."""

    code: int
    home_address: IPAddress
    care_of_address: IPAddress
    lifetime: int
    identification: int

    @property
    def accepted(self) -> bool:
        """True when the code signals acceptance."""
        return self.code == CODE_ACCEPTED

    def wrap(self) -> AppData:
        """Box the message as a sized UDP payload."""
        return AppData(content=self, size_bytes=REPLY_BYTES)


@dataclass
class RegistrationOutcome:
    """What the client reports back, with Figure 7's instrumentation."""

    reply: Optional[RegistrationReply]
    request_sent_at: int
    reply_received_at: int
    transmissions: int

    @property
    def accepted(self) -> bool:
        """True when a reply arrived and accepted the binding."""
        return self.reply is not None and self.reply.accepted

    @property
    def round_trip(self) -> int:
        """Request -> reply latency (the paper's 4.79 ms line)."""
        return self.reply_received_at - self.request_sent_at


@dataclass
class _PendingRegistration:
    request: RegistrationRequest
    on_done: Callable[[RegistrationOutcome], None]
    on_fail: Callable[[], None]
    sent_at: int
    transmissions: int
    retry_event: Optional[Event]
    via: Optional["NetworkInterface"] = None
    destination: Optional[IPAddress] = None


class RegistrationClient:
    """Mobile-host side of the registration protocol."""

    #: Statistics reported as counters (``MetricsRegistry.register``).
    _METRIC_FIELDS = (
        ("registration", "attempts", (), "attempts"),
        ("registration", "retries", (), "retries"),
        ("registration", "failures", (), "failures"),
    )

    def __init__(self, host: "Host", home_address: IPAddress,
                 home_agent: IPAddress) -> None:
        # Per-instance, not a class attribute: a process-wide counter would
        # leak state between simulations and make same-seed runs emit
        # different identifications in their traces.
        self._idents = itertools.count(1)
        self.host = host
        self.sim = host.sim
        self.config = host.config
        self.home_address = home_address
        self.home_agent = home_agent
        self._pending: Dict[int, _PendingRegistration] = {}
        # The socket binds to the unspecified address: requests are sent
        # ``via`` a physical interface and carry its (care-of) address as
        # source, so the home agent's reply comes straight back without
        # depending on the tunnel that is being (re)negotiated.
        self._socket = host.udp.open(REGISTRATION_PORT
                                     ).on_datagram(self._on_datagram)
        self.registrations_sent = 0
        self.replies_received = 0
        self.attempts = 0
        self.retries = 0
        self.failures = 0
        metrics = self.sim.metrics
        metrics.register(self, self._METRIC_FIELDS, host=host.name)
        self._latency_histogram = metrics.histogram(
            "registration", "latency_ms", host=host.name)
        # Both streams are declared here and built on first draw: a
        # second attribute added after ``__init__`` would give every
        # client a dict of its own (see ``lazy_stream``).
        self._cost_stream: Optional[RandomStream] = None
        self._backoff_stream: Optional[RandomStream] = None

    @property
    def _rng(self) -> RandomStream:
        """Marshal/send cost jitter, created on first draw."""
        if self._cost_stream is None:
            self._cost_stream = self.sim.rng(f"reg-client:{self.host.name}")
        return self._cost_stream

    @property
    def _backoff_rng(self) -> RandomStream:
        """Backoff jitter: its own stream, so enabling it never perturbs
        the marshal/send cost sequence."""
        if self._backoff_stream is None:
            self._backoff_stream = self.sim.rng(
                f"reg-backoff:{self.host.name}")
        return self._backoff_stream

    # ----------------------------------------------------------------- sending

    def register(self, care_of_address: IPAddress,
                 on_done: Callable[[RegistrationOutcome], None],
                 on_fail: Optional[Callable[[], None]] = None,
                 lifetime: Optional[int] = None,
                 via: Optional["NetworkInterface"] = None,
                 destination: Optional[IPAddress] = None,
                 home_agent: Optional[IPAddress] = None) -> RegistrationRequest:
        """Send a registration request; retransmit until replied or spent.

        ``destination`` overrides where the request is physically sent (the
        foreign-agent baseline sends it to the FA, which relays it).
        ``home_agent`` overrides the agent this one request is addressed
        to — how a host follows a binding-shard plane's takeover and
        membership changes without rebuilding its client — and defaults
        to the client's configured agent, leaving every existing caller's
        wire traffic byte-identical.
        """
        timings = self.config.registration
        granted = lifetime if lifetime is not None else timings.default_lifetime
        request = RegistrationRequest(
            home_address=self.home_address,
            care_of_address=care_of_address,
            home_agent=home_agent if home_agent is not None else self.home_agent,
            lifetime=granted,
            identification=next(self._idents),
        )
        self._dispatch(request, on_done, on_fail or _noop, via, destination)
        return request

    def deregister(self, on_done: Callable[[RegistrationOutcome], None],
                   via: Optional["NetworkInterface"] = None,
                   destination: Optional[IPAddress] = None) -> RegistrationRequest:
        """Tell the home agent we are back home (lifetime zero).

        ``destination`` lets the same message double as a binding
        *invalidation* toward a smart correspondent host.
        """
        request = RegistrationRequest(
            home_address=self.home_address,
            care_of_address=self.home_address,
            home_agent=self.home_agent,
            lifetime=0,
            identification=next(self._idents),
        )
        self._dispatch(request, on_done, _noop, via, destination)
        return request

    def _dispatch(self, request: RegistrationRequest,
                  on_done: Callable[[RegistrationOutcome], None],
                  on_fail: Callable[[], None],
                  via: Optional["NetworkInterface"],
                  destination: Optional[IPAddress]) -> None:
        timings = self.config.registration
        pending = _PendingRegistration(request=request, on_done=on_done,
                                       on_fail=on_fail, sent_at=self.sim.now,
                                       transmissions=0, retry_event=None,
                                       via=via, destination=destination)
        self._pending[request.identification] = pending
        self.attempts += 1
        trace = self.sim.trace
        if "registration" in trace.live:
            trace.emit("registration", "request_start", host=self.host.name,
                       ident=request.identification,
                       care_of=request.care_of_address)
        marshal = jittered(self._rng, timings.mh_marshal_cost, self.config.jitter)
        send_cost = jittered(self._rng, timings.mh_send_overhead, self.config.jitter)
        self.sim.post_later(marshal + send_cost,
                            lambda: self._transmit(request.identification, via,
                                                   destination),
                            label="reg-marshal")

    def _retry_delay(self, transmissions: int) -> int:
        """Wait before the next transmission, after *transmissions* so far.

        Capped exponential backoff: the first retransmission waits exactly
        ``retransmit_interval`` (so clean runs are unchanged), each further
        one multiplies by :data:`BACKOFF_MULTIPLIER` up to ``backoff_cap``.
        """
        timings = self.config.registration
        delay = timings.retransmit_interval
        for _ in range(max(0, transmissions - 1)):
            if delay >= timings.backoff_cap:
                break
            delay *= BACKOFF_MULTIPLIER
        delay = min(delay, timings.backoff_cap)
        if timings.backoff_jitter > 0.0:
            delay = jittered(self._backoff_rng, delay, timings.backoff_jitter)
        return max(1, delay)

    def _transmit(self, ident: int, via: Optional["NetworkInterface"],
                  destination: Optional[IPAddress]) -> None:
        pending = self._pending.get(ident)
        if pending is None:
            return
        timings = self.config.registration
        pending.transmissions += 1
        self.registrations_sent += 1
        if pending.transmissions > 1:
            self.retries += 1
        target = (destination if destination is not None
                  else pending.request.home_agent)
        trace = self.sim.trace
        if "registration" in trace.live:
            trace.emit("registration", "request_sent", host=self.host.name,
                       ident=ident, attempt=pending.transmissions,
                       target=target)
        self._socket.sendto(pending.request.wrap(), target, REGISTRATION_PORT,
                            via=via)
        delay = self._retry_delay(pending.transmissions)
        if pending.transmissions >= timings.max_transmissions:
            pending.retry_event = self.sim.call_later(
                delay,
                lambda: self._give_up(ident),
                label="reg-giveup",
            )
        else:
            pending.retry_event = self.sim.call_later(
                delay,
                lambda: self._transmit(ident, via, destination),
                label="reg-retry",
            )

    def _give_up(self, ident: int) -> None:
        pending = self._pending.pop(ident, None)
        if pending is None:
            return
        self.failures += 1
        self.sim.trace.emit("registration", "failed", host=self.host.name,
                            ident=ident, attempts=pending.transmissions)
        pending.on_fail()

    # --------------------------------------------------------------- receiving

    def _on_datagram(self, data: AppData, src: IPAddress, src_port: int,
                     dst: IPAddress) -> None:
        reply = data.content
        if not isinstance(reply, RegistrationReply):
            return
        pending = self._pending.pop(reply.identification, None)
        if pending is None:
            return  # duplicate or stale reply
        if pending.retry_event is not None:
            pending.retry_event.cancel()
        receive_cost = jittered(self._rng,
                                self.config.registration.mh_receive_overhead,
                                self.config.jitter)

        def complete() -> None:
            self.replies_received += 1
            trace = self.sim.trace
            if "registration" in trace.live:
                trace.emit("registration", "reply_received",
                           host=self.host.name,
                           ident=reply.identification, code=reply.code)
            outcome = RegistrationOutcome(reply=reply,
                                          request_sent_at=pending.sent_at,
                                          reply_received_at=self.sim.now,
                                          transmissions=pending.transmissions)
            self._latency_histogram.observe(outcome.round_trip / 1e6)
            pending.on_done(outcome)

        self.sim.post_later(receive_cost, complete, label="reg-reply-rx")


def _noop() -> None:
    return None
