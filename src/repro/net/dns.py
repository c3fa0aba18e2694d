"""DNS: names for mobile hosts (the paper's final release component).

Section 8: "We also hope to release our code for DHCP and an extended
version of DNS on Linux."  DNS matters to MosquitoNet for one architectural
reason: applications connect to *names*, names resolve to the mobile
host's **home address**, and the home address never changes — so mobility
stays invisible one layer higher still.  The "extended" part is dynamic
updates, which let an operator (or the home agent) maintain records
without editing zone files.

Scope: A records only, UDP transport (port 53), QUERY and UPDATE
operations, authoritative server with per-record TTLs, and a stub
resolver with a TTL-respecting cache and retransmission.  No recursion,
no compression, no zone transfers — the testbed has one zone.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.net.addressing import IPAddress
from repro.net.packet import AppData
from repro.sim.engine import Event
from repro.sim.units import ms, s

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

DNS_PORT = 53
#: Approximate wire size of a small DNS message.
DNS_MESSAGE_BYTES = 64


class DNSOp(enum.Enum):
    QUERY = "query"
    RESPONSE = "response"
    UPDATE = "update"
    UPDATE_ACK = "update-ack"


class DNSRcode(enum.Enum):
    NOERROR = 0
    NXDOMAIN = 3
    REFUSED = 5


@dataclass(frozen=True)
class DNSMessage:
    """One DNS message (query, response or dynamic update)."""

    op: DNSOp
    ident: int
    name: str
    address: Optional[IPAddress] = None
    ttl: int = 0
    rcode: DNSRcode = DNSRcode.NOERROR

    def wrap(self) -> AppData:
        """Box the message as a sized UDP payload."""
        return AppData(content=self, size_bytes=DNS_MESSAGE_BYTES)


@dataclass
class DNSRecord:
    """One A record."""

    name: str
    address: IPAddress
    ttl: int
    added_at: int


class DNSServer:
    """An authoritative server for one zone, with dynamic updates.

    Dynamic updates are accepted only from provisioned updater addresses
    (the crude-but-honest 1996 security model: address-based ACLs).
    """

    DEFAULT_TTL = s(300)

    def __init__(self, host: "Host", zone: str) -> None:
        self.host = host
        self.sim = host.sim
        self.zone = zone.lower().rstrip(".")
        self._records: Dict[str, DNSRecord] = {}
        self._updaters: set = set()
        self._socket = host.udp.open(DNS_PORT).on_datagram(self._on_datagram)
        self.queries_answered = 0
        self.updates_applied = 0
        self.updates_refused = 0

    # ----------------------------------------------------------------- zone

    def _canonical(self, name: str) -> str:
        return name.lower().rstrip(".")

    def in_zone(self, name: str) -> bool:
        """True if *name* falls under this server's zone."""
        return self._canonical(name).endswith(self.zone)

    def add_record(self, name: str, address: IPAddress,
                   ttl: int = DEFAULT_TTL) -> DNSRecord:
        """Operator-installed record (zone-file style)."""
        record = DNSRecord(name=self._canonical(name), address=address,
                           ttl=ttl, added_at=self.sim.now)
        self._records[record.name] = record
        return record

    def remove_record(self, name: str) -> None:
        """Delete the record for *name*, if present."""
        self._records.pop(self._canonical(name), None)

    def lookup(self, name: str) -> Optional[DNSRecord]:
        """The record for *name*, or None."""
        return self._records.get(self._canonical(name))

    def allow_updates_from(self, address: IPAddress) -> None:
        """Authorize dynamic updates from *address*."""
        self._updaters.add(address)

    # -------------------------------------------------------------- serving

    def _on_datagram(self, data: AppData, src: IPAddress, src_port: int,
                     dst: IPAddress) -> None:
        message = data.content
        if not isinstance(message, DNSMessage):
            return
        if message.op == DNSOp.QUERY:
            self._answer_query(message, src, src_port)
        elif message.op == DNSOp.UPDATE:
            self._apply_update(message, src, src_port)

    def _answer_query(self, query: DNSMessage, src: IPAddress,
                      src_port: int) -> None:
        record = self.lookup(query.name)
        if record is None:
            response = DNSMessage(op=DNSOp.RESPONSE, ident=query.ident,
                                  name=query.name, rcode=DNSRcode.NXDOMAIN)
        else:
            self.queries_answered += 1
            response = DNSMessage(op=DNSOp.RESPONSE, ident=query.ident,
                                  name=query.name, address=record.address,
                                  ttl=record.ttl)
        self._socket.sendto(response.wrap(), src, src_port)

    def _apply_update(self, update: DNSMessage, src: IPAddress,
                      src_port: int) -> None:
        if src not in self._updaters or not self.in_zone(update.name):
            self.updates_refused += 1
            ack = DNSMessage(op=DNSOp.UPDATE_ACK, ident=update.ident,
                             name=update.name, rcode=DNSRcode.REFUSED)
        else:
            if update.address is None:
                self.remove_record(update.name)
            else:
                self.add_record(update.name, update.address,
                                ttl=update.ttl or self.DEFAULT_TTL)
            self.updates_applied += 1
            self.sim.trace.emit("dns", "updated", name=update.name,
                                address=update.address)
            ack = DNSMessage(op=DNSOp.UPDATE_ACK, ident=update.ident,
                             name=update.name, rcode=DNSRcode.NOERROR)
        self._socket.sendto(ack.wrap(), src, src_port)


@dataclass
class _CachedAnswer:
    address: IPAddress
    expires_at: int


@dataclass
class _PendingQuery:
    on_answer: Callable[[Optional[IPAddress]], None]
    attempts: int
    retry_event: Optional[Event]
    name: str


class DNSResolver:
    """A stub resolver: one upstream server, TTL cache, retransmission."""

    _idents = itertools.count(1)
    RETRY_INTERVAL = ms(1500)
    MAX_ATTEMPTS = 3

    def __init__(self, host: "Host", server: IPAddress) -> None:
        self.host = host
        self.sim = host.sim
        self.server = server
        self._cache: Dict[str, _CachedAnswer] = {}
        self._pending: Dict[int, _PendingQuery] = {}
        self._socket = host.udp.open(0).on_datagram(self._on_datagram)
        self.cache_hits = 0
        self.queries_sent = 0

    def resolve(self, name: str,
                on_answer: Callable[[Optional[IPAddress]], None]) -> None:
        """Resolve *name*; the callback gets the address or ``None``.

        Fresh cached answers are delivered on the next simulation tick
        (still asynchronously, so callers need only one code path).
        """
        key = name.lower().rstrip(".")
        cached = self._cache.get(key)
        if cached is not None and cached.expires_at > self.sim.now:
            self.cache_hits += 1
            self.sim.post_later(0, lambda: on_answer(cached.address),
                                label="dns-cache-hit")
            return
        ident = next(self._idents)
        pending = _PendingQuery(on_answer=on_answer, attempts=0,
                                retry_event=None, name=key)
        self._pending[ident] = pending
        self._transmit(ident)

    # ------------------------------------------------------------------ guts

    def _transmit(self, ident: int) -> None:
        pending = self._pending.get(ident)
        if pending is None:
            return
        pending.attempts += 1
        self.queries_sent += 1
        query = DNSMessage(op=DNSOp.QUERY, ident=ident, name=pending.name)
        self._socket.sendto(query.wrap(), self.server, DNS_PORT)
        if pending.attempts >= self.MAX_ATTEMPTS:
            pending.retry_event = self.sim.call_later(
                self.RETRY_INTERVAL, lambda: self._give_up(ident),
                label="dns-giveup")
        else:
            pending.retry_event = self.sim.call_later(
                self.RETRY_INTERVAL, lambda: self._transmit(ident),
                label="dns-retry")

    def _give_up(self, ident: int) -> None:
        pending = self._pending.pop(ident, None)
        if pending is not None:
            pending.on_answer(None)

    def _on_datagram(self, data: AppData, src: IPAddress, src_port: int,
                     dst: IPAddress) -> None:
        message = data.content
        if not isinstance(message, DNSMessage) or message.op != DNSOp.RESPONSE:
            return
        pending = self._pending.pop(message.ident, None)
        if pending is None:
            return
        if pending.retry_event is not None:
            pending.retry_event.cancel()
        if message.rcode != DNSRcode.NOERROR or message.address is None:
            pending.on_answer(None)
            return
        self._cache[pending.name] = _CachedAnswer(
            address=message.address, expires_at=self.sim.now + message.ttl)
        pending.on_answer(message.address)


def send_dynamic_update(host: "Host", server: IPAddress, name: str,
                        address: Optional[IPAddress],
                        on_ack: Callable[[bool], None]) -> None:
    """Fire one dynamic update at *server* (None address = delete).

    A throwaway socket keeps this usable from any host without port
    bookkeeping; the ack callback reports whether the server accepted.
    """
    socket = host.udp.open(0)
    ident = next(DNSResolver._idents)

    def on_datagram(data: AppData, src: IPAddress, src_port: int,
                    dst: IPAddress) -> None:
        message = data.content
        if (isinstance(message, DNSMessage)
                and message.op == DNSOp.UPDATE_ACK
                and message.ident == ident):
            socket.close()
            on_ack(message.rcode == DNSRcode.NOERROR)

    socket.on_datagram(on_datagram)
    update = DNSMessage(op=DNSOp.UPDATE, ident=ident, name=name,
                        address=address, ttl=DNSServer.DEFAULT_TTL)
    socket.sendto(update.wrap(), server, DNS_PORT)
