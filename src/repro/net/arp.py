"""ARP: address resolution, proxy ARP and gratuitous ARP.

ARP is load-bearing in MosquitoNet.  The home agent intercepts packets for
an away-from-home mobile host by becoming its **proxy ARP** entry ("adding
an ARP entry in the home agent's own ARP cache") and broadcasts a
**gratuitous ARP** "to void any stale ARP cache entries on hosts in the same
subnet as the mobile host's home" (Section 3.1).  When the mobile host
returns, the proxy entry is withdrawn and the mobile host re-announces
itself with its own gratuitous ARP.

Each Ethernet interface owns one :class:`ARPService`; the service resolves
next-hop IPs to MACs, queues packets while resolution is in flight, and
answers requests both for the interface's own addresses and for any
published proxy entries.  The cache, the pending resolutions and the proxy
set are keyed by the address's integer ``value``, as ``IPStack._local`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.net.addressing import BROADCAST_MAC, IPAddress, MACAddress
from repro.net.packet import IPPacket
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.net.interface import EthernetInterface

#: ARP operation codes.
OP_REQUEST = 1
OP_REPLY = 2

#: Wire size of an ARP message for IPv4-over-Ethernet.
ARP_MESSAGE_BYTES = 28


@dataclass(frozen=True)
class ARPMessage:
    """An ARP request or reply."""

    op: int
    sender_ip: IPAddress
    sender_mac: MACAddress
    target_ip: IPAddress
    target_mac: Optional[MACAddress] = None

    @property
    def size_bytes(self) -> int:
        """Wire size (fixed for IPv4-over-Ethernet ARP)."""
        return ARP_MESSAGE_BYTES


class _CacheEntry:
    __slots__ = ("mac", "expires_at")

    def __init__(self, mac: MACAddress, expires_at: int) -> None:
        self.mac = mac
        self.expires_at = expires_at


@dataclass
class _PendingResolution:
    packets: List[IPPacket]
    attempts: int
    retry_event: Optional[Event]


class ARPService:
    """Per-interface ARP machinery (cache, resolution, proxy, gratuitous)."""

    #: Statistics reported as counters (``MetricsRegistry.register``).
    _METRIC_FIELDS = (
        ("arp", "requests", (), "requests"),
        ("arp", "gratuitous", (), "gratuitous"),
        ("arp", "cache_evictions", (), "cache_evictions"),
        ("arp", "resolution_failures", (), "resolution_failures"),
    )

    def __init__(self, interface: "EthernetInterface") -> None:
        self._iface = interface
        self._cache: Dict[int, _CacheEntry] = {}
        #: Addresses we answer requests for on behalf of someone else.
        self._proxy_for: Set[int] = set()
        self._pending: Dict[int, _PendingResolution] = {}
        # Statistics.
        self.requests = 0
        self.gratuitous = 0
        self.cache_evictions = 0
        self.resolution_failures = 0
        interface.sim.metrics.register(self, self._METRIC_FIELDS,
                                       iface=interface.name)

    # ------------------------------------------------------------ inspection

    @property
    def _sim(self):
        return self._iface.sim

    @property
    def _cfg(self):
        return self._iface.config

    def lookup(self, addr: IPAddress) -> Optional[MACAddress]:
        """Return the cached MAC for *addr* if fresh, else None."""
        entry = self._cache.get(addr.value)
        if entry is None:
            return None
        if entry.expires_at <= self._iface.sim.now:
            del self._cache[addr.value]
            self.cache_evictions += 1
            return None
        return entry.mac

    def proxy_entries(self) -> Set[IPAddress]:
        """Addresses currently proxied (exposed for tests/monitoring)."""
        return {IPAddress(value) for value in self._proxy_for}

    # ----------------------------------------------------------- cache edits

    def learn(self, addr: IPAddress, mac: MACAddress, create: bool = True) -> None:
        """Refresh the entry for *addr*, or create it when *create* is set.

        ``create=False`` only updates an entry that already exists: the
        rule for a gratuitous ARP and for a bystander that overhears a
        request aimed at someone else.  Any packets queued for *addr* go
        out once it is known.
        """
        key = addr.value
        entry = self._cache.get(key)
        if entry is None:
            if not create:
                return
            self._cache[key] = _CacheEntry(
                mac, self._sim.now + self._cfg.arp_timeout)
        else:
            entry.mac = mac
            entry.expires_at = self._sim.now + self._cfg.arp_timeout
        if self._pending:
            self._release_pending(key, mac)

    def flush(self, addr: Optional[IPAddress] = None) -> None:
        """Drop one entry, or the whole cache when *addr* is None."""
        if addr is None:
            self._cache.clear()
        else:
            self._cache.pop(addr.value, None)

    # ------------------------------------------------------------- proxy ARP

    def add_proxy(self, addr: IPAddress) -> None:
        """Start answering ARP requests for *addr* (home-agent intercept)."""
        self._proxy_for.add(addr.value)
        trace = self._sim.trace
        if "arp" in trace.live:
            trace.emit("arp", "proxy_added", interface=self._iface.name,
                       address=addr)

    def remove_proxy(self, addr: IPAddress) -> None:
        """Stop answering for *addr* (mobile host returned home)."""
        self._proxy_for.discard(addr.value)
        self._sim.trace.emit("arp", "proxy_removed", interface=self._iface.name,
                             address=addr)

    # ------------------------------------------------------------ resolution

    def resolve_and_send(self, packet: IPPacket, next_hop: IPAddress) -> None:
        """Send *packet* to *next_hop*, resolving its MAC first if needed.

        Packets queue while a resolution is outstanding; if resolution fails
        after the configured attempts, queued packets are dropped.
        """
        mac = self.lookup(next_hop)
        if mac is not None:
            self._iface.transmit_ip_frame(packet, mac)
            return
        pending = self._pending.get(next_hop.value)
        if pending is not None:
            pending.packets.append(packet)
            return
        pending = _PendingResolution(packets=[packet], attempts=0,
                                     retry_event=None)
        self._pending[next_hop.value] = pending
        self._send_request(next_hop, pending)

    def _send_request(self, target: IPAddress, pending: _PendingResolution) -> None:
        pending.attempts += 1
        sender_ip = self._iface.address if self._iface.address is not None else IPAddress(0)
        request = ARPMessage(op=OP_REQUEST, sender_ip=sender_ip,
                             sender_mac=self._iface.mac, target_ip=target)
        self.requests += 1
        self._sim.trace.emit("arp", "request", interface=self._iface.name,
                             target=target, attempt=pending.attempts)
        self._iface.transmit_arp(request, BROADCAST_MAC)
        pending.retry_event = self._sim.call_later(
            self._cfg.arp_retry_interval,
            lambda: self._retry(target),
            label="arp-retry",
        )

    def _retry(self, target: IPAddress) -> None:
        pending = self._pending.get(target.value)
        if pending is None:
            return
        if pending.attempts >= self._cfg.arp_max_attempts:
            del self._pending[target.value]
            self.resolution_failures += 1
            self._sim.trace.emit("arp", "failed", interface=self._iface.name,
                                 target=target, dropped=len(pending.packets))
            for packet in pending.packets:
                self._sim.drop("arp", "unresolved", packet,
                               iface=self._iface.name)
            return
        self._send_request(target, pending)

    def _release_pending(self, key: int, mac: MACAddress) -> None:
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        if pending.retry_event is not None:
            pending.retry_event.cancel()
        for packet in pending.packets:
            self._iface.transmit_ip_frame(packet, mac)

    # ------------------------------------------------------------ gratuitous

    def send_gratuitous(self, addr: IPAddress) -> None:
        """Broadcast a gratuitous ARP announcing *addr* at our MAC."""
        message = ARPMessage(op=OP_REQUEST, sender_ip=addr,
                             sender_mac=self._iface.mac, target_ip=addr)
        self.gratuitous += 1
        trace = self._sim.trace
        if "arp" in trace.live:
            trace.emit("arp", "gratuitous", interface=self._iface.name,
                       address=addr)
        self._iface.transmit_arp(message, BROADCAST_MAC)

    def send_probe(self, addr: IPAddress) -> None:
        """Broadcast an address probe (RFC 5227 style): a request for
        *addr* with the unspecified sender, used for duplicate-address
        detection before adopting a DHCP lease.  An owner's reply lands in
        our cache, where the prober checks for it."""
        probe = ARPMessage(op=OP_REQUEST, sender_ip=IPAddress(0),
                           sender_mac=self._iface.mac, target_ip=addr)
        self._sim.trace.emit("arp", "probe", interface=self._iface.name,
                             address=addr)
        self._iface.transmit_arp(probe, BROADCAST_MAC)

    # --------------------------------------------------------------- receive

    def handle(self, message: ARPMessage) -> None:
        """Process a received ARP message by RFC 826's merge rule.

        Every receiver refreshes an entry it already holds for the sender,
        but only the target of a request (an owner of the address, or its
        proxy) creates one; a reply's receiver is its target.  A gratuitous
        ARP (sender and target address equal) only voids or updates stale
        entries and is never answered (Section 3.1's "void any stale ARP
        cache entries").  A probe from 0.0.0.0 teaches no one.
        """
        sender_ip = message.sender_ip
        sender = sender_ip.value
        if sender == message.target_ip.value:
            self.learn(sender_ip, message.sender_mac, create=False)
            return
        request = message.op == OP_REQUEST
        target_me = request and self._answers_for(message.target_ip)
        if sender:
            self.learn(sender_ip, message.sender_mac,
                       create=target_me or not request)
        if target_me:
            reply = ARPMessage(op=OP_REPLY, sender_ip=message.target_ip,
                               sender_mac=self._iface.mac,
                               target_ip=sender_ip,
                               target_mac=message.sender_mac)
            self._iface.transmit_arp(reply, message.sender_mac)

    def _answers_for(self, addr: IPAddress) -> bool:
        return addr.value in self._proxy_for or self._iface.owns_address(addr)
