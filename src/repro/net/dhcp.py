"""DHCP: dynamic care-of address acquisition on foreign networks.

The paper's whole premise is that a visited network owes the mobile host
nothing beyond "its ability to provide a dynamically-assigned temporary IP
care-of address ... more easily provided automatically by DHCP" (Section 2).
This module implements the classic four-step handshake (DISCOVER, OFFER,
REQUEST, ACK) over UDP ports 67/68, leases with renewal, and release.

One paper-specific requirement (Section 5.1, the accidental-eavesdropping
note): "a well-written DHCP server would avoid reassigning the same IP
address for as long as possible."  The server's free pool is therefore a
FIFO of released addresses — a freshly released address goes to the back of
the queue and is handed out again only after every other free address has
been used.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

from repro.net.addressing import IPAddress, LIMITED_BROADCAST, Subnet, UNSPECIFIED
from repro.net.packet import AppData
from repro.sim.engine import Event
from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.interface import EthernetInterface, NetworkInterface

SERVER_PORT = 67
CLIENT_PORT = 68

#: Approximate wire size of a BOOTP/DHCP message.
DHCP_MESSAGE_BYTES = 300


class DHCPOp(enum.Enum):
    DISCOVER = "discover"
    OFFER = "offer"
    REQUEST = "request"
    ACK = "ack"
    NAK = "nak"
    RELEASE = "release"
    DECLINE = "decline"


@dataclass(frozen=True)
class DHCPMessage:
    """One DHCP message (carried as the content of an ``AppData``)."""

    op: DHCPOp
    xid: int
    client_id: str
    your_ip: Optional[IPAddress] = None
    requested_ip: Optional[IPAddress] = None
    server_id: Optional[IPAddress] = None
    lease_time: int = 0
    subnet: Optional[Subnet] = None
    gateway: Optional[IPAddress] = None

    def wrap(self) -> AppData:
        """Box the message as a sized UDP payload."""
        return AppData(content=self, size_bytes=DHCP_MESSAGE_BYTES)


@dataclass
class Lease:
    """A server-side address binding."""

    address: IPAddress
    client_id: str
    expires_at: int


class DHCPServer:
    """Serves one subnet from a contiguous pool of host addresses.

    The paper's home and foreign networks each run their own server; the
    testbed instantiates one on net 36.8 (the wired foreign network).
    """

    def __init__(self, host: "Host", interface: "NetworkInterface",
                 pool_subnet: Subnet, first_host: int, last_host: int,
                 gateway: Optional[IPAddress] = None) -> None:
        if last_host < first_host:
            raise ValueError("empty DHCP pool")
        self.host = host
        self.sim = host.sim
        self.config = host.config
        self.interface = interface
        self.subnet = pool_subnet
        self.gateway = gateway
        #: FIFO free list: released addresses re-enter at the back, which is
        #: the reuse-avoidance behaviour Section 5.1 asks of a well-written
        #: server.
        self._free: Deque[IPAddress] = deque(
            pool_subnet.host(index) for index in range(first_host, last_host + 1)
        )
        self._leases: Dict[IPAddress, Lease] = {}
        self._offers: Dict[int, IPAddress] = {}
        self._socket = host.udp.open(SERVER_PORT).on_datagram(self._on_datagram)
        self.requests_served = 0
        #: Fault-injection hook: while False the server ignores all client
        #: traffic (an outage), without forgetting its leases.
        self.online = True

    # ------------------------------------------------------------- inspection

    def lease_for(self, client_id: str) -> Optional[Lease]:
        """The active lease held by *client_id*, if any."""
        for lease in self._leases.values():
            if lease.client_id == client_id:
                return lease
        return None

    def active_leases(self) -> List[Lease]:
        """Every lease still within its lifetime."""
        now = self.sim.now
        return [lease for lease in self._leases.values() if lease.expires_at > now]

    def free_addresses(self) -> List[IPAddress]:
        """The free pool, in hand-out order (FIFO)."""
        return list(self._free)

    # ----------------------------------------------------------------- serving

    def _on_datagram(self, data: AppData, src: IPAddress, src_port: int,
                     dst: IPAddress) -> None:
        message = data.content
        if not isinstance(message, DHCPMessage):
            return
        if not self.online:
            self.sim.drop("dhcp", "offline", message, host=self.host.name)
            return
        self._expire_stale()
        delay = self.config.dhcp_server_delay
        if message.op == DHCPOp.DISCOVER:
            self.sim.post_later(delay, lambda: self._offer(message),
                                label="dhcp-offer")
        elif message.op == DHCPOp.REQUEST:
            self.sim.post_later(delay, lambda: self._acknowledge(message, src),
                                label="dhcp-ack")
        elif message.op == DHCPOp.RELEASE:
            self._release(message)
        elif message.op == DHCPOp.DECLINE:
            self._decline(message)

    def _expire_stale(self) -> None:
        now = self.sim.now
        expired = [addr for addr, lease in self._leases.items()
                   if lease.expires_at <= now]
        for addr in expired:
            del self._leases[addr]
            self._free.append(addr)

    def _offer(self, message: DHCPMessage) -> None:
        address = self._choose_address(message)
        if address is None:
            self._reply(DHCPMessage(op=DHCPOp.NAK, xid=message.xid,
                                    client_id=message.client_id), UNSPECIFIED)
            return
        self._offers[message.xid] = address
        offer = DHCPMessage(op=DHCPOp.OFFER, xid=message.xid,
                            client_id=message.client_id, your_ip=address,
                            server_id=self.interface.address,
                            lease_time=self.config.dhcp_lease_time,
                            subnet=self.subnet, gateway=self.gateway)
        self._reply(offer, UNSPECIFIED)

    def _choose_address(self, message: DHCPMessage) -> Optional[IPAddress]:
        # An existing lease for this client is always renewed in place.
        existing = self.lease_for(message.client_id)
        if existing is not None:
            return existing.address
        requested = message.requested_ip
        if requested is not None and requested in self._free:
            self._free.remove(requested)
            self._free.appendleft(requested)  # consumed next, below
        if not self._free:
            return None
        return self._free[0]

    def _acknowledge(self, message: DHCPMessage, src: IPAddress) -> None:
        address = self._offers.pop(message.xid, None)
        if address is None:
            # REQUEST without a preceding OFFER: renewal of an existing
            # lease, or a client rebinding after reboot.
            existing = self.lease_for(message.client_id)
            if existing is None or (message.requested_ip is not None
                                    and message.requested_ip != existing.address):
                self._reply(DHCPMessage(op=DHCPOp.NAK, xid=message.xid,
                                        client_id=message.client_id), src)
                return
            address = existing.address
        if address in self._free:
            self._free.remove(address)
        lease = Lease(address=address, client_id=message.client_id,
                      expires_at=self.sim.now + self.config.dhcp_lease_time)
        self._leases[address] = lease
        self.requests_served += 1
        self.sim.trace.emit("dhcp", "lease_granted", server=self.host.name,
                            client=message.client_id, address=address)
        ack = DHCPMessage(op=DHCPOp.ACK, xid=message.xid,
                          client_id=message.client_id, your_ip=address,
                          server_id=self.interface.address,
                          lease_time=self.config.dhcp_lease_time,
                          subnet=self.subnet, gateway=self.gateway)
        self._reply(ack, src)

    def _release(self, message: DHCPMessage) -> None:
        address = message.requested_ip
        if address is None:
            return
        lease = self._leases.get(address)
        if lease is None or lease.client_id != message.client_id:
            return
        del self._leases[address]
        # Back of the FIFO: reused only after every other free address.
        self._free.append(address)
        self.sim.trace.emit("dhcp", "lease_released", server=self.host.name,
                            client=message.client_id, address=address)

    def _decline(self, message: DHCPMessage) -> None:
        """A client found the address in use: quarantine it.

        The address is parked under a sentinel lease for one lease period
        so it is not handed out again immediately (RFC 2131's required
        behaviour, and the right complement to the reuse-avoidance FIFO).
        """
        address = message.requested_ip
        if address is None or address not in self.subnet:
            return
        if address in self._free:
            self._free.remove(address)
        self._leases[address] = Lease(
            address=address, client_id="<declined>",
            expires_at=self.sim.now + self.config.dhcp_lease_time)
        self.sim.trace.emit("dhcp", "quarantined", server=self.host.name,
                            address=address)

    def _reply(self, message: DHCPMessage, unicast_to: IPAddress) -> None:
        # Clients without a configured address can only hear broadcasts.
        destination = unicast_to
        if destination.is_unspecified:
            destination = LIMITED_BROADCAST
        self._socket.sendto(message.wrap(), destination, CLIENT_PORT,
                            via=self.interface)


class DHCPClientState(enum.Enum):
    IDLE = "idle"
    SELECTING = "selecting"
    REQUESTING = "requesting"
    PROBING = "probing"          # duplicate-address detection
    BOUND = "bound"
    RENEWING = "renewing"


@dataclass(frozen=True)
class BoundLease:
    """What a successful acquisition hands to the caller."""

    address: IPAddress
    subnet: Subnet
    gateway: Optional[IPAddress]
    server_id: Optional[IPAddress]
    lease_time: int


class DHCPClient:
    """Acquires a care-of address for one interface.

    Usage: ``client.acquire(on_bound=...)``.  The callback receives a
    :class:`BoundLease`; the caller (the mobile host's handoff engine)
    configures the interface and registers with the home agent.
    """

    _xids = itertools.count(0x1000)

    #: How long the duplicate-address probe listens for an owner's reply.
    PROBE_WAIT = ms(600)

    def __init__(self, host: "Host", interface: "EthernetInterface",
                 client_id: str) -> None:
        self.host = host
        self.sim = host.sim
        self.interface = interface
        self.client_id = client_id
        self.declines_sent = 0
        self.state = DHCPClientState.IDLE
        self.lease: Optional[BoundLease] = None
        self._xid = 0
        self._socket = host.udp.open(CLIENT_PORT).on_datagram(self._on_datagram)
        self._on_bound: Optional[Callable[[BoundLease], None]] = None
        self._on_failed: Optional[Callable[[], None]] = None
        self._timeout_event: Optional[Event] = None
        self._renew_event: Optional[Event] = None
        #: The transaction timeout configured at acquire() time; renewals
        #: honour it too instead of a hard-coded constant.
        self._timeout: int = ms(4000)
        self._lease_expires_at: Optional[int] = None
        self.renew_failures = 0

    def acquire(self, on_bound: Callable[[BoundLease], None],
                on_failed: Optional[Callable[[], None]] = None,
                timeout: int = ms(4000)) -> None:
        """Run DISCOVER/OFFER/REQUEST/ACK; exactly one callback fires."""
        if self.state not in (DHCPClientState.IDLE, DHCPClientState.BOUND):
            raise RuntimeError(f"DHCP client busy ({self.state.value})")
        self._xid = next(self._xids)
        self._on_bound = on_bound
        self._on_failed = on_failed
        self._timeout = timeout
        self.state = DHCPClientState.SELECTING
        self._timeout_event = self.sim.call_later(timeout, self._fail,
                                                  label="dhcp-timeout")
        discover = DHCPMessage(op=DHCPOp.DISCOVER, xid=self._xid,
                               client_id=self.client_id,
                               requested_ip=self.lease.address if self.lease else None)
        self._broadcast(discover)

    def release(self) -> None:
        """Give the address back (the paper's lease hygiene on departure)."""
        if self.lease is None:
            return
        message = DHCPMessage(op=DHCPOp.RELEASE, xid=next(self._xids),
                              client_id=self.client_id,
                              requested_ip=self.lease.address,
                              server_id=self.lease.server_id)
        if self.lease.server_id is not None:
            self._socket.sendto(message.wrap(), self.lease.server_id, SERVER_PORT,
                                via=self.interface)
        else:
            self._broadcast(message)
        self._cancel_renewal()
        self._cancel_timeout()
        self.lease = None
        self._lease_expires_at = None
        self.state = DHCPClientState.IDLE

    # ----------------------------------------------------------------- guts

    def _broadcast(self, message: DHCPMessage) -> None:
        self._socket.sendto(message.wrap(), LIMITED_BROADCAST, SERVER_PORT,
                            via=self.interface)

    def _on_datagram(self, data: AppData, src: IPAddress, src_port: int,
                     dst: IPAddress) -> None:
        message = data.content
        if not isinstance(message, DHCPMessage) or message.xid != self._xid:
            return
        if message.client_id != self.client_id:
            return
        if message.op == DHCPOp.OFFER and self.state == DHCPClientState.SELECTING:
            self.state = DHCPClientState.REQUESTING
            request = DHCPMessage(op=DHCPOp.REQUEST, xid=self._xid,
                                  client_id=self.client_id,
                                  requested_ip=message.your_ip,
                                  server_id=message.server_id)
            self._broadcast(request)
        elif message.op == DHCPOp.ACK and self.state in (
                DHCPClientState.REQUESTING, DHCPClientState.RENEWING):
            self._bound(message)
        elif message.op == DHCPOp.NAK:
            if self.state == DHCPClientState.RENEWING:
                # The server explicitly refused the renewal: the lease is
                # dead now, not merely unrefreshed.
                self._cancel_timeout()
                self._lease_lost()
            else:
                self._fail()

    def _bound(self, message: DHCPMessage) -> None:
        assert message.your_ip is not None and message.subnet is not None
        if self.state == DHCPClientState.REQUESTING:
            # Duplicate-address detection before adopting the lease: the
            # counterpart of the server-side reuse avoidance Section 5.1
            # calls for (a well-behaved client double-checks too).
            arp = self.interface.arp
            self.state = DHCPClientState.PROBING
            arp.flush(message.your_ip)
            arp.send_probe(message.your_ip)
            self.sim.post_later(self.PROBE_WAIT,
                                lambda: self._probe_done(message),
                                label="dhcp-dad")
            return
        self._finalize_bind(message)

    def _probe_done(self, message: DHCPMessage) -> None:
        arp = self.interface.arp
        if arp.lookup(message.your_ip) is not None:
            # Someone answered: the address is in use.  Decline and retry.
            self.declines_sent += 1
            self.sim.trace.emit("dhcp", "declined", client=self.client_id,
                                address=message.your_ip)
            decline = DHCPMessage(op=DHCPOp.DECLINE, xid=self._xid,
                                  client_id=self.client_id,
                                  requested_ip=message.your_ip,
                                  server_id=message.server_id)
            self._broadcast(decline)
            self.state = DHCPClientState.IDLE
            on_bound, self._on_bound = self._on_bound, None
            on_failed, self._on_failed = self._on_failed, None
            self._cancel_timeout()
            if on_bound is not None:
                self.acquire(on_bound=on_bound, on_failed=on_failed)
            return
        self._finalize_bind(message)

    def _finalize_bind(self, message: DHCPMessage) -> None:
        assert message.your_ip is not None and message.subnet is not None
        self._cancel_timeout()
        self.state = DHCPClientState.BOUND
        self.lease = BoundLease(address=message.your_ip, subnet=message.subnet,
                                gateway=message.gateway,
                                server_id=message.server_id,
                                lease_time=message.lease_time)
        self._lease_expires_at = (self.sim.now + message.lease_time
                                  if message.lease_time > 0 else None)
        self.sim.trace.emit("dhcp", "bound", client=self.client_id,
                            address=message.your_ip)
        self._schedule_renewal(message.lease_time)
        if self._on_bound is not None:
            callback, self._on_bound = self._on_bound, None
            callback(self.lease)

    def _schedule_renewal(self, lease_time: int) -> None:
        self._cancel_renewal()
        if lease_time <= 0:
            return
        self._renew_event = self.sim.call_later(lease_time // 2, self._renew,
                                                label="dhcp-renew")

    def _renew(self) -> None:
        """Lease refresh — the paper's canonical *local role* traffic."""
        if self.lease is None or self.lease.server_id is None:
            return
        self.state = DHCPClientState.RENEWING
        self._xid = next(self._xids)
        request = DHCPMessage(op=DHCPOp.REQUEST, xid=self._xid,
                              client_id=self.client_id,
                              requested_ip=self.lease.address,
                              server_id=self.lease.server_id)
        # Renewal is unicast from the care-of address: deliberately outside
        # mobile IP (the local role of Section 5.2).
        self._socket.sendto(request.wrap(), self.lease.server_id, SERVER_PORT,
                            via=self.interface)
        self._timeout_event = self.sim.call_later(self._timeout,
                                                  self._renew_failed,
                                                  label="dhcp-renew-timeout")

    def _renew_failed(self) -> None:
        """A renewal went unanswered: retry while the lease lasts."""
        self._cancel_timeout()
        self.renew_failures += 1
        now = self.sim.now
        expires_at = self._lease_expires_at
        if self.lease is not None and expires_at is not None and now < expires_at:
            # Still within the lease: fall back to BOUND and try again at
            # half the remaining lifetime (the classic T1/T2 halving).
            self.state = DHCPClientState.BOUND
            retry_in = max(1, (expires_at - now) // 2)
            self.sim.trace.emit("dhcp", "renew_retry", client=self.client_id,
                                retry_ms=retry_in / 1_000_000)
            self._cancel_renewal()
            self._renew_event = self.sim.call_later(retry_in, self._renew,
                                                    label="dhcp-renew")
            return
        self._lease_lost()

    def _lease_lost(self) -> None:
        """The lease lapsed (or was NAKed) without a successful renewal."""
        address = self.lease.address if self.lease is not None else None
        self.sim.trace.emit("dhcp", "lease_lost", client=self.client_id,
                            address=address)
        self._cancel_renewal()
        self.lease = None
        self._lease_expires_at = None
        self.state = DHCPClientState.IDLE

    def _fail(self) -> None:
        self._cancel_timeout()
        self.state = DHCPClientState.IDLE
        if self._on_failed is not None:
            callback, self._on_failed = self._on_failed, None
            callback()

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None

    def _cancel_renewal(self) -> None:
        if self._renew_event is not None:
            self._renew_event.cancel()
            self._renew_event = None
