"""Calibrated timing and link constants for the reproduction.

The paper measured real hardware: Gateway Handbook 486 subnotebooks (40 MHz)
as mobile hosts, a Pentium 90 router/home agent, 10 Mbit/s Ethernet via a
Linksys PCMCIA card, and Metricom packet radios behind a 115.2 kbit/s serial
port running the STRIP driver.  We have none of that hardware, so every
device- and host-specific cost lives here, in one place, calibrated so the
reproduction lands near the paper's headline numbers:

* home agent registration processing ............ 1.48 ms   (Figure 7)
* registration request -> reply latency ......... 4.79 ms   (Figure 7)
* total same-subnet address switch .............. 7.39 ms   (Figure 7)
* same-subnet switch loses <=1 packet at 10 ms spacing (16/20 runs lose 0)
* radio round-trip time through the home agent .. 200-250 ms (Section 4)
* cold device switch outage ..................... <= ~1.25 s (Figure 6)
* Metricom effective throughput ................. 30-40 kbit/s (Section 4)

Nothing in the protocol code hard-codes a result; these constants shape the
*inputs* (service times, link speeds) and the measured outputs emerge from
the simulated protocol dynamics.  Experiments may jitter each cost by a
small fraction (``jitter``) through the simulator's seeded RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sim.units import KBPS, MBPS, ms, us


@dataclass(frozen=True)
class LinkTimings:
    """Physical characteristics of one link technology."""

    #: One-way propagation + medium access latency, nanoseconds.
    latency: int
    #: Serialization rate in bits/second (0 means infinitely fast).
    bandwidth_bps: float
    #: Independent per-packet drop probability (0.0 = lossless).
    loss_rate: float = 0.0


@dataclass(frozen=True)
class DeviceTimings:
    """Cost of operating one network device (interface) type.

    ``up_delay`` dominates Figure 6's cold-switch outage: the paper says the
    longer interval "is due to bringing up the new interface".
    """

    #: Time for ``ifconfig up`` including any hardware interaction, ns.
    up_delay: int
    #: Time for ``ifconfig down``, ns.
    down_delay: int
    #: Time to (re)configure an IP address on an already-up interface, ns.
    #: This is Figure 7's "configure interface" stage.
    configure_delay: int


@dataclass(frozen=True)
class HostTimings:
    """Per-host software costs (CPU-bound, so per machine class)."""

    #: Transport-layer cost to transmit one packet (socket -> wire), ns.
    tx_cost: int
    #: Transport-layer cost to receive one packet (wire -> socket), ns.
    rx_cost: int
    #: Cost to update the kernel routing table (Figure 7 "change route"), ns.
    route_update_cost: int
    #: Cost to encapsulate or decapsulate one IP-in-IP packet, ns.
    tunnel_cost: int
    #: Cost to forward one packet (routers / home agents), ns.
    forward_cost: int


@dataclass(frozen=True)
class RegistrationTimings:
    """Costs specific to the mobile-IP registration exchange (Figure 7)."""

    #: MH cost to build and emit a registration request, ns.
    mh_marshal_cost: int
    #: MH extra socket-layer cost to push the request out, ns.
    mh_send_overhead: int
    #: MH cost to receive and validate the reply, ns.
    mh_receive_overhead: int
    #: HA cost to pull the request off the wire and demux it, ns.
    ha_receive_overhead: int
    #: HA processing: validate, update binding, install proxy ARP and the
    #: host route, emit gratuitous ARP.  The paper measured 1.48 ms.
    ha_processing_cost: int
    #: HA cost to emit the reply, ns.
    ha_send_overhead: int
    #: MH bookkeeping after a successful reply (Figure 7 "post-reg"), ns.
    mh_post_registration_cost: int
    #: Client retransmission interval when a reply is lost, ns.
    retransmit_interval: int
    #: Give up after this many transmissions of one request.
    max_transmissions: int
    #: Default binding lifetime requested by the MH, ns.
    default_lifetime: int
    #: Ceiling on the backed-off retransmit interval, ns.
    backoff_cap: int = ms(8000)
    #: Fractional deterministic jitter (uniform +/-) on backed-off
    #: intervals, drawn from a dedicated RNG stream.  0.0 = no jitter and
    #: no RNG consumption, keeping legacy runs byte-identical.
    backoff_jitter: float = 0.0
    #: Fraction of the granted binding lifetime after which the mobile
    #: host proactively re-registers (0.0 disables renewal; 0.5 renews at
    #: half-life like DHCP).
    renewal_fraction: float = 0.0


@dataclass(frozen=True)
class FleetTimings:
    """Statistical parameters of the aggregate fleet model (x7 scale).

    :class:`repro.workloads.aggregate.AggregateHostModel` represents N
    mobile hosts as arrival processes instead of object graphs; these
    constants calibrate those processes against the per-host testbed:

    * a host (re)registers as a Poisson process with mean interval
      ``mean_registration_interval`` (the default matches the per-host
      binding lifetime, i.e. pure lifetime-renewal traffic);
    * ``network_overhead`` is everything in the Figure 7 round trip that
      is *not* home-agent service time (mobile-host marshalling, socket
      overheads, wire time): 4.79 ms total minus the ~1.96 ms the agent
      spends receiving, processing and replying;
    * per-registration home-agent service time itself comes from
      :class:`RegistrationTimings` (receive + processing + send), so the
      aggregate and per-host models share one calibration.
    """

    #: Mean Poisson inter-registration interval per host, ns.
    mean_registration_interval: int = ms(60_000)
    #: Probability that a registration reflects an actual move (binding
    #: churn: new care-of address) rather than a same-address renewal.
    churn_probability: float = 0.3
    #: Non-HA share of the registration round trip, ns (Figure 7).
    network_overhead: int = us(2830)
    #: Fractional deterministic jitter (uniform +/-) on the network share.
    latency_jitter: float = 0.25
    #: Mean per-host tunnel traffic while registered, bytes/second
    #: (~32 kbit/s: a Metricom radio running flat out).
    tunnel_bytes_per_sec: int = 4_000
    #: Cap on modeled per-agent utilization: queueing delay is computed
    #: from an M/D/1 waiting time, which diverges at rho = 1; beyond the
    #: cap the model reports saturation rather than infinities.
    utilization_cap: float = 0.95
    #: Base delay, ns, before a host re-resolves its responsible replica
    #: and re-registers after a terminal registration failure.
    reregister_delay: int = ms(1_500)
    #: Fractional jitter (uniform +/-) on ``reregister_delay``, drawn per
    #: host from a splitmix64 stream keyed by global host index, so a
    #: replica crash never synchronizes a fleet-wide retry storm.
    reregister_jitter: float = 0.5


@dataclass(frozen=True)
class Config:
    """Bundle of every calibrated constant, with paper-faithful defaults."""

    # ---------------------------------------------------------------- links
    #: 10 Mbit/s shared Ethernet (LAN of Figure 5).
    ethernet: LinkTimings = field(
        default_factory=lambda: LinkTimings(latency=us(150), bandwidth_bps=10 * MBPS)
    )
    #: Campus backbone hop between routed subnets ("the cloud" of Figure 5).
    backbone: LinkTimings = field(
        default_factory=lambda: LinkTimings(latency=us(400), bandwidth_bps=45 * MBPS)
    )
    #: Metricom Starmode radio: theoretical 100 kbit/s, effective 30-40.
    radio: LinkTimings = field(
        default_factory=lambda: LinkTimings(
            latency=ms(78), bandwidth_bps=34 * KBPS, loss_rate=0.0015
        )
    )
    #: The 115.2 kbit/s serial port between the Handbook and the radio.
    serial: LinkTimings = field(
        default_factory=lambda: LinkTimings(latency=us(300), bandwidth_bps=115_200)
    )

    # -------------------------------------------------------------- devices
    #: Linksys PCMCIA Ethernet card.
    ethernet_device: DeviceTimings = field(
        default_factory=lambda: DeviceTimings(
            up_delay=ms(340), down_delay=ms(90), configure_delay=ms(1.31)
        )
    )
    #: Metricom radio behind the serial port (STRIP): slow to come up.
    radio_device: DeviceTimings = field(
        default_factory=lambda: DeviceTimings(
            up_delay=ms(820), down_delay=ms(130), configure_delay=ms(2.1)
        )
    )
    #: Virtual interfaces are software-only.
    virtual_device: DeviceTimings = field(
        default_factory=lambda: DeviceTimings(
            up_delay=us(60), down_delay=us(40), configure_delay=us(50)
        )
    )

    # ---------------------------------------------------------------- hosts
    #: Gateway Handbook 486/40: the mobile host.
    mobile_host: HostTimings = field(
        default_factory=lambda: HostTimings(
            tx_cost=us(160),
            rx_cost=us(160),
            route_update_cost=us(610),
            tunnel_cost=us(120),
            forward_cost=us(140),
        )
    )
    #: Pentium 90: router and home agent.
    server_host: HostTimings = field(
        default_factory=lambda: HostTimings(
            tx_cost=us(60),
            rx_cost=us(60),
            route_update_cost=us(180),
            tunnel_cost=us(45),
            forward_cost=us(50),
        )
    )
    #: Generic correspondent host / infrastructure box.
    generic_host: HostTimings = field(
        default_factory=lambda: HostTimings(
            tx_cost=us(50),
            rx_cost=us(50),
            route_update_cost=us(150),
            tunnel_cost=us(45),
            forward_cost=us(50),
        )
    )

    # --------------------------------------------------------- registration
    registration: RegistrationTimings = field(
        default_factory=lambda: RegistrationTimings(
            mh_marshal_cost=us(210),
            mh_send_overhead=us(1050),
            mh_receive_overhead=us(1160),
            ha_receive_overhead=us(250),
            ha_processing_cost=us(1000),
            ha_send_overhead=us(230),
            mh_post_registration_cost=us(680),
            retransmit_interval=ms(1000),
            max_transmissions=4,
            default_lifetime=ms(60_000),
        )
    )

    # ---------------------------------------------------------------- fleet
    fleet: FleetTimings = field(default_factory=FleetTimings)

    # ----------------------------------------------------------------- misc
    #: Fractional jitter applied to software costs (uniform +/- jitter).
    jitter: float = 0.06
    #: ARP cache entry lifetime, ns (Linux default is ~60 s).
    arp_timeout: int = ms(60_000)
    #: ARP request retransmit interval / attempts before failure.
    arp_retry_interval: int = ms(1000)
    arp_max_attempts: int = 3
    #: DHCP server response latency (DISCOVER->OFFER, REQUEST->ACK), ns.
    dhcp_server_delay: int = ms(2.4)
    #: Default DHCP lease duration, ns.
    dhcp_lease_time: int = ms(120_000)
    #: Default TTL stamped on locally originated packets.
    default_ttl: int = 64

    # ------------------------------------------------------------ transport
    #: TCP congestion-control strategy for new connections: "tahoe" (the
    #: seed's slow-start/AIMD with timeout collapse — byte-identical
    #: default), "reno" (RFC 5681 fast retransmit/fast recovery), or
    #: "cubic" (RFC 8312, deterministic fixed-point).  See
    #: ``repro.net.congestion.CONGESTION_CONTROLS``.
    tcp_congestion_control: str = "tahoe"
    #: Enable selective acknowledgments (RFC 2018): the receiver buffers
    #: out-of-order segments and advertises up to three SACK blocks; the
    #: sender retransmits holes from a scoreboard.  Off by default (the
    #: seed's go-back-N behaviour).
    tcp_sack: bool = False
    #: RFC 9293 receiver flow control: every segment advertises the free
    #: space left in the receive buffer (``wnd``), the sender limits its
    #: flight to ``min(cwnd, peer rwnd)``, and a closed window is probed
    #: by an exponentially backed-off persist timer instead of being
    #: hammered by the retransmission timer.  Off by default: the seed's
    #: fixed ``DEFAULT_WINDOW_BYTES`` behaviour, byte-identical.
    tcp_flow_control: bool = False
    #: Receive-buffer capacity per connection, bytes (the ceiling on the
    #: advertised window).  The default matches the seed's fixed window so
    #: a fast-draining application behaves like the legacy stack.  Only
    #: meaningful with ``tcp_flow_control``.
    tcp_recv_buffer: int = 4096
    #: RFC 9293 3.8.6.3 delayed ACKs: pure data ACKs are held until a
    #: second segment arrives or ``repro.net.tcp.DELAYED_ACK_TIMEOUT``
    #: fires.  Out-of-order segments, FIN, and window updates still ACK
    #: immediately.  Off by default (the seed ACKed every segment).
    tcp_delayed_ack: bool = False

    def with_overrides(self, **kwargs: object) -> "Config":
        """Return a copy with some fields replaced (experiments use this)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


#: The calibrated defaults used by the testbed and all experiments.
DEFAULT_CONFIG = Config()
