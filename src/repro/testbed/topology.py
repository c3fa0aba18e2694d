"""Figure 5's test-bed, rebuilt in the simulator.

The paper's environment:

* **net 36.135** — wired Ethernet, the research group's subnet and the
  mobile host's *home network*;
* **net 36.8** — wired Ethernet, the CS department subnet, connected to the
  rest of the Internet; the correspondent host lives here (results were
  similar for a correspondent elsewhere on campus, which the builder also
  provides);
* **net 36.134** — the wireless (Metricom) subnet;
* a Pentium 90 **router** connecting all three, which "is also usually
  used as the home agent" ("our implementation does not require the home
  agent to be collocated with the router" — the builder supports both);
* the **mobile host**, a Gateway Handbook 486 with a PCMCIA Ethernet card
  and a Metricom radio on the serial port.

The builder wires all of it and returns a :class:`Testbed` handle with
every component exposed for experiments and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config import Config, DEFAULT_CONFIG
from repro.core.foreign_agent import ForeignAgentService
from repro.core.home_agent import HomeAgentService
from repro.core.mobile_host import MobileHost
from repro.core.registration import RegistrationOutcome
from repro.net.addressing import IPAddress, MACAllocator, Subnet, ip, subnet
from repro.net.dhcp import DHCPClient, DHCPServer
from repro.net.host import Host
from repro.net.interface import (
    EthernetInterface,
    InterfaceState,
    PointToPointInterface,
    RadioInterface,
)
from repro.net.link import EthernetSegment, PointToPointLink, RadioChannel
from repro.net.router import Router
from repro.net.routing import RouteEntry
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class Addresses:
    """The paper's numbering plan (Stanford class-B net 36, subnetted)."""

    home_net: Subnet = field(default_factory=lambda: subnet("36.135.0.0/24"))
    dept_net: Subnet = field(default_factory=lambda: subnet("36.8.0.0/24"))
    radio_net: Subnet = field(default_factory=lambda: subnet("36.134.0.0/24"))
    remote_net: Subnet = field(default_factory=lambda: subnet("36.40.0.0/24"))
    backbone_net: Subnet = field(default_factory=lambda: subnet("36.200.0.0/30"))

    router_home: IPAddress = field(default_factory=lambda: ip("36.135.0.1"))
    router_dept: IPAddress = field(default_factory=lambda: ip("36.8.0.1"))
    router_radio: IPAddress = field(default_factory=lambda: ip("36.134.0.1"))
    router_backbone: IPAddress = field(default_factory=lambda: ip("36.200.0.1"))

    home_agent_host: IPAddress = field(default_factory=lambda: ip("36.135.0.2"))
    mh_home: IPAddress = field(default_factory=lambda: ip("36.135.0.10"))
    mh_dept_care_of: IPAddress = field(default_factory=lambda: ip("36.8.0.50"))
    mh_dept_care_of_2: IPAddress = field(default_factory=lambda: ip("36.8.0.51"))
    mh_radio: IPAddress = field(default_factory=lambda: ip("36.134.0.77"))
    mh_remote_care_of: IPAddress = field(default_factory=lambda: ip("36.40.0.50"))
    radio_foreign_agent: IPAddress = field(default_factory=lambda: ip("36.134.0.4"))

    ch_dept: IPAddress = field(default_factory=lambda: ip("36.8.0.20"))
    dhcp_server: IPAddress = field(default_factory=lambda: ip("36.8.0.3"))
    foreign_agent: IPAddress = field(default_factory=lambda: ip("36.8.0.4"))

    remote_router_backbone: IPAddress = field(default_factory=lambda: ip("36.200.0.2"))
    remote_router_lan: IPAddress = field(default_factory=lambda: ip("36.40.0.1"))
    ch_remote: IPAddress = field(default_factory=lambda: ip("36.40.0.9"))


@dataclass
class Testbed:
    """Handle on everything the builder created."""

    sim: Simulator
    config: Config
    addresses: Addresses
    macs: MACAllocator

    home_segment: EthernetSegment
    dept_segment: EthernetSegment
    radio_channel: RadioChannel

    router: Router
    home_agent: HomeAgentService
    home_agent_host: Host  # the router itself when collocated

    mobile: MobileHost
    mh_eth: EthernetInterface
    mh_radio: RadioInterface

    correspondent: Host
    remote_correspondent: Optional[Host] = None
    remote_router: Optional[Router] = None
    remote_segment: Optional[EthernetSegment] = None
    dhcp_server: Optional[DHCPServer] = None
    mh_dhcp: Optional[DHCPClient] = None
    foreign_agent: Optional[ForeignAgentService] = None
    radio_foreign_agent: Optional[ForeignAgentService] = None

    # ---------------------------------------------------------------- helpers

    def move_mh_cable(self, to_segment: EthernetSegment) -> None:
        """Physically re-plug the mobile host's Ethernet card."""
        self.mh_eth.detach()
        self.mh_eth.attach(to_segment)

    def unplug_ethernet(self) -> None:
        """Pull the Ethernet card entirely (leaving the office).

        The interface goes down and its routes are withdrawn, so the
        mobile host is reachable only through whatever other attachment
        it has (typically the radio).
        """
        self.mh_eth.detach()
        self.mh_eth.state = InterfaceState.DOWN
        self.mobile.ip.routes.remove_matching(interface=self.mh_eth)

    def visit_dept(self, register: bool = True,
                   on_registered: Optional[Callable[[RegistrationOutcome], None]] = None
                   ) -> IPAddress:
        """Instantly place the MH on net 36.8 with a collocated care-of.

        Moves the cable if needed, configures the static care-of address,
        and (optionally) registers.  Returns the care-of address used.
        Experiments that *measure* the transition use the handoff engines
        instead.
        """
        a = self.addresses
        self._visit_ethernet(self.dept_segment, a.dept_net, a.mh_dept_care_of,
                             a.router_dept, register, on_registered)
        return a.mh_dept_care_of

    def visit_remote(self) -> IPAddress:
        """Instantly place the MH on the remote network (net 36.40).

        The remote network belongs to a different administrative domain —
        this is the scenario where its router may forbid transit traffic.
        """
        if self.remote_segment is None:
            raise ValueError("testbed was built without the remote network")
        a = self.addresses
        self._visit_ethernet(self.remote_segment, a.remote_net,
                             a.mh_remote_care_of, a.remote_router_lan,
                             True, None)
        return a.mh_remote_care_of

    def _visit_ethernet(self, segment: EthernetSegment, net: Subnet,
                        care_of: IPAddress, gateway: IPAddress, register: bool,
                        on_registered: Optional[Callable[[RegistrationOutcome], None]]
                        ) -> None:
        """Plug the MH's Ethernet into *segment* and visit with *care_of*."""
        if self.mh_eth.segment is not segment:
            self.move_mh_cable(segment)
        if self.mh_eth.state != InterfaceState.UP:
            self.mh_eth.state = InterfaceState.UP
        # Clear any home-attachment addressing before adopting the new one.
        self.mh_eth.remove_address(self.addresses.mh_home)
        self.mobile.ip.routes.remove_matching(interface=self.mh_eth)
        self.mobile.start_visiting(self.mh_eth, care_of, net, gateway,
                                   register=register,
                                   on_registered=on_registered)

    def connect_radio(self, register: bool) -> IPAddress:
        """Instantly bring the radio up on net 36.134 (static address)."""
        a = self.addresses
        radio = self.mh_radio
        if radio.state != InterfaceState.UP:
            radio.state = InterfaceState.UP
        if radio.owns_address(a.mh_radio):
            # add_address returns early for a present address, so publish
            # it to the channel here (a re-connect after a disconnect).
            radio._on_address_added(a.mh_radio)
        if register:
            # Sets the subnet, the address and the connected route itself.
            self.mobile.start_visiting(radio, a.mh_radio, a.radio_net,
                                       a.router_radio)
            return a.mh_radio
        radio.subnet = a.radio_net
        radio.add_address(a.mh_radio, make_primary=True)
        # A configured, up interface has its connected route (as ifconfig
        # would install it) — local-role traffic on the wireless subnet
        # must not detour over whatever the default route happens to be.
        self.mobile.ip.routes.add_connected(a.radio_net, radio)
        return a.mh_radio


def build_testbed(sim: Simulator, config: Config = DEFAULT_CONFIG,
                  addresses: Optional[Addresses] = None,
                  separate_home_agent: bool = False,
                  with_remote_correspondent: bool = True,
                  with_dhcp: bool = True,
                  with_foreign_agent: bool = False,
                  with_radio_foreign_agent: bool = False) -> Testbed:
    """Construct Figure 5's test-bed.

    Parameters
    ----------
    separate_home_agent:
        Put the home agent on its own host on net 36.135 instead of
        collocating it with the router (both are valid per the paper).
    with_remote_correspondent:
        Also build a correspondent "elsewhere in the Internet" behind a
        backbone hop (the paper reports similar results for it).
    with_dhcp:
        Run a DHCP server on net 36.8 and give the mobile host a client
        for its Ethernet interface.
    with_foreign_agent:
        Also run an IETF-style foreign agent on net 36.8 (baseline mode).
    """
    a = addresses if addresses is not None else Addresses()
    macs = MACAllocator()

    home_segment = EthernetSegment(sim, "net-36.135", config.ethernet)
    dept_segment = EthernetSegment(sim, "net-36.8", config.ethernet)
    radio_channel = RadioChannel(sim, "net-36.134", config.radio)

    # ------------------------------------------------------------- the router
    router = Router(sim, "router", config)
    r_home = EthernetInterface(sim, "eth0.router", macs.allocate(), config)
    r_dept = EthernetInterface(sim, "eth1.router", macs.allocate(), config)
    r_radio = RadioInterface(sim, "strip0.router", config)
    router.add_interface(r_home)
    router.add_interface(r_dept)
    router.add_interface(r_radio)
    r_home.attach(home_segment)
    r_dept.attach(dept_segment)
    r_radio.attach(radio_channel)
    router.configure_interface(r_home, a.router_home, a.home_net)
    router.configure_interface(r_dept, a.router_dept, a.dept_net)
    router.configure_interface(r_radio, a.router_radio, a.radio_net)

    # ---------------------------------------------------------- the home agent
    if separate_home_agent:
        ha_host: Host = Host(sim, "home-agent", config,
                             timings=config.server_host)
        ha_iface = EthernetInterface(sim, "eth0.ha", macs.allocate(), config)
        ha_host.add_interface(ha_iface)
        ha_iface.attach(home_segment)
        ha_host.configure_interface(ha_iface, a.home_agent_host, a.home_net)
        ha_host.add_default_route(a.router_home, ha_iface)
        home_agent = HomeAgentService(ha_host, ha_iface)
    else:
        ha_host = router
        home_agent = HomeAgentService(router, r_home)

    # ---------------------------------------------------------- the mobile host
    mobile = MobileHost(sim, "mh", home_address=a.mh_home,
                        home_subnet=a.home_net,
                        home_agent=home_agent.address, config=config)
    mh_eth = EthernetInterface(sim, "eth0.mh", macs.allocate(), config)
    mh_radio = RadioInterface(sim, "strip0.mh", config)
    mobile.add_interface(mh_eth)
    mobile.add_interface(mh_radio)
    mh_eth.attach(home_segment)
    mh_radio.attach(radio_channel)
    mh_eth.state = InterfaceState.UP
    mobile.set_home(mh_eth, gateway=a.router_home)
    home_agent.serve(a.mh_home)

    # -------------------------------------------------------- the correspondent
    correspondent = Host(sim, "ch", config)
    ch_iface = EthernetInterface(sim, "eth0.ch", macs.allocate(), config)
    correspondent.add_interface(ch_iface)
    ch_iface.attach(dept_segment)
    correspondent.configure_interface(ch_iface, a.ch_dept, a.dept_net)
    correspondent.add_default_route(a.router_dept, ch_iface)

    testbed = Testbed(sim=sim, config=config, addresses=a, macs=macs,
                      home_segment=home_segment, dept_segment=dept_segment,
                      radio_channel=radio_channel, router=router,
                      home_agent=home_agent, home_agent_host=ha_host,
                      mobile=mobile, mh_eth=mh_eth, mh_radio=mh_radio,
                      correspondent=correspondent)

    # --------------------------------------------- the rest of the Internet
    if with_remote_correspondent:
        backbone = PointToPointLink(sim, "backbone", config.backbone)
        remote_router = Router(sim, "remote-router", config)
        rr_bb = PointToPointInterface(sim, "bb0.remote-router", config)
        rr_lan = EthernetInterface(sim, "eth0.remote-router", macs.allocate(),
                                   config)
        remote_router.add_interface(rr_bb)
        remote_router.add_interface(rr_lan)
        rr_bb.attach(backbone)
        remote_router.configure_interface(rr_bb, a.remote_router_backbone,
                                          a.backbone_net)
        remote_segment = EthernetSegment(sim, "net-36.40", config.ethernet)
        rr_lan.attach(remote_segment)
        remote_router.configure_interface(rr_lan, a.remote_router_lan,
                                          a.remote_net)
        remote_router.add_default_route(a.router_backbone, rr_bb)

        r_bb = PointToPointInterface(sim, "bb0.router", config)
        router.add_interface(r_bb)
        r_bb.attach(backbone)
        router.configure_interface(r_bb, a.router_backbone, a.backbone_net)
        router.ip.routes.add(RouteEntry(destination=a.remote_net,
                                        interface=r_bb,
                                        gateway=a.remote_router_backbone))

        remote_ch = Host(sim, "remote-ch", config)
        rch_iface = EthernetInterface(sim, "eth0.remote-ch", macs.allocate(),
                                      config)
        remote_ch.add_interface(rch_iface)
        rch_iface.attach(remote_segment)
        remote_ch.configure_interface(rch_iface, a.ch_remote, a.remote_net)
        remote_ch.add_default_route(a.remote_router_lan, rch_iface)
        testbed.remote_correspondent = remote_ch
        testbed.remote_router = remote_router
        testbed.remote_segment = remote_segment

    if with_dhcp:
        dhcp_host = Host(sim, "dhcpd", config)
        dhcp_iface = EthernetInterface(sim, "eth0.dhcpd", macs.allocate(),
                                       config)
        dhcp_host.add_interface(dhcp_iface)
        dhcp_iface.attach(dept_segment)
        dhcp_host.configure_interface(dhcp_iface, a.dhcp_server, a.dept_net)
        dhcp_host.add_default_route(a.router_dept, dhcp_iface)
        testbed.dhcp_server = DHCPServer(dhcp_host, dhcp_iface, a.dept_net,
                                         first_host=100, last_host=199,
                                         gateway=a.router_dept)
        testbed.mh_dhcp = DHCPClient(mobile, mh_eth, client_id="mh")

    if with_foreign_agent:
        fa_host = Host(sim, "fa", config, timings=config.server_host)
        fa_iface = EthernetInterface(sim, "eth0.fa", macs.allocate(), config)
        fa_host.add_interface(fa_iface)
        fa_iface.attach(dept_segment)
        fa_host.configure_interface(fa_iface, a.foreign_agent, a.dept_net)
        fa_host.add_default_route(a.router_dept, fa_iface)
        testbed.foreign_agent = ForeignAgentService(fa_host, fa_iface)

    if with_radio_foreign_agent:
        rfa_host = Host(sim, "fa-radio", config, timings=config.server_host)
        rfa_iface = RadioInterface(sim, "strip0.fa", config)
        rfa_host.add_interface(rfa_iface)
        rfa_iface.attach(radio_channel)
        rfa_host.configure_interface(rfa_iface, a.radio_foreign_agent,
                                     a.radio_net)
        rfa_host.add_default_route(a.router_radio, rfa_iface)
        testbed.radio_foreign_agent = ForeignAgentService(rfa_host, rfa_iface)

    return testbed
