"""Unit tests for interface state machines and addressing."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import MACAddress, MACAllocator, ip, subnet
from repro.net.host import Host
from repro.net.interface import (
    EthernetInterface,
    InterfaceError,
    InterfaceState,
    RadioInterface,
)
from repro.net.link import EthernetSegment, RadioChannel
from repro.net.packet import AppData
from repro.sim import ms
from tests.drops import dropped


@pytest.fixture
def iface(sim):
    segment = EthernetSegment(sim, "seg", DEFAULT_CONFIG.ethernet)
    host = Host(sim, "h", DEFAULT_CONFIG)
    interface = EthernetInterface(sim, "eth", MACAllocator().allocate(),
                                  DEFAULT_CONFIG)
    host.add_interface(interface)
    interface.attach(segment)
    return interface


class TestStateMachine:
    def test_bring_up_takes_device_time(self, sim, iface):
        done = []
        iface.bring_up(on_done=lambda: done.append(sim.now))
        assert iface.state == InterfaceState.STARTING
        sim.run()
        assert iface.state == InterfaceState.UP
        base = DEFAULT_CONFIG.ethernet_device.up_delay
        assert base * 0.9 <= done[0] <= base * 1.1

    def test_bring_up_when_already_up_is_instant(self, sim, iface):
        iface.state = InterfaceState.UP
        done = []
        iface.bring_up(on_done=lambda: done.append(sim.now))
        assert done == [0]

    def test_double_bring_up_rejected(self, sim, iface):
        iface.bring_up()
        with pytest.raises(InterfaceError):
            iface.bring_up()

    def test_bring_down_takes_device_time(self, sim, iface):
        iface.state = InterfaceState.UP
        done = []
        iface.bring_down(on_done=lambda: done.append(sim.now))
        assert iface.state == InterfaceState.STOPPING
        sim.run()
        assert iface.state == InterfaceState.DOWN
        base = DEFAULT_CONFIG.ethernet_device.down_delay
        assert base * 0.9 <= done[0] <= base * 1.1

    def test_configure_delay_matches_figure7_stage(self, sim, iface):
        iface.state = InterfaceState.UP
        done = []
        iface.configure(ip("10.0.0.5"), subnet("10.0.0.0/24"),
                        on_done=lambda: done.append(sim.now))
        assert iface.address is None  # not live until the delay elapses
        sim.run()
        assert iface.address == ip("10.0.0.5")
        base = DEFAULT_CONFIG.ethernet_device.configure_delay
        assert base * 0.9 <= done[0] <= base * 1.1


class TestAddresses:
    def test_aliases_and_primary(self, iface):
        iface.add_address(ip("10.0.0.5"))
        iface.add_address(ip("10.0.0.6"))
        assert iface.address == ip("10.0.0.5")
        assert iface.owns_address(ip("10.0.0.6"))
        iface.add_address(ip("10.0.0.6"), make_primary=True)
        assert iface.address == ip("10.0.0.6")
        assert len(iface.addresses) == 2  # promotion, not duplication

    def test_remove_address(self, iface):
        iface.add_address(ip("10.0.0.5"))
        iface.remove_address(ip("10.0.0.5"))
        assert not iface.owns_address(ip("10.0.0.5"))
        iface.remove_address(ip("10.0.0.5"))  # idempotent

    def test_new_primary_via_make_primary_insert(self, iface):
        iface.add_address(ip("10.0.0.5"))
        iface.add_address(ip("10.0.0.7"), make_primary=True)
        assert iface.address == ip("10.0.0.7")


class TestDrops:
    def test_send_while_down_counts(self, sim, iface):
        from tests.unit.test_packet import make_packet

        iface.send_ip(make_packet(), ip("10.0.0.2"))
        assert dropped(sim, "iface", "down", iface="eth") == 1
        assert iface.tx_packets == 0

    def test_receive_while_down_counts(self, sim, iface):
        from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
        from tests.unit.test_packet import make_packet

        frame = EthernetFrame(src=iface.mac, dst=iface.mac,
                              ethertype=ETHERTYPE_IPV4, payload=make_packet())
        iface.deliver_frame(frame)
        assert dropped(sim, "iface", "down", iface="eth") == 1

    def test_down_nic_ignores_frames_for_other_hosts(self, sim, iface):
        # The MAC filter is hardware: a frame addressed to another host is
        # never seen, so it is no drop of ours even while we are down.
        from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
        from tests.unit.test_packet import make_packet

        other = MACAddress(0x02_00_00_00_99_01)
        assert other.value != iface.mac.value
        iface.deliver_frame(EthernetFrame(src=other, dst=other,
                                          ethertype=ETHERTYPE_IPV4,
                                          payload=make_packet()))
        assert dropped(sim, "iface", "down", iface="eth") == 0
        iface.deliver_frame(EthernetFrame(src=other, dst=iface.mac,
                                          ethertype=ETHERTYPE_IPV4,
                                          payload=make_packet()))
        assert dropped(sim, "iface", "down", iface="eth") == 1

    # Three sites that once counted a down-NIC drop but left no record.

    @staticmethod
    def _only_drop_record(sim, name, packet):
        (record,) = sim.trace.select("drop")
        assert (record.event, record["layer"], record["iface"]) == \
            ("down", "iface", name)
        assert record["packet"] == packet.describe()

    def test_arp_resolving_for_a_nic_gone_down_is_one_drop(self, sim, iface):
        from tests.unit.test_packet import make_packet

        iface.state = InterfaceState.UP
        packet = make_packet()
        iface.send_ip(packet, ip("10.0.0.2"))  # queued behind an ARP request
        iface.state = InterfaceState.DOWN
        iface.arp.learn(ip("10.0.0.2"), MACAddress(0x02_00_00_00_99_01))
        self._only_drop_record(sim, "eth", packet)

    def test_frame_reaching_a_down_nic_is_one_drop(self, sim, iface):
        from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
        from tests.unit.test_packet import make_packet

        packet = make_packet()
        iface.deliver_frame(EthernetFrame(src=iface.mac, dst=iface.mac,
                                          ethertype=ETHERTYPE_IPV4,
                                          payload=packet))
        self._only_drop_record(sim, "eth", packet)

    def test_radio_gone_down_during_the_serial_hop_is_one_drop(self, sim):
        from tests.unit.test_packet import make_packet

        radio = RadioInterface(sim, "strip", DEFAULT_CONFIG)
        Host(sim, "h", DEFAULT_CONFIG).add_interface(radio)
        radio.attach(RadioChannel(sim, "air", DEFAULT_CONFIG.radio))
        radio.state = InterfaceState.UP
        packet = make_packet()
        radio.send_ip(packet, ip("10.0.0.2"))
        radio.state = InterfaceState.DOWN  # before the serial line clears it
        sim.run()
        self._only_drop_record(sim, "strip", packet)


class TestDetach:
    def test_detach_and_reattach(self, sim, iface):
        segment2 = EthernetSegment(sim, "seg2", DEFAULT_CONFIG.ethernet)
        iface.detach()
        assert iface.segment is None
        iface.attach(segment2)
        assert iface.segment is segment2

    def test_double_attach_rejected(self, sim, iface):
        with pytest.raises(InterfaceError):
            iface.attach(EthernetSegment(sim, "seg2", DEFAULT_CONFIG.ethernet))


class TestLoopback:
    def test_born_up_and_delivers_locally(self, sim):
        host = Host(sim, "h", DEFAULT_CONFIG)
        assert host.loopback.state == InterfaceState.UP
        got = []
        server = host.udp.open(9).on_datagram(
            lambda d, s, sp, dst: got.append(d.content))
        assert server is not None
        client = host.udp.open(0)
        client.sendto(AppData("hi", 2), ip("127.0.0.1"), 9)
        sim.run_for(ms(10))
        assert got == ["hi"]


class TestRadioSerial:
    def test_radio_send_pays_serial_and_air_time(self, sim):
        from repro.net.interface import RadioInterface
        from repro.net.link import RadioChannel

        config = DEFAULT_CONFIG
        channel = RadioChannel(sim, "air", config.radio)
        host_a = Host(sim, "a", config)
        host_b = Host(sim, "b", config)
        radio_a = RadioInterface(sim, "r.a", config)
        radio_b = RadioInterface(sim, "r.b", config)
        host_a.add_interface(radio_a)
        host_b.add_interface(radio_b)
        radio_a.attach(channel)
        radio_b.attach(channel)
        net = subnet("36.134.0.0/24")
        host_a.configure_interface(radio_a, ip("36.134.0.1"), net)
        host_b.configure_interface(radio_b, ip("36.134.0.2"), net)

        results = []
        host_a.icmp.ping(ip("36.134.0.2"), on_reply=results.append,
                         on_timeout=lambda: results.append(None))
        sim.run_for(ms(3000))
        assert results and results[0] is not None
        # RTT must include two air latencies (78 ms each) plus
        # serialization: comfortably over 160 ms, under 260 ms.
        assert ms(160) < results[0] < ms(260)
