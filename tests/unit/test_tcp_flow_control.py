"""RFC 9293 flow control, delayed ACKs — and the close-path fixes.

Two families:

* Regression tests for the state-machine bugfixes that ride with the
  flow-control work (simultaneous close via CLOSING, TIME_WAIT re-ACK of
  a retransmitted FIN with 2MSL restart, out-of-window RST rejection) —
  these run on the *default* config, because the fixes are unconditional.
* Behavior tests for the ``tcp_flow_control`` / ``tcp_delayed_ack``
  knobs: advertised-window enforcement, zero-window stall +
  persist-probe recovery, consume-driven window updates, ACK coalescing,
  and small writes streaming without holdback.
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.net.packet import AppData
from repro.net.tcp import (
    DEFAULT_WINDOW_BYTES,
    DELAYED_ACK_TIMEOUT,
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    TCPSegment,
    TCPState,
)
from repro.sim import Simulator, ms
from tests.conftest import Lan

from tests.unit.test_tcp import open_session

FC_CONFIG = DEFAULT_CONFIG.with_overrides(tcp_flow_control=True,
                                          tcp_recv_buffer=1024)


@pytest.fixture
def fc_lan():
    return Lan(Simulator(seed=1234), config=FC_CONFIG)


def lan_with(**overrides):
    return Lan(Simulator(seed=1234),
               config=DEFAULT_CONFIG.with_overrides(**overrides))


# --------------------------------------------------------- close-path fixes


class TestSimultaneousClose:
    def test_crossing_fins_pass_through_closing(self, lan):
        client, server = open_session(lan)
        lan.run(500)
        # Both ends close in the same instant: the FINs cross in flight.
        client.close()
        server["conn"].close()
        # on_close fires as the peer FIN is consumed — with our own FIN
        # still unacknowledged, RFC 9293 says that moment is CLOSING.
        at_close = {}
        client.on_close = lambda: at_close.update(client=client.state)
        server["conn"].on_close = (
            lambda: at_close.update(server=server["conn"].state))
        lan.run(1000)
        assert at_close == {"client": TCPState.CLOSING,
                            "server": TCPState.CLOSING}
        assert client.state == TCPState.TIME_WAIT
        assert server["conn"].state == TCPState.TIME_WAIT
        lan.run(5000)  # let 2MSL expire
        assert client.state == TCPState.CLOSED
        assert server["conn"].state == TCPState.CLOSED

    def test_closing_keeps_retransmitting_fin(self, lan):
        """A FIN lost during simultaneous close is recovered from CLOSING."""
        client, server = open_session(lan)
        lan.run(500)
        iface_b = lan.b.interfaces[1]
        client.close()
        server["conn"].close()
        # Drop b's side mid-close, then restore: retransmission must
        # finish the close from whatever state the loss left behind.
        lan.run(2)
        iface_b.state = InterfaceState.DOWN
        lan.run(1500)
        iface_b.state = InterfaceState.UP
        lan.run(10000)
        assert client.state == TCPState.CLOSED
        assert server["conn"].state == TCPState.CLOSED


class TestTimeWaitFinRetransmit:
    def _into_time_wait(self, lan):
        client, server = open_session(lan)
        lan.run(500)
        client.close()
        lan.run(500)
        server["conn"].close()
        lan.run(500)
        assert client.state == TCPState.TIME_WAIT
        return client, server["conn"]

    def test_retransmitted_fin_elicits_ack(self, lan):
        client, server_conn = self._into_time_wait(lan)
        sent_before = client.segments_sent
        fin = TCPSegment(server_conn.local_port, client.local_port,
                         seq=client.rcv_nxt - 1, ack=client.snd_nxt,
                         flags=frozenset({FLAG_FIN, FLAG_ACK}))
        client.handle_segment(fin)
        assert client.segments_sent == sent_before + 1
        assert client.state == TCPState.TIME_WAIT

    def test_retransmitted_fin_restarts_2msl(self, lan):
        client, server_conn = self._into_time_wait(lan)
        # 2MSL is 2000 ms.  A FIN arriving 1500 ms in must push expiry out.
        lan.run(1500)
        # Keep the re-ACK from reaching b's (long gone) connection: its
        # RST answer would legitimately assassinate TIME_WAIT and hide
        # the timer restart this test is about.
        iface_b = lan.b.interfaces[1]
        iface_b.state = InterfaceState.DOWN
        fin = TCPSegment(server_conn.local_port, client.local_port,
                         seq=client.rcv_nxt - 1, ack=client.snd_nxt,
                         flags=frozenset({FLAG_FIN, FLAG_ACK}))
        client.handle_segment(fin)
        lan.run(1500)  # original timer would have expired by now
        assert client.state == TCPState.TIME_WAIT
        lan.run(1000)  # restarted timer expires
        assert client.state == TCPState.CLOSED

    def test_pure_ack_does_not_restart_or_reply(self, lan):
        client, server_conn = self._into_time_wait(lan)
        sent_before = client.segments_sent
        ack = TCPSegment(server_conn.local_port, client.local_port,
                         seq=client.rcv_nxt, ack=client.snd_nxt,
                         flags=frozenset({FLAG_ACK}))
        client.handle_segment(ack)
        assert client.segments_sent == sent_before
        lan.run(2500)
        assert client.state == TCPState.CLOSED


class TestRstValidation:
    def test_out_of_window_rst_ignored(self, lan):
        client, _server = open_session(lan)
        lan.run(500)
        resets = []
        client.on_reset = lambda: resets.append(1)
        blind = TCPSegment(23, client.local_port,
                           seq=client.rcv_nxt + DEFAULT_WINDOW_BYTES + 1,
                           ack=0, flags=frozenset({FLAG_RST}))
        client.handle_segment(blind)
        assert resets == []
        assert client.state == TCPState.ESTABLISHED

    def test_in_window_rst_still_resets(self, lan):
        client, _server = open_session(lan)
        lan.run(500)
        resets = []
        client.on_reset = lambda: resets.append(1)
        rst = TCPSegment(23, client.local_port, seq=client.rcv_nxt,
                         ack=0, flags=frozenset({FLAG_RST}))
        client.handle_segment(rst)
        assert resets == [1]
        assert client.state == TCPState.CLOSED

    def test_syn_sent_rst_must_ack_the_syn(self, lan):
        client = lan.a.tcp.connect(ip("10.0.0.2"), 4444)
        resets = []
        client.on_reset = lambda: resets.append(1)
        bogus = TCPSegment(4444, client.local_port, seq=0,
                           ack=client.iss + 999,  # not our SYN's ack
                           flags=frozenset({FLAG_RST}))
        client.handle_segment(bogus)
        assert resets == []
        assert client.state == TCPState.SYN_SENT
        # The real closed-port reset still lands (end to end).
        lan.run(500)
        assert resets == [1]


# ----------------------------------------------------------- flow control


class TestAdvertisedWindow:
    def test_flight_never_exceeds_receive_buffer(self, fc_lan):
        """Receiver-limited: unacked flight stays within the buffer."""
        client, server = open_session(fc_lan)
        fc_lan.run(500)
        server["conn"].auto_consume = False
        for i in range(40):
            client.send(AppData(i, 256))
        max_flight = 0
        for _ in range(600):
            fc_lan.run(5)
            max_flight = max(max_flight, client.snd_max - client.snd_una)
        assert 0 < max_flight <= FC_CONFIG.tcp_recv_buffer
        assert server["conn"].rcv_buffered <= FC_CONFIG.tcp_recv_buffer
        assert server["conn"].bytes_received <= FC_CONFIG.tcp_recv_buffer

    def test_auto_consume_transfers_everything(self, fc_lan):
        got = []
        client, _server = open_session(
            fc_lan, on_server_data=lambda d: got.append(d.content))
        fc_lan.run(500)
        for i in range(40):
            client.send(AppData(i, 256))
        fc_lan.run(30000)
        assert got == list(range(40))

    def test_zero_window_stall_recovers_via_probes(self, fc_lan):
        """A closed window with the update lost is healed by probing."""
        client, server = open_session(fc_lan)
        fc_lan.run(500)
        server["conn"].auto_consume = False
        for i in range(8):
            client.send(AppData(i, 256))
        fc_lan.run(5000)  # fill the 1024-byte buffer, then stall
        assert client.zero_window_ns > 0
        assert client.persist_probes > 0
        assert server["conn"].rcv_buffered == FC_CONFIG.tcp_recv_buffer
        # The application finally reads: the window update releases the
        # rest without waiting for the next (backed-off) probe.
        server["conn"].consume(1024)
        fc_lan.run(8000)
        assert server["conn"].bytes_received == 8 * 256

    def test_probe_interval_backs_off(self, fc_lan):
        client, server = open_session(fc_lan)
        fc_lan.run(500)
        server["conn"].auto_consume = False
        for i in range(8):
            client.send(AppData(i, 256))
        fc_lan.run(4000)
        early = client.persist_probes
        fc_lan.run(4000)
        late = client.persist_probes
        # Backoff doubles the spacing: the second interval adds fewer
        # probes than the first.
        assert 0 < late - early <= early

    def test_consume_sends_window_update(self, fc_lan):
        client, server = open_session(fc_lan)
        fc_lan.run(500)
        server["conn"].auto_consume = False
        for i in range(8):
            client.send(AppData(i, 256))
        fc_lan.run(3000)
        sent_before = server["conn"].segments_sent
        server["conn"].consume(1024)
        assert server["conn"].segments_sent == sent_before + 1

    def test_window_field_on_wire_only_with_knob(self, fc_lan, lan):
        for net, expect_advertised in ((fc_lan, True), (lan, False)):
            client, _server = open_session(net)
            net.run(500)
            seen = []
            original = client.handle_segment
            client.handle_segment = lambda seg: (seen.append(seg.wnd),
                                                 original(seg))
            client.send(AppData("ping", 64))
            net.run(500)
            assert seen
            if expect_advertised:
                assert all(wnd >= 0 for wnd in seen)
            else:
                assert all(wnd == -1 for wnd in seen)


class TestDelayedAck:
    def test_acks_coalesce_every_second_segment(self):
        net = lan_with(tcp_delayed_ack=True)
        client, server = open_session(net)
        net.run(500)
        acks_before = server["conn"].segments_sent
        for i in range(6):
            client.send(AppData(i, 100))
        net.run(2000)
        acks = server["conn"].segments_sent - acks_before
        # 6 in-order segments: every second one forces an ACK -> 3, not 6.
        assert acks == 3
        assert server["conn"].delayed_acks >= 3

    def test_lone_segment_acked_on_timeout(self):
        net = lan_with(tcp_delayed_ack=True)
        client, server = open_session(net)
        net.run(500)
        client.send(AppData("only", 100))
        net.run(50)  # < delack timeout: no ACK yet
        assert client.snd_una < client.snd_max
        net.run(DELAYED_ACK_TIMEOUT / ms(1) + 200)
        assert client.snd_una == client.snd_max
        assert server["conn"].delayed_acks == 1

    def test_fin_is_acked_immediately(self):
        net = lan_with(tcp_delayed_ack=True)
        client, server = open_session(net)
        net.run(500)
        client.send(AppData("bye", 100))
        client.close()
        net.run(5000)
        assert server["conn"].state in (TCPState.CLOSE_WAIT, TCPState.CLOSED)
        assert client.state in (TCPState.FIN_WAIT_2, TCPState.CLOSED)


class TestNagle:
    """The stack has no Nagle holdback: small writes stream at once."""

    def test_default_off_sends_immediately(self, lan):
        client, _server = open_session(lan)
        lan.run(500)
        for i in range(5):
            client.send(AppData(i, 50))
        assert client.snd_max - client.snd_una == 250
