"""Unit tests for the simplified TCP."""

import pytest

from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.net.packet import AppData
from repro.net.tcp import (
    DEFAULT_MSS,
    TCPError,
    TCPState,
)
from repro.sim import Simulator, ms, s
from tests.conftest import Lan


def open_session(lan, on_server_data=None):
    """Connect a->b on port 23; returns (client_conn, server_holder)."""
    server = {}

    def on_connection(conn):
        server["conn"] = conn
        if on_server_data is not None:
            conn.on_data = on_server_data

    lan.b.tcp.listen(23, on_connection)
    client = lan.a.tcp.connect(ip("10.0.0.2"), 23)
    return client, server


class TestHandshake:
    def test_three_way_handshake(self, lan):
        established = []
        client, server = open_session(lan)
        client.on_established = lambda: established.append("client")
        lan.run(500)
        assert established == ["client"]
        assert client.state == TCPState.ESTABLISHED
        assert server["conn"].state == TCPState.ESTABLISHED

    def test_iss_does_not_depend_on_earlier_simulators(self):
        """Each simulation draws initial sequence numbers from its own
        counter, so earlier runs in the process cannot shift them."""
        def first_iss(earlier_connections):
            busy = Lan(Simulator(seed=1))
            for _ in range(earlier_connections):
                busy.a.tcp.connect(ip("10.0.0.2"), 23)
            lan = Lan(Simulator(seed=1))
            return lan.a.tcp.connect(ip("10.0.0.2"), 23).iss

        assert first_iss(0) == first_iss(5) == 1000

    def test_connect_without_route_raises(self, lan):
        with pytest.raises(TCPError):
            lan.a.tcp.connect(ip("99.0.0.1"), 23)

    def test_syn_to_closed_port_gets_reset(self, lan):
        client = lan.a.tcp.connect(ip("10.0.0.2"), 4444)
        resets = []
        client.on_reset = lambda: resets.append(1)
        lan.run(500)
        assert resets == [1]
        assert client.state == TCPState.CLOSED

    def test_duplicate_listen_rejected(self, lan):
        lan.b.tcp.listen(23, lambda conn: None)
        with pytest.raises(TCPError):
            lan.b.tcp.listen(23, lambda conn: None)

    def test_closed_listener_refuses(self, lan):
        listener = lan.b.tcp.listen(23, lambda conn: None)
        listener.close()
        client = lan.a.tcp.connect(ip("10.0.0.2"), 23)
        resets = []
        client.on_reset = lambda: resets.append(1)
        lan.run(500)
        assert resets == [1]


class TestDataTransfer:
    def test_data_flows_in_order(self, lan):
        got = []
        client, _server = open_session(lan, on_server_data=lambda d: got.append(d.content))
        client.on_established = lambda: [client.send(AppData(i, 100))
                                         for i in range(5)]
        lan.run(2000)
        assert got == [0, 1, 2, 3, 4]

    def test_bidirectional_transfer(self, lan):
        to_server, to_client = [], []
        client, server = open_session(lan, on_server_data=lambda d: to_server.append(d.content))
        client.on_data = lambda d: to_client.append(d.content)

        def kickoff():
            client.send(AppData("question", 50))

        client.on_established = kickoff
        lan.run(500)
        server["conn"].send(AppData("answer", 50))
        lan.run(500)
        assert to_server == ["question"]
        assert to_client == ["answer"]

    def test_send_before_established_raises(self, lan):
        client, _ = open_session(lan)
        with pytest.raises(TCPError):
            client.send(AppData("early", 5))

    def test_empty_send_rejected(self, lan):
        client, _ = open_session(lan)
        lan.run(500)
        with pytest.raises(TCPError):
            client.send(AppData("", 0))

    def test_byte_counters(self, lan):
        got = []
        client, server = open_session(lan, on_server_data=got.append)
        client.on_established = lambda: client.send(AppData("x", 300))
        lan.run(1000)
        assert client.bytes_sent == 300
        assert server["conn"].bytes_received == 300


class TestRetransmission:
    def test_loss_is_recovered(self, lan):
        """Drop the wire for a while mid-transfer; TCP must recover."""
        got = []
        client, _server = open_session(lan, on_server_data=lambda d: got.append(d.content))
        lan.run(500)
        for i in range(3):
            client.send(AppData(i, 100))
        lan.run(500)
        # Outage: b's interface goes down, sender keeps sending.
        iface_b = lan.b.interfaces[1]
        iface_b.state = InterfaceState.DOWN
        for i in range(3, 6):
            client.send(AppData(i, 100))
        lan.run(1500)
        iface_b.state = InterfaceState.UP
        lan.run(8000)
        assert got == [0, 1, 2, 3, 4, 5]
        assert client.segments_retransmitted > 0

    def test_timeout_collapses_cwnd(self, lan):
        client, _server = open_session(lan)
        lan.run(500)
        iface_b = lan.b.interfaces[1]
        iface_b.state = InterfaceState.DOWN
        client.send(AppData("black hole", 100))
        lan.run(3000)
        assert client.cwnd == DEFAULT_MSS
        assert client.ssthresh >= DEFAULT_MSS

    def test_gives_up_after_max_retries(self, lan):
        client, _server = open_session(lan)
        lan.run(500)
        iface_b = lan.b.interfaces[1]
        iface_b.state = InterfaceState.DOWN
        dead = []
        client.on_reset = lambda: dead.append(1)
        client.send(AppData("doomed", 100))
        lan.sim.run_for(s(400))
        assert dead == [1]
        assert client.state == TCPState.CLOSED

    def test_rtt_estimator_converges(self, lan):
        got = []
        client, _server = open_session(lan, on_server_data=got.append)
        client.on_established = lambda: None
        lan.run(500)
        for i in range(10):
            client.send(AppData(i, 100))
            lan.run(200)
        assert client._srtt is not None
        # LAN RTT is ~1-2 ms; the estimate must be in that ballpark.
        assert client._srtt < ms(20)


class TestTeardown:
    def test_clean_close_both_sides(self, lan):
        closed = []
        client, server = open_session(lan)
        client.on_close = lambda: closed.append("client")
        lan.run(500)
        server["conn"].on_close = lambda: closed.append("server")
        client.close()
        lan.run(500)
        server["conn"].close()
        lan.run(5000)
        assert "server" in closed and "client" in closed
        assert client.state == TCPState.CLOSED

    def test_close_flushes_pending_data_first(self, lan):
        got = []
        client, _server = open_session(lan, on_server_data=lambda d: got.append(d.content))
        lan.run(500)
        client.send(AppData("last words", 100))
        client.close()
        lan.run(3000)
        assert got == ["last words"]

    def test_abort_sends_reset(self, lan):
        client, server = open_session(lan)
        lan.run(500)
        resets = []
        server["conn"].on_reset = lambda: resets.append(1)
        client.abort()
        lan.run(500)
        assert resets == [1]
        assert client.state == TCPState.CLOSED
