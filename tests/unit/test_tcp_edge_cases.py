"""Additional TCP edge cases: segmentation, closes, window behaviour."""

from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.net.packet import AppData
from repro.net.tcp import DEFAULT_MSS, DEFAULT_WINDOW_BYTES, TCPState
from repro.sim import s

from tests.unit.test_tcp import open_session


def test_large_write_is_segmented_at_mss(lan):
    got = []
    client, server = open_session(lan, on_server_data=got.append)
    lan.run(500)
    client.send(AppData("big", DEFAULT_MSS * 3 + 100))
    lan.run(2000)
    total = sum(chunk.size_bytes for chunk in got)
    assert total == DEFAULT_MSS * 3 + 100
    assert len(got) == 4
    assert all(chunk.size_bytes <= DEFAULT_MSS for chunk in got)
    # First segment keeps the content; continuations are marked.
    assert got[0].content == "big"
    assert got[1].content == ("segment-of", "big")
    assert server["conn"].bytes_received == total


def test_large_write_survives_loss(lan):
    got = []
    client, _server = open_session(lan, on_server_data=got.append)
    lan.run(500)
    iface_b = lan.b.interfaces[1]
    iface_b.state = InterfaceState.DOWN
    client.send(AppData("big", DEFAULT_MSS * 5))
    lan.run(800)
    iface_b.state = InterfaceState.UP
    lan.sim.run_for(s(20))
    assert sum(chunk.size_bytes for chunk in got) == DEFAULT_MSS * 5


def test_simultaneous_close(lan):
    closed = []
    client, server = open_session(lan)
    lan.run(500)
    client.on_close = lambda: closed.append("client")
    server["conn"].on_close = lambda: closed.append("server")
    client.close()
    server["conn"].close()
    lan.sim.run_for(s(10))
    assert sorted(closed) == ["client", "server"]
    assert client.state == TCPState.CLOSED
    assert server["conn"].state == TCPState.CLOSED


def test_half_close_still_receives(lan):
    """After our FIN, the peer can keep sending until its own close."""
    to_client = []
    client, server = open_session(lan)
    client.on_data = lambda data: to_client.append(data.content)
    lan.run(500)
    client.close()
    lan.run(500)
    assert server["conn"].state == TCPState.CLOSE_WAIT
    server["conn"].send(AppData("parting words", 100))
    lan.run(500)
    assert to_client == ["parting words"]
    server["conn"].close()
    lan.sim.run_for(s(8))
    assert client.state == TCPState.CLOSED


def test_window_limits_inflight_bytes(lan):
    client, _server = open_session(lan)
    lan.run(500)
    # Freeze the receiver so ACKs stop coming back.
    iface_b = lan.b.interfaces[1]
    iface_b.state = InterfaceState.DOWN
    for _ in range(30):
        client.send(AppData("x", DEFAULT_MSS))
    lan.run(100)
    inflight = client.snd_nxt - client.snd_una
    assert inflight <= DEFAULT_WINDOW_BYTES


def test_cwnd_grows_with_successful_transfer(lan):
    client, _server = open_session(lan)
    lan.run(500)
    start_cwnd = client.cwnd
    for index in range(20):
        client.send(AppData(index, 256))
        lan.run(100)
    assert client.cwnd > start_cwnd


def test_duplicate_data_is_not_redelivered(lan):
    """A retransmitted segment the receiver already has is re-ACKed but
    not handed to the application twice."""
    got = []
    client, _server = open_session(lan, on_server_data=lambda d: got.append(d.content))
    lan.run(500)
    client.send(AppData("once", 100))
    lan.run(500)
    # Inject a spurious duplicate of the same bytes at the same sequence.
    from repro.net.tcp import FLAG_ACK

    client._emit(flags=frozenset({FLAG_ACK}), seq=client.iss + 1,
                 payload=AppData("once", 100))
    lan.run(500)
    assert got == ["once"]


def test_ephemeral_ports_do_not_collide_across_connections(lan):
    lan.b.tcp.listen(23, lambda conn: None)
    first = lan.a.tcp.connect(ip("10.0.0.2"), 23)
    second = lan.a.tcp.connect(ip("10.0.0.2"), 23)
    assert first.local_port != second.local_port


def test_reset_during_handshake_cleans_up(lan):
    client = lan.a.tcp.connect(ip("10.0.0.2"), 4567)  # nobody listening
    lan.run(1000)
    assert client.state == TCPState.CLOSED
    # The connection is gone from the service table.
    assert client.key not in lan.a.tcp._connections
