"""Unit tests for SACK: scoreboard, reassembly, and wire behaviour."""

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import ip
from repro.net.interface import InterfaceState
from repro.net.packet import AppData
from repro.net.sack import MAX_SACK_BLOCKS, ReassemblyBuffer, SackScoreboard
from repro.net.tcp import DEFAULT_MSS, DEFAULT_WINDOW_BYTES, TCPSegment
from repro.sim import Simulator
from tests.conftest import Lan

MSS = DEFAULT_MSS


class TestScoreboard:
    def test_record_merges_overlapping_blocks(self):
        board = SackScoreboard()
        board.record(((100, 200),), snd_una=0)
        board.record(((150, 300), (400, 500)), snd_una=0)
        assert board.blocks == ((100, 300), (400, 500))
        assert board.sacked_bytes() == 300

    def test_adjacent_blocks_coalesce(self):
        board = SackScoreboard()
        board.record(((100, 200),), snd_una=0)
        board.record(((200, 300),), snd_una=0)
        assert board.blocks == ((100, 300),)

    def test_stale_and_malformed_blocks_ignored(self):
        board = SackScoreboard()
        newly = board.record(((0, 50), (80, 80), (90, 60)), snd_una=60)
        assert newly == 0
        assert board.blocks == ()

    def test_record_returns_only_newly_sacked_bytes(self):
        board = SackScoreboard()
        assert board.record(((100, 200),), snd_una=0) == 100
        assert board.record(((100, 200),), snd_una=0) == 0
        assert board.record(((150, 250),), snd_una=0) == 50

    def test_advance_drops_cumulatively_acked_ranges(self):
        board = SackScoreboard()
        board.record(((100, 200), (300, 400)), snd_una=0)
        board.advance(350)
        assert board.blocks == ((350, 400),)

    def test_reneging_clear_forgets_everything(self):
        # RFC 2018 par. 8: SACK is advisory; after an RTO the sender must
        # assume the receiver reneged and retransmit from snd_una.
        board = SackScoreboard()
        board.record(((100, 400),), snd_una=0)
        board.clear()
        assert not board
        assert board.first_hole(0, 500) == (0, 500)

    def test_is_sacked_requires_full_containment(self):
        board = SackScoreboard()
        board.record(((100, 200),), snd_una=0)
        assert board.is_sacked(100, 200)
        assert board.is_sacked(120, 180)
        assert not board.is_sacked(50, 150)
        assert not board.is_sacked(150, 250)

    def test_first_hole_walks_front_to_back(self):
        board = SackScoreboard()
        board.record(((200, 300), (400, 500)), snd_una=100)
        assert board.first_hole(100, 600) == (100, 200)
        board.record(((100, 200),), snd_una=100)
        assert board.first_hole(100, 600) == (300, 400)

    def test_first_hole_none_when_everything_sacked(self):
        board = SackScoreboard()
        board.record(((100, 600),), snd_una=100)
        assert board.first_hole(100, 600) is None


class TestReassemblyBuffer:
    def seg(self, seq, size):
        return TCPSegment(src_port=1, dst_port=2, seq=seq, ack=0,
                          flags=frozenset({"ACK"}),
                          payload=AppData("x", size))

    def test_first_copy_wins(self):
        buf = ReassemblyBuffer()
        first = self.seg(100, 50)
        buf.store(100, first)
        buf.store(100, self.seg(100, 99))
        assert buf.pop(100) is first

    def test_drop_below_discards_overtaken_segments(self):
        buf = ReassemblyBuffer()
        buf.store(100, self.seg(100, 50))
        buf.store(300, self.seg(300, 50))
        buf.drop_below(200)
        assert buf.pop(100) is None
        assert buf.pop(300) is not None

    def test_sack_blocks_merge_and_cap(self):
        buf = ReassemblyBuffer()
        for seq in (100, 150, 300, 500, 700, 900):
            buf.store(seq, self.seg(seq, 50))
        blocks = buf.sack_blocks(lambda s: s.payload.size_bytes)
        assert blocks == ((100, 200), (300, 350), (500, 550))
        assert len(blocks) == MAX_SACK_BLOCKS  # lowest-first, capped

    def test_empty_buffer_advertises_nothing(self):
        assert ReassemblyBuffer().sack_blocks(lambda s: 0) == ()


def sack_lan(seed=7, cc="reno"):
    return Lan(Simulator(seed=seed), config=DEFAULT_CONFIG.with_overrides(
        tcp_congestion_control=cc, tcp_sack=True))


def open_sack_session(lan, got):
    lan.b.tcp.listen(23, lambda conn: setattr(
        conn, "on_data", lambda d: got.append(d.content)))
    client = lan.a.tcp.connect(ip("10.0.0.2"), 23,
                               initial_cwnd=DEFAULT_WINDOW_BYTES)
    lan.run(500)
    return client


def drop_data_segments(lan, indices):
    """Drop the Nth, Mth, ... data segments arriving at host b."""
    original = lan.b.tcp._demux
    state = {"seen": 0, "dropped": []}

    def lossy_demux(packet, segment):
        if segment.payload.size_bytes > 0:
            index = state["seen"]
            state["seen"] += 1
            if index in indices:
                state["dropped"].append(segment.seq)
                return
        original(packet, segment)

    lan.b.tcp._demux = lossy_demux
    return state


class TestSackWireBehaviour:
    def test_acks_carry_sack_blocks_for_out_of_order_data(self):
        lan = sack_lan()
        got = []
        client = open_sack_session(lan, got)
        drop_data_segments(lan, {0})
        seen_sacks = []
        original = lan.a.tcp._demux

        def spying_demux(packet, segment):
            if segment.sack:
                seen_sacks.append(segment.sack)
            original(packet, segment)

        lan.a.tcp._demux = spying_demux
        for i in range(5):
            client.send(AppData(i, MSS))
        lan.run(4000)
        assert got == list(range(5))
        assert seen_sacks, "dup ACKs advertised no SACK blocks"

    def test_sacked_segments_are_never_retransmitted(self):
        # One hole, four SACKed segments behind it: exactly one
        # retransmission repairs the session.
        lan = sack_lan()
        got = []
        client = open_sack_session(lan, got)
        state = drop_data_segments(lan, {0})
        for i in range(5):
            client.send(AppData(i, MSS))
        lan.run(4000)
        assert got == list(range(5))
        assert client.segments_retransmitted == 1
        assert state["dropped"] == [client.iss + 1]

    def test_partial_ack_during_fast_recovery_repairs_next_hole(self):
        # Two holes: the fast retransmit repairs the first; the partial
        # ACK that follows repairs the second without waiting for three
        # more dup ACKs (RFC 6582 via the scoreboard).
        lan = sack_lan(seed=11)
        got = []
        client = open_sack_session(lan, got)
        drop_data_segments(lan, {0, 2})
        for i in range(6):
            client.send(AppData(i, MSS))
        lan.run(5000)
        assert got == list(range(6))
        assert client.fast_retransmits == 1  # one recovery episode
        assert client.segments_retransmitted == 2  # one per hole
        rtos = lan.sim.metrics.get("tcp", "rto_expirations", host="a")
        assert rtos is not None and rtos.value == 0

    def test_rto_clears_scoreboard_for_reneging_safety(self):
        lan = sack_lan(seed=13)
        got = []
        client = open_sack_session(lan, got)
        # Black-hole everything so only the RTO path can fire.
        iface_b = lan.b.interfaces[1]
        iface_b.state = InterfaceState.DOWN
        client.send(AppData("hole", MSS))
        client._scoreboard.record(((client.snd_max + MSS,
                                    client.snd_max + 2 * MSS),),
                                  client.snd_una)
        lan.run(3000)
        assert not client._scoreboard  # cleared by the timeout
        iface_b.state = InterfaceState.UP
        lan.run(8000)
        assert got == ["hole"]

    def test_sack_metrics_appear_only_when_enabled(self):
        lossy = sack_lan(seed=17)
        got = []
        client = open_sack_session(lossy, got)
        drop_data_segments(lossy, {0})
        for i in range(5):
            client.send(AppData(i, MSS))
        lossy.run(4000)
        keys = lossy.sim.metrics.snapshot()
        assert any("sack_blocks_received" in key for key in keys)
        # A default (no-SACK) run must not grow any sack keys.
        plain = Lan(Simulator(seed=17))
        plain_got = []
        plain.b.tcp.listen(23, lambda conn: setattr(
            conn, "on_data", lambda d: plain_got.append(d.content)))
        conn = plain.a.tcp.connect(ip("10.0.0.2"), 23)
        plain.run(500)
        conn.send(AppData(0, MSS))
        plain.run(1000)
        assert not any("sack" in key for key in plain.sim.metrics.snapshot())


class TestSegmentWireFormat:
    def test_sack_option_costs_bytes_on_the_wire(self):
        plain = TCPSegment(src_port=1, dst_port=2, seq=0, ack=0,
                           flags=frozenset({"ACK"}))
        sacked = TCPSegment(src_port=1, dst_port=2, seq=0, ack=0,
                            flags=frozenset({"ACK"}),
                            sack=((100, 200), (300, 400)))
        assert sacked.size_bytes == plain.size_bytes + 2 + 8 * 2

    def test_default_segment_has_no_sack(self):
        segment = TCPSegment(src_port=1, dst_port=2, seq=0, ack=0,
                             flags=frozenset({"ACK"}))
        assert segment.sack == ()
        assert "sack" not in segment.describe()
