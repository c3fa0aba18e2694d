"""Selective acknowledgment (RFC 2018) bookkeeping for the TCP sender
and receiver.

Two small, pure data structures — no timers, no wire format, no
randomness — so both sides of SACK stay unit-testable in isolation:

* :class:`SackScoreboard` — the sender's view of which sequence ranges
  the receiver has reported holding.  The connection consults it to skip
  already-received data when retransmitting and to pick the next hole
  during fast recovery.  SACK information is advisory (RFC 2018 §8): a
  receiver may *renege* and discard data it previously SACKed, so the
  scoreboard is cleared on every retransmission timeout and everything
  from ``snd_una`` is eligible for retransmission again.
* :class:`ReassemblyBuffer` — the receiver's out-of-order segment store.
  It holds whatever arrived above ``rcv_nxt``, yields the SACK blocks to
  advertise, and drains contiguous runs once the hole fills.

Sequence ranges are half-open ``[start, end)`` byte intervals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: At most this many SACK blocks ride in one segment (RFC 2018: the
#: option space allows 3 when timestamps are in use; we advertise the
#: lowest three so the sender repairs holes front-to-back).
MAX_SACK_BLOCKS = 3

Block = Tuple[int, int]


class SackScoreboard:
    """Sender-side record of receiver-reported ``[start, end)`` ranges."""

    __slots__ = ("_blocks",)

    def __init__(self) -> None:
        self._blocks: List[Block] = []   # sorted, non-overlapping

    def __bool__(self) -> bool:
        return bool(self._blocks)

    @property
    def blocks(self) -> Tuple[Block, ...]:
        """The recorded ranges, sorted and coalesced."""
        return tuple(self._blocks)

    def record(self, blocks: Tuple[Block, ...], snd_una: int) -> int:
        """Fold newly advertised blocks in; returns newly-SACKed bytes.

        Blocks at or below ``snd_una`` are stale (already cumulatively
        acknowledged) and ignored, as are malformed ``end <= start``
        blocks — a hostile or confused peer must not corrupt the board.
        """
        newly = 0
        for start, end in blocks:
            if end <= start:
                continue
            start = max(start, snd_una)
            if end <= start:
                continue
            newly += self._insert(start, end)
        return newly

    def _insert(self, start: int, end: int) -> int:
        merged: List[Block] = []
        added = end - start
        for b_start, b_end in self._blocks:
            if b_end < start or b_start > end:
                merged.append((b_start, b_end))
                continue
            # Overlapping or adjacent: coalesce, discounting the overlap.
            added -= max(0, min(end, b_end) - max(start, b_start))
            start = min(start, b_start)
            end = max(end, b_end)
        merged.append((start, end))
        merged.sort()
        self._blocks = merged
        return max(added, 0)

    def advance(self, snd_una: int) -> None:
        """Drop everything the cumulative ACK now covers."""
        self._blocks = [(max(start, snd_una), end)
                        for start, end in self._blocks if end > snd_una]

    def clear(self) -> None:
        """Forget everything (RTO fired: the receiver may have reneged)."""
        self._blocks = []

    def is_sacked(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` lies entirely inside one SACKed run."""
        for b_start, b_end in self._blocks:
            if b_start <= start and end <= b_end:
                return True
        return False

    def first_hole(self, snd_una: int, snd_max: int) -> Optional[Block]:
        """The lowest un-SACKed ``[start, end)`` range, or ``None``.

        ``None`` means nothing between ``snd_una`` and ``snd_max`` needs
        retransmission (everything is either cumulatively or selectively
        acknowledged).
        """
        cursor = snd_una
        for b_start, b_end in self._blocks:
            if b_end <= cursor:
                continue
            if b_start > cursor:
                return (cursor, min(b_start, snd_max))
            cursor = b_end
            if cursor >= snd_max:
                return None
        if cursor < snd_max:
            return (cursor, snd_max)
        return None

    def sacked_bytes(self) -> int:
        """Total bytes currently marked as received out of order."""
        return sum(end - start for start, end in self._blocks)


class ReassemblyBuffer:
    """Receiver-side store for segments that arrived above ``rcv_nxt``."""

    __slots__ = ("_segments",)

    def __init__(self) -> None:
        self._segments: Dict[int, object] = {}   # seq -> TCPSegment

    def __bool__(self) -> bool:
        return bool(self._segments)

    def store(self, seq: int, segment: object) -> None:
        """Keep one out-of-order segment (first copy wins)."""
        self._segments.setdefault(seq, segment)

    def pop(self, seq: int) -> Optional[object]:
        """Remove and return the segment starting exactly at *seq*."""
        return self._segments.pop(seq, None)

    def drop_below(self, rcv_nxt: int) -> None:
        """Discard segments the cumulative ACK has overtaken."""
        self._segments = {seq: seg for seq, seg in self._segments.items()
                          if seq >= rcv_nxt}

    def sack_blocks(self, seq_space) -> Tuple[Block, ...]:
        """The ranges to advertise, lowest-first, coalesced, capped.

        *seq_space* maps a stored segment to the sequence space it
        consumes (payload bytes plus SYN/FIN), so this module needs no
        knowledge of the segment class.
        """
        if not self._segments:
            return ()
        ranges = sorted((seq, seq + seq_space(segment))
                        for seq, segment in self._segments.items())
        merged: List[Block] = [ranges[0]]
        for start, end in ranges[1:]:
            last_start, last_end = merged[-1]
            if start <= last_end:
                merged[-1] = (last_start, max(last_end, end))
            else:
                merged.append((start, end))
        return tuple(merged[:MAX_SACK_BLOCKS])
