"""Pluggable congestion control for :mod:`repro.net.tcp`.

The seed reproduction inlined one Van Jacobson loop — slow start,
additive increase, timeout collapse — because that is what every 1996
TCP shipped.  The 2026 question (ROADMAP item 4) is how mobility events
interact with *modern* recovery behaviour, so the sender's window policy
is now a strategy object the connection consults at well-defined points:

* :class:`TahoeCC` — the seed's algorithm, extracted verbatim.  It is
  the default and remains byte-identical to the inlined original: same
  integer arithmetic, same clamp, no fast retransmit (the seed's Tahoe
  never had it; keeping that quirk is what keeps old runs reproducible).
* :class:`RenoCC` — RFC 5681 fast retransmit / fast recovery with the
  RFC 6582 (NewReno) partial-ACK rule, so one lost segment no longer
  costs a full RTO and window collapse.
* :class:`CubicCC` — RFC 8312.  The cubic window function is computed in
  pure integer arithmetic (fixed-point constants, :func:`icbrt`), so two
  runs with the same seed produce bit-identical cwnd trajectories on any
  platform — floats never touch the window.

Strategies are pure window policies: they never touch sequence numbers,
timers, or the wire.  The connection tells them *what happened* (new
cumulative ACK, duplicate ACK, recovery entry/exit, RTO) and reads back
``cwnd``/``ssthresh``.  Selection is by name through
``Config.tcp_congestion_control`` (or per-connection keyword), via
:func:`make_congestion_control`.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

#: Dup-ACK threshold for fast retransmit (RFC 5681 section 3.2).
DUP_ACK_THRESHOLD = 3

#: CUBIC constants (RFC 8312), as integer fractions over 1024.
#: beta_cubic = 0.7 -> 717/1024; C = 0.4 segments/s^3 -> 4/10.
CUBIC_BETA_NUM = 717
CUBIC_BETA_DEN = 1024


def icbrt(value: int) -> int:
    """Floor integer cube root, exact for arbitrary-precision ints.

    Newton's method on integers; deterministic on every platform (no
    floating point), which is what keeps CUBIC runs byte-reproducible.
    """
    if value < 0:
        raise ValueError("icbrt of a negative value")
    if value == 0:
        return 0
    guess = 1 << ((value.bit_length() + 2) // 3)
    while True:
        better = (2 * guess + value // (guess * guess)) // 3
        if better >= guess:
            return guess
        guess = better


class CongestionControl:
    """Strategy base: owns ``cwnd``/``ssthresh``, reacts to ACK events.

    All quantities are bytes; all times are simulator nanoseconds.  The
    connection calls exactly one hook per event and never mutates the
    window itself.
    """

    #: Registry name; subclasses override.
    name = "base"
    #: Whether the connection should run the dup-ACK counting / fast
    #: retransmit machinery for this strategy.  The seed's Tahoe must
    #: not (it predates it *in this codebase*), so the default is off.
    supports_fast_retransmit = False

    def __init__(self, *, mss: int, max_window: int,
                 initial_cwnd: Optional[int] = None,
                 initial_ssthresh: Optional[int] = None) -> None:
        self.mss = mss
        self.max_window = max_window
        self.cwnd = initial_cwnd if initial_cwnd is not None else 2 * mss
        self.ssthresh = (initial_ssthresh if initial_ssthresh is not None
                         else max_window)

    # ------------------------------------------------------------- the window

    def window(self) -> int:
        """Usable send window in bytes (cwnd clamped by the fixed rwnd)."""
        return min(self.max_window, self.cwnd)

    def effective_window(self, peer_rwnd: Optional[int]) -> int:
        """Send window = min(cwnd, peer's advertised window) (RFC 9293).

        ``peer_rwnd`` is None until the peer has advertised (and always,
        when flow control is off) — then the fixed ``max_window`` clamp
        stands in for it, which is exactly the seed's behaviour.
        """
        if peer_rwnd is None:
            return self.window()
        return min(self.cwnd, peer_rwnd)

    # ----------------------------------------------------------------- events

    def on_ack(self, acked: int, now: int, srtt: Optional[int]) -> None:
        """A new cumulative ACK covering *acked* bytes (not in recovery)."""
        raise NotImplementedError

    def on_timeout(self, flight: int, now: int) -> None:
        """The retransmission timer fired with *flight* bytes outstanding."""
        raise NotImplementedError

    def on_enter_recovery(self, flight: int, now: int) -> None:
        """Third duplicate ACK: fast retransmit is about to happen."""

    def on_dup_ack_in_recovery(self, now: int) -> None:
        """A further duplicate ACK while in fast recovery."""

    def on_partial_ack(self, acked: int, now: int) -> None:
        """A cumulative ACK that advances but does not leave recovery."""

    def on_exit_recovery(self, now: int) -> None:
        """A cumulative ACK covered everything sent before recovery."""

    def on_rwnd_limited(self, now: int) -> None:
        """An ACK arrived while the *receiver's* window is the binding
        constraint (RFC 5681 guidance): by default the strategy holds
        cwnd flat instead of growing a burst the peer cannot absorb.
        Strategies may override (e.g. to freeze internal epoch clocks).
        """

    # ------------------------------------------------------------------ misc

    def describe(self) -> str:
        """One-line state summary (traces and reports)."""
        return (f"{self.name} cwnd={self.cwnd} ssthresh={self.ssthresh}")


class TahoeCC(CongestionControl):
    """The seed's inlined algorithm, extracted unchanged.

    Slow start below ``ssthresh`` (one MSS per ACK), additive increase
    above it, timeout collapses to one segment.  No fast retransmit —
    loss always costs an RTO, exactly as the seed behaved.  Every
    expression below is copied from the pre-refactor connection so that
    default-config runs stay byte-identical.
    """

    name = "tahoe"
    supports_fast_retransmit = False

    def on_ack(self, acked: int, now: int, srtt: Optional[int]) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += self.mss
        else:
            self.cwnd += max(self.mss * self.mss // self.cwnd, 1)
        self.cwnd = min(self.cwnd, self.max_window)

    def on_timeout(self, flight: int, now: int) -> None:
        self.ssthresh = max(flight // 2, self.mss)
        self.cwnd = self.mss


class RenoCC(CongestionControl):
    """RFC 5681 Reno with the RFC 6582 NewReno partial-ACK rule.

    Fast retransmit on the third duplicate ACK halves the window instead
    of collapsing it; fast recovery inflates ``cwnd`` by one MSS per
    further dup-ACK (each one means a segment left the network) and
    deflates on partial ACKs so a burst of losses is repaired at one
    retransmission per RTT without leaving recovery.
    """

    name = "reno"
    supports_fast_retransmit = True

    def on_ack(self, acked: int, now: int, srtt: Optional[int]) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += self.mss
        else:
            self.cwnd += max(self.mss * self.mss // self.cwnd, 1)
        self.cwnd = min(self.cwnd, self.max_window)

    def on_timeout(self, flight: int, now: int) -> None:
        # RFC 5681 equation (4): ssthresh = max(FlightSize / 2, 2*SMSS).
        self.ssthresh = max(flight // 2, 2 * self.mss)
        self.cwnd = self.mss

    def on_enter_recovery(self, flight: int, now: int) -> None:
        self.ssthresh = max(flight // 2, 2 * self.mss)
        # cwnd = ssthresh + 3*SMSS: the three dup-ACKs that triggered
        # entry each signalled a departed segment.
        self.cwnd = self.ssthresh + 3 * self.mss

    def on_dup_ack_in_recovery(self, now: int) -> None:
        self.cwnd += self.mss

    def on_partial_ack(self, acked: int, now: int) -> None:
        # RFC 6582: deflate by the amount acked, re-add one MSS.
        self.cwnd = max(self.cwnd - acked + self.mss, self.mss)

    def on_exit_recovery(self, now: int) -> None:
        self.cwnd = self.ssthresh


class CubicCC(CongestionControl):
    """RFC 8312 CUBIC, in deterministic fixed-point integer arithmetic.

    The window grows along ``W(t) = C*(t - K)^3 + W_max`` measured from
    the last congestion event, which makes growth a function of *time*
    rather than RTT — the property that matters for the long-RTT radio
    link.  Constants are the RFC's (``beta = 0.7``, ``C = 0.4``) encoded
    as integer fractions; ``K`` comes from :func:`icbrt`.  A Reno-slope
    estimate (RFC 8312 section 4.2) provides the TCP-friendly floor in
    the small-window region.  Loss reaction (fast retransmit + recovery)
    reuses Reno's machinery with the 0.7 multiplicative decrease.
    """

    name = "cubic"
    supports_fast_retransmit = True

    def __init__(self, *, mss: int, max_window: int,
                 initial_cwnd: Optional[int] = None,
                 initial_ssthresh: Optional[int] = None) -> None:
        super().__init__(mss=mss, max_window=max_window,
                         initial_cwnd=initial_cwnd,
                         initial_ssthresh=initial_ssthresh)
        self.w_max = self.cwnd          # window at the last congestion event
        self._epoch_start: Optional[int] = None
        self._k_ms = 0                  # K in milliseconds

    # -------------------------------------------------------------- the cubic

    def _begin_epoch(self, now: int) -> None:
        self._epoch_start = now
        if self.cwnd < self.w_max:
            # K = cbrt(W_max * (1 - beta) / C), with windows in segments
            # and K in ms:  K_ms^3 = (W_max/mss) * (307/1024) / 0.4 * 1e9.
            w_max_seg_scaled = self.w_max * (CUBIC_BETA_DEN - CUBIC_BETA_NUM)
            self._k_ms = icbrt(w_max_seg_scaled * 10 * 10**9
                               // (self.mss * CUBIC_BETA_DEN * 4))
        else:
            # Already past W_max: start on the convex side immediately.
            self.w_max = self.cwnd
            self._k_ms = 0

    def _target(self, now: int) -> int:
        """W_cubic(t + RTT) in bytes, floor-divided fixed point."""
        assert self._epoch_start is not None
        t_ms = (now - self._epoch_start) // 1_000_000
        # C * (t - K)^3 in bytes: 0.4 * mss * ((t_ms - K_ms)/1000)^3.
        offset = t_ms - self._k_ms
        return self.w_max + 4 * self.mss * offset ** 3 // (10 * 10**9)

    def _reno_floor(self, now: int, srtt: Optional[int]) -> int:
        """RFC 8312 W_est: the window standard Reno would have by now."""
        if self._epoch_start is None or not srtt:
            return 0
        elapsed = now - self._epoch_start
        # W_est = W_max*beta + 3*(1-beta)/(1+beta) * t/RTT segments:
        # 3*(1024-717)/(1024+717) = 921/1741.
        return (self.w_max * CUBIC_BETA_NUM // CUBIC_BETA_DEN
                + 921 * self.mss * elapsed // (1741 * srtt))

    # ----------------------------------------------------------------- events

    def on_ack(self, acked: int, now: int, srtt: Optional[int]) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + self.mss, self.max_window)
            return
        if self._epoch_start is None:
            self._begin_epoch(now)
        target = self._target(now)
        if target > self.cwnd:
            # Spread (target - cwnd) over one window's worth of ACKs.
            self.cwnd += max((target - self.cwnd) * self.mss // self.cwnd, 1)
        else:
            # Plateau region: creep forward so the probe never stalls.
            self.cwnd += max(self.mss * self.mss // (100 * self.cwnd), 1)
        floor = self._reno_floor(now, srtt)
        if floor > self.cwnd:
            self.cwnd = floor
        self.cwnd = min(self.cwnd, self.max_window)

    def _on_congestion(self) -> None:
        """Shared multiplicative-decrease bookkeeping."""
        if self.cwnd < self.w_max:
            # Fast convergence: release bandwidth faster when the loss
            # happened below the previous plateau.
            self.w_max = (self.cwnd * (CUBIC_BETA_DEN + CUBIC_BETA_NUM)
                          // (2 * CUBIC_BETA_DEN))
        else:
            self.w_max = self.cwnd
        self.ssthresh = max(self.cwnd * CUBIC_BETA_NUM // CUBIC_BETA_DEN,
                            2 * self.mss)
        self._epoch_start = None

    def on_timeout(self, flight: int, now: int) -> None:
        self._on_congestion()
        self.cwnd = self.mss

    def on_enter_recovery(self, flight: int, now: int) -> None:
        self._on_congestion()
        self.cwnd = self.ssthresh + 3 * self.mss

    def on_dup_ack_in_recovery(self, now: int) -> None:
        self.cwnd += self.mss

    def on_partial_ack(self, acked: int, now: int) -> None:
        self.cwnd = max(self.cwnd - acked + self.mss, self.mss)

    def on_exit_recovery(self, now: int) -> None:
        self.cwnd = self.ssthresh


#: Name -> strategy class.  ``Config.tcp_congestion_control`` indexes this.
CONGESTION_CONTROLS: Dict[str, Type[CongestionControl]] = {
    TahoeCC.name: TahoeCC,
    RenoCC.name: RenoCC,
    CubicCC.name: CubicCC,
}


def make_congestion_control(name: str, *, mss: int, max_window: int,
                            initial_cwnd: Optional[int],
                            initial_ssthresh: Optional[int] = None
                            ) -> CongestionControl:
    """Instantiate a registered strategy by name (case-insensitive)."""
    try:
        strategy = CONGESTION_CONTROLS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown congestion control {name!r}; "
            f"known: {', '.join(sorted(CONGESTION_CONTROLS))}") from None
    return strategy(mss=mss, max_window=max_window, initial_cwnd=initial_cwnd,
                    initial_ssthresh=initial_ssthresh)
