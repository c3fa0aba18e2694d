"""Time and rate units for the simulator.

All simulated time is an ``int`` count of nanoseconds.  Integer time gives
deterministic event ordering (no float-comparison ties) and is fine-grained
enough to express the paper's smallest reported quantity (tens of
microseconds of standard deviation in Figure 7).

Rates are expressed in bits per second and converted to per-packet
serialization delays by :func:`transmission_delay`.
"""

from __future__ import annotations

NANOSECOND = 1
MICROSECOND = 1_000 * NANOSECOND
MILLISECOND = 1_000 * MICROSECOND
SECOND = 1_000 * MILLISECOND

#: Bits per second for one kilobit per second (decimal, as datasheets use).
KBPS = 1_000
#: Bits per second for one megabit per second.
MBPS = 1_000_000


def us(value: float) -> int:
    """Return *value* microseconds in nanoseconds."""
    return int(round(value * MICROSECOND))


def ms(value: float) -> int:
    """Return *value* milliseconds in nanoseconds."""
    return int(round(value * MILLISECOND))


def s(value: float) -> int:
    """Return *value* seconds in nanoseconds."""
    return int(round(value * SECOND))


def ns_to_ms(value: int) -> float:
    """Convert nanoseconds to (float) milliseconds."""
    return value / MILLISECOND


def ns_to_s(value: int) -> float:
    """Convert nanoseconds to (float) seconds."""
    return value / SECOND


def transmission_delay(size_bytes: int, rate_bps: float) -> int:
    """Serialization delay, in nanoseconds, of *size_bytes* at *rate_bps*.

    A zero or negative rate means an infinitely fast link (zero delay),
    which the loopback interface uses.
    """
    if rate_bps <= 0:
        return 0
    return int(round(size_bytes * 8 * SECOND / rate_bps))
