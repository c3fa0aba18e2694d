"""Helpers for drawing deterministic jitter from simulator RNG streams."""

from __future__ import annotations

import random


def jittered(rng: random.Random, base: int, fraction: float) -> int:
    """Return *base* nanoseconds perturbed by a uniform +/- *fraction*.

    A zero fraction (or zero base) returns *base* untouched without
    consuming randomness, so disabling jitter does not shift RNG streams.
    The factor is ``random.uniform(low, high)`` written out, so the draw
    and its value are the same; a *fraction* of at most 1 keeps the
    result non-negative.
    """
    if fraction <= 0.0 or base == 0:
        return base
    low = 1.0 - fraction
    high = 1.0 + fraction
    return round(base * (low + (high - low) * rng.random()))


def bernoulli(rng: random.Random, probability: float) -> bool:
    """Return True with the given probability (0 never consumes RNG)."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return rng.random() < probability
