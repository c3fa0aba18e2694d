"""Deterministic seed derivation and shard sizing.

The determinism contract for parallel runs rests on one rule: **a
trial's seed depends only on the experiment's base seed and the trial's
logical position — never on how many workers are running or which worker
picks the trial up.**  These helpers make that rule easy to follow and
hard to break.

:func:`spawn_seed` derives child seeds by hashing an index path
(``spawn_seed(base, fleet_index, shard_index)``), giving well-separated
streams even when base seeds are small consecutive integers.
"""

from __future__ import annotations

from typing import List

_MASK64 = (1 << 64) - 1
#: splitmix64 constants (Steele, Lea & Flood: "Fast Splittable PRNGs").
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(value: int) -> int:
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX2) & _MASK64
    return value ^ (value >> 31)


def spawn_seed(base_seed: int, *path: int) -> int:
    """A child seed for the trial addressed by *path* under *base_seed*.

    Pure and order-sensitive: ``spawn_seed(s, 1, 2)`` differs from
    ``spawn_seed(s, 2, 1)``, and neither depends on worker count or
    execution order.  Output is a 63-bit non-negative integer (every
    ``Simulator(seed=...)`` consumer accepts it).
    """
    value = base_seed & _MASK64
    for index in path:
        value = _splitmix64(value ^ (index & _MASK64))
    return value & (_MASK64 >> 1)


def balanced_shards(total: int, shard_capacity: int) -> List[int]:
    """Split *total* items into near-equal shard sizes of at most
    *shard_capacity* each.

    ``balanced_shards(250, 100) == [84, 83, 83]`` — the shard count is
    the minimum that respects the capacity, and sizes differ by at most
    one so no shard dominates wall-clock.
    """
    if shard_capacity <= 0:
        raise ValueError(f"shard_capacity must be positive, got {shard_capacity}")
    if total <= 0:
        return []
    shards = -(-total // shard_capacity)  # ceil
    base, extra = divmod(total, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]
