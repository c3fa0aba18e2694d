"""Named random streams, and helpers for drawing deterministic jitter.

:class:`RandomStream` is what :meth:`Simulator.rng
<repro.sim.engine.Simulator.rng>` hands out.  It draws exactly what a
``random.Random`` seeded with ``f"{seed}/{name}"`` would draw, but it
keeps only the words it may hand out instead of the generator's 2.5 KB
of Mersenne Twister state, and the master seed and its name (the key the
simulator already holds) instead of that seed string.  Most streams are
per-host jitter streams that draw a few dozen 32-bit words in a whole
run: on one x8 shard 3,751 of 3,762 streams draw at most 48 (median 32),
on the x4 sweep the median is 6.  So a stream takes the generator's
first :data:`CHUNK_WORDS` outputs as one int when it is created and
drops the generator.  A stream that needs more rebuilds its generator
once, skips the words it already handed out, and draws from the
generator from then on.
"""

from __future__ import annotations

from random import Random

#: Words a stream takes from its generator up front.  64 covers every
#: stream but 11 of 3,762 on one x8 shard and most of an x4 fleet's; the
#: TCP runs' streams outgrow it and promote (see docs/PERFORMANCE.md).
CHUNK_WORDS = 64

#: ``_index`` of a stream that has rebuilt its generator: larger than any
#: chunk position, so every draw takes the generator branch.
_PROMOTED = CHUNK_WORDS + 1

_RANDOM_SCALE = 1.0 / 9007199254740992.0  # 2**-53, as CPython's random()


class RandomStream:
    """A named stream drawing what ``random.Random(f"{seed}/{name}")``
    would draw.

    ``random()`` and ``getrandbits(k)`` decode the held words as CPython's
    C generator does (word *i* is the generator's *i*-th 32-bit output);
    ``uniform``, ``randrange`` and ``expovariate`` are ``random.Random``'s
    own functions, so they follow whichever CPython runs.
    """

    __slots__ = ("_words", "_index", "_seed", "_name", "_generator")

    def __init__(self, seed: int, name: str) -> None:
        #: The unread chunk words, the next one in the low 32 bits.
        self._words = Random(f"{seed}/{name}").getrandbits(32 * CHUNK_WORDS)
        #: Chunk words handed out so far (``_PROMOTED`` once rebuilt).
        self._index = 0
        self._seed = seed
        self._name = name
        self._generator = None

    def random(self) -> float:
        """Return the next float in [0.0, 1.0), from two words."""
        index = self._index
        if index > CHUNK_WORDS - 2:
            return (self._generator or self._promote()).random()
        self._index = index + 2
        words = self._words
        self._words = words >> 64
        pair = words & 0xFFFFFFFFFFFFFFFF
        return ((pair >> 5 & 0x7FFFFFF) * 67108864.0 + (pair >> 38)) * _RANDOM_SCALE

    def getrandbits(self, k: int) -> int:
        """Return an int of *k* random bits, from ``ceil(k / 32)`` words."""
        need = (k + 31) >> 5
        index = self._index
        if index + need > CHUNK_WORDS:
            return (self._generator or self._promote()).getrandbits(k)
        self._index = index + need
        width = need << 5
        words = self._words
        self._words = words >> width
        bits = words & ((1 << width) - 1)
        spare = width - k
        if spare:
            # The last word keeps only its high bits, as in CPython.
            top = width - 32
            bits = bits & ((1 << top) - 1) | bits >> (top + spare) << top
        return bits

    _randbelow = Random._randbelow_with_getrandbits
    uniform = Random.uniform
    randrange = Random.randrange
    expovariate = Random.expovariate

    def _promote(self) -> Random:
        """Rebuild the generator where the chunk ends, and keep it."""
        generator = Random(f"{self._seed}/{self._name}")
        generator.getrandbits(32 * self._index)
        self._generator = generator
        self._index = _PROMOTED
        self._words = 0
        return generator


class lazy_stream:
    """Decorates a method that builds a component's random stream: the
    method runs on the first read, and its result becomes a plain
    attribute of the same name that later reads find directly.

    Unlike ``functools.cached_property`` it stores with ``setattr``, not
    through ``instance.__dict__``: CPython 3.11 keeps an instance's
    attributes in a values array keyed by its class until something
    reads ``__dict__``, and that read builds a dict object for the
    instance.  A class should add at most one attribute after
    ``__init__`` this way: a second one can outgrow the values array and
    give the instance a dict of its own, so a component with two
    streams declares both in ``__init__`` (see ``RegistrationClient``).
    """

    __slots__ = ("_build", "_name")

    def __init__(self, build) -> None:
        self._build = build
        self._name = build.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        stream = self._build(instance)
        setattr(instance, self._name, stream)
        return stream


def jittered(rng: RandomStream, base: int, fraction: float) -> int:
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


def bernoulli(rng: RandomStream, probability: float) -> bool:
    """Return True with the given probability (0 never consumes RNG)."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return rng.random() < probability
