"""The named random streams draw exactly what ``random.Random`` draws.

:class:`~repro.sim.randomness.RandomStream` decodes a chunk of the
generator's words itself and rebuilds the generator only when a stream
outgrows the chunk, so every method the simulator calls is compared with
``random.Random`` under the same seed, with the calls interleaved, across
the chunk boundary and on past the rebuild.
"""

import random

import pytest

from repro.sim.randomness import CHUNK_WORDS, RandomStream

SEEDS = [(seed, name) for seed in (0, 7, 71)
         for name in ("udp:mh7", "link:net-36.8", "x8:storm-jitter")]


def _draws(rng, script):
    """Run *script* (method, args) pairs on *rng*; return the results."""
    return [getattr(rng, method)(*args) for method, args in script]


def _script(picker: random.Random, length: int):
    ops = []
    for _ in range(length):
        kind = picker.randrange(5)
        if kind == 0:
            ops.append(("random", ()))
        elif kind == 1:
            ops.append(("getrandbits", (picker.randint(1, 100),)))
        elif kind == 2:
            ops.append(("uniform", (-3.5, picker.random() * 10.0)))
        elif kind == 3:
            ops.append(("randrange", (picker.randint(1, 2**40),)))
        else:
            ops.append(("expovariate", (picker.random() * 5.0 + 0.1,)))
    return ops


@pytest.mark.parametrize("seed,name", SEEDS,
                         ids=[f"{seed}/{name}" for seed, name in SEEDS])
def test_interleaved_draws_match_random_random(seed, name):
    reference_seed = f"{seed}/{name}"
    script = _script(random.Random(reference_seed), 400)
    assert (_draws(RandomStream(seed, name), script)
            == _draws(random.Random(reference_seed), script))


def test_getrandbits_matches_for_every_width():
    # Each width alternates with random() until well past the chunk, so
    # every k (32, 63 and 64 among them) is drawn from the chunk, across
    # its end and from the rebuilt generator.
    for k in range(0, 101):
        stream, reference = RandomStream(3, "bits"), random.Random("3/bits")
        for _ in range(CHUNK_WORDS // 2):
            assert stream.getrandbits(k) == reference.getrandbits(k), k
            assert stream.random() == reference.random(), k


@pytest.mark.parametrize("offset", range(0, 4))
def test_each_method_crossing_the_chunk_end(offset):
    """Every method's draw straddles the last chunk word at some offset."""
    for method, args in (("random", ()), ("getrandbits", (64,)),
                         ("getrandbits", (63,)), ("getrandbits", (32,)),
                         ("uniform", (0.0, 1.0)), ("randrange", (10**12,)),
                         ("expovariate", (1.5,))):
        stream, reference = RandomStream(1, "edge"), random.Random("1/edge")
        lead = CHUNK_WORDS - 2 + offset
        assert stream.getrandbits(32 * lead) == reference.getrandbits(32 * lead)
        for _ in range(5):
            assert (getattr(stream, method)(*args)
                    == getattr(reference, method)(*args)), (method, offset)


def test_stream_rebuilds_its_generator_once_past_the_chunk():
    stream = RandomStream(5, "grow")
    for _ in range(CHUNK_WORDS // 2):
        stream.random()
    assert stream._generator is None
    stream.random()
    generator = stream._generator
    assert generator is not None
    for _ in range(1000):
        stream.random()
    assert stream._generator is generator

