"""The pure-Python replay of numpy's PCG64 stream and float64 sum, checked
against numpy itself."""

from __future__ import annotations

import random

import numpy as np
import pytest

from speechaug._pcg64 import PCG64
from speechaug.manifest import _float64_sum
from speechaug.textpipe import reservoir_take

SEEDS = [0, 1, 2**32, 2**64 + 7, 10**25]
BOUNDS = [1, 2, 3, 200, 30000, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**63]


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_words_match_numpy(seed):
    replica = PCG64(seed)
    assert [replica.next64() for _ in range(50)] == np.random.PCG64(seed).random_raw(50).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_numpy(seed):
    # each bound comes after odd and even numbers of 32-bit draws, so both
    # halves of a split word are used, and random() comes between them
    order = random.Random(seed)
    replica, numpy_rng = PCG64(seed), np.random.Generator(np.random.PCG64(seed))
    for _ in range(3000):
        if order.random() < 0.3:
            assert replica.random() == numpy_rng.random()
        else:
            n = order.choice(BOUNDS) if order.random() < 0.8 else order.randint(1, 2**63)
            assert replica.integers(0, n) == int(numpy_rng.integers(0, n))


@pytest.mark.parametrize("low,high", [(-5, 7), (10, 11), (-2**63, 0), (-2**63, 2**63 - 1)])
def test_shifted_ranges_match_numpy(low, high):
    replica, numpy_rng = PCG64(11), np.random.Generator(np.random.PCG64(11))
    for _ in range(200):
        assert replica.integers(low, high) == int(numpy_rng.integers(low, high))


@pytest.mark.parametrize("bits", [129, 159, 201, 256])
def test_seeds_of_five_to_eight_words_match_numpy(bits):
    # a seed of more than four 32-bit words mixes its extra words into the pool
    seed = random.Random(bits).getrandbits(bits) | 1 << (bits - 1)
    replica, numpy_rng = PCG64(seed), np.random.Generator(np.random.PCG64(seed))
    for n in BOUNDS:
        assert replica.integers(0, n) == int(numpy_rng.integers(0, n))
        assert replica.random() == numpy_rng.random()


def test_reservoir_take_draws_what_a_numpy_generator_draws():
    lines = [f"l{i}" for i in range(500)]
    for seed in range(20):
        assert reservoir_take(lines, 17, PCG64(seed)) == reservoir_take(
            lines, 17, np.random.default_rng(seed)
        )


def test_refuses_the_seeds_numpy_refuses():
    with pytest.raises(ValueError, match="non-negative"):
        PCG64(-1)
    for seed in (1.5, "3", None):
        with pytest.raises(TypeError):
            PCG64(seed)


@pytest.mark.parametrize("low,high", [(0, 0), (3, 2), (0, 2**64 + 1)])
def test_refuses_an_empty_or_too_wide_range(low, high):
    with pytest.raises(ValueError):
        PCG64(0).integers(low, high)


def test_float64_sum_matches_np_sum():
    gen = random.Random(3)
    for n in range(1, 301):
        for scale in (1.0, 1e-9, 1e12):
            values = [gen.random() * scale * 10 ** gen.randint(-3, 3) for _ in range(n)]
            assert _float64_sum(values) == float(np.sum(np.array(values))), (n, scale)
