"""Tests for RNG plumbing."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rngs


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_deterministic(self):
        a = ensure_rng(5).integers(0, 1 << 30, size=4)
        b = ensure_rng(5).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g

    def test_spawn_independent_and_deterministic(self):
        kids_a = spawn_rngs(3, 4)
        kids_b = spawn_rngs(3, 4)
        draws_a = [k.integers(0, 1 << 30) for k in kids_a]
        draws_b = [k.integers(0, 1 << 30) for k in kids_b]
        assert draws_a == draws_b
        assert len(set(draws_a)) == 4  # overwhelmingly distinct

    def test_spawn_from_generator(self):
        g = np.random.default_rng(1)
        kids = spawn_rngs(g, 3)
        assert len(kids) == 3

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

