"""Tests for RNG plumbing and validation helpers."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_all_finite,
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability,
)


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


class TestValidation:
    def test_positive(self):
        assert check_positive("x", 1.5) == 1.5
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_positive("x", bad)

    def test_nonnegative(self):
        assert check_nonnegative("x", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_nonnegative("x", -0.1)

    def test_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_in_range(self):
        assert check_in_range("x", 2.0, 1.0, 3.0) == 2.0
        with pytest.raises(ValueError):
            check_in_range("x", 0.0, 1.0, 3.0)

    def test_all_finite(self):
        check_all_finite("v", [1.0, 2.0])
        with pytest.raises(ValueError):
            check_all_finite("v", [1.0, float("nan")])
