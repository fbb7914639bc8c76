"""Tests for Laplacians, Fiedler vectors and sweep cuts."""

import numpy as np
import pytest

from repro import Graph
from repro.errors import InvalidInputError
from repro.graph.generators import planted_partition
from repro.graph.spectral import (
    fiedler_vector,
    laplacian,
    normalized_laplacian,
    spectral_bisection,
    sweep_cut,
)


class TestLaplacian:
    def test_row_sums_zero(self, grid44):
        lap = laplacian(grid44)
        assert np.allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0)

    def test_quadratic_form_is_cut_for_indicators(self, grid44):
        lap = laplacian(grid44)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = (rng.random(16) < 0.5).astype(float)
            # x^T L x = sum over edges w (x_u - x_v)^2 = cut weight.
            q = float(x @ (lap @ x))
            assert q == pytest.approx(grid44.cut_weight(x.astype(bool)))

    def test_normalized_psd_and_bounded(self, grid44):
        lap = normalized_laplacian(grid44).toarray()
        vals = np.linalg.eigvalsh(lap)
        assert vals.min() >= -1e-9
        assert vals.max() <= 2.0 + 1e-9

    def test_normalized_isolated_vertex(self):
        g = Graph(3, [(0, 1, 1.0)])
        lap = normalized_laplacian(g).toarray()
        assert lap[2, 2] == 0.0


class TestFiedler:
    def test_orthogonal_to_kernel(self, grid44):
        fv = fiedler_vector(grid44, seed=0)
        deg = grid44.weighted_degrees
        kernel = np.sqrt(deg)
        assert abs(kernel @ fv) < 1e-5 * np.linalg.norm(kernel)

    def test_matches_scipy_eigenvalue(self, grid44):
        from scipy.sparse.linalg import eigsh

        fv = fiedler_vector(grid44, seed=1)
        lap = normalized_laplacian(grid44)
        rayleigh = float(fv @ (lap @ fv)) / float(fv @ fv)
        vals = eigsh(lap, k=2, sigma=-1e-3, which="LM", return_eigenvectors=False)
        assert rayleigh == pytest.approx(float(max(vals)), abs=1e-4)

    def test_separates_planted_blocks(self):
        g = planted_partition(2, 12, 0.9, 0.02, seed=5)
        fv = fiedler_vector(g, seed=0)
        side = fv > np.median(fv)
        block = np.arange(24) // 12
        # Sign pattern should align with blocks (up to global flip).
        agree = (side == (block == 0)).mean()
        assert max(agree, 1 - agree) > 0.9

    def test_needs_two_vertices(self):
        with pytest.raises(InvalidInputError):
            fiedler_vector(Graph(1, []))

    def test_generator_advances_by_one_start_vector(self, grid44):
        # Callers sharing a generator (the tree builders) see the stream
        # exactly where one ``standard_normal(n)`` draw leaves it.
        rng = np.random.default_rng(123)
        fiedler_vector(grid44, seed=rng)
        fiedler_vector(grid44, seed=rng)
        ref = np.random.default_rng(123)
        ref.standard_normal(grid44.n)
        ref.standard_normal(grid44.n)
        assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))


class TestSweepCut:
    def test_finds_planted_cut(self):
        g = planted_partition(2, 10, 1.0, 0.0, seed=0)
        # Two disconnected cliques: zero-conductance cut exists.
        fv = fiedler_vector(g, seed=0)
        mask, score = sweep_cut(g, fv)
        assert score == pytest.approx(0.0)
        assert mask.sum() == 10

    def test_cut_values_consistent(self, grid44):
        rng = np.random.default_rng(3)
        emb = rng.random(16)
        mask, score = sweep_cut(grid44, emb)
        cut = grid44.cut_weight(mask)
        vol = min(grid44.volume(mask), grid44.volume(~mask))
        assert score == pytest.approx(cut / vol)

    def test_balance_constraint_respected(self, grid44):
        emb = np.arange(16, dtype=float)
        mask, _ = sweep_cut(grid44, emb, balance_fraction=0.4)
        assert 6 <= mask.sum() <= 10  # 40% of 16 = 6.4

    def test_weights_in_balance(self, grid44):
        w = np.zeros(16)
        w[0] = 100.0  # all mass on one vertex
        # With mass balance at 0.4, no valid prefix exists; the fallback
        # picks the most balanced split without crashing.
        mask, _ = sweep_cut(grid44, np.arange(16.0), balance_fraction=0.4, weights=w)
        assert 0 < mask.sum() < 16

    def test_bad_embedding_shape(self, grid44):
        with pytest.raises(InvalidInputError):
            sweep_cut(grid44, np.ones(5))


class TestSpectralBisection:
    def test_balanced_and_nontrivial(self, grid44):
        mask = spectral_bisection(grid44, seed=0)
        assert 4 <= mask.sum() <= 12

    def test_edgeless_graph(self):
        g = Graph(4, [])
        mask = spectral_bisection(g, seed=0)
        assert mask.sum() == 2

    def test_recovers_two_blocks(self, two_blocks):
        mask = spectral_bisection(two_blocks, seed=0)
        assert two_blocks.cut_weight(mask) == pytest.approx(0.5)
