"""Tests for the hierarchy-aware FM refiner (multilevel uncoarsening)."""

import numpy as np
import pytest

from repro.baselines.fm import eq1_cost, fm_refine_hierarchy
from repro.graph.generators import grid_2d, random_demands
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.utils.rng import ensure_rng


@pytest.fixture()
def instance():
    g = grid_2d(12, 12, weight_range=(0.5, 2.0), seed=5)
    hier = Hierarchy([2, 4], [10.0, 3.0, 0.0], leaf_capacity=30.0)
    d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.3, seed=6)
    return g, hier, d


def block_labels(g, hier):
    """A reasonable starting labelling: contiguous vertex blocks."""
    return (np.arange(g.n) * hier.k // g.n).astype(np.int64)


class TestEq1Cost:
    def test_matches_placement_cost(self, instance):
        """Both Eq. (1) entry points equal a plain per-edge oracle sum of
        ``cm[lca_level(p(u), p(v))] * w`` on seeded random labellings."""
        from repro.hierarchy.placement import Placement

        g, hier, d = instance
        deep = Hierarchy([2, 2, 2], [7.0, 4.0, 1.5, 0.5], leaf_capacity=30.0)
        rng = ensure_rng(11)
        for h in (hier, deep):
            for _ in range(5):
                leaf = rng.integers(0, h.k, size=g.n)
                oracle = sum(
                    h.cm[h.lca_level(int(leaf[u]), int(leaf[v]))] * float(w)
                    for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w)
                )
                assert eq1_cost(g, h, leaf) == pytest.approx(oracle, rel=1e-12)
                assert Placement(g, h, d, leaf).cost() == pytest.approx(
                    oracle, rel=1e-12
                )

    def test_empty_graph(self):
        hier = Hierarchy([2], [1.0, 0.0])
        assert eq1_cost(Graph(3, []), hier, np.zeros(3, dtype=np.int64)) == 0.0


class TestFmRefineHierarchy:
    def test_never_worsens_cost(self, instance):
        g, hier, d = instance
        rng = ensure_rng(7)
        for trial in range(5):
            leaf = rng.integers(0, hier.k, size=g.n)
            before = eq1_cost(g, hier, leaf)
            out, stats = fm_refine_hierarchy(g, hier, d, leaf, max_passes=3)
            after = eq1_cost(g, hier, out)
            assert after <= before + 1e-9
            assert stats.gain == pytest.approx(before - after, abs=1e-9)

    def test_improves_bad_placement(self, instance):
        g, hier, d = instance
        rng = ensure_rng(8)
        leaf = rng.integers(0, hier.k, size=g.n)
        before = eq1_cost(g, hier, leaf)
        out, stats = fm_refine_hierarchy(g, hier, d, leaf, max_passes=4)
        assert stats.moves > 0
        assert eq1_cost(g, hier, out) < before

    def test_never_worsens_capacity_violation(self, instance):
        g, hier, d = instance
        from repro.hierarchy.placement import Placement

        rng = ensure_rng(9)
        leaf = rng.integers(0, hier.k, size=g.n)
        before = Placement(g, hier, d, leaf, meta={}).max_violation()
        out, _ = fm_refine_hierarchy(g, hier, d, leaf, max_passes=3)
        after = Placement(g, hier, d, out, meta={}).max_violation()
        assert after <= max(1.0, before) + 1e-9

    def test_load_limit_respected(self, instance):
        g, hier, d = instance
        leaf = block_labels(g, hier)
        out, _ = fm_refine_hierarchy(
            g, hier, d, leaf, max_passes=3, load_limit=1.25
        )
        loads = np.bincount(out, weights=d, minlength=hier.k)
        assert loads.max() <= 1.25 * hier.leaf_capacity + 1e-9

    def test_zero_passes_is_identity(self, instance):
        g, hier, d = instance
        leaf = block_labels(g, hier)
        out, stats = fm_refine_hierarchy(g, hier, d, leaf, max_passes=0)
        assert np.array_equal(out, leaf)
        assert stats.passes == 0 and stats.moves == 0

    def test_constant_cm_no_moves(self, instance):
        g, _, d = instance
        hier = Hierarchy([2, 4], [5.0, 5.0, 5.0], leaf_capacity=30.0)
        leaf = block_labels(g, hier)
        out, stats = fm_refine_hierarchy(g, hier, d, leaf, max_passes=2)
        assert np.array_equal(out, leaf)
        assert stats.moves == 0

    def test_input_not_mutated(self, instance):
        g, hier, d = instance
        rng = ensure_rng(10)
        leaf = rng.integers(0, hier.k, size=g.n)
        copy = leaf.copy()
        fm_refine_hierarchy(g, hier, d, leaf, max_passes=2)
        assert np.array_equal(leaf, copy)
