"""Tests for the hierarchy tree model."""

import numpy as np
import pytest

from repro import Hierarchy
from repro.errors import InvalidInputError


class TestConstruction:
    def test_basic(self, hier_2x4):
        assert hier_2x4.h == 2
        assert hier_2x4.k == 8
        assert hier_2x4.total_capacity == 8.0

    def test_capacities_are_suffix_products(self, hier_deep):
        assert [hier_deep.capacity(j) for j in range(4)] == [8.0, 4.0, 2.0, 1.0]

    def test_counts(self, hier_2x4):
        assert [hier_2x4.count(j) for j in range(3)] == [1, 2, 8]

    def test_counts_irregular_degrees(self):
        h = Hierarchy([3, 2], [2.0, 1.0, 0.0])
        assert h.k == 6
        assert [h.count(j) for j in range(3)] == [1, 3, 6]

    def test_bad_degrees(self):
        with pytest.raises(InvalidInputError):
            Hierarchy([], [1.0])
        with pytest.raises(InvalidInputError):
            Hierarchy([0], [1.0, 0.0])

    def test_bad_multiplier_count(self):
        with pytest.raises(InvalidInputError):
            Hierarchy([2], [1.0])

    def test_increasing_multipliers_rejected(self):
        with pytest.raises(InvalidInputError):
            Hierarchy([2], [1.0, 2.0])

    def test_negative_multiplier_rejected(self):
        with pytest.raises(InvalidInputError):
            Hierarchy([2], [1.0, -0.5])

    def test_bad_capacity(self):
        with pytest.raises(InvalidInputError):
            Hierarchy([2], [1.0, 0.0], leaf_capacity=0.0)

    @pytest.mark.parametrize(
        "cm",
        [
            [np.inf, np.inf, 0.0],
            [np.inf, 1.0, 0.0],
            [np.nan, 1.0, 0.0],
            [2.0, np.nan, 0.0],
        ],
    )
    def test_non_finite_multiplier_rejected(self, cm):
        with pytest.raises(InvalidInputError, match="finite"):
            Hierarchy([2, 2], cm)

    @pytest.mark.parametrize("capacity", [np.nan, np.inf, -np.inf])
    def test_non_finite_capacity_rejected(self, capacity):
        with pytest.raises(InvalidInputError, match="finite"):
            Hierarchy([2, 2], [2.0, 1.0, 0.0], leaf_capacity=capacity)


class TestStructure:
    def test_children_and_parent_inverse(self, hier_deep):
        for level in range(hier_deep.h):
            for node in range(hier_deep.count(level)):
                for child in hier_deep.children(level, node):
                    assert hier_deep.parent(level + 1, int(child)) == node

    def test_leaves_under(self, hier_2x4):
        assert hier_2x4.leaves_under(1, 0).tolist() == [0, 1, 2, 3]
        assert hier_2x4.leaves_under(1, 1).tolist() == [4, 5, 6, 7]
        assert hier_2x4.leaves_under(0, 0).size == 8

    def test_ancestor_scalar_and_vector(self, hier_2x4):
        assert hier_2x4.ancestor(5, 1) == 1
        assert np.array_equal(
            hier_2x4.ancestor(np.array([0, 3, 4, 7]), 1), [0, 0, 1, 1]
        )

    def test_leaf_has_no_children(self, hier_2x4):
        with pytest.raises(InvalidInputError):
            hier_2x4.children(2, 0)

    def test_root_has_no_parent(self, hier_2x4):
        with pytest.raises(InvalidInputError):
            hier_2x4.parent(0, 0)


class TestLCA:
    def test_same_leaf_is_h(self, hier_2x4):
        assert hier_2x4.lca_level(3, 3) == 2

    def test_siblings(self, hier_2x4):
        assert hier_2x4.lca_level(0, 3) == 1
        assert hier_2x4.lca_level(4, 7) == 1

    def test_cross_root(self, hier_2x4):
        assert hier_2x4.lca_level(0, 4) == 0

    def test_vectorised(self, hier_2x4):
        a = np.array([0, 0, 3])
        b = np.array([0, 4, 2])
        assert np.array_equal(hier_2x4.lca_level(a, b), [2, 0, 1])

    def test_deep_hierarchy(self, hier_deep):
        assert hier_deep.lca_level(0, 1) == 2
        assert hier_deep.lca_level(0, 2) == 1
        assert hier_deep.lca_level(0, 4) == 0

    def test_exhaustive_against_digits(self, hier_deep):
        """Cross-check vectorised LCA against explicit digit decomposition."""
        for a in range(8):
            for b in range(8):
                da = [(a >> 2) & 1, (a >> 1) & 1, a & 1]
                db = [(b >> 2) & 1, (b >> 1) & 1, b & 1]
                prefix = 0
                for x, y in zip(da, db):
                    if x == y:
                        prefix += 1
                    else:
                        break
                assert hier_deep.lca_level(a, b) == prefix

    def test_pair_cost_multiplier(self, hier_2x4):
        assert hier_2x4.pair_cost_multiplier(0, 4) == 10.0
        assert hier_2x4.pair_cost_multiplier(0, 1) == 3.0
        assert hier_2x4.pair_cost_multiplier(1, 1) == 0.0


class TestTransforms:
    def test_normalized_shifts(self):
        h = Hierarchy([2, 2], [5.0, 3.0, 1.0])
        norm, offset = h.normalized()
        assert offset == 1.0
        assert norm.cm == (4.0, 2.0, 0.0)

    def test_normalized_noop(self, hier_2x4):
        norm, offset = hier_2x4.normalized()
        assert norm is hier_2x4
        assert offset == 0.0

    def test_flat(self, hier_2x4):
        flat = hier_2x4.flat()
        assert flat.h == 1
        assert flat.k == 8
        assert flat.cm == (10.0, 0.0)

    def test_equality_and_hash(self):
        a = Hierarchy([2, 4], [10.0, 3.0, 0.0])
        b = Hierarchy([2, 4], [10.0, 3.0, 0.0])
        c = Hierarchy([2, 4], [10.0, 2.0, 0.0])
        assert a == b and hash(a) == hash(b)
        assert a != c
