"""Tests for flat placement and dual-recursive-bipartition mapping."""

import numpy as np
import pytest

from repro.baselines.flat import flat_placement, map_parts_to_leaves
from repro.baselines.multilevel import partition_kway
from repro.baselines.recursive_bisection import recursive_bisection_placement
from repro.errors import InvalidInputError
from repro.graph.generators import planted_partition, random_demands


class TestFlatPlacement:
    def test_identity_uses_partition_labels(self, clustered_instance):
        g, hier, d = clustered_instance
        p = flat_placement(g, hier, d, mapping="identity", seed=0)
        # Identity mapping: leaves == part labels directly.
        assert np.unique(p.leaf_of).size == hier.k

    def test_quotient_is_permutation_of_identity_parts(self, clustered_instance):
        g, hier, d = clustered_instance
        ident = flat_placement(g, hier, d, mapping="identity", seed=0)
        quot = flat_placement(g, hier, d, mapping="quotient", seed=0)
        # Same partition, different leaf naming: the partition cut weight
        # must be identical.
        assert g.partition_cut_weight(ident.leaf_of) == pytest.approx(
            g.partition_cut_weight(quot.leaf_of)
        )

    def test_quotient_cost_no_worse_here(self, hier_2x4):
        g = planted_partition(8, 4, 0.9, 0.05, seed=7)
        d = random_demands(g.n, hier_2x4.total_capacity, fill=0.6, seed=8)
        ident = flat_placement(g, hier_2x4, d, mapping="identity", seed=0)
        quot = flat_placement(g, hier_2x4, d, mapping="quotient", seed=0)
        assert quot.cost() <= ident.cost() + 1e-9

    def test_unknown_mapping(self, clustered_instance):
        g, hier, d = clustered_instance
        with pytest.raises(InvalidInputError):
            flat_placement(g, hier, d, mapping="magic")


class TestMapPartsToLeaves:
    def test_bijective_when_k_parts(self, clustered_instance):
        g, hier, d = clustered_instance
        labels = partition_kway(g, hier.k, vertex_weights=d, seed=0)
        part_to_leaf = map_parts_to_leaves(g, hier, labels, seed=0)
        assert sorted(part_to_leaf.tolist()) == list(range(hier.k))

    def test_fewer_parts_than_leaves(self, hier_2x4):
        g = planted_partition(2, 6, 0.9, 0.1, seed=1)
        labels = np.arange(12) // 6  # 2 parts on 8 leaves
        part_to_leaf = map_parts_to_leaves(g, hier_2x4, labels, seed=0)
        assert part_to_leaf.size == 2
        assert np.unique(part_to_leaf).size == 2

    def test_too_many_parts_rejected(self, hier_2x4):
        g = planted_partition(2, 6, 0.9, 0.1, seed=1)
        labels = np.arange(12)  # 12 parts on 8 leaves
        with pytest.raises(InvalidInputError):
            map_parts_to_leaves(g, hier_2x4, labels)

    def test_groups_communicating_parts(self, hier_2x4):
        """Parts that talk a lot should land under the same socket."""
        # 8 parts in 4 chatty pairs: (0,1), (2,3), (4,5), (6,7).
        edges = []
        for pair in range(4):
            a, b = 2 * pair, 2 * pair + 1
            edges.append((a, b, 50.0))
        for i in range(8):
            edges.append((i, (i + 2) % 8, 0.1))
        from repro import Graph

        g = Graph(8, edges)
        labels = np.arange(8)
        part_to_leaf = map_parts_to_leaves(g, hier_2x4, labels, seed=0)
        for pair in range(4):
            a, b = 2 * pair, 2 * pair + 1
            # Chatty pairs share a socket (LCA level >= 1).
            assert hier_2x4.lca_level(
                int(part_to_leaf[a]), int(part_to_leaf[b])
            ) >= 1


class TestRecursiveBisection:
    def test_balanced_by_demand(self, clustered_instance):
        g, hier, d = clustered_instance
        p = recursive_bisection_placement(g, hier, d, seed=0)
        assert p.max_violation() <= 1.3

    def test_socket_split_minimises_heavy_cut(self, hier_2x4):
        g = planted_partition(2, 12, 0.9, 0.02, seed=3)
        d = random_demands(g.n, hier_2x4.total_capacity, fill=0.6, seed=4)
        p = recursive_bisection_placement(g, hier_2x4, d, seed=0)
        # The cross-socket traffic should be close to the planted cut.
        sockets = np.asarray(hier_2x4.ancestor(p.leaf_of, 1))
        cross = g.partition_cut_weight(sockets)
        planted = g.cut_weight(np.arange(24) < 12)
        assert cross <= 2.0 * planted + 1e-9
