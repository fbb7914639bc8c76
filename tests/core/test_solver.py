"""Tests for the end-to-end Theorem-1 pipeline."""

import numpy as np
import pytest

from repro import Graph, SolverConfig, solve_hgp, solve_hgpt
from repro.errors import InfeasibleError, InvalidInputError
from repro.graph.generators import grid_2d, planted_partition
from repro.decomposition.spectral_tree import spectral_decomposition_tree


CFG = SolverConfig(seed=0, n_trees=4, refine=False)


class TestSolveHGP:
    def test_returns_valid_placement(self, clustered_instance):
        g, hier, d = clustered_instance
        res = solve_hgp(g, hier, d, CFG)
        p = res.placement
        assert p.leaf_of.shape == (g.n,)
        assert (p.leaf_of >= 0).all() and (p.leaf_of < hier.k).all()

    def test_violation_within_theorem1(self, clustered_instance):
        g, hier, d = clustered_instance
        res = solve_hgp(g, hier, d, CFG)
        bound = (1 + res.grid.epsilon) * (1 + hier.h)
        assert res.placement.max_violation() <= bound + 1e-9

    def test_mapped_cost_bounded_by_dp_cost(self, clustered_instance):
        """Proposition 1 along the whole pipeline (refine off)."""
        g, hier, d = clustered_instance
        res = solve_hgp(g, hier, d, CFG)
        for mapped, dp in zip(res.tree_costs, res.dp_costs):
            assert mapped <= dp + 1e-6

    def test_best_of_ensemble_selected(self, clustered_instance):
        g, hier, d = clustered_instance
        res = solve_hgp(g, hier, d, CFG)
        assert res.cost == pytest.approx(min(res.tree_costs))

    def test_refine_never_hurts(self, clustered_instance):
        g, hier, d = clustered_instance
        base = solve_hgp(g, hier, d, CFG)
        refined = solve_hgp(
            g, hier, d, SolverConfig(seed=0, n_trees=4, refine=True)
        )
        assert refined.cost <= base.cost + 1e-9

    def test_beats_random_placement(self, clustered_instance):
        from repro.baselines import random_placement

        g, hier, d = clustered_instance
        res = solve_hgp(g, hier, d, CFG)
        rnd = random_placement(g, hier, d, seed=1)
        assert res.cost < rnd.cost()

    def test_colocatable_instance_costs_zero(self, hier_2x4):
        """Everything fits on one leaf => optimal cost 0."""
        g = grid_2d(2, 3, weight_range=(1.0, 2.0), seed=0)
        d = np.full(6, 0.05)
        res = solve_hgp(g, hier_2x4, d, CFG)
        assert res.cost == 0.0

    def test_deterministic(self, clustered_instance):
        g, hier, d = clustered_instance
        a = solve_hgp(g, hier, d, CFG)
        b = solve_hgp(g, hier, d, CFG)
        assert a.cost == b.cost
        assert np.array_equal(a.placement.leaf_of, b.placement.leaf_of)

    def test_stopwatch_records_phases(self, clustered_instance):
        """Phase timings live in the span tree and the member records."""
        g, hier, d = clustered_instance
        res = solve_hgp(g, hier, d, CFG)
        root = res.telemetry.root
        assert root.lookup("trees").seconds > 0
        assert root.lookup("dp").seconds > 0
        assert all(m.dp_seconds > 0 for m in res.telemetry.members)

    def test_meta_records_config(self, clustered_instance):
        g, hier, d = clustered_instance
        res = solve_hgp(g, hier, d, CFG)
        assert res.placement.meta["solver"] == "hgp"
        assert res.placement.meta["config"]["n_trees"] == 4


class TestGridModes:
    def test_epsilon_mode(self, hier_2x4):
        g = grid_2d(2, 4, seed=0)
        d = np.full(8, 0.4)
        cfg = SolverConfig(seed=0, n_trees=2, grid_mode="epsilon", epsilon=0.5,
                           refine=False)
        res = solve_hgp(g, hier_2x4, d, cfg)
        assert res.grid.epsilon == 0.5

    def test_budget_mode(self, hier_2x4):
        g = grid_2d(2, 4, seed=0)
        d = np.full(8, 0.4)
        cfg = SolverConfig(
            seed=0, n_trees=2, grid_mode="budget", grid_budget=32, slack=0.3,
            refine=False,
        )
        res = solve_hgp(g, hier_2x4, d, cfg)
        assert res.grid.epsilon == 0.3

    def test_auto_mode_budget_floor(self, hier_2x4):
        g = grid_2d(2, 4, seed=0)
        d = np.full(8, 0.4)
        res = solve_hgp(g, hier_2x4, d, SolverConfig(seed=0, n_trees=2, refine=False))
        q = res.grid.quantize(d)
        assert q.sum() >= 64  # auto floor


class TestInfeasibility:
    def test_oversized_vertex(self, hier_2x4):
        g = grid_2d(2, 2, seed=0)
        d = np.array([0.5, 0.5, 0.5, 1.5])
        with pytest.raises(InfeasibleError):
            solve_hgp(g, hier_2x4, d, CFG)

    def test_total_overflow(self, hier_2x4):
        g = grid_2d(3, 3, seed=0)
        d = np.full(9, 1.0)  # total 9 > 8
        with pytest.raises(InfeasibleError):
            solve_hgp(g, hier_2x4, d, CFG)

    def test_bad_shapes(self, hier_2x4):
        g = grid_2d(2, 2, seed=0)
        with pytest.raises(InvalidInputError):
            solve_hgp(g, hier_2x4, np.full(3, 0.1), CFG)

    def test_empty_graph(self, hier_2x4):
        with pytest.raises(InvalidInputError):
            solve_hgp(Graph(0, []), hier_2x4, np.array([]), CFG)


class TestSolveHGPT:
    def test_single_tree_interface(self, clustered_instance):
        g, hier, d = clustered_instance
        tree = spectral_decomposition_tree(g, seed=0)
        placement, dp_cost = solve_hgpt(tree, hier, d, CFG)
        assert placement.cost() <= dp_cost + 1e-6
        assert placement.max_violation() <= (
            (1 + hier.h) * (1 + 0.25) + 1e-9  # default slack
        )

    def test_height_one_reduces_to_partitioning(self, hier_flat8):
        g = planted_partition(8, 3, 1.0, 0.02, seed=4)
        d = np.full(24, 0.3)
        tree = spectral_decomposition_tree(g, seed=0)
        placement, _ = solve_hgpt(tree, hier_flat8, d, CFG)
        # Cost should be the cut weight of the induced partition.
        assert placement.cost() == pytest.approx(
            g.partition_cut_weight(placement.leaf_of)
        )


class TestParallelEnsemble:
    def test_n_jobs_identical_results(self, clustered_instance):
        g, hier, d = clustered_instance
        serial = solve_hgp(g, hier, d, SolverConfig(seed=0, n_trees=4, n_jobs=1))
        parallel = solve_hgp(g, hier, d, SolverConfig(seed=0, n_trees=4, n_jobs=2))
        assert serial.cost == parallel.cost
        assert np.array_equal(serial.placement.leaf_of, parallel.placement.leaf_of)
        assert serial.tree_costs == parallel.tree_costs

    def test_n_jobs_validation(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(n_jobs=0)
