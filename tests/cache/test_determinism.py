"""Determinism under caching: warm results must be bit-for-bit cold results.

The cache is allowed to change *when* work happens, never *what* is
produced — these tests pin that contract at every integration point:
engine runs, the cached builders, and streaming re-optimisation.
"""

import numpy as np
import pytest

from repro import SolverConfig, run_pipeline
from repro.cache import CacheConfig, configure_cache, get_cache
from repro.decomposition.racke import racke_ensemble
from repro.flow.gomory_hu import gomory_hu_tree
from repro.graph.generators import planted_partition, random_demands
from repro.hierarchy.hierarchy import Hierarchy
from repro.streaming.online import OnlinePlacer


@pytest.fixture
def instance():
    hier = Hierarchy([2, 4], [10.0, 3.0, 0.0])
    g = planted_partition(4, 6, 0.9, 0.05, seed=11)
    d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.3, seed=12)
    return g, hier, d


class TestEngineColdVsWarm:
    def test_warm_run_identical_and_skips_tree_build(self, instance):
        g, hier, d = instance
        cfg = SolverConfig(seed=0, n_trees=4, refine=False)
        cold = run_pipeline(g, hier, d, cfg)
        warm = run_pipeline(g, hier, d, cfg)

        assert warm.cost == cold.cost
        assert np.array_equal(warm.placement.leaf_of, cold.placement.leaf_of)
        assert warm.tree_costs == cold.tree_costs
        assert warm.dp_costs == cold.dp_costs

        cold_span = cold.telemetry.root.lookup("trees")
        warm_span = warm.telemetry.root.lookup("trees")
        assert cold_span.counters.get("cache_misses") == 1.0
        assert "cache_hits" not in cold_span.counters
        assert warm_span.counters.get("cache_hits") == 1.0
        assert "cache_misses" not in warm_span.counters
        # The warm embed stage did no tree construction at all.
        assert get_cache().stats.by_kind["trees"]["hits"] == 1

    def test_content_addressing_hits_for_equal_graph_objects(self, instance):
        g, hier, d = instance
        cfg = SolverConfig(seed=0, n_trees=4, refine=False)
        run_pipeline(g, hier, d, cfg)
        # A structurally identical but distinct Graph object still hits.
        g2 = planted_partition(4, 6, 0.9, 0.05, seed=11)
        assert g2 is not g and g2.digest() == g.digest()
        warm = run_pipeline(g2, hier, d, cfg)
        assert warm.telemetry.root.lookup("trees").counters.get("cache_hits") == 1.0

    def test_no_cache_config_matches_cached_result(self, instance):
        g, hier, d = instance
        cached = run_pipeline(g, hier, d, SolverConfig(seed=0, n_trees=4, refine=False))
        off = run_pipeline(
            g,
            hier,
            d,
            SolverConfig(
                seed=0, n_trees=4, refine=False, cache=CacheConfig(enabled=False)
            ),
        )
        assert off.cost == cached.cost
        assert np.array_equal(off.placement.leaf_of, cached.placement.leaf_of)
        span = off.telemetry.root.lookup("trees")
        assert "cache_hits" not in span.counters
        assert "cache_misses" not in span.counters

    def test_different_seeds_and_params_do_not_collide(self, instance):
        g, hier, d = instance
        run_pipeline(g, hier, d, SolverConfig(seed=0, n_trees=4, refine=False))
        for cfg in (
            SolverConfig(seed=1, n_trees=4, refine=False),
            SolverConfig(seed=0, n_trees=3, refine=False),
            SolverConfig(
                seed=0, n_trees=4, refine=False, tree_methods=("spectral", "mincut")
            ),
        ):
            result = run_pipeline(g, hier, d, cfg)
            span = result.telemetry.root.lookup("trees")
            assert span.counters.get("cache_misses") == 1.0

    def test_eviction_under_tiny_budget_stays_correct(self, instance):
        g, hier, d = instance
        configure_cache(max_bytes=64)  # nothing fits: every store evicts/skips
        cfg = SolverConfig(seed=0, n_trees=4, refine=False)
        first = run_pipeline(g, hier, d, cfg)
        second = run_pipeline(g, hier, d, cfg)
        assert second.cost == first.cost
        assert np.array_equal(second.placement.leaf_of, first.placement.leaf_of)
        # Nothing resident -> the second run was a miss, not a hit.
        assert second.telemetry.root.lookup("trees").counters.get("cache_misses") == 1.0
        assert len(get_cache()) == 0


class TestBuilderCaching:
    def test_racke_ensemble_warm_equals_cold(self, instance):
        g, _, _ = instance
        cold = racke_ensemble(g, n_trees=4, seed=5)
        warm = racke_ensemble(g, n_trees=4, seed=5)
        assert get_cache().stats.by_kind["trees"]["hits"] == 1
        assert len(warm) == len(cold)
        for a, b in zip(cold, warm):
            assert a.method == b.method
            assert np.array_equal(a.graph.edges_w, b.graph.edges_w)

    def test_racke_ensemble_seed_none_bypasses_cache(self, instance):
        g, _, _ = instance
        racke_ensemble(g, n_trees=2, seed=None)
        racke_ensemble(g, n_trees=2, seed=None)
        assert "trees" not in get_cache().stats.by_kind

    def test_gomory_hu_warm_copy_is_safe(self, instance):
        g, _, _ = instance
        p1, f1 = gomory_hu_tree(g)
        p2, f2 = gomory_hu_tree(g)
        assert np.array_equal(p1, p2) and np.array_equal(f1, f2)
        assert get_cache().stats.by_kind["gomory_hu"]["hits"] == 1
        p2[0] = 99  # mutating a hit must not poison the cache
        p3, _ = gomory_hu_tree(g)
        assert p3[0] == p1[0]


class TestStreamingColdVsWarm:
    def _run_sequence(self, cache_enabled: bool):
        hier = Hierarchy([2, 4], [10.0, 3.0, 0.0], leaf_capacity=4.0)
        cfg = SolverConfig(
            seed=0, n_trees=3, refine=False, cache=CacheConfig(enabled=cache_enabled)
        )
        placer = OnlinePlacer(hier, cfg)
        rng = np.random.default_rng(2)
        for task in range(12):
            edges = tuple(
                (other, 1.0) for other in range(task) if rng.random() < 0.4
            )
            placer.arrive(task, 0.5, edges)
        costs, migrations = [], []
        for _ in range(4):
            moved = placer.reoptimize()
            migrations.append(moved)
            costs.append(placer.cost())
        return placer, costs, migrations

    def test_reoptimize_sequence_identical_and_hits(self):
        placer_on, costs_on, migrations_on = self._run_sequence(True)
        configure_cache()  # drop entries so the "off" pass is independent
        placer_off, costs_off, migrations_off = self._run_sequence(False)

        assert costs_on == costs_off
        assert migrations_on == migrations_off
        assert placer_on.counters.migrations == placer_off.counters.migrations
        assert np.array_equal(
            placer_on.live_graph()[2], placer_off.live_graph()[2]
        )
        # Unchanged live graph between calls 2..4 -> all ensemble hits.
        assert placer_on.counters.tree_cache_misses == 1
        assert placer_on.counters.tree_cache_hits == 3
        assert placer_off.counters.tree_cache_hits == 0
        assert placer_off.counters.tree_cache_misses == 0
