"""Incremental reoptimization: dirty tracking, snapshot reuse, the gate.

Satellite contracts of the warm path:

* ``update_edge`` on an existing edge is a *pure weight update* — the
  next ``live_graph`` keeps the snapshot's structure arrays (asserted
  by identity, not equality) and only regathers weights.
* churn events feed a dirty set; ``reoptimize`` compares its live
  fraction against ``repro.streaming.online.MAX_DIRTY_FRAC`` to pick
  the warm or the full path, and either way produces identical
  placements.
* the memo runs only when both ``IncrementalConfig.enabled`` and the
  solver cache are on.
"""

import pytest

from repro import SolverConfig
from repro.cache import reset_cache
from repro.core.config import IncrementalConfig
from repro.core.engine import incremental_enabled
from repro.errors import InvalidInputError
from repro.streaming import online
from repro.streaming.online import OnlinePlacer


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    reset_cache()
    yield
    reset_cache()


@pytest.fixture
def placer(hier_2x4):
    return OnlinePlacer(
        hier_2x4, config=SolverConfig(n_trees=2, refine=False, seed=0)
    )


def _populate(placer, n=8):
    for t in range(n):
        edges = tuple((j, 1.0) for j in range(t))
        placer.arrive(t, 0.5, edges)


class TestSnapshotReuse:
    def test_weight_update_shares_structure_arrays(self, placer):
        """S2: a pure weight update must not rebuild the snapshot."""
        _populate(placer)
        g1, _d, _leaf, _tasks = placer.live_graph()
        placer.update_edge(0, 1, 5.0)
        g2, _d, _leaf, _tasks = placer.live_graph()
        assert g2 is not g1
        assert g2.edges_u is g1.edges_u
        assert g2.edges_v is g1.edges_v
        assert g2.indptr is g1.indptr
        assert g2.indices is g1.indices
        assert g2.adj_edge_ids is g1.adj_edge_ids

    def test_weight_update_patches_weights(self, placer):
        _populate(placer)
        placer.update_edge(0, 1, 7.5)
        g, _d, _leaf, tasks = placer.live_graph()
        i, j = tasks.index(0), tasks.index(1)
        mask = ((g.edges_u == i) & (g.edges_v == j)) | (
            (g.edges_u == j) & (g.edges_v == i)
        )
        assert g.edges_w[mask] == pytest.approx([7.5])

    def test_unchanged_placer_returns_same_snapshot_object(self, placer):
        _populate(placer)
        g1 = placer.live_graph()[0]
        g2 = placer.live_graph()[0]
        assert g2 is g1

    def test_new_edge_is_a_topology_change(self, placer):
        placer.arrive(0, 0.5)
        placer.arrive(1, 0.5)
        g1 = placer.live_graph()[0]
        placer.update_edge(0, 1, 2.0)
        g2 = placer.live_graph()[0]
        assert g2.m == g1.m + 1
        assert g2.indptr is not g1.indptr

    def test_arrival_invalidates_snapshot(self, placer):
        _populate(placer, 4)
        g1 = placer.live_graph()[0]
        placer.arrive(99, 0.5, ((0, 1.0),))
        g2 = placer.live_graph()[0]
        assert g2 is not g1 and g2.n == 5


class TestUpdateEdgeValidation:
    def test_rejects_dead_endpoints(self, placer):
        placer.arrive(0, 0.5)
        with pytest.raises(InvalidInputError):
            placer.update_edge(0, 1, 1.0)
        with pytest.raises(InvalidInputError):
            placer.update_edge(1, 0, 1.0)

    def test_rejects_self_loop_and_bad_weight(self, placer):
        placer.arrive(0, 0.5)
        placer.arrive(1, 0.5)
        with pytest.raises(InvalidInputError):
            placer.update_edge(0, 0, 1.0)
        with pytest.raises(InvalidInputError):
            placer.update_edge(0, 1, 0.0)
        with pytest.raises(InvalidInputError):
            placer.update_edge(0, 1, float("nan"))

    def test_counts_edge_updates(self, placer):
        placer.arrive(0, 0.5)
        placer.arrive(1, 0.5)
        placer.update_edge(0, 1, 1.0)
        placer.update_edge(0, 1, 2.0)
        assert placer.counters.edge_updates == 2


class TestDirtyGate:
    def test_first_reopt_is_a_fallback(self, placer):
        """All tasks arrive dirty: the gate must pick the full path."""
        _populate(placer)
        placer.reoptimize()
        assert placer.counters.incremental_fallbacks == 1
        assert placer.counters.incremental_reopts == 0

    def test_small_churn_goes_warm_and_clears_dirty(self, placer):
        _populate(placer)
        placer.reoptimize()
        placer.update_edge(0, 1, 5.0)  # dirty = {0, 1} of 8 -> 0.25
        placer.reoptimize()
        assert placer.counters.incremental_reopts == 1
        assert placer.last_report.meta["dirty_frac"] == pytest.approx(0.25)
        assert placer.last_report.meta["incremental"] is True

    def test_large_churn_falls_back(self, hier_2x4, monkeypatch):
        monkeypatch.setattr(online, "MAX_DIRTY_FRAC", 0.1)
        cfg = SolverConfig(n_trees=2, refine=False, seed=0)
        placer = OnlinePlacer(hier_2x4, config=cfg)
        _populate(placer)
        placer.reoptimize()
        placer.update_edge(0, 1, 5.0)  # 2/8 = 0.25 > 0.1
        placer.reoptimize()
        assert placer.counters.incremental_fallbacks == 2
        assert placer.last_report.meta["incremental"] is False

    def test_warm_and_cold_reopt_place_identically(self, hier_2x4):
        """Bit-identity end to end: same churn, memo on vs. off."""
        reports = {}
        for enabled in (False, True):
            reset_cache()
            cfg = SolverConfig(
                n_trees=2,
                refine=False,
                seed=0,
                incremental=IncrementalConfig(enabled=enabled),
            )
            placer = OnlinePlacer(hier_2x4, config=cfg)
            _populate(placer)
            placer.reoptimize()
            for a, b, w in ((0, 1, 5.0), (2, 3, 0.5), (0, 1, 2.0)):
                placer.update_edge(a, b, w)
                placer.reoptimize()
            reports[enabled] = (
                placer.cost(),
                {t: placer.leaf_of(t) for t in range(8)},
            )
        assert reports[True] == reports[False]


class TestEnvOverride:
    def test_config_disable_wins_without_env(self):
        cfg = SolverConfig(incremental=IncrementalConfig(enabled=False))
        assert not incremental_enabled(cfg)

    def test_cache_disable_disables_memo(self):
        from repro.cache import CacheConfig

        cfg = SolverConfig(cache=CacheConfig(enabled=False))
        assert not incremental_enabled(cfg)
