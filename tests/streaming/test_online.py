"""Tests for online placement under churn."""

import numpy as np
import pytest

from repro import SolverConfig
from repro.errors import InvalidInputError
from repro.streaming.online import (
    ChurnEvent,
    ChurnResult,
    OnlineCounters,
    OnlinePlacer,
    simulate_churn,
)


@pytest.fixture
def placer(hier_2x4):
    return OnlinePlacer(hier_2x4, config=SolverConfig(n_trees=2, refine=False, seed=0))


def clustered_trace(n_clusters=4, per_cluster=5, w_in=5.0, w_out=0.2):
    """Arrivals only: n_clusters groups with strong intra-cluster edges."""
    events = []
    live: list[int] = []
    tid = 0
    for round_ in range(per_cluster):
        for c in range(n_clusters):
            edges = tuple((u, w_in) for u in live if u % n_clusters == c)
            edges += tuple((u, w_out) for u in live[:2] if u % n_clusters != c)
            events.append(ChurnEvent("arrive", tid, 0.15, edges))
            live.append(tid)
            tid += 1
    return events


class TestOnlinePlacer:
    def test_arrival_respects_capacity(self, placer):
        for t in range(10):
            placer.arrive(t, demand=0.5)
        loads = placer._loads
        assert loads.max() <= placer.hierarchy.leaf_capacity + 1e-9

    def test_arrival_prefers_neighbours(self, placer):
        placer.arrive(0, 0.2)
        leaf0 = placer.leaf_of(0)
        placer.arrive(1, 0.2, edges=((0, 10.0),))
        # Strong edge: co-located or at least same socket.
        assert placer.hierarchy.lca_level(leaf0, placer.leaf_of(1)) >= 1

    def test_duplicate_arrival_rejected(self, placer):
        placer.arrive(0, 0.2)
        with pytest.raises(InvalidInputError):
            placer.arrive(0, 0.2)

    def test_bad_demand_rejected(self, placer):
        with pytest.raises(InvalidInputError):
            placer.arrive(0, 0.0)
        with pytest.raises(InvalidInputError):
            placer.arrive(1, 5.0)

    @pytest.mark.parametrize(
        "demand,edges",
        [
            (float("nan"), ((0, 1.0),)),
            (0.4, ((0, float("nan")), (1, float("inf")))),
            (0.4, ((1, float("inf")),)),
            (0.4, ((0, 1.0), (1, float("nan")))),
        ],
    )
    def test_non_finite_arrival_rejected_without_state_change(
        self, placer, demand, edges
    ):
        placer.arrive(0, 0.5)
        placer.arrive(1, 0.3, edges=((0, 2.0),))
        loads, dirty = placer._loads.copy(), set(placer._dirty)
        with pytest.raises(InvalidInputError):
            placer.arrive(2, demand, edges)
        assert placer.n_tasks == 2
        assert np.array_equal(placer._loads, loads)
        assert placer._dirty == dirty
        placer.reoptimize()
        assert np.isfinite(placer.cost())

    def test_depart_frees_load(self, placer):
        placer.arrive(0, 0.4)
        leaf = placer.leaf_of(0)
        placer.depart(0)
        assert placer.n_tasks == 0
        assert placer._loads[leaf] == pytest.approx(0.0)

    def test_depart_unknown_rejected(self, placer):
        with pytest.raises(InvalidInputError):
            placer.depart(99)

    def test_edges_to_departed_tasks_ignored(self, placer):
        placer.arrive(0, 0.2)
        placer.depart(0)
        placer.arrive(1, 0.2, edges=((0, 3.0),))  # 0 is gone: no crash
        assert placer.cost() == 0.0

    def test_cost_tracks_live_graph(self, placer):
        placer.arrive(0, 0.2)
        placer.arrive(1, 0.2, edges=((0, 2.0),))
        g, d, leaf, tasks = placer.live_graph()
        assert g.n == 2
        from repro import Placement

        assert placer.cost() == pytest.approx(
            Placement(g, placer.hierarchy, d, leaf).cost()
        )

    def test_reoptimize_never_worsens(self, placer):
        for ev in clustered_trace():
            placer.arrive(ev.task, ev.demand, ev.edges)
        before = placer.cost()
        placer.reoptimize(migration_budget=None)
        assert placer.cost() <= before + 1e-9

    def test_reoptimize_budget_respected(self, placer):
        for ev in clustered_trace():
            placer.arrive(ev.task, ev.demand, ev.edges)
        moved = placer.reoptimize(migration_budget=2)
        assert moved <= 2
        assert placer.migrations == moved

    def test_reoptimize_trivial_state(self, placer):
        assert placer.reoptimize() == 0
        placer.arrive(0, 0.2)
        assert placer.reoptimize() == 0
        # Trivial early-outs are not counted as re-optimisation calls.
        assert placer.counters.reopt_calls == 0
        assert placer.reopt_migrations == []


class TestCounters:
    def test_arrivals_and_departures_counted(self, placer):
        placer.arrive(0, 0.2)
        placer.arrive(1, 0.2)
        placer.depart(0)
        assert placer.counters.arrivals == 2
        assert placer.counters.departures == 1
        assert placer.counters.rejections == 0

    def test_overload_arrival_counted_as_rejection(self, placer):
        # Fill every leaf beyond budget: the next arrival cannot fit.
        k = placer.hierarchy.k
        for t in range(2 * k):
            placer.arrive(t, 0.51)
        assert placer.counters.rejections > 0
        assert placer.counters.arrivals == 2 * k  # still placed

    def test_reoptimize_updates_counters(self, placer):
        for ev in clustered_trace():
            placer.arrive(ev.task, ev.demand, ev.edges)
        moved = placer.reoptimize(migration_budget=None)
        assert placer.counters.reopt_calls == 1
        assert placer.counters.migrations == moved
        assert placer.reopt_migrations == [moved]
        assert placer.counters.reopt_seconds > 0.0

    def test_per_call_migrations_no_longer_dropped(self, placer):
        for ev in clustered_trace():
            placer.arrive(ev.task, ev.demand, ev.edges)
        first = placer.reoptimize(migration_budget=2)
        second = placer.reoptimize(migration_budget=None)
        assert placer.reopt_migrations == [first, second]
        assert placer.migrations == first + second

    def test_as_dict_round_trip(self):
        counters = OnlineCounters(arrivals=3, rejections=1)
        d = counters.as_dict()
        assert d["arrivals"] == 3
        assert d["rejections"] == 1
        assert set(d) == {
            "arrivals",
            "departures",
            "rejections",
            "migrations",
            "reopt_calls",
            "reopt_seconds",
            "reopt_failures",
            "tree_cache_hits",
            "tree_cache_misses",
            "edge_updates",
            "incremental_reopts",
            "incremental_fallbacks",
        }


class TestSimulateChurn:
    def test_policies_ordered(self, hier_2x4):
        events = clustered_trace(per_cluster=6)
        cfg = SolverConfig(n_trees=2, refine=False, seed=0)
        never = simulate_churn(hier_2x4, events, reopt_period=0, config=cfg)
        always = simulate_churn(
            hier_2x4, events, reopt_period=8, migration_budget=None, config=cfg
        )
        assert never.migrations == 0
        assert always.migrations > 0
        assert np.mean(always.costs) <= np.mean(never.costs) + 1e-9

    def test_cost_series_length(self, hier_2x4):
        events = clustered_trace(per_cluster=2)
        result = simulate_churn(hier_2x4, events, config=SolverConfig(n_trees=2))
        assert len(result.costs) == len(events)

    def test_bad_event_kind(self, hier_2x4):
        with pytest.raises(InvalidInputError):
            simulate_churn(hier_2x4, [ChurnEvent("explode", 0)])

    def test_result_exposes_counters(self, hier_2x4):
        events = clustered_trace(per_cluster=4)
        result = simulate_churn(
            hier_2x4,
            events,
            reopt_period=8,
            migration_budget=3,
            config=SolverConfig(n_trees=2, refine=False, seed=0),
        )
        assert isinstance(result, ChurnResult)
        assert result.counters.arrivals == len(events)
        assert result.counters.departures == 0
        assert result.counters.reopt_calls == len(result.reopt_migrations)
        assert result.migrations == sum(result.reopt_migrations)
        assert result.migrations == result.counters.migrations


class TestSnapshotCache:
    def test_live_graph_cached_between_topology_changes(self, placer):
        for t in range(6):
            placer.arrive(t, demand=0.3, edges=tuple((u, 1.0) for u in range(t)))
        g1, d1, leaf1, tasks1 = placer.live_graph()
        g2, d2, _leaf2, tasks2 = placer.live_graph()
        # Same topology version: the graph/demand build is reused as-is.
        assert g1 is g2 and d1 is d2 and tasks1 is tasks2
        placer.depart(3)
        g3, _d3, _leaf3, tasks3 = placer.live_graph()
        assert g3 is not g1
        assert 3 not in tasks3
        assert g3.n == 5

    def test_leaf_snapshot_fresh_after_migration(self, placer):
        for t in range(8):
            edges = tuple((u, 5.0) for u in range(t) if u % 2 == t % 2)
            placer.arrive(t, demand=0.3, edges=edges)
        _g, _d, before, _tasks = placer.live_graph()
        placer.reoptimize()
        g, _d, after, _tasks = placer.live_graph()
        # Reoptimize moved tasks: the cached graph survives, the leaf
        # vector reflects the migrations.
        assert len(after) == g.n
        assert placer.cost() == pytest.approx(
            __import__("repro").hierarchy.placement.Placement(
                g, placer.hierarchy, _d, after
            ).cost()
        )
