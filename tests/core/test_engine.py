"""Tests for the staged engine: every solve path shares it and emits the
same structured telemetry (stage spans + per-tree member records)."""

import os

import numpy as np
import pytest

import repro.kernels as kernels
from repro import SolverConfig, solve_hgp
from repro.core.engine import STAGE_NAMES, EngineResult, run_pipeline, solve_member
from repro.core.kbgp import solve_kbgp
from repro.core.portfolio import seed_portfolio, solve_hgp_portfolio
from repro.core.telemetry import RunReport, Telemetry
from repro.decomposition.guided import solve_hgp_iterated
from repro.streaming.online import OnlinePlacer

CFG = SolverConfig(seed=0, n_trees=4, refine=False)


def assert_meta_stamps(res):
    """Every solve entry point's report carries the same resolved-mode
    stamps, read from the one :class:`EngineResult.report`."""
    assert isinstance(res, EngineResult)
    assert None not in (res.run_id, res.incremental)
    meta = res.report().meta
    assert meta["run_id"] == res.run_id
    assert meta["kernel_backend"] == kernels.BACKEND
    assert meta["incremental"] == res.incremental


def assert_stage_spans(telemetry, path=None):
    """Every engine run emits the full five-stage span skeleton."""
    if path is not None:
        assert telemetry.path == path
    for name in STAGE_NAMES:
        spans = telemetry.find_spans(name)
        assert spans, f"missing span {name!r} under path {telemetry.path!r}"
    for name in ("trees", "dp", "repair"):
        assert sum(s.seconds for s in telemetry.find_spans(name)) > 0.0


class TestBatchPath:
    def test_solve_hgp_attaches_telemetry(self, clustered_instance):
        g, hier, d = clustered_instance
        res = solve_hgp(g, hier, d, CFG)
        assert res.telemetry is not None
        assert_stage_spans(res.telemetry, path="batch")

    def test_member_records_cover_ensemble(self, clustered_instance):
        g, hier, d = clustered_instance
        res = solve_hgp(g, hier, d, CFG)
        members = res.telemetry.members
        assert len(members) == CFG.n_trees
        assert [m.index for m in members] == list(range(CFG.n_trees))
        for m, mapped, dp in zip(members, res.tree_costs, res.dp_costs):
            assert m.mapped_cost == pytest.approx(mapped)
            assert m.dp_cost == pytest.approx(dp)
            assert m.dp_seconds > 0.0
            assert m.repair_seconds > 0.0
            assert m.method is not None

    def test_report_round_trips(self, clustered_instance):
        g, hier, d = clustered_instance
        res = solve_hgp(g, hier, d, CFG)
        report = res.report()
        assert report.cost == pytest.approx(res.cost)
        assert report.config["n_trees"] == CFG.n_trees
        assert_meta_stamps(res)
        again = RunReport.from_json(report.to_json())
        assert again.to_dict() == report.to_dict()


class TestParallelPath:
    def test_worker_timings_merged(self, clustered_instance):
        """The pool path reports non-empty dp/repair spans: the seconds
        the workers measured are folded into the parent's spans."""
        g, hier, d = clustered_instance
        cfg = SolverConfig(seed=0, n_trees=4, refine=False, n_jobs=2)
        result = run_pipeline(g, hier, d, cfg)
        dp = result.telemetry.root.child("dp")
        repair = result.telemetry.root.child("repair")
        assert dp.seconds > 0.0
        assert repair.seconds > 0.0
        assert dp.count == cfg.n_trees
        assert repair.count == cfg.n_trees
        members = result.telemetry.members
        assert len(members) == cfg.n_trees
        assert all(m.dp_seconds > 0.0 for m in members)
        assert dp.seconds == pytest.approx(sum(m.dp_seconds for m in members))
        assert repair.seconds == pytest.approx(
            sum(m.repair_seconds for m in members)
        )
        assert_meta_stamps(result)


class TestPortfolioPath:
    def test_emits_stage_spans_and_all_members(self, clustered_instance):
        g, hier, d = clustered_instance
        configs = seed_portfolio(SolverConfig(seed=0, n_trees=2, refine=False), 2)
        res = solve_hgp_portfolio(g, hier, d, configs)
        assert_stage_spans(res.telemetry, path="portfolio")
        # member records accumulate across portfolio members
        assert len(res.telemetry.members) == 4
        assert [m.index for m in res.telemetry.members] == list(range(4))
        report = res.report()
        assert report.path == "portfolio"
        assert res.placement.meta["portfolio_member"] in (0, 1)
        assert_meta_stamps(res)

    def test_caller_supplied_telemetry(self, clustered_instance):
        g, hier, d = clustered_instance
        tel = Telemetry("portfolio")
        configs = seed_portfolio(SolverConfig(seed=0, n_trees=2, refine=False), 2)
        res = solve_hgp_portfolio(g, hier, d, configs, telemetry=tel)
        assert res.telemetry is tel
        assert tel.root.counters["portfolio_members"] == pytest.approx(2.0)


class TestKBGPPath:
    def test_emits_stage_spans(self, two_blocks):
        tel = Telemetry("kbgp")
        p = solve_kbgp(two_blocks, 4, config=CFG, telemetry=tel)
        assert_stage_spans(tel, path="kbgp")
        assert len(tel.members) == CFG.n_trees
        assert p.leaf_of.shape == (two_blocks.n,)


class TestStreamingPath:
    def test_reoptimize_records_run_report(self, hier_2x4):
        placer = OnlinePlacer(hier_2x4, config=SolverConfig(seed=0, n_trees=2, refine=False))
        assert placer.last_report is None
        for t in range(8):
            edges = ((t - 1, 1.0),) if t > 0 else ()
            placer.arrive(t, demand=0.4, edges=edges)
        placer.reoptimize()
        report = placer.last_report
        assert report is not None
        assert report.path == "streaming"
        for name in STAGE_NAMES:
            assert report.spans.lookup(name) is not None or report.spans.name == name
        assert report.members
        assert report.meta["live_tasks"] == 8
        again = RunReport.from_json(report.to_json())
        assert again.to_dict() == report.to_dict()

    def test_place_dag_threads_telemetry(self, hier_2x4):
        from repro.streaming.operators import Operator, StreamDAG
        from repro.streaming.pinning import place_dag

        dag = StreamDAG()
        src = dag.add_operator(Operator("src", source_rate=10.0, tuple_bytes=100.0))
        a = dag.add_operator(Operator("a", service_cost=0.02, selectivity=1.0))
        b = dag.add_operator(Operator("b", service_cost=0.02, selectivity=1.0))
        sink = dag.add_operator(Operator("sink", service_cost=0.01, selectivity=0.0))
        dag.add_edge(src, a)
        dag.add_edge(a, b)
        dag.add_edge(b, sink)
        tel = Telemetry("streaming")
        placement, _report = place_dag(
            dag, hier_2x4, config=SolverConfig(seed=0, n_trees=2, refine=False),
            telemetry=tel,
        )
        assert_stage_spans(tel, path="streaming")
        assert placement.leaf_of.shape == (4,)


class TestGuidedPath:
    def test_iterated_extends_shared_telemetry(self, clustered_instance):
        g, hier, d = clustered_instance
        res = solve_hgp_iterated(g, hier, d, config=CFG, rounds=1)
        assert_stage_spans(res.telemetry, path="guided")
        # ensemble members + one guided round
        assert len(res.telemetry.members) == CFG.n_trees + 1
        assert res.telemetry.members[-1].method == "guided"
        assert len(res.tree_costs) == CFG.n_trees + 1
        assert_meta_stamps(res)
        # The guided member's seconds are folded into the dp/repair spans.
        members = res.telemetry.members
        dp = res.telemetry.root.child("dp")
        assert dp.count == CFG.n_trees + 1
        assert dp.seconds == pytest.approx(sum(m.dp_seconds for m in members))


class TestSolveMember:
    def test_outcome_is_self_consistent(self, clustered_instance):
        from repro.core.engine import make_grid
        from repro.decomposition.racke import build_tree

        g, hier, d = clustered_instance
        d = np.asarray(d, dtype=np.float64)
        grid = make_grid(hier, d, CFG)
        tree = build_tree(g, "spectral", seed=0)
        outcome = solve_member(tree, hier, d, CFG, grid, index=5)
        record = outcome.record
        assert record.index == 5
        assert record.mapped_cost == pytest.approx(outcome.placement.cost())
        assert record.mapped_cost <= record.dp_cost + 1e-6
        assert record.method == "spectral"
        assert record.dp_seconds > 0.0
        assert record.repair_seconds > 0.0
        assert record.pid == os.getpid()
        # The record's phase seconds are the member's own spans.
        dp, repair = outcome.spans.children
        assert (dp.name, dp.count, dp.seconds) == ("dp", 1, record.dp_seconds)
        assert (repair.name, repair.count, repair.seconds) == (
            "repair",
            1,
            record.repair_seconds,
        )
