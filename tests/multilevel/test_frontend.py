"""End-to-end tests of the coarsen–solve–refine front-end."""

import json
from dataclasses import replace

import numpy as np
import pytest

import repro.kernels as kernels
from repro.bench.instances import FAMILIES
from repro.core.config import CacheConfig, MultilevelConfig, SolverConfig
from repro.core.engine import EngineResult
from repro.core.solver import solve_hgp
from repro.core.telemetry import RunReport
from repro.errors import InvalidInputError
from repro.graph.generators import grid_2d, random_demands
from repro.hierarchy.hierarchy import Hierarchy
from repro.multilevel import MultilevelResult, solve_multilevel


@pytest.fixture(scope="module")
def instance():
    g = grid_2d(32, 32, weight_range=(0.5, 2.0), seed=1)
    hier = Hierarchy([2, 4], [10.0, 3.0, 0.0], leaf_capacity=200.0)
    d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.3, seed=2)
    return g, hier, d


def small_cfg(**ml_kwargs):
    ml = MultilevelConfig(enabled=True, **ml_kwargs)
    return SolverConfig(seed=0, n_trees=4, multilevel=ml)


class TestSolveMultilevel:
    def test_end_to_end_valid_placement(self, instance):
        g, hier, d = instance
        res = solve_multilevel(g, hier, d, small_cfg(coarsen_to=100))
        p = res.placement
        assert p.leaf_of.shape == (g.n,)
        assert p.meta["solver"] == "hgp_multilevel"
        assert res.levels.stats.n_coarsest <= 100
        assert res.levels.stats.levels >= 3
        assert res.cost == p.cost()
        # Refinement never worsens the projected placement, so the final
        # cost is at most the unrefined projection's.
        proj = res.levels.project(res.coarse.placement.leaf_of)
        from repro.baselines.fm import eq1_cost

        assert res.cost <= eq1_cost(g, hier, proj) + 1e-9

    def test_spans_cover_all_layers(self, instance):
        g, hier, d = instance
        res = solve_multilevel(g, hier, d, small_cfg(coarsen_to=100))
        report = res.report()
        names = [c.name for c in report.spans.children]
        assert names[:3] == ["coarsen", "coarse_solve", "uncoarsen"]
        # The engine's five stage spans nest under coarse_solve.
        solve_children = {c.name for c in report.spans.children[1].children}
        assert {"trees", "quantize", "dp", "repair", "refine"} <= solve_children
        # One level_<i> span per contraction level.
        uncoarsen = report.spans.children[2]
        level_names = {c.name for c in uncoarsen.children}
        assert level_names == {f"level_{i}" for i in range(len(res.levels.maps))}
        # Meta carries the multilevel summary; the report round-trips.
        assert report.meta["multilevel"]["coarsen"]["levels"] >= 3
        again = RunReport.from_json(report.to_json())
        assert again.meta["multilevel"] == report.meta["multilevel"]

    def test_deterministic_given_seed(self, instance):
        g, hier, d = instance
        a = solve_multilevel(g, hier, d, small_cfg(coarsen_to=100))
        b = solve_multilevel(g, hier, d, small_cfg(coarsen_to=100))
        assert np.array_equal(a.placement.leaf_of, b.placement.leaf_of)
        assert a.cost == b.cost

    def test_small_graph_skips_coarsening(self, instance):
        _, hier, _ = instance
        g = grid_2d(5, 5, seed=3)
        d = random_demands(g.n, hier.total_capacity, fill=0.5, seed=4)
        res = solve_multilevel(g, hier, d, small_cfg(coarsen_to=100))
        assert res.levels.stats.levels == 1
        assert res.levels.maps == []
        assert res.refine_stats == []

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", ["blocks", "powerlaw", "grid", "dag"])
    def test_trivial_coarsening_matches_flat(self, family, seed):
        """With nothing to coarsen (``coarsen_to`` above n), the multilevel
        solve returns the flat solve's placement and cost.  The cache is
        off, so the second solve cannot reuse the first one's trees."""
        hier = Hierarchy([2, 4], [10.0, 3.0, 0.0])
        g = FAMILIES[family](24, seed)
        d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.3, seed=seed)
        flat_cfg = SolverConfig(seed=0, n_trees=4, cache=CacheConfig(enabled=False))
        ml_cfg = replace(
            flat_cfg, multilevel=MultilevelConfig(enabled=True, coarsen_to=10000)
        )
        flat = solve_hgp(g, hier, d, flat_cfg)
        ml = solve_hgp(g, hier, d, ml_cfg)
        assert ml.placement.meta["solver"] == "hgp_multilevel"
        assert np.array_equal(ml.placement.leaf_of, flat.placement.leaf_of)
        assert ml.cost == flat.cost

    def test_refine_passes_zero_is_pure_projection(self, instance):
        g, hier, d = instance
        res = solve_multilevel(
            g, hier, d, small_cfg(coarsen_to=100, refine_passes=0)
        )
        proj = res.levels.project(res.coarse.placement.leaf_of)
        assert np.array_equal(res.placement.leaf_of, proj)

    def test_solve_hgp_dispatch(self, instance):
        g, hier, d = instance
        res = solve_hgp(g, hier, d, small_cfg(coarsen_to=100))
        assert res.placement.meta["solver"] == "hgp_multilevel"
        direct = solve_multilevel(g, hier, d, small_cfg(coarsen_to=100))
        assert np.array_equal(res.placement.leaf_of, direct.placement.leaf_of)
        # tree_costs/dp_costs describe the coarse solve's ensemble.
        assert len(res.dp_costs) == 4
        # solve_hgp returns the front-end's result itself: one EngineResult
        # whose report carries both the engine stamps and the multilevel
        # summary.
        assert isinstance(res, MultilevelResult)
        assert isinstance(res, EngineResult)
        assert res.grid is res.coarse.grid
        meta = res.report().meta
        assert meta["run_id"] == res.run_id
        assert meta["kernel_backend"] == kernels.BACKEND
        assert meta["multilevel"]["coarse_cost"] == res.coarse.cost

    def test_report_dir_writes_frontend_report(
        self, instance, tmp_path, monkeypatch
    ):
        g, hier, d = instance
        monkeypatch.setenv("REPRO_RUN_REPORT_DIR", str(tmp_path))
        res = solve_multilevel(g, hier, d, small_cfg(coarsen_to=100))
        files = list(tmp_path.glob("multilevel_*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["meta"]["run_id"] == res.run_id
        assert "multilevel" in payload["meta"]
        names = [c["name"] for c in payload["spans"]["children"]]
        assert "uncoarsen" in names

    def test_validates_instance(self, instance):
        g, hier, _ = instance
        with pytest.raises(InvalidInputError):
            solve_multilevel(g, hier, np.ones(3), small_cfg())

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            MultilevelConfig(coarsen_to=1)
        with pytest.raises(InvalidInputError):
            MultilevelConfig(refine_passes=-1)
        with pytest.raises(InvalidInputError):
            MultilevelConfig(stall_ratio=0.0)


class TestCli:
    def test_solve_multilevel_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.generators import grid_2d
        from repro.graph.io import write_edgelist

        g = grid_2d(16, 16, seed=0)
        path = tmp_path / "g.edges"
        write_edgelist(path, g)
        report = tmp_path / "report.json"
        rc = main(
            [
                "solve",
                "--graph",
                str(path),
                "--degrees",
                "2,4",
                "--cm",
                "10,3,0",
                "--leaf-capacity",
                "60",
                "--multilevel",
                "--coarsen-to",
                "80",
                "--n-trees",
                "2",
                "--report",
                str(report),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost" in out
        payload = json.loads(report.read_text())
        assert payload["path"] == "multilevel"
        assert "multilevel" in payload["meta"]
