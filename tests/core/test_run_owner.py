"""One persisted report and one profile per top-level call.

The function that created a call's :class:`Telemetry` owns the run: it
alone writes ``<path>_<run_id>.json`` under ``REPRO_RUN_REPORT_DIR``,
once, after the whole call, so the file holds every member record of
the call.  A :class:`ProfileSession` wrapped around a call observes the
spans of every run inside it.
"""

import json

import pytest

from repro.core.config import MultilevelConfig, SolverConfig
from repro.core.engine import run_pipeline
from repro.core.kbgp import solve_kbgp
from repro.core.portfolio import seed_portfolio, solve_hgp_portfolio
from repro.core.solver import solve_hgp
from repro.core.telemetry import Telemetry
from repro.decomposition.guided import solve_hgp_iterated
from repro.multilevel import solve_multilevel
from repro.obs.profile import ProfileConfig, ProfileSession
from repro.streaming.online import OnlinePlacer

CFG = SolverConfig(n_trees=2, seed=0)


@pytest.fixture
def report_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_REPORT_DIR", str(tmp_path))
    return tmp_path


def only_report(report_dir, path: str, run_id: str) -> dict:
    """The single report in ``report_dir``, checked to be ``path``'s."""
    files = sorted(p.name for p in report_dir.glob("*.json"))
    assert files == [f"{path}_{run_id}.json"]
    return json.loads((report_dir / files[0]).read_text())


class TestOneReportPerCall:
    def test_solve_hgp(self, report_dir, clustered_instance):
        g, h, d = clustered_instance
        result = solve_hgp(g, h, d, CFG)
        data = only_report(report_dir, "batch", result.run_id)
        assert len(data["members"]) == 2
        assert data["cost"] == result.cost

    def test_solve_multilevel(self, report_dir, clustered_instance):
        g, h, d = clustered_instance
        cfg = SolverConfig(
            n_trees=2,
            seed=0,
            multilevel=MultilevelConfig(enabled=True, coarsen_to=12),
        )
        result = solve_multilevel(g, h, d, cfg)
        data = only_report(report_dir, "multilevel", result.run_id)
        assert len(data["members"]) == 2
        names = [c["name"] for c in data["spans"]["children"]]
        assert names == ["coarsen", "coarse_solve", "uncoarsen"]
        assert "multilevel" in data["meta"]

    def test_portfolio(self, report_dir, clustered_instance):
        g, h, d = clustered_instance
        result = solve_hgp_portfolio(g, h, d, seed_portfolio(CFG, 3))
        data = only_report(report_dir, "portfolio", result.run_id)
        assert len(data["members"]) == 6
        assert [m["index"] for m in data["members"]] == list(range(6))
        trees = next(c for c in data["spans"]["children"] if c["name"] == "trees")
        assert trees["count"] == 3

    def test_iterated(self, report_dir, clustered_instance):
        g, h, d = clustered_instance
        result = solve_hgp_iterated(g, h, d, CFG, rounds=2)
        data = only_report(report_dir, "guided", result.run_id)
        assert len(data["members"]) == 4
        assert [m["method"] for m in data["members"][2:]] == ["guided", "guided"]

    def test_kbgp(self, report_dir, clustered_instance):
        g, _h, _d = clustered_instance
        solve_kbgp(g, 4, config=CFG)
        (path,) = report_dir.glob("*.json")
        assert path.name.startswith("kbgp_")
        data = json.loads(path.read_text())
        assert len(data["members"]) == 2
        assert data["spans"]["counters"]["k"] == 4.0

    def test_reoptimize(self, report_dir, hier_2x4):
        placer = OnlinePlacer(hier_2x4, config=CFG)
        for t in range(8):
            placer.arrive(t, 0.5, tuple((j, 1.0) for j in range(t)))
        placer.reoptimize()
        run_id = placer.last_report.meta["run_id"]
        data = only_report(report_dir, "streaming", run_id)
        assert len(data["members"]) == 2
        assert data["meta"]["live_tasks"] == 8

    def test_caller_owned_telemetry_persists_nothing(
        self, report_dir, clustered_instance
    ):
        g, h, d = clustered_instance
        run_pipeline(g, h, d, CFG, telemetry=Telemetry("caller"))
        assert list(report_dir.glob("*.json")) == []


class TestOneProfilePerCall:
    def test_portfolio_profile_sees_every_run(self, clustered_instance):
        g, h, d = clustered_instance
        with ProfileSession(ProfileConfig(hz=200.0)) as session:
            result = solve_hgp_portfolio(g, h, d, seed_portfolio(CFG, 3))
        stages = session.profile["stages"]
        assert stages["trees"]["count"] == 3
        for name in ("trees", "quantize", "refine"):
            spans = result.telemetry.find_spans(name)
            assert stages[name]["count"] == sum(s.count for s in spans)
