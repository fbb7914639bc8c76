"""Tests for SolverConfig validation."""

import pytest

from repro import SolverConfig
from repro.errors import InvalidInputError


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.n_trees >= 1
        assert cfg.grid_mode == "auto"

    def test_describe_roundtrips(self):
        cfg = SolverConfig(n_trees=3, tree_methods=("spectral",))
        d = cfg.describe()
        assert d["n_trees"] == 3
        assert d["tree_methods"] == ["spectral"]

    def test_bad_n_trees(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(n_trees=0)

    def test_bad_grid_mode(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(grid_mode="nope")

    def test_budget_mode_requires_budget(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(grid_mode="budget")
        SolverConfig(grid_mode="budget", grid_budget=100)  # ok

    def test_bad_epsilon(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(epsilon=0.0)

    def test_bad_slack(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(slack=-0.1)

    def test_bad_beam(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(beam_width=0)

    def test_bad_refine_passes(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(refine_passes=-1)

    def test_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(Exception):
            cfg.n_trees = 5  # type: ignore[misc]


class TestDPConfigField:
    def test_default_dp_config(self):
        cfg = SolverConfig()
        assert cfg.dp.tile_size > 0
        assert cfg.dp.bound_pruning is True
        assert cfg.dp.incumbent_beam == 256

    def test_custom_dp_config(self):
        from repro.hgpt.dp import DPConfig

        cfg = SolverConfig(dp=DPConfig(tile_size=1024, bound_pruning=False))
        assert cfg.dp.tile_size == 1024
        assert cfg.dp.bound_pruning is False

    def test_describe_includes_dp_knobs(self):
        desc = SolverConfig().describe()
        assert desc["dp"]["tile_size"] == SolverConfig().dp.tile_size
        assert "bound_pruning" in desc["dp"]
        assert "incumbent_beam" in desc["dp"]
