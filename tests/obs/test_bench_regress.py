"""Tests for the CI benchmark regression gate (tools/bench_regress.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.telemetry import MemberRecord, Telemetry

TOOLS = Path(__file__).resolve().parents[2] / "tools"


@pytest.fixture(scope="module")
def bench_regress():
    spec = importlib.util.spec_from_file_location(
        "bench_regress", TOOLS / "bench_regress.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_bench_file(tmp_path, name, points, meta=None):
    data = {"experiment": "E4", "schema_version": 1, "points": points}
    if meta is not None:
        data["meta"] = meta
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def make_point(
    sweep="n", n=24, h=2, grid_cells=96, time_s=0.01, dp_cost=42.0, cost=None
):
    tel = Telemetry("bench")
    tel.root.add("dp", time_s * 0.8)
    tel.root.add("trees", time_s * 0.2)
    tel.record_member(
        MemberRecord(index=0, method="spectral", dp_cost=dp_cost)
    )
    return {
        "sweep": sweep,
        "n": n,
        "h": h,
        "grid_cells": grid_cells,
        "time_s": time_s,
        "states_max": 10,
        "merges": 100,
        "report": tel.report(cost=cost).to_dict(),
    }


class TestPointHelpers:
    def test_point_key(self, bench_regress):
        assert bench_regress.point_key(make_point()) == ("n", 24, 2, 96)

    def test_point_cost_from_member(self, bench_regress):
        assert bench_regress.point_cost(make_point(dp_cost=7.5)) == 7.5

    def test_pct_delta(self, bench_regress):
        assert bench_regress.pct_delta(1.0, 1.5) == pytest.approx(50.0)
        assert bench_regress.pct_delta(0.0, 0.0) == 0.0
        assert bench_regress.pct_delta(0.0, 1.0) == float("inf")


class TestGate:
    def test_identical_files_pass(self, bench_regress, tmp_path):
        base = make_bench_file(tmp_path, "base.json", [make_point()])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(base)]
        )
        assert rc == 0

    def test_cost_change_fails(self, bench_regress, tmp_path):
        base = make_bench_file(tmp_path, "base.json", [make_point(dp_cost=42.0)])
        fresh = make_bench_file(tmp_path, "fresh.json", [make_point(dp_cost=43.0)])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        )
        assert rc == 1

    def test_final_cost_change_fails(self, bench_regress, tmp_path, capsys):
        """A multilevel point's ``members[0]`` is the coarse solve: its
        ``dp_cost`` stays put when only the refined cost changes."""
        base = make_bench_file(tmp_path, "base.json", [make_point(cost=30.0)])
        fresh = make_bench_file(tmp_path, "fresh.json", [make_point(cost=31.0)])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        )
        assert rc == 1
        assert "report.cost changed" in capsys.readouterr().err

    def test_final_cost_last_digit_jitter_passes(self, bench_regress, tmp_path):
        cost = 5261.58999106166
        base = make_bench_file(tmp_path, "base.json", [make_point(cost=cost)])
        fresh = make_bench_file(
            tmp_path, "fresh.json", [make_point(cost=cost * (1 + 1e-15))]
        )
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        )
        assert rc == 0

    def test_final_cost_within_cost_tol_passes(self, bench_regress, tmp_path):
        base = make_bench_file(tmp_path, "base.json", [make_point(cost=100.0)])
        fresh = make_bench_file(tmp_path, "fresh.json", [make_point(cost=100.5)])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh), "--cost-tol", "1"]
        )
        assert rc == 0

    def test_final_cost_gated_only_when_both_carry_it(
        self, bench_regress, tmp_path
    ):
        base = make_bench_file(tmp_path, "base.json", [make_point()])
        fresh = make_bench_file(tmp_path, "fresh.json", [make_point(cost=31.0)])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        )
        assert rc == 0

    def test_time_regression_warns_only(self, bench_regress, tmp_path, capsys):
        base = make_bench_file(tmp_path, "base.json", [make_point(time_s=0.01)])
        fresh = make_bench_file(tmp_path, "fresh.json", [make_point(time_s=0.10)])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        )
        assert rc == 0
        assert "WARN" in capsys.readouterr().out

    def test_time_fail_promotes_warning(self, bench_regress, tmp_path):
        base = make_bench_file(tmp_path, "base.json", [make_point(time_s=0.01)])
        fresh = make_bench_file(tmp_path, "fresh.json", [make_point(time_s=0.10)])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh), "--time-fail"]
        )
        assert rc == 1

    def test_time_within_threshold_silent(self, bench_regress, tmp_path, capsys):
        base = make_bench_file(tmp_path, "base.json", [make_point(time_s=0.010)])
        fresh = make_bench_file(tmp_path, "fresh.json", [make_point(time_s=0.012)])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        )
        assert rc == 0
        assert "WARN" not in capsys.readouterr().out

    def test_missing_point_fails(self, bench_regress, tmp_path):
        base = make_bench_file(
            tmp_path, "base.json", [make_point(n=24), make_point(n=48)]
        )
        fresh = make_bench_file(tmp_path, "fresh.json", [make_point(n=24)])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        )
        assert rc == 1

    def test_extra_point_fails(self, bench_regress, tmp_path):
        base = make_bench_file(tmp_path, "base.json", [make_point(n=24)])
        fresh = make_bench_file(
            tmp_path, "fresh.json", [make_point(n=24), make_point(n=48)]
        )
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh)]
        )
        assert rc == 1

    def test_cost_tol_allows_drift(self, bench_regress, tmp_path):
        base = make_bench_file(tmp_path, "base.json", [make_point(dp_cost=100.0)])
        fresh = make_bench_file(tmp_path, "fresh.json", [make_point(dp_cost=100.5)])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(fresh), "--cost-tol", "1"]
        )
        assert rc == 0

    def test_missing_file_fails(self, bench_regress, tmp_path, capsys):
        base = make_bench_file(tmp_path, "base.json", [make_point()])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(tmp_path / "nope.json")]
        )
        assert rc == 1
        assert "not found" in capsys.readouterr().err

class TestMetaFloors:
    def test_parse_min_meta(self, bench_regress):
        assert bench_regress.parse_min_meta("hit_rate=0.5") == ("hit_rate", 0.5)
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            bench_regress.parse_min_meta("hit_rate")
        with pytest.raises(argparse.ArgumentTypeError):
            bench_regress.parse_min_meta("hit_rate=lots")

    def test_meta_floor_passes(self, bench_regress, tmp_path):
        base = make_bench_file(
            tmp_path, "base.json", [make_point()], meta={"warm_speedup": 5.0}
        )
        rc = bench_regress.main(
            [
                "--baseline",
                str(base),
                "--fresh",
                str(base),
                "--min-meta",
                "warm_speedup=2.0",
            ]
        )
        assert rc == 0

    def test_meta_below_floor_fails(self, bench_regress, tmp_path, capsys):
        base = make_bench_file(
            tmp_path, "base.json", [make_point()], meta={"hit_rate": 0.0}
        )
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(base), "--min-meta", "hit_rate=0.5"]
        )
        assert rc == 1
        assert "below required floor" in capsys.readouterr().err

    def test_missing_meta_key_fails(self, bench_regress, tmp_path, capsys):
        base = make_bench_file(tmp_path, "base.json", [make_point()])
        rc = bench_regress.main(
            ["--baseline", str(base), "--fresh", str(base), "--min-meta", "nope=1"]
        )
        assert rc == 1
        assert "missing" in capsys.readouterr().err

    def test_floor_checked_on_fresh_file_only(self, bench_regress, tmp_path):
        base = make_bench_file(tmp_path, "base.json", [make_point()])
        fresh = make_bench_file(
            tmp_path, "fresh.json", [make_point()], meta={"hit_rate": 0.9}
        )
        rc = bench_regress.main(
            [
                "--baseline",
                str(base),
                "--fresh",
                str(fresh),
                "--min-meta",
                "hit_rate=0.5",
            ]
        )
        assert rc == 0


class TestCheckedInBaselines:
    def test_checked_in_baseline_self_compares_clean(self, bench_regress):
        baseline = (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "results"
            / "BENCH_E4_runtime_scaling.json"
        )
        rc = bench_regress.main(
            ["--baseline", str(baseline), "--fresh", str(baseline)]
        )
        assert rc == 0

    def test_checked_in_e17_baseline_meets_cache_floors(self, bench_regress):
        baseline = (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "results"
            / "BENCH_E17_cache_warm.json"
        )
        rc = bench_regress.main(
            [
                "--baseline",
                str(baseline),
                "--fresh",
                str(baseline),
                "--min-meta",
                "hit_rate=0.5",
                "--min-meta",
                "warm_speedup=2.0",
            ]
        )
        assert rc == 0


class TestMetricsDump:
    def _dump(self, tmp_path, families):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for name, value in families:
            registry.counter(name).inc(value)
        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps(
                {"snapshot": registry.snapshot(), "rendered": registry.render()}
            )
        )
        return path

    def _argv(self, tmp_path, dump_path):
        base = make_bench_file(tmp_path, "base.json", [make_point()])
        fresh = make_bench_file(tmp_path, "fresh.json", [make_point()])
        return [
            "--baseline", str(base),
            "--fresh", str(fresh),
            "--metrics-dump", str(dump_path),
        ]

    def test_valid_dump_passes_and_summarises(
        self, bench_regress, tmp_path, capsys
    ):
        dump = self._dump(tmp_path, [("repro_dp_solves_total", 12)])
        rc = bench_regress.main(self._argv(tmp_path, dump))
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 repro_* families" in out
        assert "repro_dp_solves_total 12" in out

    def test_missing_dump_fails(self, bench_regress, tmp_path, capsys):
        rc = bench_regress.main(self._argv(tmp_path, tmp_path / "nope.json"))
        assert rc == 1
        assert "metrics dump not found" in capsys.readouterr().err

    def test_dump_without_repro_families_fails(
        self, bench_regress, tmp_path, capsys
    ):
        dump = self._dump(tmp_path, [("other_total", 1)])
        rc = bench_regress.main(self._argv(tmp_path, dump))
        assert rc == 1
        assert "no repro_* families" in capsys.readouterr().err

    def test_corrupt_dump_fails(self, bench_regress, tmp_path, capsys):
        dump = tmp_path / "metrics.json"
        dump.write_text("{not json")
        rc = bench_regress.main(self._argv(tmp_path, dump))
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_conftest_dump_shape_is_accepted(self, bench_regress, tmp_path):
        """The dump written by benchmarks/conftest.py round-trips into
        the gate: same {"snapshot", "rendered"} shape."""
        from repro.obs.metrics import get_registry

        get_registry().counter("repro_dp_solves_total", "x").inc(0)
        registry = get_registry()
        path = tmp_path / "session.json"
        path.write_text(
            json.dumps(
                {"snapshot": registry.snapshot(), "rendered": registry.render()}
            )
        )
        failures, summary = bench_regress.check_metrics_dump(path)
        assert failures == []
        assert summary
