"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph.io import read_edgelist, write_edgelist
from repro.graph.generators import planted_partition


@pytest.fixture
def graph_file(tmp_path):
    g = planted_partition(2, 6, 0.8, 0.1, seed=1)
    path = tmp_path / "g.edges"
    write_edgelist(path, g)
    return path, g


class TestGenerate:
    def test_writes_graph(self, tmp_path, capsys):
        out = tmp_path / "gen.edges"
        rc = main(["generate", "--family", "grid", "--n", "16", "--out", str(out)])
        assert rc == 0
        g = read_edgelist(out)
        assert g.n == 16
        assert "wrote grid graph" in capsys.readouterr().out

    def test_unknown_family(self, tmp_path, capsys):
        rc = main(
            ["generate", "--family", "nope", "--n", "9", "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        assert "unknown family" in capsys.readouterr().err


class TestSolve:
    def test_baseline_method(self, graph_file, capsys):
        path, g = graph_file
        rc = main(
            [
                "solve",
                "--graph",
                str(path),
                "--degrees",
                "2,2",
                "--cm",
                "5,1,0",
                "--method",
                "greedy",
                "--quiet",
            ]
        )
        assert rc == 0
        assert "cost=" in capsys.readouterr().out

    def test_hgp_with_json_output(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        out = tmp_path / "pin.json"
        rc = main(
            [
                "solve",
                "--graph",
                str(path),
                "--degrees",
                "2,2",
                "--cm",
                "5,1,0",
                "--method",
                "hgp",
                "--n-trees",
                "2",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro-placement-v1"
        assert len(payload["leaf_of"]) == g.n
        report = capsys.readouterr().out
        assert "L0.0" in report  # ASCII tree printed

    def test_demands_file(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        dfile = tmp_path / "d.txt"
        dfile.write_text("\n".join(["0.2"] * g.n))
        rc = main(
            [
                "solve",
                "--graph",
                str(path),
                "--degrees",
                "4",
                "--cm",
                "1,0",
                "--demands",
                str(dfile),
                "--method",
                "round_robin",
                "--quiet",
            ]
        )
        assert rc == 0

    def test_demands_mismatch(self, graph_file, tmp_path, capsys):
        path, _g = graph_file
        dfile = tmp_path / "d.txt"
        dfile.write_text("0.2\n0.2\n")
        rc = main(
            [
                "solve",
                "--graph",
                str(path),
                "--degrees",
                "4",
                "--cm",
                "1,0",
                "--demands",
                str(dfile),
                "--quiet",
            ]
        )
        assert rc == 2
        assert "demands file" in capsys.readouterr().err

    def test_missing_graph(self, capsys):
        rc = main(
            [
                "solve",
                "--graph",
                "/does/not/exist",
                "--degrees",
                "2",
                "--cm",
                "1,0",
            ]
        )
        assert rc == 2

    def test_non_finite_cost_multiplier_exits_2(self, graph_file, capsys):
        path, _g = graph_file
        rc = main(
            ["solve", "--graph", str(path), "--degrees", "2,2", "--cm", "inf,inf,0"]
        )
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_unwritable_output_path_exits_2(self, graph_file, tmp_path, capsys, flag):
        path, _g = graph_file
        dest = tmp_path / "missing" / "run.json"
        rc = main(
            [
                "solve", "--graph", str(path), "--degrees", "2,2",
                "--cm", "5,1,0", "--n-trees", "2", "--quiet", flag, str(dest),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(dest) in err
        assert "Traceback" not in err

    def test_serve_bind_failure_exits_2(self, capsys):
        import socket

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            rc = main(["serve", "--port", str(port), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_method(self, graph_file, capsys):
        path, _g = graph_file
        rc = main(
            [
                "solve",
                "--graph",
                str(path),
                "--degrees",
                "2,2",
                "--cm",
                "5,1,0",
                "--method",
                "sorcery",
            ]
        )
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err

    def test_metis_input(self, tmp_path, capsys):
        from repro.graph.io import write_metis

        g = planted_partition(2, 4, 0.9, 0.2, seed=2)
        path = tmp_path / "g.graph"
        write_metis(path, g, weight_scale=1.0)
        rc = main(
            [
                "solve",
                "--graph",
                str(path),
                "--degrees",
                "2,2",
                "--cm",
                "5,1,0",
                "--method",
                "greedy",
                "--quiet",
            ]
        )
        assert rc == 0

    def test_hgp_feasible_method(self, graph_file, capsys):
        path, _g = graph_file
        rc = main(
            [
                "solve",
                "--graph",
                str(path),
                "--degrees",
                "2,2",
                "--cm",
                "5,1,0",
                "--method",
                "hgp_feasible",
                "--n-trees",
                "2",
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost=" in out


class TestSolveArtifacts:
    def test_dot_and_taskset_outputs(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        dot = tmp_path / "h.dot"
        pin = tmp_path / "pin.sh"
        rc = main(
            [
                "solve",
                "--graph",
                str(path),
                "--degrees",
                "2,2",
                "--cm",
                "5,1,0",
                "--method",
                "greedy",
                "--dot",
                str(dot),
                "--taskset",
                str(pin),
                "--cpus-per-leaf",
                "2",
                "--quiet",
            ]
        )
        assert rc == 0
        assert dot.read_text().startswith("graph H {")
        script = pin.read_text()
        assert script.startswith("#!/bin/sh")
        assert script.count("taskset -a -cp") == g.n


class TestCacheCommands:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        from repro.cache import reset_cache

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
        reset_cache()
        yield
        reset_cache()

    def _solve_args(self, path):
        return [
            "solve",
            "--graph",
            str(path),
            "--degrees",
            "2,2",
            "--cm",
            "5,1,0",
            "--n-trees",
            "3",
            "--quiet",
        ]

    def test_stats_empty(self, capsys):
        rc = main(["cache", "stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "memory tier  : 0 entries" in out
        assert "disk tier    : disabled" in out

    def test_solve_populates_cache_and_stats_reports_it(self, graph_file, capsys):
        path, _g = graph_file
        assert main(self._solve_args(path)) == 0
        assert main(self._solve_args(path)) == 0  # warm: hits
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "trees" in out
        assert "repro_cache_hits_total" in out
        from repro.cache import get_cache

        assert get_cache().stats.by_kind["trees"]["hits"] >= 1

    def test_no_cache_flag_bypasses(self, graph_file, capsys):
        path, _g = graph_file
        assert main(self._solve_args(path) + ["--no-cache"]) == 0
        assert main(self._solve_args(path) + ["--no-cache"]) == 0
        capsys.readouterr()
        from repro.cache import get_cache

        assert len(get_cache()) == 0
        assert get_cache().stats.lookups == 0

    def test_clear_wipes_memory_and_disk(self, graph_file, tmp_path, capsys, monkeypatch):
        path, _g = graph_file
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        from repro.cache import reset_cache

        reset_cache()  # pick up the env var
        assert main(self._solve_args(path)) == 0
        assert list(cache_dir.glob("*/*.pkl"))
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared:" in out
        assert not list(cache_dir.glob("*/*.pkl"))
        from repro.cache import get_cache

        assert len(get_cache()) == 0

    def test_clear_memory_only_keeps_disk(self, graph_file, tmp_path, capsys, monkeypatch):
        path, _g = graph_file
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        from repro.cache import reset_cache

        reset_cache()
        assert main(self._solve_args(path)) == 0
        assert main(["cache", "clear", "--memory-only"]) == 0
        capsys.readouterr()
        assert list(cache_dir.glob("*/*.pkl"))

    def test_stats_with_dir_override(self, tmp_path, capsys):
        target = tmp_path / "elsewhere"
        (target / "trees").mkdir(parents=True)
        (target / "trees" / "deadbeef.pkl").write_bytes(b"x" * 10)
        rc = main(["cache", "stats", "--dir", str(target)])
        assert rc == 0
        out = capsys.readouterr().out
        assert str(target) in out
        assert "1 files" in out

    def test_stats_break_memory_tier_down_by_kind(self, graph_file, capsys):
        path, _g = graph_file
        assert main(self._solve_args(path)) == 0
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        # Per-kind memory rows: the solve stored trees and (incremental
        # default on) per-node subtree DP tables.
        assert "trees" in out
        assert "subtree_tables" in out

    def test_malformed_cache_budget_exits_2(self, graph_file, capsys, monkeypatch):
        path, _g = graph_file
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "abc")
        assert main(self._solve_args(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_CACHE_MAX_BYTES ")
        assert "Traceback" not in err

    def test_malformed_cache_disable_exits_2(self, graph_file, capsys, monkeypatch):
        path, _g = graph_file
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "maybe")
        assert main(self._solve_args(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_CACHE_DISABLE ")
        assert "Traceback" not in err

    def test_serve_malformed_cache_budget_exits_2(self, capsys, monkeypatch):
        import socket

        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-5")
        # A taken port: were the cache not built before the bind, serve
        # would still fail, but on the port, not on the variable.
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            rc = main(["serve", "--port", str(port), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: REPRO_CACHE_MAX_BYTES ")

    def test_no_incremental_flag_skips_memo(self, graph_file, capsys):
        path, _g = graph_file
        assert main(self._solve_args(path) + ["--no-incremental"]) == 0
        capsys.readouterr()
        from repro.cache import get_cache

        mem = get_cache().describe()["memory"]
        assert "subtree_tables" not in mem["by_kind"]
        assert "trees" in mem["by_kind"]  # the rest of the cache still works


class TestProfileFlags:
    def _solve(self, graph_file, tmp_path, extra):
        path, _g = graph_file
        return main(
            [
                "solve", "--graph", str(path),
                "--degrees", "2,2", "--cm", "5,1,0",
                "--n-trees", "2", "--quiet",
            ]
            + extra
        )

    def test_profile_writes_collapsed_and_report_section(
        self, graph_file, tmp_path, capsys
    ):
        collapsed = tmp_path / "run.collapsed"
        report = tmp_path / "run.json"
        rc = self._solve(
            graph_file,
            tmp_path,
            [
                "--profile", str(collapsed),
                "--profile-hz", "300",
                "--report", str(report),
            ],
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"collapsed-stack profile written to {collapsed}" in out
        assert collapsed.exists()
        for line in collapsed.read_text().splitlines():
            assert line.startswith("span:")
        data = json.loads(report.read_text())
        assert data["schema_version"] == 5
        assert data["profile"]["hz"] == 300.0
        assert not {"stages", "memory"} & set(data["profile"])
        stages = {c["name"]: c for c in data["spans"]["children"]}
        assert stages["dp"]["count"] == 2
        assert stages["dp"]["cpu_seconds"] > 0

    def test_profile_rejected_for_baselines(self, graph_file, tmp_path, capsys):
        path, _g = graph_file
        rc = main(
            [
                "solve", "--graph", str(path),
                "--degrees", "2,2", "--cm", "5,1,0",
                "--method", "greedy",
                "--profile", str(tmp_path / "x.collapsed"),
            ]
        )
        assert rc == 2
        assert "--profile requires an engine method" in capsys.readouterr().err

    def test_report_flame_prints_collapsed(self, graph_file, tmp_path, capsys):
        collapsed = tmp_path / "run.collapsed"
        report = tmp_path / "run.json"
        assert (
            self._solve(
                graph_file,
                tmp_path,
                ["--profile", str(collapsed), "--report", str(report)],
            )
            == 0
        )
        capsys.readouterr()
        rc = main(["report", "flame", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()
        assert all(ln.startswith("span:") for ln in out.splitlines())

    def test_report_flame_out_file(self, graph_file, tmp_path, capsys):
        collapsed = tmp_path / "run.collapsed"
        report = tmp_path / "run.json"
        self._solve(
            graph_file,
            tmp_path,
            ["--profile", str(collapsed), "--report", str(report)],
        )
        capsys.readouterr()
        dest = tmp_path / "flame.collapsed"
        rc = main(["report", "flame", str(report), "--out", str(dest)])
        assert rc == 0
        assert "written to" in capsys.readouterr().out
        assert dest.read_text().splitlines()

    def test_report_flame_without_profile_errors(
        self, graph_file, tmp_path, capsys
    ):
        report = tmp_path / "plain.json"
        self._solve(graph_file, tmp_path, ["--report", str(report)])
        capsys.readouterr()
        rc = main(["report", "flame", str(report)])
        assert rc == 2
        assert "no profile section" in capsys.readouterr().err

    def test_report_show_includes_latency_and_profile(
        self, graph_file, tmp_path, capsys
    ):
        collapsed = tmp_path / "run.collapsed"
        report = tmp_path / "run.json"
        self._solve(
            graph_file,
            tmp_path,
            ["--profile", str(collapsed), "--report", str(report)],
        )
        capsys.readouterr()
        rc = main(["report", "show", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency (dp+repair): p50" in out
        assert "profile:" in out
        assert "span shares:" in out
