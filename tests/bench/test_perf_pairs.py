"""Tests for the paired speed verdict tool (tools/perf_pairs.py)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOLS / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestVerdict:
    def test_nine_of_ten_wins_past_the_iqr_is_a_gain(self, perf_pairs):
        base = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
        change = [b - 0.3 for b in base[:9]] + [base[9] + 0.01]
        v = perf_pairs.verdict(base, change, "lower", 0.25)
        assert (v["wins"], v["losses"], v["pairs"]) == (9, 1, 10)
        assert v["gain"] and not v["worse"]

    def test_eight_wins_are_not_enough(self, perf_pairs):
        base = [1.0] * 10
        change = [0.5] * 8 + [1.5] * 2
        v = perf_pairs.verdict(base, change, "lower", 0.25)
        assert v["wins"] == 8 and not v["gain"]

    def test_gap_must_exceed_the_base_iqr(self, perf_pairs):
        # Every pair wins by 0.05, but the base's IQR is 0.2.
        base = [0.8, 0.9, 1.0, 1.1, 1.2, 0.8, 0.9, 1.0, 1.1, 1.2]
        change = [b - 0.05 for b in base]
        v = perf_pairs.verdict(base, change, "lower", 0.25)
        assert v["wins"] == 10
        q1, _, q3 = perf_pairs.quartiles(base)
        assert q3 - q1 == pytest.approx(0.2)
        assert not v["gain"]

    def test_ties_count_for_neither_side(self, perf_pairs):
        v = perf_pairs.verdict([2.0] * 10, [2.0] * 10, "lower", 0.25)
        assert (v["wins"], v["losses"]) == (0, 0)
        assert not v["gain"] and not v["worse"]

    def test_direction_comes_from_better(self, perf_pairs):
        base = [1.0] * 10
        change = [2.0] * 10
        higher = perf_pairs.verdict(base, change, "higher", 0.25)
        lower = perf_pairs.verdict(base, change, "lower", 0.25)
        assert higher["wins"] == 10 and higher["gain"] and not higher["worse"]
        assert lower["losses"] == 10 and not lower["gain"] and lower["worse"]

    def test_worse_only_past_the_bound(self, perf_pairs):
        base = [1.0] * 5
        assert not perf_pairs.verdict(base, [1.2] * 5, "lower", 0.25)["worse"]
        assert perf_pairs.verdict(base, [1.3] * 5, "lower", 0.25)["worse"]
        assert perf_pairs.verdict(base, [0.7] * 5, "higher", 0.25)["worse"]
        # A zero base median (no violation at all) flags any worsening.
        assert perf_pairs.verdict([0.0] * 5, [0.1] * 5, "lower", 0.25)["worse"]

    def test_wide_spread_is_unresolved(self, perf_pairs):
        # Base IQR 0.5 on a median of 1.0, past the 25% bound; the change
        # reads the same median and sits inside the base's range.
        base = [0.5, 0.75, 1.0, 1.25, 1.5]
        change = [0.6, 0.8, 1.0, 1.2, 1.4]
        v = perf_pairs.verdict(base, change, "lower", 0.25)
        assert v["unresolved"] and not v["worse"] and not v["gain"]

    def test_wide_spread_all_change_runs_better_is_resolved(self, perf_pairs):
        base = [1.0, 1.25, 1.5, 1.75, 2.0]
        change = [0.5, 0.6, 0.7, 0.8, 0.9]
        assert not perf_pairs.verdict(base, change, "lower", 0.25)["unresolved"]

    def test_equal_on_every_seed_is_resolved(self, perf_pairs):
        base = [0.5, 0.75, 1.0, 1.25, 1.5]
        assert not perf_pairs.verdict(base, list(base), "lower", 0.25)["unresolved"]

    def test_spread_inside_the_bound_is_resolved(self, perf_pairs):
        base = [0.95, 0.98, 1.0, 1.02, 1.05]
        change = [1.0, 1.01, 1.02, 0.97, 0.99]
        v = perf_pairs.verdict(base, change, "lower", 0.25)
        assert not v["unresolved"] and not v["worse"]

    def test_report_names_unresolved_metrics(self, perf_pairs):
        spec = {"end_to_end": [{"name": "latency_p50_s", "better": "lower", "bound": 0.25}]}
        base, change = [0.5, 0.75, 1.0, 1.25, 1.5], [0.6, 0.8, 1.0, 1.2, 1.4]
        results = {
            s: {"base": fake_result(b), "change": fake_result(c)}
            for s, (b, c) in enumerate(zip(base, change))
        }
        lines, bad = perf_pairs.report(spec, results)
        assert lines[1].endswith("unresolved (base IQR 50% > bound 25%)")
        assert lines[-1] == "verdict: nothing worse; unresolved: latency_p50_s"
        assert not bad

    def test_parse_seeds(self, perf_pairs):
        assert perf_pairs.parse_seeds("11-20") == list(range(11, 21))
        assert perf_pairs.parse_seeds("3") == [3]
        with pytest.raises(ValueError):
            perf_pairs.parse_seeds("5-4")


def fake_trace_result(spec, seed, side, failed=0):
    """Per-layer metrics as ``perfbench/run.py --trace 1`` reports them:
    ``decomposition.spectral_s`` halves on the change, the rest stay."""
    metrics = {m["name"]: {"value": 1.0 + seed / 100, "unit": m["unit"]} for m in spec["per_layer"]}
    if side == "change":
        metrics["decomposition.spectral_s"]["value"] /= 2
    metrics["decomposition.cache_hit_frac"]["value"] = 0.0
    return {"correct": not failed, "attempted": 5, "failed": failed, "metrics": metrics}


def fake_result(value, cost=10.0):
    names = ["ops_per_s", "latency_p50_s", "eq1_cost", "cap_violation", "peak_rss_mib", "setup_s"]
    metrics = {n: {"value": value, "unit": "x"} for n in names}
    metrics["eq1_cost"]["value"] = cost
    metrics["cap_violation"]["value"] = 1.0
    return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}


@pytest.fixture
def temp_repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    git("add", "BENCHMARK.json")
    git("commit", "-q", "-m", "base")
    return repo


def worktrees(repo):
    out = subprocess.run(
        ["git", "worktree", "list", "--porcelain"], cwd=repo, check=True,
        capture_output=True, text=True,
    ).stdout
    return [line for line in out.splitlines() if line.startswith("worktree ")]


class TestWorktree:
    def test_removed_when_the_runner_raises(self, perf_pairs, temp_repo, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        seen = []

        def broken(root, workload, seed, seconds, trace):
            seen.append(Path(root))
            assert (Path(root) / "BENCHMARK.json").is_file()
            raise RuntimeError("perfbench crashed")

        with pytest.raises(RuntimeError, match="crashed"):
            perf_pairs.main(
                ["--base", "HEAD", "--workload", "deep-churn", "--seeds", "1-2"],
                runner=broken, root=temp_repo,
            )
        assert seen and seen[0] != temp_repo  # seed 1: the base worktree first
        assert not seen[0].exists()
        assert len(worktrees(temp_repo)) == 1
        assert not list(tmp_path.glob("perf_pairs_*"))

    def test_alternates_and_reports(self, perf_pairs, temp_repo, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        order = []

        def runner(root, workload, seed, seconds, trace):
            assert trace == 0
            side = "change" if Path(root) == temp_repo else "base"
            order.append((seed, side))
            return fake_result(1.0 if side == "base" else 0.5)

        rc = perf_pairs.main(
            ["--base", "HEAD", "--workload", "deep-churn", "--seeds", "1-4"],
            runner=runner, root=temp_repo,
        )
        assert order == [
            (1, "base"), (1, "change"), (2, "change"), (2, "base"),
            (3, "base"), (3, "change"), (4, "change"), (4, "base"),
        ]
        out = capsys.readouterr().out
        # Halving every value: lower-is-better metrics gain, ops_per_s is
        # worse past its bound, so the run is flagged.
        assert "latency_p50_s" in out and "gain" in out and "WORSE" in out
        assert "eq1_cost equal on every seed: yes" in out
        assert "base: 0/20 ops failed, every run correct" in out
        assert rc == 1
        assert len(worktrees(temp_repo)) == 1

    def test_answer_drift_is_flagged(self, perf_pairs, temp_repo, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TMPDIR", str(tmp_path))

        def runner(root, workload, seed, seconds, trace):
            drift = seed == 2 and Path(root) == temp_repo
            return fake_result(1.0, cost=11.0 if drift else 10.0)

        rc = perf_pairs.main(
            ["--base", "HEAD", "--workload", "deep-churn", "--seeds", "1-3"],
            runner=runner, root=temp_repo,
        )
        assert "eq1_cost equal on every seed: NO (seeds 2)" in capsys.readouterr().out
        assert rc == 1


class TestTrace:
    def test_per_layer_medians_without_a_verdict(
        self, perf_pairs, temp_repo, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        spec = json.loads((temp_repo / "BENCHMARK.json").read_text())
        order = []

        def runner(root, workload, seed, seconds, trace):
            side = "change" if Path(root) == temp_repo else "base"
            order.append((seed, side, trace))
            return fake_trace_result(spec, seed, side)

        rc = perf_pairs.main(
            ["--base", "HEAD", "--workload", "flat-cold", "--seeds", "1-3", "--trace", "1"],
            runner=runner, root=temp_repo,
        )
        assert order == [
            (1, "base", 1), (1, "change", 1), (2, "change", 1), (2, "base", 1),
            (3, "base", 1), (3, "change", 1),
        ]
        out = capsys.readouterr().out
        assert "--trace 1" in out
        rows = {line.split()[0]: line for line in out.splitlines() if line.strip()}
        for m in spec["per_layer"]:
            assert m["name"] in rows
        # Base median 1.02 [1.015, 1.025], change median 0.51: -50%.
        spectral = rows["decomposition.spectral_s"].split()
        assert spectral[2:5] == ["1.02", "[1.015,", "1.025]"]
        assert spectral[5:] == ["0.51", "-50.0%"]
        assert rows["hgpt.dp.busy_s"].split()[-1] == "+0.0%"
        assert rows["decomposition.cache_hit_frac"].split()[-1] == "n/a"
        assert "base: 0/15 ops failed, every run correct" in out
        assert "change: 0/15 ops failed, every run correct" in out
        # Diagnostics only: no wins, no gain/WORSE flags, no verdict line.
        assert "gain" not in out and "WORSE" not in out and "verdict" not in out
        assert rc == 0
        assert len(worktrees(temp_repo)) == 1

    def test_a_failed_traced_run_is_flagged(
        self, perf_pairs, temp_repo, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        spec = json.loads((temp_repo / "BENCHMARK.json").read_text())

        def runner(root, workload, seed, seconds, trace):
            side = "change" if Path(root) == temp_repo else "base"
            return fake_trace_result(spec, seed, side, failed=int(side == "change" and seed == 2))

        rc = perf_pairs.main(
            ["--base", "HEAD", "--workload", "flat-cold", "--seeds", "1-2", "--trace", "1"],
            runner=runner, root=temp_repo,
        )
        assert "change: 1/10 ops failed, incorrect on seeds [2]" in capsys.readouterr().out
        assert rc == 1


class TestWorkloadList:
    def test_each_workload_in_turn_under_its_name(
        self, perf_pairs, temp_repo, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        order = []

        def runner(root, workload, seed, seconds, trace):
            side = "change" if Path(root) == temp_repo else "base"
            order.append((workload, seed, side))
            # Only serve-dup's change drifts on seed 2.
            drift = workload == "serve-dup" and seed == 2 and side == "change"
            return fake_result(1.0, cost=11.0 if drift else 10.0)

        rc = perf_pairs.main(
            ["--base", "HEAD", "--workload", "deep-churn, serve-dup", "--seeds", "1-2"],
            runner=runner, root=temp_repo,
        )
        assert order == [
            ("deep-churn", 1, "base"), ("deep-churn", 1, "change"),
            ("deep-churn", 2, "change"), ("deep-churn", 2, "base"),
            ("serve-dup", 1, "base"), ("serve-dup", 1, "change"),
            ("serve-dup", 2, "change"), ("serve-dup", 2, "base"),
        ]
        out = capsys.readouterr().out
        churn, dup = out.split("perf_pairs: serve-dup, seeds 1-2")
        assert churn.startswith("perf_pairs: deep-churn, seeds 1-2 (2 pairs")
        assert "eq1_cost equal on every seed: yes" in churn
        assert "verdict: nothing worse" in churn
        assert "eq1_cost equal on every seed: NO (seeds 2)" in dup
        assert "verdict: CHECK the flagged lines" in dup
        assert rc == 1  # one flagged workload flags the command
        assert len(worktrees(temp_repo)) == 1

    def test_traced_tables_under_each_name(
        self, perf_pairs, temp_repo, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        spec = json.loads((temp_repo / "BENCHMARK.json").read_text())

        def runner(root, workload, seed, seconds, trace):
            side = "change" if Path(root) == temp_repo else "base"
            return fake_trace_result(spec, seed, side)

        rc = perf_pairs.main(
            ["--base", "HEAD", "--workload", "flat-cold,large-multilevel", "--seeds", "1-2",
             "--trace", "1"],
            runner=runner, root=temp_repo,
        )
        out = capsys.readouterr().out
        flat, large = out.split("perf_pairs: large-multilevel")
        for section in (flat, large):
            assert "decomposition.spectral_s" in section
            assert "change: 0/10 ops failed, every run correct" in section
        assert flat.startswith("perf_pairs: flat-cold")
        assert rc == 0

    def test_an_empty_list_is_a_usage_error(self, perf_pairs, temp_repo, capsys):
        with pytest.raises(SystemExit) as exc:
            perf_pairs.main(
                ["--base", "HEAD", "--workload", " , ", "--seeds", "1-2"],
                runner=None, root=temp_repo,
            )
        assert exc.value.code == 2
        assert "names no workload" in capsys.readouterr().err
