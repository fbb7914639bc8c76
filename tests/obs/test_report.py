"""Tests for report rendering, diffing, and the ``repro report`` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.telemetry import MemberRecord, Telemetry
from repro.obs.report import (
    ReportDiff,
    StageDelta,
    diff_reports,
    load_report,
    render_report,
)


def make_report(dp_seconds=0.05, cost=9.0, extra_stage=None):
    tel = Telemetry("batch")
    tel.root.add("trees", 0.02)
    tel.root.add("dp", dp_seconds, count=2)
    tel.root.add("repair", 0.004)
    if extra_stage:
        tel.root.add(extra_stage, 0.01)
    tel.record_member(
        MemberRecord(index=0, method="spectral", dp_cost=10.0, mapped_cost=cost)
    )
    return tel.report(cost=cost, run_id="0123abcd4567")


class TestRender:
    def test_show_contains_key_facts(self):
        text = render_report(make_report())
        assert "cost=9" in text
        assert "run_id=0123abcd4567" in text
        assert "dp" in text
        assert "winner: member 0 (spectral)" in text

    def test_self_time_uses_child_sum(self):
        tel = Telemetry("run")
        dp = tel.root.add("dp", 0.1)
        dp.add("merge", 0.06)
        text = render_report(tel.report())
        # dp total 100 ms, self 100-60 = 40 ms.
        assert "40.00 ms" in text

    def test_cpu_column_from_span_tree(self):
        tel = Telemetry("run")
        tel.root.add("dp", 0.1, cpu_seconds=0.075)
        text = render_report(tel.report())
        assert "spans (total / self / cpu / entries):" in text
        assert "cpu     75.00 ms  (1x)" in text


class TestStageDelta:
    def test_delta_pct(self):
        assert StageDelta("dp", 1.0, 1.1).delta_pct == pytest.approx(10.0)
        assert StageDelta("dp", None, 1.0).delta_pct is None
        assert StageDelta("dp", 1.0, None).delta_pct is None
        assert StageDelta("dp", 0.0, 1.0).delta_pct is None

    def test_exceeds_threshold(self):
        assert StageDelta("dp", 1.0, 1.2).exceeds(10.0)
        assert not StageDelta("dp", 1.0, 1.05).exceeds(10.0)
        # Improvements never gate.
        assert not StageDelta("dp", 1.0, 0.5).exceeds(10.0)

    def test_new_stage_gates_above_floor(self):
        assert StageDelta("mystery", None, 0.5).exceeds(100.0)
        assert not StageDelta("mystery", None, 0.0).exceeds(0.0)

    def test_vanished_stage_never_gates(self):
        assert not StageDelta("gone", 1.0, None).exceeds(0.0)


class TestDiffReports:
    def test_identical_reports_clean(self):
        r = make_report()
        diff = diff_reports(r, r)
        assert diff.regressions(0.0) == []
        assert diff.cost_delta_pct == pytest.approx(0.0)

    def test_dp_time_regression_detected(self):
        diff = diff_reports(make_report(dp_seconds=0.05), make_report(dp_seconds=0.055))
        assert diff.regressions(5.0) == ["dp"]
        assert diff.regressions(15.0) == []

    def test_cost_regression_listed_first(self):
        diff = diff_reports(
            make_report(dp_seconds=0.05, cost=9.0),
            make_report(dp_seconds=0.06, cost=10.0),
        )
        assert diff.regressions(5.0) == ["cost", "dp"]

    def test_new_stage_appended_and_gated(self):
        diff = diff_reports(make_report(), make_report(extra_stage="embed"))
        assert [s.name for s in diff.stages] == ["trees", "dp", "repair", "embed"]
        assert "embed" in diff.regressions(1000.0)

    def test_render_flags_regressions(self):
        diff = diff_reports(make_report(dp_seconds=0.05), make_report(dp_seconds=0.06))
        text = diff.render(5.0)
        assert "<< REGRESSION" in text
        assert "dp" in text

    def test_cost_delta_undefined_cases(self):
        assert ReportDiff(None, 1.0).cost_delta_pct is None
        assert ReportDiff(0.0, 1.0).cost_delta_pct is None


class TestReportCli:
    @pytest.fixture
    def report_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(make_report().to_json() + "\n")
        return path

    @pytest.mark.parametrize("command", ["show", "trace", "flame", "diff"])
    @pytest.mark.parametrize(
        "content", ["not json", "[]", '{"path": "x"}'], ids=["text", "list", "no-spans"]
    )
    def test_broken_report_is_an_input_error(
        self, report_file, tmp_path, capsys, command, content
    ):
        """A broken file exits 2 naming it; a broken ``diff`` baseline is
        not a regression (exit 1)."""
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        argv = {
            "show": ["show", str(bad)],
            "trace": ["trace", str(bad), "--out", str(tmp_path / "t.json")],
            "flame": ["flame", str(bad)],
            "diff": ["diff", str(bad), str(report_file), "--fail-above", "5"],
        }[command]
        assert main(["report", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not a run report")
        assert "Traceback" not in err

    def test_show(self, report_file, capsys):
        assert main(["report", "show", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "winner" in out

    @pytest.mark.parametrize("members", [1, 300], ids=["flush-at-exit", "write-in-print"])
    def test_show_into_closed_pipe_exits_quietly(self, tmp_path, members):
        """``repro report show run.json | head`` once ``head`` has gone:
        exit 141 and nothing on stderr, whether the write fails inside
        ``print`` (a long report) or at the final flush (a short one)."""
        tel = Telemetry("batch")
        tel.root.add("dp", 0.05)
        for i in range(members):
            tel.record_member(
                MemberRecord(index=i, method="spectral", dp_cost=10.0, mapped_cost=9.0)
            )
        path = tmp_path / "run.json"
        path.write_text(tel.report(cost=9.0, run_id="0123abcd4567").to_json() + "\n")
        paths = (str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "report", "show", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
        assert proc.returncode == 141

    def test_show_missing_file(self, tmp_path, capsys):
        rc = main(["report", "show", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_trace_writes_loadable_json(self, report_file, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        assert main(["report", "trace", str(report_file), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        x_events = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert x_events
        assert all("ts" in e and "dur" in e for e in x_events)

    def test_diff_self_passes_threshold(self, report_file, capsys):
        rc = main(
            [
                "report",
                "diff",
                str(report_file),
                str(report_file),
                "--fail-above",
                "5",
            ]
        )
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_diff_doctored_dp_time_fails(self, report_file, tmp_path, capsys):
        """+10% dp seconds against --fail-above 5 must exit non-zero."""
        doctored = json.loads(report_file.read_text())
        for child in doctored["spans"]["children"]:
            if child["name"] == "dp":
                child["seconds"] *= 1.10
        doctored_file = tmp_path / "doctored.json"
        doctored_file.write_text(json.dumps(doctored))
        rc = main(
            [
                "report",
                "diff",
                str(report_file),
                str(doctored_file),
                "--fail-above",
                "5",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "<< REGRESSION" in captured.out
        assert "dp" in captured.err

    def test_diff_without_threshold_informational(self, report_file, tmp_path, capsys):
        doctored = json.loads(report_file.read_text())
        for child in doctored["spans"]["children"]:
            child["seconds"] *= 3.0
        doctored_file = tmp_path / "doctored.json"
        doctored_file.write_text(json.dumps(doctored))
        rc = main(["report", "diff", str(report_file), str(doctored_file)])
        assert rc == 0  # no --fail-above: never gates


class TestSolveCliFlags:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from repro.graph.generators import planted_partition
        from repro.graph.io import write_edgelist

        g = planted_partition(2, 6, 0.8, 0.1, seed=1)
        path = tmp_path / "g.edges"
        write_edgelist(path, g)
        return path

    def _solve_args(self, graph_file):
        return [
            "solve",
            "--graph",
            str(graph_file),
            "--degrees",
            "2,2",
            "--cm",
            "5,1,0",
            "--n-trees",
            "2",
            "--quiet",
        ]

    @pytest.mark.parametrize(
        "flag", [["--verbose"], ["--log-json", "x.jsonl"]], ids=["verbose", "log-json"]
    )
    def test_event_log_flags_are_argparse_errors(self, graph_file, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self._solve_args(graph_file) + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_default_output_unchanged(self, graph_file, capsys):
        rc = main(self._solve_args(graph_file))
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "cost=" in captured.out

    def test_end_to_end_solve_then_trace(self, graph_file, tmp_path, capsys):
        """The acceptance sequence: solve --report, then report trace."""
        report = tmp_path / "run.json"
        rc = main(self._solve_args(graph_file) + ["--report", str(report)])
        assert rc == 0
        trace = tmp_path / "run.trace.json"
        assert main(["report", "trace", str(report), "--out", str(trace)]) == 0
        data = json.loads(trace.read_text())
        assert data["otherData"]["run_id"] == load_report(report).meta["run_id"]
