"""Tests for Chrome trace-event export (Perfetto compatibility)."""

import json
import os

import pytest

from repro.core.telemetry import MemberRecord, Telemetry
from repro.obs.trace import report_to_trace, write_trace


@pytest.fixture
def report():
    """A realistic report: stage skeleton + two members + counters."""
    tel = Telemetry("batch")
    with tel.span("trees"):
        tel.counter("n_trees", 2)
    tel.root.add("quantize", 0.001)
    tel.root.add("dp", 0.05, count=2, cpu_seconds=0.04)
    tel.root.add("repair", 0.004, count=2)
    tel.root.add("refine", 0.01)
    tel.record_member(
        MemberRecord(
            index=0,
            method="spectral",
            dp_cost=10.0,
            mapped_cost=9.0,
            dp_seconds=0.03,
            repair_seconds=0.002,
            dp_states_max=40,
            pid=4242,
        )
    )
    tel.record_member(
        MemberRecord(
            index=1,
            method="frt",
            dp_cost=11.0,
            mapped_cost=10.5,
            dp_seconds=0.02,
            repair_seconds=0.002,
            pid=4343,
        )
    )
    return tel.report(config={"n_jobs": 2}, cost=9.0, run_id="feedc0ffee12")


def member_lanes(trace):
    """Member-lane tid -> (lane name, member events in timeline order)."""
    names = {
        e["tid"]: e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name" and e["tid"] > 0
    }
    return {
        tid: (
            name,
            [e for e in trace["traceEvents"] if e["ph"] == "X" and e["tid"] == tid],
        )
        for tid, name in names.items()
    }


class TestTraceStructure:
    def test_json_serialisable_and_loadable(self, report, tmp_path):
        out = write_trace(report, tmp_path / "run.trace.json")
        data = json.loads(out.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["displayTimeUnit"] == "ms"
        assert data["otherData"]["cost"] == 9.0
        assert data["otherData"]["run_id"] == "feedc0ffee12"

    def test_duration_events_have_required_keys(self, report):
        trace = report_to_trace(report)
        x_events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert x_events, "no complete events emitted"
        for e in x_events:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= e.keys()
            assert e["ts"] >= 0.0
            assert e["dur"] >= 0.0

    def test_only_known_phases(self, report):
        trace = report_to_trace(report)
        assert {e["ph"] for e in trace["traceEvents"]} <= {"X", "M"}

    def test_metadata_names_lanes(self, report):
        trace = report_to_trace(report)
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {
            (e["name"], e["tid"]): e["args"]["name"] for e in meta
        }
        assert names[("thread_name", 0)] == "engine"
        assert names[("thread_name", 1)] == "pid 4242"
        assert names[("thread_name", 2)] == "pid 4343"
        assert "batch" in names[("process_name", 0)]

    def test_timestamps_monotone_per_lane(self, report):
        trace = report_to_trace(report)
        by_tid = {}
        for e in trace["traceEvents"]:
            if e["ph"] == "X":
                by_tid.setdefault(e["tid"], []).append(e["ts"])
        for tid, stamps in by_tid.items():
            assert stamps == sorted(stamps), f"lane {tid} not monotone"

    def test_events_sorted_by_lane_then_time(self, report):
        trace = report_to_trace(report)
        keys = [
            (e["tid"], e["ts"]) for e in trace["traceEvents"] if e["ph"] == "X"
        ]
        assert keys == sorted(keys)


class TestWorkerLanes:
    def test_one_lane_per_pid(self):
        """Lanes come from the records' pids, in first-seen order; a
        lane's members run back-to-back in index order from the dp stage."""
        tel = Telemetry("batch")
        tel.root.add("trees", 0.5)
        tel.root.add("dp", 0.09, count=3)
        for index, pid in enumerate((7, 9, 7)):
            tel.record_member(
                MemberRecord(
                    index=index, dp_seconds=0.01 * (index + 1),
                    repair_seconds=0.001, pid=pid,
                )
            )
        trace = report_to_trace(tel.report(config={"n_jobs": 1}))
        lanes = member_lanes(trace)
        assert {tid: name for tid, (name, _) in lanes.items()} == {
            1: "pid 7",
            2: "pid 9",
        }
        dp_start = 0.5e6  # the dp span follows trees on the engine lane
        _, lane7 = lanes[1]
        assert [e["name"] for e in lane7] == [
            "dp[0]", "repair[0]", "dp[2]", "repair[2]",
        ]
        assert lane7[0]["ts"] == pytest.approx(dp_start)
        for prev, nxt in zip(lane7, lane7[1:]):
            assert nxt["ts"] == pytest.approx(prev["ts"] + prev["dur"])
        _, lane9 = lanes[2]
        assert [e["name"] for e in lane9] == ["dp[1]", "repair[1]"]
        assert lane9[0]["ts"] == pytest.approx(dp_start)

    def test_member_args_carry_dp_stats(self, report):
        trace = report_to_trace(report)
        dp0 = next(
            e for e in trace["traceEvents"] if e.get("name") == "dp[0]"
        )
        assert dp0["args"]["method"] == "spectral"
        assert dp0["args"]["dp_states_max"] == 40
        assert dp0["dur"] == pytest.approx(0.03 * 1e6)

    def test_span_args_carry_cpu_seconds(self, report):
        trace = report_to_trace(report)
        dp = next(
            e for e in trace["traceEvents"] if e.get("name") == "dp" and e["tid"] == 0
        )
        assert dp["args"]["cpu_seconds"] == pytest.approx(0.04)
        assert dp["args"]["count"] == 2

    def test_members_start_inside_dp_stage(self, report):
        trace = report_to_trace(report)
        events = trace["traceEvents"]
        dp_stage = next(
            e for e in events if e.get("name") == "dp" and e["tid"] == 0
        )
        for e in events:
            if e["ph"] == "X" and e["tid"] > 0:
                assert e["ts"] >= dp_stage["ts"] - 1e-9


class TestMultilevelTrace:
    """The coarsen–solve–refine front-end must export cleanly: its stage
    spans nest, the engine skeleton sits under coarse_solve, and pool
    members still get worker lanes."""

    @pytest.fixture(scope="class")
    def ml_report(self, request):
        import numpy as np

        from repro.core.config import MultilevelConfig, SolverConfig
        from repro.graph import planted_partition, random_demands
        from repro.hierarchy.hierarchy import Hierarchy
        from repro.multilevel.frontend import solve_multilevel

        h = Hierarchy([2, 4], [10.0, 3.0, 0.0])
        g = planted_partition(4, 6, 0.9, 0.05, seed=11)
        d = random_demands(g.n, h.total_capacity, fill=0.6, skew=0.3, seed=12)
        cfg = SolverConfig(
            n_trees=2,
            n_jobs=2,
            refine=False,
            seed=3,
            multilevel=MultilevelConfig(enabled=True, coarsen_to=12),
        )
        result = solve_multilevel(g, h, np.asarray(d), cfg)
        return result.report()

    def test_frontend_stage_events_present(self, ml_report):
        trace = report_to_trace(ml_report)
        names = {
            e["name"] for e in trace["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 0
        }
        assert {"coarsen", "coarse_solve", "uncoarsen"} <= names
        assert any(n.startswith("level_") for n in names)

    def test_engine_skeleton_nests_under_coarse_solve(self, ml_report):
        trace = report_to_trace(ml_report)
        engine = {
            e["name"]: e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 0
        }
        cs = engine["coarse_solve"]
        for stage in ("trees", "dp"):
            assert stage in engine, f"engine stage {stage} missing from trace"
            ev = engine[stage]
            assert ev["ts"] >= cs["ts"] - 1e-9
            assert ev["ts"] + ev["dur"] <= cs["ts"] + cs["dur"] + 1e-9

    def test_level_spans_nest_under_uncoarsen(self, ml_report):
        trace = report_to_trace(ml_report)
        lane0 = {
            e["name"]: e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 0
        }
        un = lane0["uncoarsen"]
        levels = [e for n, e in lane0.items() if n.startswith("level_")]
        assert levels
        for ev in levels:
            assert ev["ts"] >= un["ts"] - 1e-9
            assert ev["ts"] + ev["dur"] <= un["ts"] + un["dur"] + 1e-9

    def test_pool_members_get_worker_lanes(self, ml_report):
        trace = report_to_trace(ml_report)
        worker_events = [
            e for e in trace["traceEvents"] if e["ph"] == "X" and e["tid"] > 0
        ]
        # Which of the two workers picks up each member is up to the pool:
        # one lane per worker pid that solved something.
        pids = {m.pid for m in ml_report.members}
        assert os.getpid() not in pids
        assert {e["tid"] for e in worker_events} == set(range(1, len(pids) + 1))
        assert {e["name"] for e in worker_events} >= {"dp[0]", "dp[1]"}

    def test_roundtrips_through_disk(self, ml_report, tmp_path):
        out = write_trace(ml_report, tmp_path / "ml.trace.json")
        data = json.loads(out.read_text())
        assert data["otherData"]["cost"] == pytest.approx(ml_report.cost)
        assert any(
            e.get("name") == "coarse_solve" for e in data["traceEvents"]
        )


class TestDegenerateReports:
    def test_memberless_report_has_engine_lane_only(self):
        tel = Telemetry("empty")
        tel.root.add("dp", 0.01)
        trace = report_to_trace(tel.report())
        tids = {e["tid"] for e in trace["traceEvents"]}
        assert tids == {0}

    def test_zero_duration_spans_allowed(self):
        tel = Telemetry("zero")
        with tel.span("trees"):
            pass
        trace = report_to_trace(tel.report())
        x = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] >= 0.0 for e in x)

    def test_parent_stretches_over_children(self):
        """Summed child time exceeding the parent's own span is covered."""
        tel = Telemetry("run")
        root_child = tel.root.add("dp", 0.01)
        root_child.add("merge", 0.04)
        root_child.add("merge2", 0.03)
        trace = report_to_trace(tel.report())
        dp = next(e for e in trace["traceEvents"] if e.get("name") == "dp")
        assert dp["dur"] == pytest.approx((0.04 + 0.03) * 1e6)


class TestMemberPids:
    """Each member record names the process that solved it, and the
    trace draws one lane per such process."""

    def test_serial_members_carry_own_pid(self, clustered_instance):
        from repro.core.config import SolverConfig
        from repro.core.engine import run_pipeline

        g, h, d = clustered_instance
        result = run_pipeline(g, h, d, SolverConfig(n_trees=2, refine=False, seed=0))
        assert [m.pid for m in result.telemetry.members] == [os.getpid()] * 2
        lanes = member_lanes(report_to_trace(result.report()))
        assert [name for name, _ in lanes.values()] == [f"pid {os.getpid()}"]

    def test_pool_members_carry_worker_pids(self, clustered_instance):
        from repro.core.config import SolverConfig
        from repro.core.engine import run_pipeline

        g, h, d = clustered_instance
        result = run_pipeline(
            g, h, d, SolverConfig(n_trees=4, refine=False, seed=0, n_jobs=2)
        )
        pid_of = {m.index: m.pid for m in result.telemetry.members}
        assert len(pid_of) == 4
        assert os.getpid() not in pid_of.values()
        lanes = member_lanes(report_to_trace(result.report()))
        assert sorted(name for name, _ in lanes.values()) == sorted(
            f"pid {pid}" for pid in set(pid_of.values())
        )
        for name, events in lanes.values():
            assert events
            for e in events:
                assert name == f"pid {pid_of[e['args']['member']]}"
