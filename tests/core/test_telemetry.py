"""Unit tests for the structured telemetry layer (spans, records, reports)."""

import json
import math
import re
import threading
import time

import pytest

from repro.core.telemetry import (
    MemberRecord,
    RunReport,
    Span,
    Telemetry,
)


def _busy(seconds: float) -> float:
    """Burn CPU on the calling thread for roughly ``seconds``."""
    deadline = time.perf_counter() + seconds
    acc = 0.0
    while time.perf_counter() < deadline:
        acc += math.sqrt(acc + 1.0)
    return acc


class TestSpans:
    def test_nested_spans_accumulate(self):
        tel = Telemetry("run")
        for _ in range(3):
            with tel.span("outer"):
                with tel.span("inner"):
                    time.sleep(0.001)
        outer = tel.root.child("outer")
        inner = outer.child("inner")
        assert outer.count == 3
        assert inner.count == 3
        assert inner.seconds >= 0.003
        # inner time is contained in outer time
        assert outer.seconds >= inner.seconds
        # re-entry reuses the same node: exactly one child each
        assert len(tel.root.children) == 1
        assert len(outer.children) == 1

    def test_same_name_different_parents_are_distinct(self):
        tel = Telemetry("run")
        with tel.span("a"):
            with tel.span("x"):
                pass
        with tel.span("b"):
            with tel.span("x"):
                pass
        xs = tel.root.find_all("x")
        assert len(xs) == 2
        assert tel.root.lookup("x") is xs[0]
        # find_all/lookup are views over the same pre-order traversal.
        assert list(tel.root.iter_named("x")) == xs

    def test_lookup_missing_returns_none(self):
        tel = Telemetry("run")
        with tel.span("a"):
            pass
        assert tel.root.lookup("nope") is None
        assert tel.root.find_all("nope") == []

    def test_total_child_seconds_direct_children_only(self):
        root = Span("run")
        a = root.add("a", 1.0)
        a.add("a1", 10.0)  # grandchild: not counted at root
        root.add("b", 2.5)
        assert root.total_child_seconds() == pytest.approx(3.5)
        assert a.total_child_seconds() == pytest.approx(10.0)
        assert Span("leaf").total_child_seconds() == 0.0

    def test_current_tracks_innermost(self):
        tel = Telemetry("run")
        assert tel.current is tel.root
        with tel.span("a"):
            assert tel.current.name == "a"
            with tel.span("b"):
                assert tel.current.name == "b"
            assert tel.current.name == "a"
        assert tel.current is tel.root

    def test_counters_attach_to_current_span(self):
        tel = Telemetry("run")
        with tel.span("a"):
            tel.counter("hits")
            tel.counter("hits", 2.0)
        assert tel.root.child("a").counters["hits"] == pytest.approx(3.0)
        assert tel.root.counters == {}

    def test_add_seconds_folds_external_time(self):
        tel = Telemetry("run")
        tel.root.add("dp", 1.5, count=2)
        tel.root.add("dp", 0.5, count=1)
        dp = tel.root.child("dp")
        assert dp.seconds == pytest.approx(2.0)
        assert dp.count == 3

    def test_merge_accumulates_by_name(self):
        """Wall and CPU seconds, counts and counters add up by name,
        recursively."""
        run = Span("run")
        run.add("trees", 1.0)
        first = Span("member")
        dp = first.add("dp", 0.5, cpu_seconds=0.375)
        dp.counters["states"] = 3.0
        dp.add("merge", 0.25)
        first.add("repair", 0.125)
        second = Span("member")
        repair = second.add("repair", 0.25)  # entered before dp here
        repair.counters["moves"] = 2.0
        dp = second.add("dp", 1.0, count=2, cpu_seconds=0.75)
        dp.counters["states"] = 4.0
        dp.add("merge", 0.5)
        dp.add("prune", 0.125)

        run.merge(first)
        run.merge(second)

        # First-entry order: names new to ``run`` append in merge order.
        assert [c.name for c in run.children] == ["trees", "dp", "repair"]
        dp = run.child("dp")
        assert dp.seconds == pytest.approx(1.5)
        assert dp.cpu_seconds == pytest.approx(1.125)
        assert dp.count == 3
        assert dp.counters == {"states": 7.0}
        assert [c.name for c in dp.children] == ["merge", "prune"]
        assert dp.child("merge").seconds == pytest.approx(0.75)
        assert dp.child("merge").count == 2
        assert dp.child("prune").count == 1
        repair = run.child("repair")
        assert repair.seconds == pytest.approx(0.375)
        assert repair.count == 2
        assert repair.counters == {"moves": 2.0}
        # Only children merge: the receiving span's own totals and the
        # merged trees are untouched.
        assert run.seconds == 0.0 and run.count == 0
        assert first.child("dp").seconds == pytest.approx(0.5)
        assert first.child("dp").counters == {"states": 3.0}

    def test_span_records_thread_cpu(self):
        tel = Telemetry("run")
        with tel.span("busy"):
            _busy(0.1)
        busy = tel.root.child("busy")
        assert busy.cpu_seconds > 0.02
        assert busy.cpu_seconds <= busy.seconds + 1e-3

    def test_cpu_excludes_other_threads(self):
        """A span's CPU is its own thread's: another thread burning CPU
        meanwhile is not charged to it (``process_time`` would be)."""
        tel = Telemetry("run")
        burner = threading.Thread(target=_busy, args=(0.2,))
        with tel.span("wait"):
            burner.start()
            burner.join()
        wait = tel.root.child("wait")
        assert wait.seconds > 0.15
        assert wait.cpu_seconds < 0.05

    def test_find_spans_includes_root(self):
        tel = Telemetry("dp")
        with tel.span("dp"):
            pass
        assert len(tel.find_spans("dp")) == 2


class TestRunId:
    def test_each_collector_owns_a_12_hex_id(self):
        a, b = Telemetry("batch"), Telemetry("batch")
        for tel in (a, b):
            assert re.fullmatch(r"[0-9a-f]{12}", tel.run_id)
        assert a.run_id != b.run_id


class TestSerialization:
    def test_span_round_trip(self):
        root = Span("run")
        child = root.add("dp", 1.25, count=3, cpu_seconds=1.0)
        child.counters["states"] = 7.0
        child.add("merge", 0.5)
        again = Span.from_dict(root.to_dict())
        assert again.to_dict() == root.to_dict()

    def test_member_record_round_trip(self):
        rec = MemberRecord(
            index=3,
            method="spectral",
            dp_cost=12.5,
            mapped_cost=10.0,
            dp_seconds=0.5,
            repair_seconds=0.1,
            beam_escalations=1,
            dp_nodes=9,
            dp_states_total=100,
            dp_states_max=40,
            dp_merges=200,
            pid=4321,
        )
        assert MemberRecord.from_dict(rec.to_dict()) == rec

    def test_run_report_json_round_trip(self):
        tel = Telemetry("batch")
        with tel.span("trees"):
            tel.counter("n_trees", 4)
        tel.root.add("dp", 0.75, count=4)
        tel.record_member(MemberRecord(index=0, method="frt", dp_cost=3.0))
        report = tel.report(config={"n_trees": 4}, cost=2.5, note="unit-test")
        again = RunReport.from_json(report.to_json())
        assert again.to_dict() == report.to_dict()
        assert again.path == "batch"
        assert again.cost == pytest.approx(2.5)
        assert again.config == {"n_trees": 4}
        assert again.meta == {"note": "unit-test"}
        assert len(again.members) == 1
        assert again.members[0].method == "frt"
        assert again.spans.child("dp").seconds == pytest.approx(0.75)

    def test_report_schema_version_serialized(self):
        report = Telemetry("x").report()
        assert report.to_dict()["schema_version"] == RunReport.SCHEMA_VERSION


class TestSchemaV4:
    def test_version_is_4(self):
        """Schema v5 (spans carry ``cpu_seconds``) still loads v4 reports."""
        assert RunReport.SCHEMA_VERSION == 5
        tel = Telemetry("x")
        tel.root.add("dp", 0.5, count=2, cpu_seconds=0.25)
        data = json.loads(tel.report().to_json())
        assert data["schema_version"] == 5
        assert data["spans"]["children"][0]["cpu_seconds"] == 0.25
        data["schema_version"] = 4
        for span in (data["spans"], *data["spans"]["children"]):
            del span["cpu_seconds"]
        spans = RunReport.from_json(json.dumps(data)).spans
        assert spans.cpu_seconds == 0.0
        assert spans.child("dp").cpu_seconds == 0.0
        assert spans.child("dp").seconds == pytest.approx(0.5)

    def test_pre_v4_members_load_with_pid_0(self):
        """Reports written before ``members[].pid`` existed still load."""
        tel = Telemetry("x")
        tel.record_member(MemberRecord(index=0, method="frt", pid=99))
        data = json.loads(tel.report().to_json())
        data["schema_version"] = 3
        del data["members"][0]["pid"]
        (member,) = RunReport.from_json(json.dumps(data)).members
        assert member.pid == 0
        assert member.method == "frt"


class TestSchemaV3:
    def test_profile_roundtrips(self):
        report = Telemetry("x").report(cost=1.0)
        report.profile = {"samples": 5, "span_shares": {"dp": 1.0}}
        again = RunReport.from_json(report.to_json())
        assert again.profile == {"samples": 5, "span_shares": {"dp": 1.0}}

    def test_profile_defaults_none(self):
        report = Telemetry("x").report()
        assert report.profile is None
        assert RunReport.from_json(report.to_json()).profile is None



class TestEngineSpans:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_stage_spans_carry_cpu(self, clustered_instance, n_jobs):
        """Every stage span of an engine run, pool members' ``dp`` and
        ``repair`` included, carries the CPU of the thread that ran it."""
        from repro.core.config import SolverConfig
        from repro.core.solver import solve_hgp

        g, h, d = clustered_instance
        report = solve_hgp(g, h, d, SolverConfig(n_jobs=n_jobs)).report()
        data = json.loads(report.to_json())
        assert data["schema_version"] == 5
        stages = {c["name"]: c for c in data["spans"]["children"]}
        for name in ("trees", "dp", "repair", "refine"):
            assert stages[name]["cpu_seconds"] > 0, name
        assert stages["dp"]["count"] == stages["repair"]["count"] == 8
