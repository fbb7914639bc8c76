"""Unit tests for the structured telemetry layer (spans, records, reports)."""

import time

import pytest

from repro.core.telemetry import (
    MemberRecord,
    RunReport,
    Span,
    Telemetry,
    add_span_observer,
    remove_span_observer,
)


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
        tel.add_seconds("dp", 1.5, count=2)
        tel.add_seconds("dp", 0.5, count=1)
        dp = tel.root.child("dp")
        assert dp.seconds == pytest.approx(2.0)
        assert dp.count == 3

    def test_find_spans_includes_root(self):
        tel = Telemetry("dp")
        with tel.span("dp"):
            pass
        assert len(tel.find_spans("dp")) == 2


class TestSerialization:
    def test_span_round_trip(self):
        root = Span("run")
        child = root.add("dp", 1.25, count=3)
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
        )
        assert MemberRecord.from_dict(rec.to_dict()) == rec

    def test_run_report_json_round_trip(self):
        tel = Telemetry("batch")
        with tel.span("trees"):
            tel.counter("n_trees", 4)
        tel.add_seconds("dp", 0.75, count=4)
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


class TestSpanObservers:
    @pytest.fixture
    def observe(self):
        """Register process-wide observers, removed again after the test."""
        added = []

        def add(observer):
            add_span_observer(observer)
            added.append(observer)
            return observer

        yield add
        for observer in added:
            remove_span_observer(observer)

    def test_enter_exit_events_fire(self, observe):
        tel = Telemetry("x")
        events = []
        observe(lambda ev, name, s: events.append((ev, name, s)))
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        assert [(e, n) for e, n, _s in events] == [
            ("enter", "outer"),
            ("enter", "inner"),
            ("exit", "inner"),
            ("exit", "outer"),
        ]
        assert events[0][2] == 0.0  # enter carries no duration
        assert events[3][2] >= events[2][2] >= 0.0

    def test_remove_observer(self):
        tel = Telemetry("x")
        events = []
        obs = lambda ev, name, s: events.append(ev)  # noqa: E731
        add_span_observer(obs)
        remove_span_observer(obs)
        with tel.span("a"):
            pass
        assert events == []

    def test_observer_exceptions_swallowed(self, observe):
        tel = Telemetry("x")

        def bad(ev, name, s):
            raise RuntimeError("observer bug")

        observe(bad)
        with tel.span("a"):  # must not raise
            pass
        assert tel.root.child("a").count == 1

    def test_span_timing_survives_observer(self, observe):
        tel = Telemetry("x")
        observe(lambda *a: None)
        with tel.span("a"):
            time.sleep(0.01)
        assert tel.root.child("a").seconds >= 0.005


class TestSchemaV3:
    def test_version_is_3(self):
        assert RunReport.SCHEMA_VERSION == 3

    def test_profile_roundtrips(self):
        report = Telemetry("x").report(cost=1.0)
        report.profile = {"samples": 5, "span_shares": {"dp": 1.0}}
        again = RunReport.from_json(report.to_json())
        assert again.profile == {"samples": 5, "span_shares": {"dp": 1.0}}

    def test_profile_defaults_none(self):
        report = Telemetry("x").report()
        assert report.profile is None
        assert RunReport.from_json(report.to_json()).profile is None

