"""Tests for structured logging and correlation-id propagation."""

import json
import os

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.engine import run_pipeline
from repro.obs.logging import (
    LEVELS,
    NULL_LOGGER,
    ListSink,
    StructuredLogger,
    human_sink,
    jsonl_sink,
    new_run_id,
)


class TestRunId:
    def test_format(self):
        rid = new_run_id()
        assert len(rid) == 12
        int(rid, 16)  # hex

    def test_unique(self):
        assert new_run_id() != new_run_id()


class TestStructuredLogger:
    def test_records_carry_required_fields(self):
        sink = ListSink()
        logger = StructuredLogger([sink], run_id="abc123")
        logger.info("hello", n=3)
        (rec,) = sink.records
        assert rec["event"] == "hello"
        assert rec["level"] == "info"
        assert rec["run_id"] == "abc123"
        assert rec["n"] == 3
        assert rec["ts"] > 0

    def test_min_level_filters(self):
        sink = ListSink()
        logger = StructuredLogger([sink], min_level="warning")
        logger.debug("quiet")
        logger.info("quiet")
        logger.warning("loud")
        assert [r["event"] for r in sink.records] == ["loud"]
        assert "warning" in LEVELS

    def test_bind_layers_fields(self):
        sink = ListSink()
        logger = StructuredLogger([sink], run_id="one").bind(stage="dp")
        logger.info("x")
        assert sink.records[0]["run_id"] == "one"
        assert sink.records[0]["stage"] == "dp"

    def test_null_logger_disabled(self):
        assert not NULL_LOGGER.enabled
        NULL_LOGGER.info("goes nowhere")  # must not raise

    def test_emit_replays_verbatim(self):
        sink = ListSink()
        logger = StructuredLogger([sink])
        record = {"ts": 1.0, "level": "debug", "event": "e", "run_id": "w0rker"}
        logger.emit(record)
        assert sink.records == [record]

    def test_emit_drops_records_below_min_level(self):
        sink = ListSink()
        logger = StructuredLogger([sink], min_level="info")
        logger.emit({"ts": 1.0, "level": "debug", "event": "quiet"})
        logger.emit({"ts": 1.0, "level": "warning", "event": "loud"})
        assert [r["event"] for r in sink.records] == ["loud"]


class TestSinks:
    def test_jsonl_sink_writes_parseable_lines(self, tmp_path):
        target = tmp_path / "log.jsonl"
        logger = StructuredLogger([jsonl_sink(target)], run_id="deadbeef0000")
        logger.info("one", a=1)
        logger.info("two", b=[1, 2])
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["event"] == "one"
        assert parsed[1]["b"] == [1, 2]
        assert all(p["run_id"] == "deadbeef0000" for p in parsed)

    def test_human_sink_renders_terse_lines(self):
        import io

        buf = io.StringIO()
        logger = StructuredLogger([human_sink(buf)])
        logger.info("solve_done", cost=5)
        out = buf.getvalue()
        assert "solve_done" in out
        assert "cost=5" in out


class TestEnginePropagation:
    @pytest.fixture
    def instance(self, clustered_instance):
        return clustered_instance

    def test_run_id_on_every_record_serial(self, instance):
        g, hier, d = instance
        sink = ListSink()
        result = run_pipeline(
            g,
            hier,
            d,
            SolverConfig(n_trees=2, refine=False, seed=0),
            logger=StructuredLogger([sink], min_level="debug"),
        )
        assert result.run_id
        events = [r["event"] for r in sink.records]
        assert events[0] == "run_start"
        assert events[-1] == "run_done"
        assert events.count("member_solved") == 2
        assert {r["run_id"] for r in sink.records} == {result.run_id}
        assert result.report().meta["run_id"] == result.run_id

    def test_run_id_survives_pool_workers(self, instance):
        """Worker-side records are replayed parent-side with the same run_id."""
        g, hier, d = instance
        sink = ListSink()
        result = run_pipeline(
            g,
            hier,
            d,
            SolverConfig(n_trees=2, refine=False, seed=0, n_jobs=2),
            logger=StructuredLogger([sink], min_level="debug"),
        )
        members = [r for r in sink.records if r["event"] == "member_solved"]
        assert len(members) == 2
        assert {r["run_id"] for r in members} == {result.run_id}
        # The records were produced in the worker processes.
        assert all(r["pid"] != os.getpid() for r in members)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_replayed_member_records_honour_min_level(self, instance, n_jobs):
        """Debug-level member_solved records stay out of an info logger."""
        g, hier, d = instance
        sink = ListSink()
        run_pipeline(
            g,
            hier,
            d,
            SolverConfig(n_trees=2, refine=False, seed=0, n_jobs=n_jobs),
            logger=StructuredLogger([sink], min_level="info"),
        )
        events = [r["event"] for r in sink.records]
        assert "member_solved" not in events
        assert events[0] == "run_start" and events[-1] == "run_done"

    def test_silent_without_logger(self, instance):
        g, hier, d = instance
        result = run_pipeline(
            g, hier, d, SolverConfig(n_trees=2, refine=False, seed=0)
        )
        assert result.run_id  # ids are generated even when nothing listens

    def test_distinct_runs_get_distinct_ids(self, instance):
        g, hier, d = instance
        cfg = SolverConfig(n_trees=2, refine=False, seed=0)
        a = run_pipeline(g, hier, d, cfg)
        b = run_pipeline(g, hier, d, cfg)
        assert a.run_id != b.run_id
        assert np.isclose(a.placement.cost(), b.placement.cost())
