"""Continuous profiler: sampler, span attribution, stage resources.

Sampling tests spin a busy loop on the main thread and assert the
profiler catches it attributed to the surrounding telemetry span — the
same mechanism that puts ``span:dp`` roots in real flamegraphs.
"""

from __future__ import annotations

import json
import math
import threading
import time

import numpy as np
import pytest

from repro.core.telemetry import RunReport, Telemetry, active_spans, mark_active
from repro.errors import InvalidInputError
from repro.obs.profile import (
    ProfileConfig,
    ProfileSession,
    SamplingProfiler,
    StageResourceMonitor,
    rss_bytes,
)


def _busy(seconds: float) -> float:
    """Burn CPU on the calling thread for roughly ``seconds``."""
    deadline = time.perf_counter() + seconds
    acc = 0.0
    while time.perf_counter() < deadline:
        acc += math.sqrt(acc + 1.0)
    return acc


class TestProfileConfig:
    def test_defaults(self):
        cfg = ProfileConfig()
        assert cfg.hz == pytest.approx(97.0)
        assert not cfg.memory
        assert cfg.path is None

    def test_hz_bounds(self):
        ProfileConfig(hz=0.1)
        ProfileConfig(hz=10_000)
        with pytest.raises(InvalidInputError):
            ProfileConfig(hz=0.0)
        with pytest.raises(InvalidInputError):
            ProfileConfig(hz=20_000)


class TestActiveSpans:
    def test_telemetry_span_maintains_stack(self):
        tel = Telemetry("t")
        ident = threading.get_ident()
        assert ident not in active_spans()
        with tel.span("outer"):
            assert active_spans()[ident] == "outer"
            with tel.span("inner"):
                assert active_spans()[ident] == "inner"
            assert active_spans()[ident] == "outer"
        assert ident not in active_spans()

    def test_mark_active_without_span_node(self):
        ident = threading.get_ident()
        with mark_active("dp"):
            assert active_spans()[ident] == "dp"
        assert ident not in active_spans()

    def test_mark_active_pops_on_exception(self):
        ident = threading.get_ident()
        with pytest.raises(RuntimeError):
            with mark_active("dp"):
                raise RuntimeError("boom")
        assert ident not in active_spans()

    def test_threads_are_independent(self):
        seen = {}

        def worker():
            with mark_active("worker-span"):
                seen["worker"] = active_spans().get(threading.get_ident())

        with mark_active("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert active_spans()[threading.get_ident()] == "main-span"
        assert seen["worker"] == "worker-span"


class TestSamplingProfiler:
    def test_collects_samples_with_span_attribution(self):
        # Sampling is timing-sensitive; under a loaded CI box the sampler
        # thread can be starved, so retry with longer busy windows before
        # declaring the attribution broken.
        for busy_seconds in (0.25, 0.5, 1.5):
            prof = SamplingProfiler(hz=200.0)
            prof.start()
            with mark_active("hotloop"):
                _busy(busy_seconds)
            prof.stop()
            if (
                prof.sample_count > 5
                and prof.span_shares().get("hotloop", 0.0) > 0.5
            ):
                break
        assert prof.sample_count > 5
        shares = prof.span_shares()
        assert shares.get("hotloop", 0.0) > 0.5

    def test_idle_unattributed_threads_skipped(self):
        # A warm pool leaves manager/feeder threads parked in condition
        # waits; they must not dilute attribution with "-" samples.
        done = threading.Event()
        parked = threading.Thread(target=done.wait, daemon=True)
        parked.start()
        try:
            prof = SamplingProfiler(hz=300.0)
            with prof:
                with mark_active("work"):
                    _busy(0.2)
            assert prof.span_shares().get("work", 0.0) > 0.75
            assert not any(
                "threading.wait" in line
                for line in prof.collapsed().splitlines()
            )
        finally:
            done.set()
            parked.join()

    def test_collapsed_format(self):
        prof = SamplingProfiler(hz=200.0)
        with prof:
            with mark_active("fmt"):
                _busy(0.15)
        text = prof.collapsed()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines
        for line in lines:
            frames, _, count = line.rpartition(" ")
            assert frames.startswith("span:")
            assert int(count) > 0
        # Descending order by count, flamegraph.pl convention.
        counts = [int(ln.rpartition(" ")[2]) for ln in lines]
        assert counts == sorted(counts, reverse=True)
        # The busy loop's own frame should be in some hot stack.
        assert any("_busy" in ln for ln in lines)

    def test_collapsed_limit(self):
        prof = SamplingProfiler(hz=500.0)
        with prof:
            _busy(0.2)
        full = prof.collapsed().splitlines()
        limited = prof.collapsed(limit=1).splitlines()
        assert len(limited) == min(1, len(full))

    def test_summary_shape(self):
        prof = SamplingProfiler(hz=150.0)
        with prof:
            _busy(0.1)
        s = prof.summary()
        assert s["hz"] == pytest.approx(150.0)
        assert s["ticks"] >= 1
        assert s["samples"] >= 1
        assert s["duration_seconds"] > 0.05
        assert isinstance(s["span_samples"], dict)
        assert isinstance(s["top_frames"], list)
        json.dumps(s)  # JSON-ready

    def test_start_stop_idempotent(self):
        prof = SamplingProfiler(hz=100.0)
        prof.start()
        prof.start()
        prof.stop()
        prof.stop()
        assert prof._thread is None

    def test_bad_hz_rejected(self):
        with pytest.raises(InvalidInputError):
            SamplingProfiler(hz=0.0)

    def test_infra_threads_skipped(self):
        """Threads named repro-* (exporter, the sampler itself) must not
        pollute the profile with their idle wait stacks."""
        stop = threading.Event()
        infra = threading.Thread(
            target=stop.wait, name="repro-fake-infra", daemon=True
        )
        infra.start()
        prof = SamplingProfiler(hz=300.0)
        with prof:
            _busy(0.15)
        stop.set()
        infra.join()
        assert prof.sample_count > 0
        assert not any("stop.wait" in ln or "Event.wait" in ln
                       for ln in prof.collapsed().splitlines())


class TestStageResourceMonitor:
    def test_records_stage_deltas(self):
        tel = Telemetry("t")
        mon = StageResourceMonitor().attach()
        with tel.span("stage_a"):
            _busy(0.05)
        with tel.span("stage_a"):
            _busy(0.05)
        with tel.span("stage_b"):
            pass
        mon.detach()
        res = mon.results()
        assert res["stage_a"]["count"] == 2
        assert res["stage_a"]["cpu_seconds"] > 0.02
        assert res["stage_a"]["wall_seconds"] > 0.05
        assert "rss_delta_bytes" in res["stage_a"]
        assert res["stage_b"]["count"] == 1

    def test_nested_spans_charged_to_both(self):
        tel = Telemetry("t")
        mon = StageResourceMonitor().attach()
        with tel.span("outer"):
            with tel.span("inner"):
                _busy(0.05)
        mon.detach()
        res = mon.results()
        assert res["outer"]["cpu_seconds"] >= res["inner"]["cpu_seconds"] * 0.5
        assert res["inner"]["count"] == 1

    def test_detach_stops_observing(self):
        tel = Telemetry("t")
        mon = StageResourceMonitor().attach()
        mon.detach()
        with tel.span("after"):
            pass
        assert "after" not in mon.results()

    def test_memory_mode_tracks_allocations(self):
        tel = Telemetry("t")
        mon = StageResourceMonitor(memory=True).attach()
        with tel.span("alloc"):
            blob = [bytes(1024) for _ in range(2000)]  # ~2 MB
        mon.detach()
        del blob
        st = mon.results()["alloc"]
        assert st["alloc_delta_bytes"] > 1_000_000
        assert st["alloc_peak_bytes"] >= st["alloc_delta_bytes"]
        import tracemalloc

        assert not tracemalloc.is_tracing()  # monitor stopped what it started


class TestRssBytes:
    def test_positive_on_linux(self):
        assert rss_bytes() > 0


class TestProfileSession:
    def test_payload_shape_and_file(self, tmp_path):
        out = tmp_path / "prof.collapsed"
        cfg = ProfileConfig(hz=250.0, path=str(out))
        tel = Telemetry("t")
        session = ProfileSession(cfg).start()
        with tel.span("work"):
            _busy(0.2)
        payload = session.finish()
        assert payload["samples"] > 0
        assert payload["span_shares"].get("work", 0.0) > 0.5
        assert payload["collapsed"]
        assert payload["collapsed"][0].startswith("span:")
        assert payload["collapsed_path"] == str(out)
        assert out.exists()
        assert out.read_text().splitlines()[0].startswith("span:")
        assert payload["stages"]["work"]["count"] == 1
        json.dumps(payload)

    def test_context_manager_keeps_profile(self):
        tel = Telemetry("t")
        with ProfileSession(ProfileConfig(hz=200.0)) as session:
            with tel.span("w"):
                _busy(0.1)
        assert session.profile is not None
        assert session.profile["samples"] > 0

    def test_report_roundtrip_schema_v3(self):
        tel = Telemetry("t")
        session = ProfileSession(ProfileConfig(hz=200.0)).start()
        with tel.span("w"):
            _busy(0.1)
        report = tel.report(cost=1.0)
        report.profile = session.finish()
        assert report.profile is not None
        again = RunReport.from_json(report.to_json())
        assert again.profile == report.profile
        assert again.profile["hz"] == pytest.approx(200.0)

    def test_v2_reports_still_load(self):
        """Pre-profile reports (schema v2, no ``profile`` key) load fine."""
        tel = Telemetry("t")
        with tel.span("w"):
            pass
        data = json.loads(tel.report(cost=1.0).to_json())
        data.pop("profile", None)
        data["schema_version"] = 2
        report = RunReport.from_json(json.dumps(data))
        assert report.profile is None


class TestPipelineIntegration:
    def test_run_pipeline_profiles_hot_paths(self, clustered_instance):
        """Acceptance criterion: >= 80% of samples attributed to the
        engine's hot-path spans (dp / trees / flow / refine …), not to
        unattributed ``-`` time."""
        from repro.core.config import SolverConfig
        from repro.core.engine import run_pipeline

        g, h, d = clustered_instance
        cfg = SolverConfig(n_trees=4, seed=5)
        with ProfileSession(ProfileConfig(hz=500.0)) as session:
            run_pipeline(g, h, d, cfg, path="profile-test")
        profile = session.profile
        assert profile is not None
        assert profile["samples"] > 0
        shares = profile["span_shares"]
        unattributed = shares.get("-", 0.0)
        assert unattributed < 0.2, f"span shares: {shares}"
        assert profile["stages"], "stage resource monitor saw no spans"

    def test_multilevel_profiles_frontend_stages(self, clustered_instance):
        from repro.core.config import MultilevelConfig, SolverConfig
        from repro.multilevel.frontend import solve_multilevel

        g, h, d = clustered_instance
        cfg = SolverConfig(
            n_trees=2,
            seed=5,
            refine=False,
            multilevel=MultilevelConfig(enabled=True, coarsen_to=12),
        )
        with ProfileSession(ProfileConfig(hz=400.0)) as session:
            solve_multilevel(g, h, np.asarray(d), cfg)
        profile = session.profile
        assert profile is not None
        stages = profile["stages"]
        for name in ("coarsen", "coarse_solve", "uncoarsen"):
            assert name in stages, f"missing front-end stage {name}: {stages}"
