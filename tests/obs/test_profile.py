"""Continuous profiler: sampler, span attribution, session payload.

Sampling tests spin a busy loop on the main thread and assert the
profiler catches it attributed to the surrounding telemetry span — the
same mechanism that puts ``span:dp`` roots in real flamegraphs.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import fields

import numpy as np
import pytest

from repro.core.telemetry import RunReport, Telemetry, active_spans
from repro.errors import InvalidInputError
from repro.obs.profile import (
    ProfileConfig,
    ProfileSession,
    SamplingProfiler,
)


def _busy(seconds: float) -> float:
    """Burn CPU on the calling thread for roughly ``seconds``."""
    deadline = time.perf_counter() + seconds
    acc = 0.0
    while time.perf_counter() < deadline:
        acc += math.sqrt(acc + 1.0)
    return acc


def _span_names(span) -> set:
    """Every span name in the subtree rooted at ``span``."""
    names = {span.name}
    for child in span.children:
        names |= _span_names(child)
    return names


class TestProfileConfig:
    def test_defaults(self):
        cfg = ProfileConfig()
        assert cfg.hz == pytest.approx(97.0)
        assert cfg.path is None
        assert [f.name for f in fields(cfg)] == ["hz", "path"]

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

    def test_member_span_tags_thread_outside_run_tree(self):
        """A member's own Telemetry tags the thread for the sampler while
        the run's span tree gains no node until the member tree is merged."""
        run = Telemetry("run")
        ident = threading.get_ident()
        with run.span("members") as members:
            member = Telemetry("member")
            with member.span("dp"):
                assert active_spans()[ident] == "dp"
                assert run.current is members
            assert active_spans()[ident] == "members"
            assert [c.name for c in members.children] == []
            members.merge(member.root)
        assert ident not in active_spans()
        assert members.child("dp").count == 1

    def test_span_pops_on_exception(self):
        tel = Telemetry("t")
        ident = threading.get_ident()
        with pytest.raises(RuntimeError):
            with tel.span("dp"):
                assert active_spans()[ident] == "dp"
                raise RuntimeError("boom")
        assert ident not in active_spans()
        assert tel.current is tel.root
        assert tel.root.child("dp").count == 1

    def test_threads_are_independent(self):
        seen = {}

        def worker():
            with Telemetry().span("worker-span"):
                seen["worker"] = active_spans().get(threading.get_ident())

        with Telemetry().span("main-span"):
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
            with Telemetry().span("hotloop"):
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
                with Telemetry().span("work"):
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
            with Telemetry().span("fmt"):
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
        """An unattributed thread parked in an idle wait (here
        ``Event.wait``) must not pollute the profile with its wait
        stack; the skip goes by the wait, not the thread's name."""
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
        # Stage times live in the span tree, not in the payload.
        assert not {"stages", "memory"} & set(payload)
        work = tel.root.child("work")
        assert work.count == 1 and work.cpu_seconds > 0.05
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
            result = run_pipeline(g, h, d, cfg, path="profile-test")
        profile = session.profile
        assert profile is not None
        assert profile["samples"] > 0
        shares = profile["span_shares"]
        unattributed = shares.get("-", 0.0)
        assert unattributed < 0.2, f"span shares: {shares}"
        assert set(shares) - {"-"} <= _span_names(result.telemetry.root), (
            f"span shares: {shares}"
        )

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
            result = solve_multilevel(g, h, np.asarray(d), cfg)
        profile = session.profile
        assert profile is not None
        assert set(profile["span_shares"]) - {"-"} <= _span_names(
            result.telemetry.root
        ), f"span shares: {profile['span_shares']}"
        for name in ("coarsen", "coarse_solve", "uncoarsen"):
            (span,) = result.telemetry.find_spans(name)
            assert span.count == 1 and span.cpu_seconds > 0, name

    def test_serial_members_get_stage_rows(self, clustered_instance):
        """In-process members run their phases as spans: a profiled serial
        solve's span tree has one ``dp`` and one ``repair`` entry per
        member, each with CPU time, and no sample lands outside it."""
        from repro.core.config import SolverConfig
        from repro.core.solver import solve_hgp

        g, h, d = clustered_instance
        cfg = SolverConfig(n_trees=4, seed=5)
        with ProfileSession(ProfileConfig(hz=200.0)) as session:
            result = solve_hgp(g, h, d, cfg)
        root = result.telemetry.root
        assert root.child("dp").count == root.child("repair").count == 4
        assert root.child("dp").cpu_seconds > 0
        assert root.child("repair").cpu_seconds > 0
        shares = session.profile["span_shares"]
        assert set(shares) - {"-"} <= _span_names(root), f"span shares: {shares}"
