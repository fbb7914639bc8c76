"""Embedded /metrics exporter: live scrapes over a real HTTP socket."""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro.obs.exporter import MetricsExporter, maybe_start_from_env, start_exporter
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("test_total", "A test counter").inc(7)
    return reg


@pytest.fixture
def exporter(registry):
    with MetricsExporter(port=0, registry=registry) as exp:
        yield exp


def _get(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read().decode()


class TestEndpoints:
    def test_metrics_renders_registry(self, exporter):
        status, headers, body = _get(exporter.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert "# TYPE test_total counter" in body
        assert "test_total 7" in body

    def test_metrics_reflects_live_updates(self, exporter, registry):
        registry.counter("test_total").inc(3)
        _status, _headers, body = _get(exporter.url + "/metrics")
        assert "test_total 10" in body

    def test_healthz(self, exporter):
        status, _headers, body = _get(exporter.url + "/healthz")
        assert status == 200
        assert body == "ok\n"

    def test_unknown_route_404(self, exporter):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(exporter.url + "/nope")
        assert exc.value.code == 404

    def test_debug_profile_returns_collapsed_text(self, exporter):
        status, headers, body = _get(
            exporter.url + "/debug/profile?seconds=0.2&hz=50", timeout=10.0
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        # Idle process: possibly no non-infra samples at all, but any
        # line present must be collapsed-stack formatted.
        for line in body.splitlines():
            frames, _, count = line.rpartition(" ")
            assert frames.startswith("span:")
            assert int(count) > 0

    def test_debug_profile_bad_params_clamped(self, exporter):
        status, _headers, _body = _get(
            exporter.url + "/debug/profile?seconds=bogus&hz=-5", timeout=10.0
        )
        assert status == 200  # falls back to safe defaults/clamps

    def test_scrapes_counter(self, exporter, registry):
        _get(exporter.url + "/metrics")
        _get(exporter.url + "/metrics")
        _get(exporter.url + "/healthz")
        scrapes = registry.get("repro_exporter_scrapes_total")
        assert scrapes is not None
        assert scrapes.value(endpoint="metrics") >= 2
        assert scrapes.value(endpoint="healthz") >= 1


class TestLifecycle:
    def test_port_zero_assigns_real_port(self, registry):
        exp = start_exporter(port=0, registry=registry)
        try:
            assert exp.port > 0
            assert exp.url == f"http://127.0.0.1:{exp.port}"
        finally:
            exp.stop()

    def test_stop_idempotent_and_closes_socket(self, registry):
        exp = start_exporter(port=0, registry=registry)
        url = exp.url
        exp.stop()
        exp.stop()
        with pytest.raises(urllib.error.URLError):
            _get(url + "/healthz", timeout=0.5)

    def test_two_exporters_coexist(self, registry):
        with MetricsExporter(port=0, registry=registry) as a:
            with MetricsExporter(port=0, registry=registry) as b:
                assert a.port != b.port
                for exp in (a, b):
                    status, _h, _b = _get(exp.url + "/healthz")
                    assert status == 200

    def test_thread_name_marks_infra(self, registry):
        """The serving thread must be named repro-* so the sampling
        profiler skips it (see SamplingProfiler._sample_once)."""
        import threading

        with MetricsExporter(port=0, registry=registry) as exp:
            names = [t.name for t in threading.enumerate()]
            assert any(
                n.startswith("repro-exporter") for n in names
            ), names
            assert exp.url  # keep the exporter alive for the check


class TestEnvActivation:
    def test_unset_returns_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS_PORT", raising=False)
        assert maybe_start_from_env() is None

    def test_unparsable_returns_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS_PORT", "not-a-port")
        assert maybe_start_from_env() is None

    def test_set_starts_exporter(self, monkeypatch, registry):
        monkeypatch.setenv("REPRO_METRICS_PORT", "0")
        exp = maybe_start_from_env(registry=registry)
        try:
            assert exp is not None
            status, _h, body = _get(exp.url + "/metrics")
            assert status == 200
            assert "test_total" in body
        finally:
            if exp is not None:
                exp.stop()


class TestLiveSolveScrape:
    def test_scrape_during_solve_includes_worker_counters(
        self, clustered_instance
    ):
        """Acceptance criterion: a /metrics scrape after a parallel solve
        exposes the pool members' repro_dp_* totals in valid exposition."""
        from repro.core.config import SolverConfig
        from repro.core.engine import run_pipeline
        from repro.obs.metrics import get_registry

        g, h, d = clustered_instance
        with MetricsExporter(port=0, registry=get_registry()) as exp:
            run_pipeline(
                g, h, d,
                SolverConfig(n_trees=4, n_jobs=2, refine=False, seed=7),
                path="exporter-test",
            )
            _status, headers, body = _get(exp.url + "/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE repro_dp_solves_total counter" in body
        solves = [
            ln for ln in body.splitlines()
            if ln.startswith("repro_dp_solves_total")
        ]
        assert solves and float(solves[0].rpartition(" ")[2]) >= 4
