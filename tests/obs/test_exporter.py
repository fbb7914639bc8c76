"""The process's /metrics exporter: live scrapes over a real HTTP socket.

``repro serve`` is the one HTTP server that exposes the metrics registry,
so these tests scrape an in-process :class:`PlacementServer` on an
ephemeral port.
"""

from __future__ import annotations

import pytest

from repro.cache import reset_cache
from repro.obs.metrics import CONTENT_TYPE, MetricsRegistry
from repro.serve import PlacementClient, PlacementServer, ServeConfig
from repro.testing.faults import ENV_FAULT_SPEC
from tests.serve.conftest import make_payload, tiny_solver


def _scraped(text: str, series: str) -> float:
    """Value of one exposition series (0 when absent)."""
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if name == series:
            return float(value)
    return 0.0


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_FAULT_SPEC, raising=False)
    reset_cache()
    yield
    reset_cache()


def _serve():
    srv = PlacementServer(ServeConfig(port=0, solver=tiny_solver())).start()
    return srv, PlacementClient(srv.url, timeout=60.0)


@pytest.fixture
def registry(monkeypatch):
    """A private registry the server renders instead of the global one."""
    reg = MetricsRegistry()
    reg.counter("test_total", "A test counter").inc(7)
    monkeypatch.setattr("repro.serve.server.get_registry", lambda: reg)
    return reg


@pytest.fixture
def exporter(clean_env, registry):
    srv, client = _serve()
    try:
        yield client
    finally:
        srv.drain(timeout=30.0)


class TestEndpoints:
    def test_metrics_renders_registry(self, exporter):
        resp = exporter.request("GET", "/metrics")
        assert resp.status == 200
        assert resp.headers["content-type"] == CONTENT_TYPE
        assert "version=0.0.4" in resp.headers["content-type"]
        body = resp.body.decode("utf-8")
        assert "# TYPE test_total counter" in body
        assert "test_total 7" in body

    def test_metrics_reflects_live_updates(self, exporter, registry):
        registry.counter("test_total").inc(3)
        assert "test_total 10" in exporter.metrics()

    def test_healthz(self, exporter):
        resp = exporter.healthz()
        assert resp.status == 200
        assert resp.body == b"ok\n"

    def test_unknown_route_404(self, exporter):
        assert exporter.request("GET", "/nope").status == 404

    def test_scrapes_counter(self, exporter, registry):
        exporter.metrics()
        exporter.metrics()
        exporter.healthz()
        scrapes = registry.get("repro_serve_http_requests_total")
        assert scrapes is not None
        assert scrapes.value(endpoint="metrics") == 2
        assert scrapes.value(endpoint="healthz") == 1


class TestLiveSolveScrape:
    def test_scrape_during_solve_includes_worker_counters(self, clean_env):
        """A /metrics scrape after a pool solve exposes the members'
        repro_dp_* totals in valid exposition."""
        srv, client = _serve()
        try:
            before = _scraped(client.metrics(), "repro_dp_solves_total")
            body = client.solve_raw({**make_payload(), "report": True}).json()
            members = len(body["report"]["members"])
            assert members >= 1
            text = client.metrics()
        finally:
            srv.drain(timeout=30.0)
        assert "# TYPE repro_dp_solves_total counter" in text
        assert _scraped(text, "repro_dp_solves_total") - before >= members
