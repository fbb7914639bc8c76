"""Embedded Prometheus scrape endpoint (dependency-free, stdlib only).

The third piece of the live-introspection layer: a
``http.server.ThreadingHTTPServer`` on a daemon thread that exposes the
process's :class:`~repro.obs.metrics.MetricsRegistry` while a solve is
running — this is the scrape surface a future ``repro.serve`` mounts
unchanged.  Endpoints:

``GET /metrics``
    Prometheus text exposition (``text/plain; version=0.0.4``) of every
    registered family, via the registry's existing ``render()``.  The
    registry is process-local: pool workers' own increments never reach
    it, but the ``repro_dp_*`` and ``repro_incremental_subtree_*``
    totals are published here from the member records the workers
    return, so they cover pool members too.
``GET /healthz``
    Liveness: ``200 ok``.
``GET /debug/profile?seconds=N``
    Runs an ad-hoc :class:`~repro.obs.profile.SamplingProfiler` for
    ``N`` seconds (default 2, capped at 60) and returns the
    collapsed-stack profile as text — flamegraph a live process with
    ``curl … | flamegraph.pl``.

Usage::

    from repro.obs.exporter import start_exporter
    exporter = start_exporter(port=9091)   # port=0 picks a free one
    print(exporter.url)                    # http://127.0.0.1:9091
    ...
    exporter.stop()

``repro solve --metrics-port N`` wires this around the CLI solve, and
:func:`maybe_start_from_env` lets benchmark drivers opt in via the
``REPRO_METRICS_PORT`` environment variable without any code changes.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["MetricsExporter", "start_exporter", "maybe_start_from_env"]

#: Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Upper bound on ad-hoc ``/debug/profile`` durations (seconds).
MAX_PROFILE_SECONDS = 60.0


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one exporter (via server attributes)."""

    server_version = "repro-exporter/1.0"

    # The registry and scrape counter hang off the server object so one
    # handler class serves any number of exporters.

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTP API
        pass  # silent: scrape-per-second pollutes solver stderr

    def _respond(self, status: int, body: str, content_type: str = CONTENT_TYPE):
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):  # noqa: N802 - BaseHTTP API
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        registry: MetricsRegistry = self.server.registry
        if route == "/metrics":
            self.server.count_scrape("metrics")
            self._respond(200, registry.render())
        elif route == "/healthz":
            self.server.count_scrape("healthz")
            self._respond(200, "ok\n")
        elif route == "/debug/profile":
            self.server.count_scrape("profile")
            self._respond(200, self._profile(parsed.query))
        else:
            self._respond(404, f"no such endpoint: {route}\n")

    def _profile(self, query: str) -> str:
        from repro.obs.profile import SamplingProfiler

        params = parse_qs(query)
        try:
            seconds = float(params.get("seconds", ["2"])[0])
        except ValueError:
            seconds = 2.0
        seconds = min(max(seconds, 0.1), MAX_PROFILE_SECONDS)
        try:
            hz = float(params.get("hz", ["97"])[0])
        except ValueError:
            hz = 97.0
        profiler = SamplingProfiler(hz=min(max(hz, 1.0), 1000.0))
        profiler.start()
        threading.Event().wait(seconds)
        profiler.stop()
        return profiler.collapsed()


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, addr, registry: MetricsRegistry):
        super().__init__(addr, _Handler)
        self.registry = registry
        self._scrapes = registry.counter(
            "repro_exporter_scrapes_total",
            "HTTP requests served by the embedded /metrics exporter.",
            labelnames=("endpoint",),
        )

    def count_scrape(self, endpoint: str) -> None:
        self._scrapes.inc(endpoint=endpoint)


class MetricsExporter:
    """A running scrape endpoint; create via :func:`start_exporter`."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: Optional[MetricsRegistry] = None,
    ):
        self.registry = registry if registry is not None else get_registry()
        self._server = _Server((host, port), self.registry)
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"repro-exporter:{self.port}",
            daemon=True,
        )
        self._thread.start()
        # Exporter threads must die before the atexit pool shutdown and
        # spool sweep: a scrape (or /debug/profile) racing interpreter
        # teardown otherwise reads registries and stacks mid-demolition.
        from repro.core.pool import register_shutdown_hook

        self._hook_name = f"exporter:{id(self)}"
        register_shutdown_hook(self._hook_name, self.stop)

    @property
    def url(self) -> str:
        """Base URL of the running exporter."""
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._thread is None:
            return
        from repro.core.pool import unregister_shutdown_hook

        unregister_shutdown_hook(self._hook_name)
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=2.0)
        self._thread = None

    def __enter__(self) -> "MetricsExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_exporter(
    port: int = 0,
    host: str = "127.0.0.1",
    registry: Optional[MetricsRegistry] = None,
) -> MetricsExporter:
    """Start an exporter on ``host:port`` (``port=0`` = OS-assigned)."""
    return MetricsExporter(port=port, host=host, registry=registry)


def maybe_start_from_env(
    var: str = "REPRO_METRICS_PORT",
    registry: Optional[MetricsRegistry] = None,
) -> Optional[MetricsExporter]:
    """Start an exporter if ``$REPRO_METRICS_PORT`` names a port.

    Lets benchmark drivers and soak runs become scrapeable with zero
    code: ``REPRO_METRICS_PORT=9091 python benchmarks/bench_e18….py``.
    Returns ``None`` (and stays silent) when the variable is unset or
    unparsable; raises ``OSError`` only if the port is actually taken.
    """
    import os

    raw = os.environ.get(var)
    if not raw:
        return None
    try:
        port = int(raw)
    except ValueError:
        return None
    return start_exporter(port=port, registry=registry)
