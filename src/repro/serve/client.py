"""Stdlib-socket client for the placement service.

Deliberately primitive: one TCP connection per request (the server is
``Connection: close``), blocking IO, no dependencies — the shape of a
sidecar or test harness, not an SDK.  The request head and body are
sent separately with the ``serve_client`` chaos site between them, so
``REPRO_FAULT_SPEC=serve_slow_client:seconds=N`` turns any caller into
a slow-loris tenant and exercises the server's read-deadline path.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.errors import ReproError
from repro.testing.faults import maybe_inject

__all__ = ["PlacementClient", "ServeResponse", "ServeUnavailableError"]


class ServeUnavailableError(ReproError):
    """The server could not be reached (connection refused/reset)."""


@dataclass
class ServeResponse:
    """One HTTP exchange: status, headers, body (+ JSON view)."""

    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        """Decode the body as JSON."""
        return json.loads(self.body.decode("utf-8"))

    @property
    def served_from(self) -> str:
        """``solve`` | ``coalesced`` | ``cache`` | ``shed`` | ``drain``."""
        return self.headers.get("x-repro-served-from", "")

    @property
    def retry_after_s(self) -> Optional[int]:
        raw = self.headers.get("retry-after")
        return None if raw is None else int(raw)


class PlacementClient:
    """Blocking client for one placement server.

    Usage::

        client = PlacementClient("http://127.0.0.1:8787")
        resp = client.solve(
            graph={"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]},
            hierarchy={"degrees": [2, 2], "cm": [10, 3, 0]},
            demands=[0.5, 0.5, 0.5, 0.5],
            deadline_s=10.0,
        )
        resp.json()["cost"], resp.json()["leaf_of"]
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        if "//" in base_url:
            base_url = base_url.split("//", 1)[1]
        host, _, port = base_url.rstrip("/").partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port) if port else 80
        self.timeout = timeout

    # ------------------------------------------------------------------
    # raw exchange
    # ------------------------------------------------------------------

    def request(
        self, method: str, path: str, body: bytes = b""
    ) -> ServeResponse:
        """One HTTP exchange on a fresh connection."""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as sock:
                sock.sendall(head)
                # Chaos site: serve_slow_client stalls *here*, between
                # head and body — the classic slow-loris shape the
                # server's per-read deadline must absorb.
                maybe_inject("serve_client", path=path)
                if body:
                    sock.sendall(body)
                return self._read_response(sock)
        except OSError as exc:
            raise ServeUnavailableError(
                f"placement server at {self.host}:{self.port} unreachable: {exc}"
            ) from exc

    def _read_response(self, sock: socket.socket) -> ServeResponse:
        buf = b""
        while b"\r\n\r\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                raise ServeUnavailableError(
                    "connection closed before response headers arrived"
                )
            buf += chunk
        head, _, rest = buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = rest
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                break
            body += chunk
        return ServeResponse(status=status, headers=headers, body=body[:length])

    # ------------------------------------------------------------------
    # typed endpoints
    # ------------------------------------------------------------------

    def solve_raw(self, payload: Dict[str, Any]) -> ServeResponse:
        """``POST /v1/solve`` with a prebuilt request object."""
        return self.request(
            "POST", "/v1/solve", json.dumps(payload).encode("utf-8")
        )

    def solve(
        self,
        graph: Dict[str, Any],
        hierarchy: Dict[str, Any],
        demands: Sequence[float],
        priority: str = "interactive",
        deadline_s: Optional[float] = None,
        allow_partial: bool = False,
        config: Optional[Dict[str, Any]] = None,
        report: bool = False,
    ) -> ServeResponse:
        """Submit one placement request (see ``docs/serving.md``)."""
        payload: Dict[str, Any] = {
            "graph": graph,
            "hierarchy": hierarchy,
            "demands": list(demands),
            "priority": priority,
            "allow_partial": allow_partial,
            "report": report,
        }
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if config:
            payload["config"] = config
        return self.solve_raw(payload)

    def healthz(self) -> ServeResponse:
        """``GET /healthz`` — 200 while serving, 503 once draining."""
        return self.request("GET", "/healthz")

    def metrics(self) -> str:
        """``GET /metrics`` — the Prometheus text exposition."""
        return self.request("GET", "/metrics").body.decode("utf-8")

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats`` — the server's operational snapshot."""
        return self.request("GET", "/v1/stats").json()
