"""The placement server: asyncio front-end + single dispatcher thread.

Architecture (one process, three kinds of thread):

* **IO loop thread** — an :func:`asyncio.start_server` loop accepts
  connections and parses one HTTP request each (``Connection: close``).
  Handlers never solve; they classify the request, claim the coalescing
  key, offer the job to the admission queue and *await* the result
  future.  Slow clients are bounded by ``read_timeout_s`` per read, so
  a slow-loris tenant costs one socket, not a worker.
* **Dispatcher thread** — the only place solves run.  It pops jobs off
  the :class:`~repro.serve.admission.AdmissionQueue` (priority + aging),
  drops requests whose SLO expired while queued (504 without wasting a
  solve), folds the remaining budget into the resilience config
  (``total_deadline_s``), runs :func:`repro.core.engine.run_pipeline`
  — which fans out onto the persistent worker pool exactly like the
  CLI — and resolves the in-flight entry, fanning the serialized
  response to the leader and every coalesced follower byte-identically.
  A :class:`~repro.obs.profile.ProfileSession` around an in-process
  server samples this thread like any other, so its solves show up
  under their stage spans (``docs/serving.md`` §7).
* **Pool workers** — unchanged; crashes/hangs are absorbed by the
  resilience layer (retries, pool restarts) underneath the dispatcher.

Overload behaviour: a full lane sheds with ``503`` + ``Retry-After``;
an expired SLO returns ``504`` (with the degraded report's partial
result when ``allow_partial`` admits one); duplicate concurrent
requests coalesce onto one solve.  ``GET /metrics`` and ``/healthz``
are served from the same port; this is the process's only HTTP
surface.  Graceful drain (SIGTERM or :meth:`PlacementServer.drain`)
stops admitting, finishes queued + in-flight work, then closes the
loop — and is registered as a pool shutdown hook so interpreter exit
tears the stack down in dependency order (serve loop, then pool, then
spool files).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.cache import InflightRegistry, get_cache
from repro.core.config import SolverConfig
from repro.core.engine import run_pipeline
from repro.errors import DegradedRunError, InfeasibleError, InvalidInputError
from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE, get_registry
from repro.serve import protocol
from repro.serve.admission import LANES, AdmissionQueue
from repro.testing.faults import maybe_inject

__all__ = ["PlacementServer", "ServeConfig"]

#: Response-cache tier: completed serve responses, keyed like requests.
_RESPONSE_KIND = "serve_response"

#: Grace added to a handler's wait past the job deadline, so the
#: dispatcher's specific 504 payload (queue-expired vs solve-truncated)
#: wins over the handler's generic one whenever it arrives at all.
_WAIT_GRACE_S = 2.0


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`PlacementServer`.

    Attributes
    ----------
    host, port:
        Bind address (``port=0`` = OS-assigned, see ``server.port``).
    queue_capacity:
        Interactive-lane admission bound; offers past it shed with 503.
    batch_queue_capacity:
        Batch-lane bound (``None`` = ``queue_capacity``).
    age_promote_s:
        Anti-starvation knob: batch requests older than this are served
        ahead of interactive traffic.
    default_deadline_s:
        SLO budget applied when a request carries no ``deadline_s``
        (``None`` = unbounded).
    retry_after_s:
        Value of the ``Retry-After`` header on shed/drain 503s.
    read_timeout_s:
        Per-read deadline while parsing a request (slow-loris bound).
    max_body_bytes:
        Request-body cap (413 past it).
    drain_timeout_s:
        How long :meth:`PlacementServer.drain` waits for queued and
        in-flight work before closing anyway.
    cache_responses:
        Store completed 200 responses in the solver cache (tier
        ``serve_response``) so repeat requests skip the queue entirely.
    solver:
        Base :class:`~repro.core.config.SolverConfig` every request
        derives from (requests may override the whitelisted fields in
        :data:`repro.serve.protocol.CONFIG_OVERRIDES`).  Defaults to
        the pool path (``n_jobs=2``): SLO deadlines preempt pool waves
        but cannot preempt a serial in-process solve, so a serving
        config should keep ``n_jobs > 1``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_capacity: int = 64
    batch_queue_capacity: Optional[int] = None
    age_promote_s: float = 2.0
    default_deadline_s: Optional[float] = 30.0
    retry_after_s: int = 1
    read_timeout_s: float = 5.0
    max_body_bytes: int = 16 * 1024 * 1024
    drain_timeout_s: float = 30.0
    cache_responses: bool = True
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(n_jobs=2))


@dataclass
class _Payload:
    """One finished response: what coalescing fans out byte-identically."""

    status: int
    body: bytes


@dataclass
class _Job:
    """One admitted request, queued for the dispatcher."""

    request: protocol.SolveRequest
    key: str
    lane: str
    deadline_at: Optional[float]


class PlacementServer:
    """A running placement service; see the module docstring.

    Usage::

        server = PlacementServer(ServeConfig(port=0)).start()
        print(server.url)       # http://127.0.0.1:<port>
        ...
        server.drain()          # stop admitting, finish, shut down
    """

    def __init__(self, config: ServeConfig = ServeConfig()):
        self.config = config
        self._queue = AdmissionQueue(
            capacity=config.queue_capacity,
            batch_capacity=config.batch_queue_capacity,
            age_promote_s=config.age_promote_s,
        )
        self._inflight = InflightRegistry()
        self._registry = get_registry()
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._dispatch_stop = threading.Event()
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._active_conns = 0
        self._started = False
        self.host = config.host
        self.port = config.port
        self._init_metrics()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def _init_metrics(self) -> None:
        reg = self._registry
        self._m_requests = reg.counter(
            "repro_serve_requests_total",
            "Placement requests received, by priority lane",
            labelnames=("lane",),
        )
        self._m_responses = reg.counter(
            "repro_serve_responses_total",
            "Responses sent, by HTTP status code",
            labelnames=("code",),
        )
        self._m_shed = reg.counter(
            "repro_serve_shed_total",
            "Requests shed with 503 by admission control, by lane",
            labelnames=("lane",),
        )
        self._m_timeouts = reg.counter(
            "repro_serve_deadline_timeouts_total",
            "Requests that exceeded their SLO budget, by stage",
            labelnames=("stage",),
        )
        self._m_coalesced = reg.counter(
            "repro_serve_coalesced_total",
            "Requests served by attaching to an identical in-flight solve",
        )
        self._m_cache_hits = reg.counter(
            "repro_serve_response_cache_hits_total",
            "Requests served from the serve_response cache tier",
        )
        self._m_promotions = reg.counter(
            "repro_serve_queue_promotions_total",
            "Batch requests served ahead of interactive traffic by aging",
        )
        self._m_depth = reg.gauge(
            "repro_serve_queue_depth",
            "Requests currently queued, by priority lane",
            labelnames=("lane",),
        )
        self._m_queue_wait = reg.histogram(
            "repro_serve_queue_wait_seconds",
            "Admission-to-dispatch wait per request, by lane",
            labelnames=("lane",),
        )
        self._m_request_seconds = reg.histogram(
            "repro_serve_request_seconds",
            "Parse-to-response wall time per placement request, by lane",
            labelnames=("lane",),
        )
        self._m_solve_seconds = reg.histogram(
            "repro_serve_solve_seconds",
            "Dispatcher solve wall time per leader request",
        )
        self._m_http = reg.counter(
            "repro_serve_http_requests_total",
            "HTTP requests served, by endpoint",
            labelnames=("endpoint",),
        )
        self._m_drains = reg.counter(
            "repro_serve_drains_total",
            "Graceful drains initiated (SIGTERM or explicit)",
        )

    def _update_depth(self) -> None:
        for lane in LANES:
            self._m_depth.set(self._queue.depth(lane), lane=lane)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "PlacementServer":
        """Bind, start the IO loop and dispatcher threads (idempotent).

        The process cache is built first, so a malformed
        ``REPRO_CACHE_MAX_BYTES`` fails here with
        :class:`repro.errors.InvalidInputError` instead of in every solve.
        """
        get_cache()
        with self._lock:
            if self._started:
                return self
            self._started = True
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        self._loop_thread = threading.Thread(
            target=self._run_loop,
            args=(started,),
            name="repro-serve-loop",
            daemon=True,
        )
        self._loop_thread.start()
        if not started.wait(timeout=10.0):  # pragma: no cover - bind stall
            raise RuntimeError("serve loop failed to start within 10s")
        if self._loop_error is not None:
            raise self._loop_error
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        # Interpreter exit must tear down serve before the pool/spool
        # sweep (the dispatcher submits to the pool): register with the
        # pool's pre-shutdown hooks, newest first.
        from repro.core.pool import register_shutdown_hook

        register_shutdown_hook(f"serve:{id(self)}", self._atexit_drain)
        return self

    _loop_error: Optional[BaseException] = None

    def _run_loop(self, started: threading.Event) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)

        async def _bind():
            try:
                self._server = await asyncio.start_server(
                    self._handle_conn, self.config.host, self.config.port
                )
                self.host, self.port = self._server.sockets[0].getsockname()[:2]
            except BaseException as exc:
                # Bind failure: end this thread too; start() re-raises.
                self._loop_error = exc
                loop.stop()
            finally:
                started.set()

        loop.create_task(_bind())
        loop.run_forever()
        # Loop stopped by drain: cancel whatever handlers remain, then
        # run the loop briefly so cancellations are delivered cleanly.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.close()

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def initiate_drain(self) -> None:
        """Stop admitting new requests (signal-handler safe, idempotent).

        New solve requests get 503 + ``Retry-After``; queued and
        in-flight requests keep running.  Call :meth:`drain` (or let
        :meth:`serve_forever` return) to finish and close.
        """
        if not self._draining.is_set():
            self._draining.set()
            self._m_drains.inc()
            self._queue.close()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: stop admitting, finish everything, close.

        ``timeout`` (default ``drain_timeout_s``) bounds the wait for
        queued + in-flight work; the loop is closed regardless after.
        Idempotent — safe to call after an explicit drain *and* again
        from the atexit hook.
        """
        if timeout is None:
            timeout = self.config.drain_timeout_s
        self.initiate_drain()
        with self._lock:
            if self._drained.is_set():
                return
            self._drained.set()
        deadline = time.monotonic() + timeout
        self._dispatch_stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(max(0.1, deadline - time.monotonic()))
        # Give in-flight handlers a moment to write their responses out
        # before the loop goes away.
        while self._active_conns > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        self._stop_loop()
        from repro.core.pool import unregister_shutdown_hook

        unregister_shutdown_hook(f"serve:{id(self)}")

    def _atexit_drain(self) -> None:
        """Pool pre-shutdown hook: bounded drain at interpreter exit."""
        self.drain(timeout=min(5.0, self.config.drain_timeout_s))

    def _stop_loop(self) -> None:
        loop, self._loop = self._loop, None
        if loop is None:
            return
        server = self._server
        if server is not None:

            async def _close():
                server.close()
                await server.wait_closed()

            try:
                asyncio.run_coroutine_threadsafe(_close(), loop).result(5.0)
            except Exception:  # pragma: no cover - already closing
                pass
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
            self._loop_thread = None

    def serve_forever(self) -> None:
        """Block until a drain is initiated, then finish it and return.

        The CLI wires SIGTERM/SIGINT to :meth:`initiate_drain`, making
        this the whole graceful-shutdown story of ``repro serve``.
        """
        try:
            while not self._draining.is_set():
                time.sleep(0.1)
        except KeyboardInterrupt:
            self.initiate_drain()
        self.drain()

    def __enter__(self) -> "PlacementServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.drain()

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot (served as ``GET /v1/stats``)."""
        return {
            "draining": self._draining.is_set(),
            "queue_depth": {lane: self._queue.depth(lane) for lane in LANES},
            "queue_capacity": {
                lane: self._queue.capacity(lane) for lane in LANES
            },
            "offered": self._queue.offered,
            "shed": self._queue.shed,
            "promotions": self._queue.promotions,
            "inflight": self._inflight.inflight(),
            "coalesced_total": self._inflight.coalesced_total,
        }

    # ------------------------------------------------------------------
    # IO loop side
    # ------------------------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        self._active_conns += 1
        try:
            parsed = await self._read_http(reader)
            if parsed is None:
                writer.write(
                    protocol.http_response(
                        408,
                        protocol.json_body({"error": "request read timed out"}),
                    )
                )
            else:
                method, path, headers, body = parsed
                writer.write(await self._route(method, path, headers, body))
            await writer.drain()
        except (
            asyncio.CancelledError,
            ConnectionError,
        ):  # client went away / drain cancelled us
            pass
        except Exception as exc:  # pragma: no cover - handler backstop
            try:
                writer.write(
                    protocol.http_response(
                        500,
                        protocol.json_body(
                            {"error": f"{type(exc).__name__}: {exc}"}
                        ),
                    )
                )
                await writer.drain()
            except Exception:
                pass
        finally:
            self._active_conns -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_http(
        self, reader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.x request; ``None`` on timeout/garbage.

        Every read is individually bounded by ``read_timeout_s``, so a
        slow-loris client (see the ``serve_slow_client`` fault) ties up
        one socket for at most one deadline, never a solver.
        """
        to = self.config.read_timeout_s
        try:
            line = await asyncio.wait_for(reader.readline(), to)
            parts = line.decode("latin-1").split()
            if len(parts) < 2:
                return None
            method, path = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                raw = await asyncio.wait_for(reader.readline(), to)
                if raw in (b"\r\n", b"\n", b""):
                    break
                key, _, value = raw.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            if length > self.config.max_body_bytes:
                return method, "__too_large__", headers, b""
            body = b""
            if length > 0:
                body = await asyncio.wait_for(reader.readexactly(length), to)
            return method, path, headers, body
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            UnicodeDecodeError,
            ValueError,
        ):
            return None

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> bytes:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "__too_large__":
            return protocol.http_response(
                413, protocol.json_body({"error": "request body too large"})
            )
        if method == "GET" and path == "/metrics":
            self._m_http.inc(endpoint="metrics")
            return protocol.http_response(
                200,
                self._registry.render().encode("utf-8"),
                content_type=METRICS_CONTENT_TYPE,
            )
        if method == "GET" and path == "/healthz":
            self._m_http.inc(endpoint="healthz")
            if self._draining.is_set():
                return protocol.http_response(
                    503, b"draining\n", content_type="text/plain"
                )
            return protocol.http_response(
                200, b"ok\n", content_type="text/plain"
            )
        if method == "GET" and path == "/v1/stats":
            self._m_http.inc(endpoint="stats")
            return protocol.http_response(
                200, protocol.json_body(self.stats())
            )
        if method == "POST" and path == "/v1/solve":
            self._m_http.inc(endpoint="solve")
            return await self._handle_solve(body)
        return protocol.http_response(
            404, protocol.json_body({"error": f"no such endpoint: {path}"})
        )

    async def _handle_solve(self, body: bytes) -> bytes:
        t0 = time.monotonic()
        try:
            req = protocol.parse_solve_request(body)
            # Apply the overrides now, so a bad one is a 400 here and
            # never claims a key or reaches the dispatcher.
            protocol.build_config(req, self.config.solver)
        except protocol.ProtocolError as exc:
            self._m_responses.inc(code="400")
            return protocol.http_response(
                400, protocol.json_body({"error": str(exc)})
            )
        lane = req.priority
        self._m_requests.inc(lane=lane)
        if self._draining.is_set():
            return self._respond(
                _Payload(
                    503, protocol.json_body({"error": "draining, not admitting"})
                ),
                lane,
                t0,
                served_from="drain",
            )
        deadline_s = (
            req.deadline_s
            if req.deadline_s is not None
            else self.config.default_deadline_s
        )
        deadline_at = None if deadline_s is None else t0 + deadline_s
        key = protocol.request_cache_key(req)

        leader, entry = self._inflight.claim(key)
        if not leader:
            # Coalesced follower: attach to the in-flight solve and fan
            # out its exact response bytes.  Followers bypass admission
            # on purpose — they consume no solve capacity.
            self._m_coalesced.inc()
            payload = await self._await_entry(entry, deadline_at)
            return self._respond(
                payload, lane, t0, served_from="coalesced", key=key
            )

        cached = self._cache_lookup(req, key)
        if cached is not None:
            self._m_cache_hits.inc()
            self._inflight.resolve(key, cached)
            return self._respond(
                cached, lane, t0, served_from="cache", key=key
            )

        job = _Job(request=req, key=key, lane=lane, deadline_at=deadline_at)
        try:
            maybe_inject("serve_admit", lane=lane)
            admitted = self._queue.offer(job, lane)
        except Exception:
            # The serve_flood fault lands here: treat an admission-path
            # failure exactly like a full queue — shed, don't crash.
            admitted = False
        if not admitted:
            self._m_shed.inc(lane=lane)
            payload = _Payload(
                503,
                protocol.json_body(
                    {
                        "error": "overloaded: admission queue full",
                        "lane": lane,
                    }
                ),
            )
            # Followers of a shed leader shed too (same overload).
            self._inflight.resolve(key, payload)
            return self._respond(payload, lane, t0, served_from="shed", key=key)
        self._update_depth()
        payload = await self._await_entry(entry, deadline_at)
        return self._respond(payload, lane, t0, served_from="solve", key=key)

    async def _await_entry(
        self, entry, deadline_at: Optional[float]
    ) -> _Payload:
        fut = entry.subscribe()
        timeout = (
            None
            if deadline_at is None
            else max(0.0, deadline_at - time.monotonic()) + _WAIT_GRACE_S
        )
        try:
            return await asyncio.wait_for(asyncio.wrap_future(fut), timeout)
        except asyncio.TimeoutError:
            self._m_timeouts.inc(stage="wait")
            return _Payload(
                504,
                protocol.json_body(
                    {
                        "error": "deadline exceeded awaiting the solve",
                        "stage": "wait",
                    }
                ),
            )

    def _respond(
        self,
        payload: _Payload,
        lane: str,
        t0: float,
        served_from: str,
        key: Optional[str] = None,
    ) -> bytes:
        self._m_responses.inc(code=str(payload.status))
        self._m_request_seconds.observe(time.monotonic() - t0, lane=lane)
        headers = [("X-Repro-Served-From", served_from)]
        if key is not None:
            headers.append(("X-Repro-Cache-Key", key))
        if payload.status == 503:
            headers.append(("Retry-After", str(self.config.retry_after_s)))
        return protocol.http_response(
            payload.status, payload.body, headers=tuple(headers)
        )

    # ------------------------------------------------------------------
    # dispatcher side
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        promotions_seen = 0
        while True:
            item = self._queue.take(timeout=0.05)
            if item is None:
                if self._dispatch_stop.is_set() and self._queue.depth() == 0:
                    return
                continue
            lane, enqueued_at, job = item
            self._update_depth()
            if self._queue.promotions > promotions_seen:
                self._m_promotions.inc(self._queue.promotions - promotions_seen)
                promotions_seen = self._queue.promotions
            now = time.monotonic()
            self._m_queue_wait.observe(now - enqueued_at, lane=lane)
            if job.deadline_at is not None and now >= job.deadline_at:
                # SLO expired while queued: answer 504 without burning a
                # solve on a result nobody is waiting for.
                self._m_timeouts.inc(stage="queue")
                self._inflight.resolve(
                    job.key,
                    _Payload(
                        504,
                        protocol.json_body(
                            {
                                "error": "deadline exceeded while queued",
                                "stage": "queue",
                            }
                        ),
                    ),
                )
                continue
            payload = self._solve_job(job)
            if (
                payload.status == 200
                and self.config.cache_responses
            ):
                self._cache_store(job.request, job.key, payload)
            self._inflight.resolve(job.key, payload)

    def _solve_job(self, job: _Job) -> _Payload:
        req = job.request
        budget = (
            None
            if job.deadline_at is None
            else max(1e-3, job.deadline_at - time.monotonic())
        )
        cfg = protocol.build_config(req, self.config.solver, budget)
        t0 = time.monotonic()
        try:
            result = run_pipeline(
                req.graph, req.hierarchy, req.demands, cfg, path="serve"
            )
        except DegradedRunError as exc:
            kinds = {f.kind for f in exc.failures}
            status = 504 if "timeout" in kinds else 500
            if status == 504:
                self._m_timeouts.inc(stage="solve")
            return _Payload(
                status,
                protocol.json_body(
                    {
                        "error": str(exc)[:300],
                        **({"stage": "solve"} if status == 504 else {}),
                        "failures": [
                            {
                                "index": f.index,
                                "kind": f.kind,
                                "attempts": f.attempts,
                            }
                            for f in exc.failures
                        ],
                    }
                ),
            )
        except (InvalidInputError, InfeasibleError) as exc:
            return _Payload(400, protocol.json_body({"error": str(exc)}))
        except Exception as exc:
            return _Payload(
                500,
                protocol.json_body(
                    {"error": f"{type(exc).__name__}: {exc}"[:300]}
                ),
            )
        self._m_solve_seconds.observe(time.monotonic() - t0)
        # A degraded result that lost members to the deadline is the
        # "504 with a partial report" contract: allow_partial admitted
        # it, the caller learns it is late *and* gets the best effort.
        status = 200
        if result.degraded and any(f.kind == "timeout" for f in result.failures):
            status = 504
            self._m_timeouts.inc(stage="solve")
        body: Dict[str, Any] = {
            "n": req.graph.n,
            "cost": result.cost,
            "degraded": bool(result.degraded),
            "failures": [
                {"index": f.index, "kind": f.kind, "attempts": f.attempts}
                for f in result.failures
            ],
            "leaf_of": result.placement.leaf_of.tolist(),
        }
        if status == 504:
            body["stage"] = "solve"
        if req.want_report:
            body["report"] = result.report(path="serve").to_dict()
        return _Payload(status, protocol.json_body(body))

    # ------------------------------------------------------------------
    # response cache
    # ------------------------------------------------------------------

    def _cache_lookup(
        self, req: protocol.SolveRequest, key: str
    ) -> Optional[_Payload]:
        if not self.config.cache_responses:
            return None
        try:
            hit, value = get_cache().lookup(
                _RESPONSE_KIND, protocol.request_cache_parts(req)
            )
        except Exception:
            return None
        if not hit:
            return None
        status, body = value
        return _Payload(status, body)

    def _cache_store(
        self, req: protocol.SolveRequest, key: str, payload: _Payload
    ) -> None:
        try:
            get_cache().store(
                _RESPONSE_KIND,
                protocol.request_cache_parts(req),
                (payload.status, payload.body),
            )
        except Exception:
            pass
