"""End-to-end tests for the placement server's HTTP surface.

Covers the status-code contract (200/400/404/408/413/503/504), response
caching, header semantics, metrics/stats/healthz endpoints, and the
bit-identity of served results against a direct ``run_pipeline`` call.
"""

from __future__ import annotations

import json
import socket
import time

import numpy as np
import pytest

from repro.core.engine import run_pipeline
from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.serve import PlacementClient, PlacementServer, ServeConfig
from repro.serve.protocol import parse_solve_request, request_cache_key

from .conftest import make_payload, start_server, tiny_solver


# ----------------------------------------------------------------------
# happy path
# ----------------------------------------------------------------------


def test_solve_matches_direct_pipeline(server, payload):
    srv, client = server
    resp = client.solve_raw({**payload, "deadline_s": 60.0})
    assert resp.status == 200
    assert resp.served_from == "solve"
    body = resp.json()

    g = Graph(payload["graph"]["n"], [tuple(e) for e in payload["graph"]["edges"]])
    hier = Hierarchy(
        payload["hierarchy"]["degrees"],
        payload["hierarchy"]["cm"],
        leaf_capacity=payload["hierarchy"]["leaf_capacity"],
    )
    ref = run_pipeline(
        g, hier, np.asarray(payload["demands"]), tiny_solver(), path="serve"
    )
    assert body["cost"] == ref.cost
    assert body["leaf_of"] == ref.placement.leaf_of.tolist()
    assert body["degraded"] is False
    assert body["failures"] == []
    assert body["n"] == g.n


def test_repeat_request_served_from_cache_byte_identical(server, payload):
    srv, client = server
    first = client.solve_raw(payload)
    second = client.solve_raw(payload)
    assert (first.status, second.status) == (200, 200)
    assert second.served_from == "cache"
    assert second.body == first.body
    assert second.headers["x-repro-cache-key"] == first.headers["x-repro-cache-key"]


def test_want_report_includes_report(server, payload):
    srv, client = server
    resp = client.solve_raw({**payload, "report": True})
    assert resp.status == 200
    body = resp.json()
    assert "report" in body
    assert body["report"]["cost"] == body["cost"]


def test_config_overrides_change_result_key(server, payload):
    srv, client = server
    a = client.solve_raw(payload)
    b = client.solve_raw({**payload, "config": {"seed": 99}})
    assert (a.status, b.status) == (200, 200)
    assert a.headers["x-repro-cache-key"] != b.headers["x-repro-cache-key"]


# ----------------------------------------------------------------------
# endpoints
# ----------------------------------------------------------------------


def test_healthz_metrics_stats_and_404(server, payload):
    srv, client = server
    assert client.healthz().status == 200

    client.solve_raw(payload)
    text = client.metrics()
    assert "repro_serve_requests_total" in text
    assert "repro_serve_responses_total" in text

    stats = client.stats()
    assert stats["draining"] is False
    assert set(stats["queue_depth"]) == {"interactive", "batch"}
    assert stats["offered"] >= 1

    assert client.request("GET", "/nope").status == 404
    assert client.request("POST", "/healthz").status == 404


def test_malformed_cache_budget_fails_at_start(clean_env, monkeypatch):
    # The process cache is built before the bind, so a bad budget stops
    # the server instead of failing every solve it would admit.
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "abc")
    srv = PlacementServer(ServeConfig(port=0, solver=tiny_solver()))
    with pytest.raises(InvalidInputError, match="REPRO_CACHE_MAX_BYTES"):
        srv.start()
    assert srv._loop_thread is None and srv._dispatcher is None


# ----------------------------------------------------------------------
# input validation -> 400
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("graph"),
        lambda p: p.pop("hierarchy"),
        lambda p: p.pop("demands"),
        lambda p: p.__setitem__("priority", "urgent"),
        lambda p: p.__setitem__("deadline_s", -1),
        lambda p: p.__setitem__("config", {"n_jobs": 64}),  # not whitelisted
        lambda p: p.__setitem__("demands", [1.0]),  # wrong length
        lambda p: p["graph"].__setitem__("edges", [[0]]),
        # json reads the Infinity literal; the hierarchy must refuse it.
        lambda p: p["hierarchy"].__setitem__("cm", [float("inf"), float("inf"), 0.0]),
        # Wrongly typed fields and overrides are client errors too.
        lambda p: p["graph"].__setitem__("n", "ab"),
        lambda p: p["hierarchy"].__setitem__("degrees", "ab"),
        lambda p: p["hierarchy"].__setitem__("cm", ["x", 1, 0]),
        lambda p: p["hierarchy"].__setitem__("cm", None),
        lambda p: p["hierarchy"].__setitem__("leaf_capacity", "abc"),
        lambda p: p.__setitem__("demands", ["x"] * len(p["demands"])),
        lambda p: p.__setitem__("deadline_s", "soon"),
        lambda p: p.__setitem__("config", {"n_trees": "4"}),
        lambda p: p.__setitem__("config", {"slack": "x"}),
        # Overrides must have their JSON type: SolverConfig alone took
        # these (or failed on them mid-solve with a 500).
        lambda p: p.__setitem__("config", {"seed": "abc"}),
        lambda p: p.__setitem__("config", {"seed": -1}),
        lambda p: p.__setitem__("config", {"seed": True}),
        lambda p: p.__setitem__("config", {"n_trees": 2.5}),
        lambda p: p.__setitem__("config", {"n_trees": True}),
        lambda p: p.__setitem__("config", {"beam_width": 2.5}),
        lambda p: p.__setitem__("config", {"refine": "no"}),
        lambda p: p.__setitem__("config", {"refine": 0}),
        lambda p: p.__setitem__("config", {"refine_passes": 1.5}),
        lambda p: p.__setitem__("config", {"slack": True}),
    ],
)
def test_invalid_request_is_400(server, payload, mutate):
    srv, client = server
    bad = json.loads(json.dumps(payload))
    mutate(bad)
    assert client.solve_raw(bad).status == 400


def test_bad_override_leaves_the_dispatcher_solving(clean_env, payload):
    """A wrongly typed override is refused at admission, so it never
    reaches the dispatcher thread, and the next valid request is solved."""
    srv = start_server(cache_responses=False, solver=tiny_solver(n_jobs=1))
    try:
        client = PlacementClient(srv.url, timeout=60.0)
        bad = {**payload, "deadline_s": 1, "config": {"n_trees": "4"}}
        assert client.solve_raw(bad).status == 400
        assert client.solve_raw({**payload, "deadline_s": 1}).status == 200
    finally:
        srv.drain(timeout=30.0)


def test_unparseable_json_is_400(server):
    srv, client = server
    resp = client.request("POST", "/v1/solve", b"{not json")
    assert resp.status == 400


def test_oversized_body_is_413(clean_env, payload):
    srv = start_server(max_body_bytes=1024)
    try:
        client = PlacementClient(srv.url, timeout=30.0)
        assert client.solve_raw(payload).status == 413
    finally:
        srv.drain(timeout=30.0)


def test_slow_client_read_times_out_408(clean_env):
    srv = start_server(read_timeout_s=0.3)
    try:
        port = int(srv.url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
            sock.sendall(
                b"POST /v1/solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
            )
            # ...and never send the body: the server must give up.
            buf = b""
            while b"\r\n\r\n" not in buf:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                buf += chunk
        assert b" 408 " in buf.split(b"\r\n", 1)[0]
    finally:
        srv.drain(timeout=30.0)


# ----------------------------------------------------------------------
# overload -> 503, deadline -> 504
# ----------------------------------------------------------------------


def test_full_queue_sheds_503_with_retry_after(clean_env, payload, monkeypatch):
    srv = start_server(queue_capacity=1, retry_after_s=7)
    try:
        client = PlacementClient(srv.url, timeout=30.0)
        # Force every admission attempt to shed via the chaos site that
        # models a saturated queue deterministically.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "serve_flood")
        resp = client.solve_raw(payload)
        assert resp.status == 503
        assert resp.served_from == "shed"
        assert resp.retry_after_s == 7
        body = resp.json()
        assert "overloaded" in body["error"]
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        # Recovery: the same request succeeds once pressure is gone.
        assert client.solve_raw(payload).status == 200
    finally:
        srv.drain(timeout=30.0)


def test_expired_deadline_is_504_queue_stage(server, payload):
    srv, client = server
    resp = client.solve_raw({**payload, "deadline_s": 1e-9})
    assert resp.status == 504
    assert "deadline" in resp.json()["error"]


def test_504_body_names_the_stage(server, payload):
    srv, client = server
    resp = client.solve_raw({**payload, "deadline_s": 1e-9})
    assert resp.json().get("stage") in ("queue", "wait", "solve")


# ----------------------------------------------------------------------
# drain
# ----------------------------------------------------------------------


def test_drain_rejects_new_work_and_stops(clean_env, payload):
    srv = start_server()
    client = PlacementClient(srv.url, timeout=30.0)
    assert client.solve_raw(payload).status == 200
    srv.initiate_drain()
    assert client.healthz().status == 503
    resp = client.solve_raw(payload)
    assert resp.status == 503
    assert resp.served_from == "drain"
    srv.drain(timeout=30.0)
    with pytest.raises(Exception):
        client.healthz()


def test_context_manager_drains(clean_env, payload):
    with start_server() as srv:
        client = PlacementClient(srv.url, timeout=30.0)
        assert client.solve_raw(payload).status == 200
    assert srv._drained.is_set()


# ----------------------------------------------------------------------
# protocol unit details
# ----------------------------------------------------------------------


def test_cache_key_ignores_slo_fields(payload):
    base = parse_solve_request(json.dumps(payload).encode())
    slo = parse_solve_request(
        json.dumps(
            {**payload, "deadline_s": 5.0, "priority": "batch",
             "allow_partial": True}
        ).encode()
    )
    assert request_cache_key(base) == request_cache_key(slo)


def test_cache_key_tracks_solve_inputs(payload):
    base = parse_solve_request(json.dumps(payload).encode())
    changed = json.loads(json.dumps(payload))
    changed["demands"][0] += 0.25
    changed["demands"][1] -= 0.25
    other = parse_solve_request(json.dumps(changed).encode())
    assert request_cache_key(base) != request_cache_key(other)


def test_queue_wait_metric_recorded(server, payload):
    srv, client = server
    client.solve_raw(payload)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if "repro_serve_queue_wait_seconds" in client.metrics():
            return
        time.sleep(0.05)
    pytest.fail("queue-wait histogram never appeared in /metrics")


# ----------------------------------------------------------------------
# profiling an in-process server
# ----------------------------------------------------------------------


def test_profile_session_samples_the_dispatcher(clean_env):
    """The dispatcher thread runs every in-process solve, so a
    ProfileSession around the server attributes samples to its stages."""
    from repro.obs.profile import ProfileConfig, ProfileSession

    srv = start_server(cache_responses=False, solver=tiny_solver(n_jobs=1))
    try:
        client = PlacementClient(srv.url, timeout=60.0)
        with ProfileSession(ProfileConfig(hz=200)) as session:
            for seed in range(11, 17):
                assert client.solve_raw(make_payload(seed=seed)).status == 200
    finally:
        srv.drain(timeout=30.0)
    assert {"trees", "dp", "refine"} & set(session.profile["span_shares"])
