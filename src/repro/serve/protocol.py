"""Wire protocol of the placement service (JSON bodies, HTTP helpers).

One request shape (``POST /v1/solve``)::

    {
      "graph":     {"n": 12, "edges": [[0, 1, 1.0], ...]},
      "hierarchy": {"degrees": [2, 4], "cm": [10, 3, 0], "leaf_capacity": 1.0},
      "demands":   [0.4, 0.1, ...],
      "priority":  "interactive" | "batch",          # default interactive
      "deadline_s": 5.0,                             # SLO budget (optional)
      "allow_partial": false,                        # admit degraded results
      "report": false,                               # include the run report
      "config": {"seed": 0, "n_trees": 4, ...}       # whitelisted overrides
    }

Responses are canonical JSON (sorted keys, no whitespace) so coalesced
fan-outs and cache hits are *byte-identical* to the leader's response —
the serving layer's bit-identity contract rides on this encoder.

Determinism note: everything that can change the response body is part
of :func:`request_cache_parts` (graph digest, hierarchy, demands,
config overrides, report flag); everything that only changes *failure
behaviour* (deadline, priority, allow_partial) deliberately is not, so
requests differing only in SLO share one in-flight solve.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.cache import cache_key
from repro.core.config import SolverConfig
from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy

__all__ = [
    "CONFIG_OVERRIDES",
    "ProtocolError",
    "SolveRequest",
    "build_config",
    "http_response",
    "json_body",
    "parse_solve_request",
    "request_cache_parts",
]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: ``SolverConfig`` fields a request's ``config`` block may override,
#: each with the JSON type its value must have (JSON ``true``/``false``
#: are not numbers).  A whitelist, not ``replace(**anything)``:
#: server-side resources (``n_jobs``, cache sizing) stay under the
#: operator's control no matter what a tenant sends.  The types belong
#: to the wire format, so they are checked here, at admission, and
#: ``SolverConfig`` keeps its own range checks.
CONFIG_OVERRIDES: Dict[str, Tuple[str, Callable[[Any], bool]]] = {
    "seed": (
        "a non-negative integer or null",
        lambda v: v is None or (_is_int(v) and v >= 0),
    ),
    "n_trees": ("an integer", _is_int),
    "beam_width": ("an integer or null", lambda v: v is None or _is_int(v)),
    "refine": ("a boolean", lambda v: isinstance(v, bool)),
    "refine_passes": ("an integer", _is_int),
    "slack": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(InvalidInputError):
    """A request body violates the wire contract (client error, 400)."""


@dataclass
class SolveRequest:
    """One parsed placement request."""

    graph: Graph
    hierarchy: Hierarchy
    demands: np.ndarray
    degrees: Tuple[int, ...]
    cm: Tuple[float, ...]
    leaf_capacity: float
    priority: str = "interactive"
    deadline_s: Optional[float] = None
    allow_partial: bool = False
    want_report: bool = False
    overrides: Dict[str, Any] = field(default_factory=dict)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ProtocolError(f"missing required field {where}.{key}")
    return obj[key]


@contextmanager
def _invalid(where: str) -> Iterator[None]:
    """Raise a bad or wrongly typed value met in the block as a ProtocolError."""
    try:
        yield
    except ProtocolError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid {where}: {exc}") from exc


def parse_solve_request(
    body: bytes, default_priority: str = "interactive"
) -> SolveRequest:
    """Parse and validate a ``POST /v1/solve`` body.

    Raises :class:`ProtocolError` (a client error, mapped to 400) on
    anything malformed; the solver's own ``validate_instance`` still
    runs at solve time for the semantic checks (capacity, ranges).
    """
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("request body must be a JSON object")

    gobj = _require(obj, "graph", "$")
    if not isinstance(gobj, dict):
        raise ProtocolError("graph must be an object with n and edges")
    edges = []
    with _invalid("graph"):
        n = int(_require(gobj, "n", "graph"))
        for i, e in enumerate(_require(gobj, "edges", "graph")):
            if len(e) == 2:
                u, v, w = e[0], e[1], 1.0
            elif len(e) == 3:
                u, v, w = e
            else:
                raise ProtocolError(
                    f"graph.edges[{i}] must be [u, v] or [u, v, w], got {e!r}"
                )
            edges.append((int(u), int(v), float(w)))
        graph = Graph(n, edges)

    hobj = _require(obj, "hierarchy", "$")
    if not isinstance(hobj, dict):
        raise ProtocolError("hierarchy must be an object with degrees and cm")
    with _invalid("hierarchy"):
        degrees = tuple(int(d) for d in _require(hobj, "degrees", "hierarchy"))
        cm = tuple(float(c) for c in _require(hobj, "cm", "hierarchy"))
        leaf_capacity = float(hobj.get("leaf_capacity", 1.0))
        hierarchy = Hierarchy(degrees, cm, leaf_capacity=leaf_capacity)

    with _invalid("demands"):
        demands = np.asarray(_require(obj, "demands", "$"), dtype=np.float64)
    if demands.ndim != 1 or demands.size != graph.n:
        raise ProtocolError(
            f"demands must be a flat list of {graph.n} floats, got shape "
            f"{demands.shape}"
        )

    priority = str(obj.get("priority", default_priority))
    if priority not in ("interactive", "batch"):
        raise ProtocolError(
            f"priority must be 'interactive' or 'batch', got {priority!r}"
        )

    deadline_s = obj.get("deadline_s")
    if deadline_s is not None:
        with _invalid("deadline_s"):
            deadline_s = float(deadline_s)
        if deadline_s <= 0:
            raise ProtocolError(f"deadline_s must be > 0, got {deadline_s}")

    overrides: Dict[str, Any] = {}
    cobj = obj.get("config") or {}
    if not isinstance(cobj, dict):
        raise ProtocolError("config must be an object of solver overrides")
    for key, value in cobj.items():
        if key not in CONFIG_OVERRIDES:
            raise ProtocolError(
                f"config.{key} is not an allowed override; choose from "
                f"{sorted(CONFIG_OVERRIDES)}"
            )
        kind, fits = CONFIG_OVERRIDES[key]
        if not fits(value):
            raise ProtocolError(f"config.{key} must be {kind}, got {value!r}")
        overrides[key] = value

    return SolveRequest(
        graph=graph,
        hierarchy=hierarchy,
        demands=demands,
        degrees=degrees,
        cm=cm,
        leaf_capacity=leaf_capacity,
        priority=priority,
        deadline_s=deadline_s,
        allow_partial=bool(obj.get("allow_partial", False)),
        want_report=bool(obj.get("report", False)),
        overrides=overrides,
    )


def request_cache_parts(req: SolveRequest) -> Tuple[Any, ...]:
    """The key material identifying a request's *solution*.

    Everything that can change the response body is here; SLO-only
    fields (deadline, priority, allow_partial) are not, so identical
    instances coalesce across tenants with different budgets.
    """
    return (
        req.graph.digest(),
        req.degrees,
        req.cm,
        req.leaf_capacity,
        req.demands,
        tuple(sorted(req.overrides.items())),
        req.want_report,
    )


def request_cache_key(req: SolveRequest) -> str:
    """Content-addressed identity of a request (coalescing/cache key)."""
    return cache_key("serve_request", request_cache_parts(req))


def build_config(
    req: SolveRequest,
    base: SolverConfig,
    budget_s: Optional[float] = None,
) -> SolverConfig:
    """The effective solver config for one request.

    Applies the request's whitelisted overrides to the server's base
    config (a value ``SolverConfig`` rejects raises :class:`ProtocolError`),
    then folds the remaining SLO budget into the resilience block:
    ``total_deadline_s`` is clamped to the remaining budget (so retries
    can never outlive the SLO — see
    :class:`repro.core.resilience.ResilienceConfig`), and a missing
    ``member_timeout_s`` is bounded by it too so a single hung pool
    member cannot eat the whole budget silently.
    """
    cfg = base
    if req.overrides:
        try:
            cfg = replace(cfg, **req.overrides)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid config override: {exc}") from exc
    res = cfg.resilience
    changes: Dict[str, Any] = {}
    if req.allow_partial and not res.allow_partial:
        changes["allow_partial"] = True
    if budget_s is not None:
        budget_s = max(budget_s, 1e-3)
        total = (
            budget_s
            if res.total_deadline_s is None
            else min(res.total_deadline_s, budget_s)
        )
        changes["total_deadline_s"] = total
        changes["member_timeout_s"] = (
            budget_s
            if res.member_timeout_s is None
            else min(res.member_timeout_s, budget_s)
        )
    if changes:
        cfg = replace(cfg, resilience=replace(res, **changes))
    return cfg


def json_body(obj: Any) -> bytes:
    """Canonical JSON bytes (sorted keys, no whitespace, UTF-8).

    The byte-identity contract of coalescing and the response cache
    rides on this: the same dict always encodes to the same bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def http_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    """Serialize one HTTP/1.1 response (Connection: close framing)."""
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    head.extend(f"{k}: {v}" for k, v in headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
