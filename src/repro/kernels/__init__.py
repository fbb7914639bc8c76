"""Pluggable hot-path kernels behind a backend seam (ROADMAP item 3).

Profiling (the PR 7 sampling profiler) puts the remaining solve time in
three pure-python/numpy hot loops: Dinic's level-BFS / blocking-flow DFS
(:mod:`repro.flow.maxflow`, driven ``n − 1`` times per Gomory–Hu build),
the RHGPT tiled merge + dominance prune (:mod:`repro.hgpt.dp`), and the
spectral Laplacian matvec plus CSR heavy-edge matching feeding the
multilevel front-end.  This package factors those loops out behind a
narrow ABI over flat ndarrays so they can be swapped for JIT/native
implementations without touching the algorithms:

``dinic_bfs_levels``
    Level-graph BFS over a paired-arc residual network.
``dinic_blocking_flow``
    One blocking-flow phase (explicit-stack DFS with iteration
    pointers); mutates the residual capacities in place.
``dp_tile_merge``
    One tile of the DP cross-product merge: pair costs, budget mask,
    signature sums, capacity feasibility.
``dp_dominance_prune``
    The dominance scan over a pre-sorted state table (+ optional beam).
``csr_matvec``
    ``y = A @ x`` for a CSR matrix given as raw arrays.
``heavy_edge_match``
    Proposal-round heavy-edge matching over CSR adjacency.

Backends
--------
``python``
    The reference implementations (``heavy_edge_match`` rewritten
    sort-free, the rest extracted verbatim).  Always available.
``numba``
    ``@njit(cache=True)`` ports, soft-gated on ``import numba``: when
    numba is missing the registry logs one line and falls back to
    ``python`` — never an error.  A future C-extension backend registers
    through the same seam.

**Bit-identical outputs across backends are the contract** — every
kernel returns (and mutates) exactly the same arrays on every backend,
enforced by the hypothesis equivalence suite in
``tests/kernels/test_backends.py``.  Floating-point accumulation order
is therefore part of each kernel's spec.

Selection
---------
Explicit config wins, then the environment, then auto-detection:

1. ``KernelConfig(backend="python"|"numba")`` (or the CLI flag
   ``repro solve --kernel-backend``) selects that backend; a missing
   numba still falls back to python with a one-time log line.
2. ``backend="auto"`` consults ``REPRO_KERNEL_BACKEND`` when set.
3. Otherwise: numba when importable, else python.

The resolved backend is scoped with :func:`use_backend` (the engine
wraps each run), stamped into run reports as ``kernel_backend``, and
every dispatch increments ``repro_kernel_dispatch_total{kernel,backend}``.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import InvalidInputError

__all__ = [
    "KernelConfig",
    "KernelBackend",
    "KERNEL_NAMES",
    "register_backend",
    "available_backends",
    "resolve_backend",
    "get_backend",
    "use_backend",
    "dinic_bfs_levels",
    "dinic_blocking_flow",
    "dp_tile_merge",
    "dp_dominance_prune",
    "csr_matvec",
    "heavy_edge_match",
]

#: The six entry points every backend must provide.
KERNEL_NAMES = (
    "dinic_bfs_levels",
    "dinic_blocking_flow",
    "dp_tile_merge",
    "dp_dominance_prune",
    "csr_matvec",
    "heavy_edge_match",
)

#: Environment override consulted by ``backend="auto"``.
ENV_VAR = "REPRO_KERNEL_BACKEND"

_log = logging.getLogger("repro.kernels")


@dataclass(frozen=True)
class KernelConfig:
    """Hot-path kernel selection (the ``kernel`` field of ``SolverConfig``).

    Attributes
    ----------
    backend:
        ``"auto"`` (default) — ``REPRO_KERNEL_BACKEND`` when set, else
        numba when importable, else the pure-python reference.
        ``"python"`` / ``"numba"`` pin the backend explicitly; a pinned
        backend whose runtime dependency is missing falls back to python
        with a one-time log line.  All backends return bit-identical
        results — this knob trades wall-clock only, never outputs.
    """

    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.backend not in ("auto", "python", "numba"):
            raise InvalidInputError(
                f"kernel backend must be 'auto', 'python' or 'numba', "
                f"got {self.backend!r}"
            )


class KernelBackend:
    """A named implementation of the six-kernel ABI.

    Thin namespace object: attribute per kernel, plus ``name`` (what run
    reports and the dispatch metric record).
    """

    __slots__ = ("name",) + KERNEL_NAMES

    def __init__(self, name: str, **kernels: Callable) -> None:
        missing = set(KERNEL_NAMES) - set(kernels)
        extra = set(kernels) - set(KERNEL_NAMES)
        if missing or extra:
            raise InvalidInputError(
                f"backend {name!r} kernel set mismatch: "
                f"missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        self.name = name
        for kernel_name, fn in kernels.items():
            setattr(self, kernel_name, fn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelBackend({self.name!r})"


#: Registered factories, in registration order (python first = the
#: auto-detect fallback of last resort).  A factory returns ``None``
#: when its runtime dependency is unavailable.
_FACTORIES: Dict[str, Callable[[], Optional[KernelBackend]]] = {}

#: Instantiated backends (``None`` cached for unavailable ones).
_INSTANCES: Dict[str, Optional[KernelBackend]] = {}

#: ``use_backend`` scope stack; empty = process default.
_ACTIVE: List[KernelBackend] = []

#: Cached auto-resolved default, keyed by the env value it saw.
_DEFAULT: Optional[Tuple[str, KernelBackend]] = None

#: One-time-log guard (fallback + unknown-env warnings).
_WARNED: Set[str] = set()


def register_backend(
    name: str, factory: Callable[[], Optional[KernelBackend]]
) -> None:
    """Register a backend factory under ``name``.

    The factory is called lazily (first resolution) and may return
    ``None`` to signal "dependency missing" — resolution then falls back
    to python.  Registering an existing name replaces it (and drops any
    cached instance), which is how a future C extension slots in.
    """
    global _DEFAULT
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)
    _DEFAULT = None


def available_backends() -> List[str]:
    """Names of registered backends whose dependencies import, in
    registration order."""
    return [name for name in _FACTORIES if _instantiate(name) is not None]


def _instantiate(name: str) -> Optional[KernelBackend]:
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def _warn_once(key: str, message: str) -> None:
    if key not in _WARNED:
        _WARNED.add(key)
        _log.warning(message)


def resolve_backend(choice: str = "auto") -> KernelBackend:
    """Resolve a backend name (or ``"auto"``) to a usable backend.

    Precedence: an explicit ``choice`` wins; ``"auto"`` consults
    ``REPRO_KERNEL_BACKEND``, then prefers numba when importable, then
    python.  An explicitly chosen backend whose dependency is missing
    falls back to python with a one-time log line; an *unknown* explicit
    name raises (config typos should not silently change performance).
    """
    if choice is None:
        choice = "auto"
    if choice == "auto":
        env = os.environ.get(ENV_VAR, "").strip().lower()
        if env and env != "auto":
            if env in _FACTORIES:
                choice = env
            else:
                _warn_once(
                    f"env:{env}",
                    f"{ENV_VAR}={env!r} names no registered kernel backend "
                    f"(registered: {sorted(_FACTORIES)}); auto-detecting",
                )
    if choice == "auto":
        for name in ("numba", "python"):
            backend = _instantiate(name) if name in _FACTORIES else None
            if backend is not None:
                return backend
        raise InvalidInputError("no kernel backend available")  # pragma: no cover
    if choice not in _FACTORIES:
        raise InvalidInputError(
            f"unknown kernel backend {choice!r} "
            f"(registered: {sorted(_FACTORIES)})"
        )
    backend = _instantiate(choice)
    if backend is None:
        _warn_once(
            f"fallback:{choice}",
            f"kernel backend {choice!r} unavailable "
            "(dependency not importable); falling back to 'python'",
        )
        fallback = _instantiate("python")
        assert fallback is not None
        return fallback
    return backend


def get_backend() -> KernelBackend:
    """The active backend: innermost :func:`use_backend` scope, else the
    (cached) auto-resolved process default."""
    if _ACTIVE:
        return _ACTIVE[-1]
    global _DEFAULT
    env = os.environ.get(ENV_VAR, "")
    if _DEFAULT is None or _DEFAULT[0] != env:
        _DEFAULT = (env, resolve_backend("auto"))
    return _DEFAULT[1]


@contextmanager
def use_backend(choice: str = "auto"):
    """Scope the active backend (re-entrant; yields the resolved backend).

    The engine wraps each run in this so every kernel dispatched below —
    including inside cached helpers that never see the config — uses the
    run's configured backend.
    """
    backend = resolve_backend(choice)
    _ACTIVE.append(backend)
    try:
        yield backend
    finally:
        _ACTIVE.pop()


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

#: Cached ``repro_kernel_dispatch_total`` children keyed (kernel, backend)
#: — the labels() find-or-create lookup is off the hot path after the
#: first dispatch of each pair.  The cache is tied to one registry
#: ``(object, generation)`` pair and flushed whenever either changes, so
#: a test-side ``reset()`` cannot leave it holding orphaned children.
_DISPATCH: Dict[Tuple[str, str], object] = {}
_DISPATCH_KEY: Optional[Tuple[object, int]] = None


def _dispatch_child(kernel: str, backend: str):
    global _DISPATCH_KEY
    # Imported lazily: this package sits below every hot-path module
    # (flow, dp, spectral, contraction import it at module level), so an
    # import-time metrics dependency would cycle through repro.obs ->
    # repro.core -> ... -> those same modules.
    from repro.obs.metrics import get_registry

    registry = get_registry()
    if _DISPATCH_KEY is None or (
        _DISPATCH_KEY[0] is not registry or _DISPATCH_KEY[1] != registry.generation
    ):
        _DISPATCH.clear()
        _DISPATCH_KEY = (registry, registry.generation)
    key = (kernel, backend)
    child = _DISPATCH.get(key)
    if child is None:
        child = registry.counter(
            "repro_kernel_dispatch_total",
            "Hot-path kernel invocations by kernel name and backend",
            labelnames=("kernel", "backend"),
        ).labels(kernel=kernel, backend=backend)
        _DISPATCH[key] = child
    return child


def dinic_bfs_levels(heads, caps, arc_indptr, arc_ids, s, *, backend=None):
    """BFS levels of the residual level graph (``-1`` = unreachable)."""
    b = backend if backend is not None else get_backend()
    _dispatch_child("dinic_bfs_levels", b.name).inc()
    return b.dinic_bfs_levels(heads, caps, arc_indptr, arc_ids, s)


def dinic_blocking_flow(
    heads, caps, arc_indptr, arc_ids, level, s, t, *, backend=None
):
    """One Dinic phase: saturate the level graph, return the flow pushed.

    Mutates ``caps`` (residual capacities) and ``level`` (dead ends are
    marked ``-1``) in place.
    """
    b = backend if backend is not None else get_backend()
    _dispatch_child("dinic_blocking_flow", b.name).inc()
    return b.dinic_blocking_flow(heads, caps, arc_indptr, arc_ids, level, s, t)


def dp_tile_merge(
    pa_sig, pa_cost, pb_sig, pb_cost, caps, start, stop, budget, *, backend=None
):
    """One DP merge tile over cross-product ranks ``[start, stop)``.

    Returns ``(sums, costs, ii, jj, rank, n_ok)`` — the capacity-feasible
    pairs (in ascending rank order) and the count of pairs that survived
    the ``budget`` mask (feasible or not), for the caller's pruning
    stats.
    """
    b = backend if backend is not None else get_backend()
    _dispatch_child("dp_tile_merge", b.name).inc()
    return b.dp_tile_merge(
        pa_sig, pa_cost, pb_sig, pb_cost, caps, start, stop, budget
    )


def dp_dominance_prune(sigs, costs, order, beam_width, *, backend=None):
    """Dominance scan over states pre-sorted by ``order``.

    ``beam_width < 0`` disables the beam.  Returns ``(kept, truncated)``
    — surviving row indices in scan order, and whether the beam fired
    (the caller re-inserts the most-closed state).
    """
    b = backend if backend is not None else get_backend()
    _dispatch_child("dp_dominance_prune", b.name).inc()
    return b.dp_dominance_prune(sigs, costs, order, beam_width)


def csr_matvec(indptr, indices, data, x, *, backend=None):
    """``y = A @ x`` for the CSR matrix ``(data, indices, indptr)``."""
    b = backend if backend is not None else get_backend()
    _dispatch_child("csr_matvec", b.name).inc()
    return b.csr_matvec(indptr, indices, data, x)


def heavy_edge_match(
    indptr, indices, weights, tie, fits, rounds, *, backend=None
):
    """Proposal-round heavy-edge matching over CSR adjacency.

    ``tie`` is the per-vertex random priority breaking weight ties (then
    the earlier CSR entry wins), ``fits`` the 0/1 per-CSR-entry eligibility
    mask (weight caps).  Returns ``match[v]`` = partner or ``-1``.
    """
    b = backend if backend is not None else get_backend()
    _dispatch_child("heavy_edge_match", b.name).inc()
    return b.heavy_edge_match(indptr, indices, weights, tie, fits, rounds)


# ----------------------------------------------------------------------
# built-in backends
# ----------------------------------------------------------------------


def _python_factory() -> Optional[KernelBackend]:
    from repro.kernels import python_backend as impl

    return KernelBackend(
        "python", **{name: getattr(impl, name) for name in KERNEL_NAMES}
    )


def _numba_factory() -> Optional[KernelBackend]:
    # Import lazily so python-only environments never touch numba at all.
    from repro.kernels import numba_backend as impl

    if not impl.NUMBA_AVAILABLE:
        return None
    return KernelBackend(
        "numba", **{name: getattr(impl, name) for name in KERNEL_NAMES}
    )


register_backend("python", _python_factory)
register_backend("numba", _numba_factory)
