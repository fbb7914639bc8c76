"""The six hot-path kernels, bound once at import to the fastest backend.

Four loops sit behind a narrow ABI over flat ndarrays: Dinic's
level-BFS / blocking-flow DFS (:mod:`repro.flow.maxflow`, driven
``n − 1`` times per Gomory–Hu build), the RHGPT tiled merge + dominance
prune (:mod:`repro.hgpt.dp`), the Fiedler power iteration's Laplacian
matvec (:mod:`repro.graph.spectral`; scipy's C CSR routine on the python
backend) and the CSR heavy-edge matching feeding the multilevel
front-end.  The embed layer's other loops — Stoer–Wagner
(:mod:`repro.flow.mincut`), union–find and induced subgraphs
(:class:`repro.graph.graph.Graph`) and the sweep cut — stay in their
modules as python-list or whole-array code.  Each kernel's contract is
documented on its :mod:`repro.kernels.python_backend` function:

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
``python`` (:mod:`repro.kernels.python_backend`)
    The reference implementations.  Always available.
``numba`` (:mod:`repro.kernels.numba_backend`)
    ``@njit(cache=True)`` ports, usable when ``import numba`` succeeds.

**Bit-identical outputs across backends are the contract** — every
kernel returns (and mutates) exactly the same arrays on both backends,
enforced by the hypothesis equivalence suite in
``tests/kernels/test_backends.py``.  Floating-point accumulation order
is therefore part of each kernel's spec, and the choice of backend
changes wall-clock only.

Selection
---------
The six names below are bound once, at import: to ``numba_backend``'s
functions when numba imports (``numba_backend.NUMBA_AVAILABLE``), else
to ``python_backend``'s.  :data:`BACKEND` names the choice and run
reports stamp it as ``meta["kernel_backend"]``.  Callers use attribute
access (``kernels.csr_matvec(...)``), so a test can swap an
implementation with ``monkeypatch.setattr``.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.errors import InvalidInputError
from repro.kernels import numba_backend, python_backend

__all__ = [
    "BACKEND",
    "KERNEL_NAMES",
    "resolve_backend",
    "dinic_bfs_levels",
    "dinic_blocking_flow",
    "dp_tile_merge",
    "dp_dominance_prune",
    "csr_matvec",
    "heavy_edge_match",
]

#: The six entry points every backend provides.
KERNEL_NAMES = (
    "dinic_bfs_levels",
    "dinic_blocking_flow",
    "dp_tile_merge",
    "dp_dominance_prune",
    "csr_matvec",
    "heavy_edge_match",
)

_IMPL = numba_backend if numba_backend.NUMBA_AVAILABLE else python_backend

#: The backend the six kernels are bound to: ``"numba"`` or ``"python"``.
BACKEND = "numba" if numba_backend.NUMBA_AVAILABLE else "python"

dinic_bfs_levels = _IMPL.dinic_bfs_levels
dinic_blocking_flow = _IMPL.dinic_blocking_flow
dp_tile_merge = _IMPL.dp_tile_merge
dp_dominance_prune = _IMPL.dp_dominance_prune
csr_matvec = _IMPL.csr_matvec
heavy_edge_match = _IMPL.heavy_edge_match


def resolve_backend(choice: str = "auto") -> SimpleNamespace:
    """The backend bound at import: its ``name`` and its six kernels.

    ``"auto"`` is the only choice — the backend follows whether numba
    imports — and any other argument raises :class:`InvalidInputError`.
    """
    if choice != "auto":
        raise InvalidInputError(
            f"the kernel backend is chosen at import; expected 'auto', got {choice!r}"
        )
    return SimpleNamespace(
        name=BACKEND, **{name: getattr(_IMPL, name) for name in KERNEL_NAMES}
    )
