"""Dinic's maximum-flow algorithm on undirected capacity networks.

Used by the Gomory–Hu tree builder and by the flow-based decomposition
tree heuristics.  The residual network lives in flat numpy arrays (arc
lists with paired reverse arcs, CSR-style per-vertex arc segments), and
the level-graph BFS / blocking-flow DFS loop dispatches through the
:mod:`repro.kernels` backend seam — the pure-python reference kernels
are the original explicit-stack implementations, and the numba backend
JIT-compiles the same loops with bit-identical results.

Complexity: ``O(V^2 E)`` in general, ``O(E sqrt(V))`` on unit networks —
ample for the instance sizes the decomposition builders feed it.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

import repro.kernels as kernels
from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.obs.metrics import get_registry

__all__ = ["DinicMaxFlow", "max_flow"]


#: Bound once at import: the Gomory–Hu builder runs ``n − 1`` solves, so
#: per-call registry find-or-create lookups were measurable hot-path
#: overhead.  ``MetricsRegistry.reset`` clears series in place, so these
#: handles stay live across it.
_CALLS = get_registry().counter(
    "repro_flow_maxflow_calls_total", "Completed Dinic max-flow solves"
)
_SECONDS = get_registry().histogram(
    "repro_flow_maxflow_seconds", "Wall-clock seconds of one max-flow solve"
)


class DinicMaxFlow:
    """Reusable max-flow engine over a fixed set of arcs.

    Undirected edges are modelled as two directed arcs that *share*
    capacity via their residual pairing (add capacity ``c`` in both
    directions), which is the textbook reduction for undirected flow.

    Parameters
    ----------
    n:
        Number of vertices.

    Notes
    -----
    Arcs are appended with :meth:`add_edge` before calling
    :meth:`solve`.  After a solve, :meth:`min_cut_side` extracts the
    source side of a minimum cut from the final residual network.
    """

    def __init__(self, n: int):
        if n < 2:
            raise InvalidInputError("flow network needs n >= 2")
        self.n = n
        self._heads: List[int] = []
        self._caps: List[float] = []
        self._adj: List[List[int]] = [[] for _ in range(n)]
        self._frozen = False
        self.heads: np.ndarray
        self.caps: np.ndarray

    @classmethod
    def from_graph(cls, g: Graph) -> "DinicMaxFlow":
        """Build (and freeze) an engine over ``g``'s undirected edges.

        The returned engine is ready for repeated ``solve`` calls on
        varying terminal pairs — each re-solve restores capacities from
        the frozen master via ``np.copyto`` instead of rebuilding the
        arc arrays (the Gomory–Hu builder runs ``n − 1`` solves on one
        engine this way).
        """
        engine = cls(g.n)
        for u, v, w in g.iter_edges():
            engine.add_edge(u, v, w)
        engine._freeze()
        return engine

    def add_edge(self, u: int, v: int, capacity: float, directed: bool = False) -> None:
        """Add an arc ``u -> v`` (and the paired residual arc).

        With ``directed=False`` (default) the reverse arc also gets
        ``capacity``, making the edge undirected.
        """
        if self._frozen:
            raise InvalidInputError("cannot add edges after solve()")
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            raise InvalidInputError(f"bad arc ({u}, {v})")
        if capacity < 0:
            raise InvalidInputError(f"capacity must be >= 0, got {capacity}")
        a = len(self._heads)
        self._heads.extend((v, u))
        self._caps.extend((capacity, capacity if not directed else 0.0))
        self._adj[u].append(a)
        self._adj[v].append(a + 1)

    def _freeze(self) -> None:
        self.heads = np.asarray(self._heads, dtype=np.int64)
        # Frozen master copy of the input capacities: re-solves restore
        # from this ndarray instead of reconverting the Python list.
        self._caps0 = np.asarray(self._caps, dtype=np.float64)
        self._caps0.setflags(write=False)
        self.caps = self._caps0.copy()
        # Flat per-vertex arc segments (CSR over arc ids) — the layout
        # the kernel ABI consumes; preserves _adj's append order.
        counts = np.fromiter(
            (len(arcs) for arcs in self._adj), dtype=np.int64, count=self.n
        )
        self.arc_indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.arc_indptr[1:])
        self.arc_ids = np.asarray(
            [a for arcs in self._adj for a in arcs], dtype=np.int64
        )
        self._frozen = True

    def solve(self, s: int, t: int) -> float:
        """Maximum ``s``–``t`` flow value; mutates residual capacities."""
        if s == t:
            raise InvalidInputError("source equals sink")
        if not self._frozen:
            self._freeze()
        else:
            # Re-solving on the same network requires fresh capacities;
            # restore from the frozen master without an O(m) list pass.
            np.copyto(self.caps, self._caps0)
        t0 = time.perf_counter()
        heads, caps = self.heads, self.caps
        arc_indptr, arc_ids = self.arc_indptr, self.arc_ids
        s, t = int(s), int(t)
        total = 0.0
        while True:
            level = kernels.dinic_bfs_levels(heads, caps, arc_indptr, arc_ids, s)
            if level[t] < 0:
                break
            total += kernels.dinic_blocking_flow(
                heads, caps, arc_indptr, arc_ids, level, s, t
            )
        _CALLS.inc()
        _SECONDS.observe(time.perf_counter() - t0)
        return total

    def min_cut_side(self, s: int) -> np.ndarray:
        """Source side of a min cut: vertices reachable in the residual graph.

        Only valid immediately after :meth:`solve`.
        """
        if not self._frozen:
            raise InvalidInputError("solve() has not been called")
        heads, caps, adj = self.heads, self.caps, self._adj
        side = np.zeros(self.n, dtype=bool)
        side[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for a in adj[v]:
                u = int(heads[a])
                if caps[a] > 1e-12 and not side[u]:
                    side[u] = True
                    stack.append(u)
        return side


def max_flow(g: Graph, s: int, t: int) -> Tuple[float, np.ndarray]:
    """Max ``s``–``t`` flow and the source-side min-cut mask of graph ``g``."""
    engine = DinicMaxFlow.from_graph(g)
    value = engine.solve(s, t)
    return value, engine.min_cut_side(s)
