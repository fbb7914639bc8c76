"""Pure-python/numpy reference backend for the kernel ABI.

These are the original hot-loop implementations *extracted* from
:mod:`repro.flow.maxflow`, :mod:`repro.hgpt.dp` and
:mod:`repro.graph.spectral`, plus a sort-free ``heavy_edge_match``
checked against its lexsort original in ``tests/kernels/reference.py``.
They define the bit-exact contract every other backend must match
(``tests/kernels/test_backends.py``), so changes here are semantic
changes to the solver.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "dinic_bfs_levels",
    "dinic_blocking_flow",
    "dp_tile_merge",
    "dp_dominance_prune",
    "csr_matvec",
    "heavy_edge_match",
]


# ----------------------------------------------------------------------
# Dinic (from repro.flow.maxflow)
# ----------------------------------------------------------------------


def dinic_bfs_levels(
    heads: np.ndarray,
    caps: np.ndarray,
    arc_indptr: np.ndarray,
    arc_ids: np.ndarray,
    s: int,
) -> np.ndarray:
    """Level-graph BFS from ``s`` over arcs with residual capacity."""
    n = arc_indptr.shape[0] - 1
    level = np.full(n, -1, dtype=np.int64)
    level[s] = 0
    queue = [s]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for a in arc_ids[arc_indptr[v]:arc_indptr[v + 1]]:
            u = heads[a]
            if caps[a] > 1e-12 and level[u] < 0:
                level[u] = level[v] + 1
                queue.append(int(u))
    return level


def dinic_blocking_flow(
    heads: np.ndarray,
    caps: np.ndarray,
    arc_indptr: np.ndarray,
    arc_ids: np.ndarray,
    level: np.ndarray,
    s: int,
    t: int,
) -> float:
    """One blocking-flow phase; mutates ``caps`` and ``level`` in place."""
    n = arc_indptr.shape[0] - 1
    it = [0] * n
    total = 0.0
    inf = float("inf")
    while True:
        pushed = _dfs_push(heads, caps, arc_indptr, arc_ids, level, it, s, t, inf)
        if pushed <= 1e-12:
            break
        total += pushed
    return total


def _dfs_push(
    heads: np.ndarray,
    caps: np.ndarray,
    arc_indptr: np.ndarray,
    arc_ids: np.ndarray,
    level: np.ndarray,
    it: List[int],
    s: int,
    t: int,
    limit: float,
) -> float:
    """One augmenting path in the level graph (explicit stack DFS)."""
    path: List[int] = []  # arc ids along the current path
    v = s
    while True:
        if v == t:
            bottleneck = min(limit, min(caps[a] for a in path)) if path else 0.0
            for a in path:
                caps[a] -= bottleneck
                caps[a ^ 1] += bottleneck
            return bottleneck
        advanced = False
        base = int(arc_indptr[v])
        deg = int(arc_indptr[v + 1]) - base
        while it[v] < deg:
            a = int(arc_ids[base + it[v]])
            u = int(heads[a])
            if caps[a] > 1e-12 and level[u] == level[v] + 1:
                path.append(a)
                v = u
                advanced = True
                break
            it[v] += 1
        if advanced:
            continue
        # Dead end: retreat.
        level[v] = -1
        if not path:
            return 0.0
        a = path.pop()
        v = int(heads[a ^ 1])
        it[v] += 1


# ----------------------------------------------------------------------
# DP merge + dominance (from repro.hgpt.dp)
# ----------------------------------------------------------------------


def dp_tile_merge(
    pa_sig: np.ndarray,
    pa_cost: np.ndarray,
    pb_sig: np.ndarray,
    pb_cost: np.ndarray,
    caps: np.ndarray,
    start: int,
    stop: int,
    budget: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One tile of the cross-product merge (see the dispatch docstring)."""
    nb = pb_cost.size
    idx = np.arange(start, stop, dtype=np.int64)
    ii = idx // nb
    jj = idx - ii * nb
    costs = pa_cost[ii] + pb_cost[jj]
    if budget < math.inf:
        ok = costs <= budget
        n_ok = int(np.count_nonzero(ok))
        if n_ok < idx.size:
            ii, jj, costs, idx = ii[ok], jj[ok], costs[ok], idx[ok]
    else:
        n_ok = int(idx.size)
    if n_ok == 0:
        empty = np.empty(0, dtype=np.int64)
        return (
            np.empty((0, caps.size), dtype=pa_sig.dtype),
            np.empty(0, dtype=np.float64),
            empty,
            empty,
            empty.copy(),
            0,
        )
    sums = pa_sig[ii] + pb_sig[jj]
    feas = (sums <= caps).all(axis=1)
    return sums[feas], costs[feas], ii[feas], jj[feas], idx[feas], n_ok


#: Candidate rows per vectorised dominance block (h >= 3 scan).
_DOM_BLOCK = 256


def dp_dominance_prune(
    sigs: np.ndarray,
    costs: np.ndarray,
    order: np.ndarray,
    beam_width: int,
) -> Tuple[np.ndarray, bool]:
    """Dominance scan over ``order``-sorted states (``beam_width < 0`` =
    no beam).  Returns kept row indices (scan order) and the beam flag.

    A state survives unless a previously kept signature is ≤ it
    componentwise.  Because survivors are scanned cheapest-first, the
    kept signatures form an antichain — for ``h ≤ 2`` that is a monotone
    staircase, so dominance queries become binary searches (O(m log m)
    total) instead of the generic O(m · kept) scan.  For ``h ≥ 3`` the
    scan is blocked: a whole block is checked against every previously
    kept signature in one vectorised comparison, and only rows that
    survive it (final survivors plus rows dominated solely inside their
    own block — transitivity guarantees nothing else slips through)
    reach the sequential pass, which then compares against block-local
    keeps only.
    """
    m = costs.size
    h = sigs.shape[1]
    beam = None if beam_width < 0 else int(beam_width)
    kept_idx: List[int] = []
    truncated = False
    if h == 1:
        # Survivor iff its signature is a new minimum.
        best = np.iinfo(np.int64).max
        for pos in order:
            s = int(sigs[pos, 0])
            if s >= best:
                continue
            best = s
            kept_idx.append(int(pos))
            if beam is not None and len(kept_idx) >= beam:
                truncated = True
                break
    elif h == 2:
        # Maintain the Pareto frontier of kept signatures as a staircase
        # (xs strictly increasing, ys strictly decreasing): (a, b) is
        # dominated iff the frontier point with the largest x <= a has
        # y <= b.  Kept states themselves need not be an antichain (a
        # later, more expensive state may be componentwise smaller), so
        # insertion evicts frontier points the new signature covers.
        xs: List[int] = []
        ys: List[int] = []
        for pos in order:
            a, b = int(sigs[pos, 0]), int(sigs[pos, 1])
            k = bisect.bisect_right(xs, a)
            if k > 0 and ys[k - 1] <= b:
                continue
            # Evict frontier points (x >= a, y >= b): anything they would
            # dominate in the future, (a, b) dominates too.
            end = k
            while end < len(xs) and ys[end] >= b:
                end += 1
            del xs[k:end]
            del ys[k:end]
            xs.insert(k, a)
            ys.insert(k, b)
            kept_idx.append(int(pos))
            if beam is not None and len(kept_idx) >= beam:
                truncated = True
                break
    else:
        sorted_sigs = sigs[order]
        kept_rows = np.empty((m, h), dtype=sigs.dtype)
        n_kept = 0
        for s in range(0, m, _DOM_BLOCK):
            block = sorted_sigs[s:s + _DOM_BLOCK]
            if n_kept:
                # One comparison of the whole block against every kept
                # signature; (h, kept, block) accumulation keeps the
                # temporary two-dimensional.
                dom = np.ones((n_kept, block.shape[0]), dtype=bool)
                for i in range(h):
                    dom &= kept_rows[:n_kept, i, None] <= block[None, :, i]
                survivors = np.nonzero(~dom.any(axis=0))[0]
            else:
                survivors = np.arange(block.shape[0])
            block_start = n_kept
            for t in survivors:
                sig = block[t]
                if n_kept > block_start and bool(
                    np.all(kept_rows[block_start:n_kept] <= sig, axis=1).any()
                ):
                    continue
                kept_rows[n_kept] = sig
                kept_idx.append(int(order[s + t]))
                n_kept += 1
                if beam is not None and n_kept >= beam:
                    truncated = True
                    break
            if truncated:
                break
    return np.asarray(kept_idx, dtype=np.int64), truncated


# ----------------------------------------------------------------------
# CSR matvec (from repro.graph.spectral's power iteration)
# ----------------------------------------------------------------------

#: One-slot wrapper cache: the power iteration multiplies the same
#: Laplacian thousands of times, so rebuilding the scipy view per call
#: would dominate.  Strong references to the arrays keep the id() key
#: from being recycled while the entry lives.
_MATVEC_CACHE: List[tuple] = []


def csr_matvec(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``A @ x`` via scipy's CSR kernel — arithmetic (and accumulation
    order) identical to the pre-seam ``lap @ x``."""
    key = (id(indptr), id(indices), id(data))
    if _MATVEC_CACHE and _MATVEC_CACHE[0][0] == key:
        mat = _MATVEC_CACHE[0][4]
    else:
        n = indptr.shape[0] - 1
        mat = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        _MATVEC_CACHE[:] = [(key, indptr, indices, data, mat)]
    return mat @ x


# ----------------------------------------------------------------------
# heavy-edge matching
# ----------------------------------------------------------------------


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in ``keys`` (none if empty)."""
    return np.flatnonzero(np.concatenate(([keys.size > 0], keys[1:] != keys[:-1])))


def heavy_edge_match(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    tie: np.ndarray,
    fits: np.ndarray,
    rounds: int,
) -> np.ndarray:
    """Proposal rounds over CSR adjacency (see the dispatch docstring)."""
    n = indptr.shape[0] - 1
    match = np.full(n, -1, dtype=np.int64)
    # Live entries, owner-grouped in CSR order.  Entries touching a matched
    # vertex can never become eligible again, so each round drops them.
    live = np.flatnonzero(fits)
    own = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))[live]
    nbr, w = indices[live], weights[live]
    best_w, best_t = np.empty(n, dtype=w.dtype), np.empty(n, dtype=tie.dtype)
    for _ in range(rounds):
        # Proposal: the heaviest live entry, then smallest tie, then first.
        start = _run_starts(own)
        best_w[own[start]] = np.maximum.reduceat(w, start)
        cand = np.flatnonzero(w == best_w[own])
        start = _run_starts(own[cand])
        best_t[own[cand[start]]] = np.minimum.reduceat(tie[nbr[cand]], start)
        cand = cand[tie[nbr[cand]] == best_t[own[cand]]]
        cand = cand[_run_starts(own[cand])]
        src, dst = own[cand], nbr[cand]
        proposal = np.full(n, -1, dtype=np.int64)
        proposal[src] = dst
        # Conflict resolution: only mutual proposals match this round.
        mutual = proposal[dst] == src
        match[src[mutual]] = dst[mutual]
        live = np.flatnonzero((match[own] < 0) & (match[nbr] < 0))
        own, nbr, w = own[live], nbr[live], w[live]
        if not (mutual.any() and own.size):
            break
    return match
