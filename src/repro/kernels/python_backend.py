"""Pure-python/numpy reference backend for the kernel ABI.

The Dinic kernels are the original hot loops *extracted* from
:mod:`repro.flow.maxflow`.  ``csr_matvec`` (from
:mod:`repro.graph.spectral`) calls scipy's CSR routine without the
``csr_matrix`` wrapper, pinned bytewise against ``csr_matrix @ x`` in
``tests/graph/test_embed_oracle.py``.  ``heavy_edge_match`` (sort-free)
and the two DP kernels from :mod:`repro.hgpt.dp` (whole-array masks in
place of per-pair gathers and a per-row loop) are rewrites, each checked
for exact equality against the original it replaced, kept in
``tests/kernels/reference.py``.  They define the bit-exact contract
every other backend must match (``tests/kernels/test_backends.py``), so
changes here are semantic changes to the solver.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Tuple

import numpy as np
from scipy.sparse import _sparsetools

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
    """Level-graph BFS from ``s`` over arcs with residual capacity.

    The network is paired-arc (arc ``a ^ 1`` reverses ``a``): vertex
    ``v``'s arcs are ``arc_ids[arc_indptr[v]:arc_indptr[v + 1]]``, arc
    ``a`` ends at ``heads[a]`` with residual capacity ``caps[a]``.
    Mutates nothing; returns each vertex's BFS level (``-1`` =
    unreachable).
    """
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
    """One Dinic phase: saturate the level graph, return the flow pushed.

    Mutates ``caps`` (residual capacities) and ``level`` (dead ends are
    marked ``-1``) in place.
    """
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
    """One DP merge tile over cross-product ranks ``[start, stop)``.

    Rank ``r`` pairs state ``r // nb`` of side A with state ``r % nb``
    of side B.  Mutates nothing; returns ``(sums, costs, ii, jj, rank,
    n_ok)`` — the capacity-feasible pairs (in ascending rank order) and
    the count of pairs that survived the ``budget`` mask (feasible or
    not), for the caller's pruning stats.

    The rows of A the tile touches are broadcast against all of B as
    one block; ranks outside the tile, pairs over budget and pairs over
    any level's capacity are masked out, so index gathers and signature
    sums are paid for feasible pairs only.
    """
    if stop <= start:
        return _empty_tile(caps.size, pa_sig.dtype)
    nb = pb_cost.size
    r0, r1 = start // nb, (stop - 1) // nb + 1
    costs = pa_cost[r0:r1, None] + pb_cost[None, :]
    ok = np.ones(costs.shape, dtype=bool)
    ok[0, : start - r0 * nb] = False
    ok[-1, stop - (r1 - 1) * nb :] = False
    if budget < math.inf:
        ok &= costs <= budget
    n_ok = int(np.count_nonzero(ok))
    if n_ok == 0:
        return _empty_tile(caps.size, pa_sig.dtype)
    for i in range(caps.size):
        ok &= pa_sig[r0:r1, None, i] + pb_sig[None, :, i] <= caps[i]
    ii, jj = np.nonzero(ok)
    costs = costs[ii, jj]
    ii += r0
    return pa_sig[ii] + pb_sig[jj], costs, ii, jj, ii * nb + jj, n_ok


def _empty_tile(h: int, sig_dtype: np.dtype) -> tuple:
    """``dp_tile_merge``'s result for a tile with no pair within budget."""
    empty = np.empty(0, dtype=np.int64)
    return (
        np.empty((0, h), dtype=sig_dtype),
        np.empty(0, dtype=np.float64),
        empty,
        empty,
        empty.copy(),
        0,
    )


#: Candidate rows per vectorised dominance block (h >= 3 scan).
_DOM_BLOCK = 256


def dp_dominance_prune(
    sigs: np.ndarray,
    costs: np.ndarray,
    order: np.ndarray,
    beam_width: int,
) -> Tuple[np.ndarray, bool]:
    """Dominance scan over states pre-sorted by ``order``.

    ``beam_width < 0`` disables the beam.  Mutates nothing; returns
    ``(kept, truncated)`` — surviving row indices in scan order, and
    whether the beam fired (the caller re-inserts the most-closed
    state).

    A state survives unless a previously kept signature is ≤ it
    componentwise.  Because survivors are scanned cheapest-first, the
    kept signatures form an antichain — for ``h ≤ 2`` that is a monotone
    staircase, so dominance queries become binary searches (O(m log m)
    total) instead of the generic O(m · kept) scan.  For ``h ≥ 3`` the
    scan is blocked: a whole block is first checked against every
    previously kept signature in one vectorised comparison, then its
    survivors against each other in one comparison under a strict
    upper-triangular mask, dropping a survivor that an earlier survivor
    of the block is ≤.  By transitivity that equals "≤ an earlier kept
    row": a dropped survivor was dropped by a kept one, which dominates
    too.  A beam keeps the block's first ``beam − kept`` survivors.
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
        kept_pos = [np.empty(0, dtype=np.int64)]
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
                survivors = np.flatnonzero(~dom.any(axis=0))
            else:
                survivors = np.arange(block.shape[0])
            cand = block[survivors]
            if cand.shape[0] > 1:
                # below[p, q]: survivor p precedes survivor q and is <= it.
                rank = np.arange(cand.shape[0])
                below = rank[:, None] < rank[None, :]
                for i in range(h):
                    below &= cand[:, None, i] <= cand[None, :, i]
                fresh = ~below.any(axis=0)
                survivors, cand = survivors[fresh], cand[fresh]
            if beam is not None and survivors.size and n_kept + survivors.size >= beam:
                # Like the h <= 2 scans, a beam of 0 keeps one row.
                cut = max(beam - n_kept, 1)
                survivors, cand = survivors[:cut], cand[:cut]
                truncated = True
            kept_rows[n_kept:n_kept + cand.shape[0]] = cand
            kept_pos.append(order[s + survivors])
            n_kept += cand.shape[0]
            if truncated:
                break
        return np.concatenate(kept_pos).astype(np.int64, copy=False), truncated
    return np.asarray(kept_idx, dtype=np.int64), truncated


# ----------------------------------------------------------------------
# CSR matvec (from repro.graph.spectral's power iteration)
# ----------------------------------------------------------------------


def csr_matvec(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``y = A @ x`` for the square CSR matrix ``(data, indices, indptr)``.

    Mutates nothing.  Fills ``np.zeros(n)`` through scipy's CSR routine
    ``_sparsetools.csr_matvec`` — what ``csr_matrix @ x`` runs under its
    wrapper — so the arithmetic (each row summed in storage order) is
    that of ``lap @ x``, without building a matrix object per call.  The
    routine reads whatever the arrays claim, so their sizes are checked
    here, as ``csr_matrix`` checks them (column ids are not scanned).
    """
    n = indptr.shape[0] - 1
    if x.shape != (n,) or indices.shape != data.shape or indptr[-1] > data.shape[0]:
        raise ValueError(
            f"inconsistent CSR arrays: indptr {indptr.shape}, indices "
            f"{indices.shape}, data {data.shape}, x {x.shape}"
        )
    y = np.zeros(n)
    _sparsetools.csr_matvec(n, n, indptr, indices, data, x, y)
    return y


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
    """Proposal-round heavy-edge matching over CSR adjacency.

    ``tie`` is the per-vertex random priority breaking weight ties (then
    the earlier CSR entry wins), ``fits`` the 0/1 per-CSR-entry
    eligibility mask (weight caps).  Mutates nothing; returns
    ``match[v]`` = partner or ``-1``.
    """
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
