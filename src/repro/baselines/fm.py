"""Fiduccia–Mattheyses refinement: flat two-way and hierarchy-aware k-way.

:func:`fm_refine` is the classic linear-time-per-pass move-based
refinement used inside every serious multilevel partitioner (METIS,
SCOTCH, JOSTLE — the packages the paper's related work cites).  Given an
initial two-sided partition, each pass tentatively moves every vertex
once in order of best *gain* (cut reduction), tracks the best prefix of
moves that respects the balance window, and commits it.  Passes repeat
until no improvement.  It uses a lazy max-heap instead of the original
gain buckets — gains here are floats (weighted graphs), so bucket arrays
do not apply; the heap keeps the pass at ``O(m log n)``.

:func:`fm_refine_hierarchy` is its HGP generalisation, built for the
multilevel front-end's uncoarsening sweep: vertices move between
hierarchy *leaves* and gains score the Eq. (1) objective — ``cm``-level
deltas weighted by the vertex's connection strength to each candidate
subtree — against per-node capacity budgets at every hierarchy level,
not a flat cut.  Only boundary vertices (those with a neighbour on
another leaf) can move, so each pass reads just their CSR entries and
computes every gain in bulk from one sort of those entries; only the
(short) sequence of applied moves runs in Python, with neighbour
locking so every applied gain is exact.  Passes snapshot the best
labelling seen and roll back to it, so the refined placement never
costs more than the input.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.placement import eq1_cost

__all__ = ["fm_refine", "fm_refine_hierarchy", "HierarchyRefineStats", "eq1_cost"]


def _gains(g: Graph, side: np.ndarray) -> np.ndarray:
    """Gain of moving each vertex to the other side: external − internal weight."""
    gain = np.zeros(g.n)
    same = side[g.edges_u] == side[g.edges_v]
    # external edges contribute +w to both endpoints, internal −w.
    contrib = np.where(same, -g.edges_w, g.edges_w)
    np.add.at(gain, g.edges_u, contrib)
    np.add.at(gain, g.edges_v, contrib)
    return gain


def fm_refine(
    g: Graph,
    side: np.ndarray,
    vertex_weights: Optional[np.ndarray] = None,
    target_fraction: float = 0.5,
    tol: float = 0.1,
    max_passes: int = 10,
) -> np.ndarray:
    """Refine a 2-way partition in place-style (returns a new mask).

    Parameters
    ----------
    g:
        Graph being partitioned.
    side:
        Boolean mask: ``True`` = side A.
    vertex_weights:
        Balance weights (defaults to unit).
    target_fraction:
        Desired fraction of total weight on side A.
    tol:
        Allowed deviation of side A's weight fraction from the target.
    max_passes:
        FM passes (each pass is a full tentative move sequence).

    Returns
    -------
    numpy.ndarray
        Refined boolean mask with cut weight no worse than the input's
        (monotone improvement is asserted by tests).
    """
    side = np.asarray(side, dtype=bool).copy()
    if side.shape != (g.n,):
        raise InvalidInputError(f"side must have shape ({g.n},)")
    w = (
        np.ones(g.n)
        if vertex_weights is None
        else np.asarray(vertex_weights, dtype=np.float64)
    )
    if w.shape != (g.n,):
        raise InvalidInputError(f"vertex_weights must have shape ({g.n},)")
    total_w = float(w.sum())
    # The balance window is widened to at least one heaviest vertex on
    # each side of the target (METIS convention): a window narrower than
    # a single vertex weight would freeze every move and silently disable
    # refinement on small or integer-weighted graphs.
    w_max = float(w.max()) if w.size else 0.0
    half = max(tol * total_w, w_max)
    lo = target_fraction * total_w - half
    hi = target_fraction * total_w + half

    for _ in range(max_passes):
        gain = _gains(g, side)
        locked = np.zeros(g.n, dtype=bool)
        heap = [(-gain[v], v) for v in range(g.n)]
        heapq.heapify(heap)
        weight_a = float(w[side].sum())

        moves: list[int] = []
        cum_gain = 0.0
        best_gain = 0.0
        best_prefix = 0
        trial_side = side.copy()
        trial_gain = gain

        while heap:
            negg, v = heapq.heappop(heap)
            if locked[v] or -negg != trial_gain[v]:
                # Stale entry: every gain change pushed a fresh entry at
                # update time, so this one can simply be discarded.
                continue
            # Balance check for the tentative move.
            new_weight_a = weight_a + (-w[v] if trial_side[v] else w[v])
            if not (lo - 1e-12 <= new_weight_a <= hi + 1e-12):
                locked[v] = True  # cannot move this pass
                continue
            # Commit tentatively.
            locked[v] = True
            cum_gain += float(trial_gain[v])
            moves.append(v)
            weight_a = new_weight_a
            old = trial_side[v]
            trial_side[v] = not old
            # Update neighbour gains: an edge to a same-side neighbour was
            # internal (now external) and vice versa.
            start, end = g.indptr[v], g.indptr[v + 1]
            for idx in range(start, end):
                u = int(g.indices[idx])
                if locked[u]:
                    continue
                wuv = float(g.adj_weights[idx])
                if trial_side[u] == old:
                    # was same side, now opposite: u's gain decreases... no:
                    # moving u would now keep them together; edge flipped
                    # from internal to external for u: gain increases? For u,
                    # edge (u,v): before move, u and v same side => edge
                    # internal => contributed -w to u's gain. After, opposite
                    # sides => +w. Delta = +2w.
                    trial_gain[u] += 2.0 * wuv
                else:
                    trial_gain[u] -= 2.0 * wuv
                heapq.heappush(heap, (-trial_gain[u], u))
            if cum_gain > best_gain + 1e-12:
                best_gain = cum_gain
                best_prefix = len(moves)

        if best_prefix == 0:
            break
        for v in moves[:best_prefix]:
            side[v] = not side[v]
    return side


# ----------------------------------------------------------------------
# hierarchy-aware k-way refinement (the multilevel uncoarsening pass)
# ----------------------------------------------------------------------


@dataclass
class HierarchyRefineStats:
    """Diagnostics of one :func:`fm_refine_hierarchy` call.

    ``gain`` is the realised Eq. (1) cost reduction (input cost minus
    returned cost, ≥ 0 by the rollback contract); ``rolled_back`` is set
    when the final pass had to be discarded in favour of an earlier
    snapshot.
    """

    passes: int = 0
    moves: int = 0
    gain: float = 0.0
    rolled_back: bool = False


#: Smallest gain treated as an improvement.
MIN_GAIN = 1e-12


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted, non-empty array that start a run
    of equal values."""
    new = np.empty(sorted_keys.size, dtype=bool)
    new[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    return new


def fm_refine_hierarchy(
    g: Graph,
    hierarchy: Hierarchy,
    demands: np.ndarray,
    leaf_of: np.ndarray,
    max_passes: int = 2,
    load_limit: Optional[float] = None,
) -> Tuple[np.ndarray, HierarchyRefineStats]:
    """Hierarchy-aware FM: move vertices between leaves to cut Eq. (1) cost.

    Only *boundary* vertices — those with a neighbour on another leaf —
    can move: a vertex whose neighbours all share its leaf has no
    candidate target.  Each pass therefore works on the CSR entries of
    boundary vertices alone, in four steps:

    1. **Connection tables** — one argsort of the entries by
       ``(vertex, neighbour's leaf)``; it is stable only for speed, as
       the CSR already groups entries by vertex.  A leaf's level-``j``
       ancestor is monotone in the leaf, so that one order also sorts
       every level's ``(vertex, level-j ancestor)`` key, and each
       level's groups fall out of a diff/cumsum over it.  Entry
       ``C_vj(t)`` — the weight ``v`` sends under H-node ``t`` — is the
       group's sum, accumulated in CSR entry order.
    2. **Gains** — candidate targets are the distinct neighbour leaves of
       each vertex (the leaf level's groups).  Writing ``cm`` via its
       level deltas ``δ_j = cm(j−1) − cm(j)``, moving ``v`` from leaf
       ``L`` to ``L'`` changes the cost by
       ``−Σ_j δ_j (C_vj(anc_j L') − C_vj(anc_j L))`` — a batched table
       lookup per level.
    3. **Apply** — each vertex takes its best target (largest gain, then
       smallest leaf); positive-gain moves are applied in order of gain,
       then vertex id.  Applying a move locks the vertex and its
       neighbours for the rest of the pass so every applied gain stays
       exact.  A move must fit the capacity budget of every hierarchy
       node it enters (``load_limit × capacity``; the default budget
       tolerates the incoming placement's own violation but never
       worsens it).  This is the only Python loop.
    4. **Rollback** — the cost after each pass is measured exactly; the
       best labelling seen is returned, so refinement is monotone.

    Parameters
    ----------
    g, hierarchy, demands:
        The (possibly coarse) instance; ``demands`` are balance weights.
    leaf_of:
        Initial leaf assignment (not mutated).
    max_passes:
        Maximum refinement sweeps; passes stop early when no positive-gain
        move applies.
    load_limit:
        Per-node load/capacity budget.  ``None`` uses the incoming
        placement's own worst violation (floored at 1.0) per level.

    Returns
    -------
    (numpy.ndarray, HierarchyRefineStats)
        The refined leaf assignment and pass diagnostics.
    """
    leaf_of = np.asarray(leaf_of, dtype=np.int64).copy()
    d = np.asarray(demands, dtype=np.float64)
    n, h = g.n, hierarchy.h
    if leaf_of.shape != (n,):
        raise InvalidInputError(f"leaf_of must have shape ({n},)")
    if d.shape != (n,):
        raise InvalidInputError(f"demands must have shape ({n},)")
    stats = HierarchyRefineStats()
    if n == 0 or g.m == 0 or max_passes <= 0:
        return leaf_of, stats

    widths = hierarchy._suffix_prod  # widths[j] = leaves under a level-j node
    deltas = np.array(
        [hierarchy.cm[j - 1] - hierarchy.cm[j] for j in range(1, h + 1)],
        dtype=np.float64,
    )
    levels = [j for j in range(1, h + 1) if deltas[j - 1] > 0]
    if not levels:  # constant cm: every labelling costs the same
        return leaf_of, stats
    deg = np.diff(g.indptr)
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    nbr = g.indices
    wts = g.adj_weights
    k = hierarchy.k

    def level_loads(j: int) -> np.ndarray:
        loads = np.zeros(hierarchy.count(j))
        np.add.at(loads, leaf_of // widths[j], d)
        return loads

    # Per-level capacity budgets: never below full capacity, never below
    # the violation the incoming placement already carries.
    budgets = {}
    for j in range(1, h + 1):
        cap = hierarchy.capacity(j)
        loads = level_loads(j)
        limit = (
            load_limit
            if load_limit is not None
            else max(1.0, float(loads.max()) / cap if loads.size else 1.0)
        )
        budgets[j] = limit * cap

    start_cost = eq1_cost(g, hierarchy, leaf_of)
    cost = best_cost = start_cost
    best_leaf = leaf_of.copy()

    for _ in range(max_passes):
        stats.passes += 1
        # (1) connection tables over the boundary vertices' entries.
        nbr_leaf = leaf_of[nbr]
        boundary = np.zeros(n, dtype=bool)
        boundary[owner[nbr_leaf != np.repeat(leaf_of, deg)]] = True
        entries = np.flatnonzero(np.repeat(boundary, deg))
        if entries.size == 0:
            break
        b_wts = wts[entries]
        key = owner[entries] * k + nbr_leaf[entries]
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        inv = np.empty(entries.size, dtype=np.int64)
        conn_keys, conn_vals = {}, {}
        for j in levels:
            # k is a multiple of widths[j], so this is still sorted and
            # equals vertex * count(j) + level-j ancestor.
            level_key = sorted_key // widths[j]
            new = _run_starts(level_key)
            # Group ids in CSR entry order, so bincount adds each group's
            # weights in the order the sums are defined in.
            inv[order] = np.cumsum(new) - 1
            conn_keys[j] = level_key[new]
            conn_vals[j] = np.bincount(inv, weights=b_wts)

        # (2) candidates are the leaf level's groups, minus each vertex's
        # own leaf; then batched gains.
        uc = sorted_key[_run_starts(sorted_key)]
        cand_v = uc // k
        cand_leaf = uc % k
        keep = cand_leaf != leaf_of[cand_v]
        cand_v, cand_leaf = cand_v[keep], cand_leaf[keep]
        gains = np.zeros(cand_v.size)
        for j in levels:
            cnt = hierarchy.count(j)
            uk, vals = conn_keys[j], conn_vals[j]

            def conn(anc: np.ndarray) -> np.ndarray:
                q = cand_v * cnt + anc
                pos = np.searchsorted(uk, q)
                pos_c = np.minimum(pos, uk.size - 1)
                hit = uk[pos_c] == q
                out = np.zeros(q.size)
                out[hit] = vals[pos_c[hit]]
                return out

            gains += deltas[j - 1] * (
                conn(cand_leaf // widths[j]) - conn(leaf_of[cand_v] // widths[j])
            )
        pos_gain = gains > MIN_GAIN
        cand_v, cand_leaf, gains = cand_v[pos_gain], cand_leaf[pos_gain], gains[pos_gain]
        if cand_v.size == 0:
            break
        # Best target per vertex, then apply best-first.
        order = np.lexsort((cand_leaf, -gains, cand_v))
        cand_v, cand_leaf, gains = cand_v[order], cand_leaf[order], gains[order]
        first = np.ones(cand_v.size, dtype=bool)
        first[1:] = cand_v[1:] != cand_v[:-1]
        cand_v, cand_leaf, gains = cand_v[first], cand_leaf[first], gains[first]
        apply_order = np.argsort(-gains, kind="stable")

        # (3) the only Python loop: applied moves with neighbour locking.
        loads = {j: level_loads(j) for j in range(1, h + 1)}
        dirty = np.zeros(n, dtype=bool)
        moved = 0
        for i in apply_order:
            v = int(cand_v[i])
            if dirty[v]:
                continue
            src, tgt = int(leaf_of[v]), int(cand_leaf[i])
            fits = True
            for j in range(1, h + 1):
                t_node = tgt // widths[j]
                if t_node != src // widths[j] and (
                    loads[j][t_node] + d[v] > budgets[j] + 1e-9
                ):
                    fits = False
                    break
            if not fits:
                continue
            for j in range(1, h + 1):
                t_node, s_node = tgt // widths[j], src // widths[j]
                if t_node != s_node:
                    loads[j][t_node] += d[v]
                    loads[j][s_node] -= d[v]
            leaf_of[v] = tgt
            dirty[v] = True
            dirty[nbr[g.indptr[v] : g.indptr[v + 1]]] = True
            moved += 1
        if moved == 0:
            break
        stats.moves += moved
        # (4) exact cost + rollback-to-best snapshot.
        cost = eq1_cost(g, hierarchy, leaf_of)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_leaf = leaf_of.copy()

    if cost > best_cost + 1e-12:
        leaf_of = best_leaf
        stats.rolled_back = True
    stats.gain = start_cost - best_cost
    return leaf_of, stats
