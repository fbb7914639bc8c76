"""Sort-based reference for the hierarchy-aware FM refiner.

``fm_refine_hierarchy`` is the refiner ``repro.baselines.fm`` shipped
before its boundary-only rewrite, kept unchanged: every pass builds one
``np.unique`` connection table per hierarchy level over all CSR
entries, plus one more for the candidate ``(vertex, leaf)`` pairs.
``test_fm_oracle.py`` requires exact equality with it: the same labels
and the same four ``HierarchyRefineStats`` fields.
"""

from typing import Optional, Tuple

import numpy as np

from repro.baselines.fm import HierarchyRefineStats
from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.placement import eq1_cost


def fm_refine_hierarchy(
    g: Graph,
    hierarchy: Hierarchy,
    demands: np.ndarray,
    leaf_of: np.ndarray,
    max_passes: int = 2,
    load_limit: Optional[float] = None,
    min_gain: float = 1e-12,
) -> Tuple[np.ndarray, HierarchyRefineStats]:
    """Hierarchy-aware FM: move vertices between leaves to cut Eq. (1) cost.

    Each pass works in three vectorised steps plus one short Python
    apply loop:

    1. **Connection tables** — for every hierarchy level ``j``, group-sum
       the CSR adjacency by ``(vertex, level-j ancestor of the
       neighbour's leaf)``; entry ``C_vj(t)`` is how much weight ``v``
       sends under H-node ``t``.
    2. **Gains** — candidate targets are the distinct neighbour leaves of
       each vertex.  Writing ``cm`` via its level deltas
       ``δ_j = cm(j−1) − cm(j)``, moving ``v`` from leaf ``L`` to ``L'``
       changes the cost by ``−Σ_j δ_j (C_vj(anc_j L') − C_vj(anc_j L))``
       — a batched table lookup per level.
    3. **Apply** — positive-gain moves are applied best-first; applying a
       move locks the vertex and its neighbours for the rest of the pass
       so every applied gain stays exact.  A move must fit the capacity
       budget of every hierarchy node it enters (``load_limit ×
       capacity``; the default budget tolerates the incoming placement's
       own violation but never worsens it).
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
    min_gain:
        Smallest gain considered an improvement.

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
    best_cost = start_cost
    best_leaf = leaf_of.copy()

    for _ in range(max_passes):
        stats.passes += 1
        nbr_leaf = leaf_of[nbr]
        # (1) connection tables, one sorted group-by per level.
        conn_keys, conn_vals = {}, {}
        for j in levels:
            key = owner * hierarchy.count(j) + nbr_leaf // widths[j]
            uk, inv = np.unique(key, return_inverse=True)
            conn_keys[j] = uk
            conn_vals[j] = np.bincount(inv, weights=wts)

        # (2) candidate (vertex, neighbour-leaf) pairs + batched gains.
        ckey = owner * k + nbr_leaf
        uc = np.unique(ckey)
        cand_v = uc // k
        cand_leaf = uc % k
        keep = cand_leaf != leaf_of[cand_v]
        cand_v, cand_leaf = cand_v[keep], cand_leaf[keep]
        if cand_v.size == 0:
            break
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
        pos_gain = gains > min_gain
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

    final_cost = eq1_cost(g, hierarchy, leaf_of)
    if final_cost > best_cost + 1e-12:
        leaf_of = best_leaf
        stats.rolled_back = True
    stats.gain = start_cost - best_cost
    return leaf_of, stats
