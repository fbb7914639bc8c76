"""Contraction (heavy-edge agglomeration) decomposition trees.

Bottom-up counterpart of the recursive-bisection builders: repeatedly
compute a randomized *heavy-edge matching* (prefer merging the pairs that
communicate most) and contract matched pairs into supervertices; the merge
forest, read top-down, is the decomposition tree.  The intuition mirrors
multilevel partitioners: heavily-communicating vertices should share a
subtree so any partition cutting high in the tree leaves them together.

Because every round at least halves the number of clusters that found a
match, the tree has O(log n) expected depth on bounded-degree graphs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

import repro.kernels as kernels
from repro.graph.graph import Graph
from repro.decomposition.tree import DecompositionTree, TreeAssembler
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "contraction_decomposition_tree",
    "heavy_edge_matching",
    "matching_labels",
    "aggregate_unmatched",
    "two_hop_matching",
]


def heavy_edge_matching(
    g: Graph,
    rng: np.random.Generator,
    *,
    vertex_weights: Optional[np.ndarray] = None,
    max_weight: Optional[float] = None,
    rounds: int = 8,
) -> np.ndarray:
    """Vectorised randomized heavy-edge matching (the METIS coarsening step).

    Runs proposal rounds over the CSR adjacency: each free vertex
    proposes to its heaviest *eligible* free neighbour (ties broken by a
    seeded random vertex priority, so results are deterministic given
    ``rng``), and mutual proposals become matches.  A handful of rounds
    reaches a maximal-ish matching — each round matches a constant
    fraction of the surviving proposal graph in expectation — without any
    per-vertex Python loop.

    When ``vertex_weights`` and ``max_weight`` are given, a pair is only
    eligible if the merged supervertex stays within ``max_weight``.  The
    multilevel front-end uses this with ``max_weight = leaf_capacity`` so
    every coarse level remains a feasible HGP instance.

    Returns ``match[v]`` = partner id or ``-1`` (unmatched).

    The proposal rounds themselves are the ``heavy_edge_match`` kernel
    dispatched through :mod:`repro.kernels`; this wrapper draws the
    random tie-break priority (before anything else, preserving the rng
    stream) and precomputes the per-CSR-entry weight-cap mask.
    """
    n = g.n
    if n == 0 or g.m == 0:
        return np.full(n, -1, dtype=np.int64)
    tie = rng.permutation(n).astype(np.int64)
    if vertex_weights is not None and max_weight is not None:
        vw = np.asarray(vertex_weights, dtype=np.float64)
        deg = np.diff(g.indptr)
        owner = np.repeat(np.arange(n, dtype=np.int64), deg)
        fits = (vw[owner] + vw[g.indices]) <= max_weight * (1 + 1e-9)
    else:
        fits = np.ones(g.indices.size, dtype=bool)
    return kernels.heavy_edge_match(
        g.indptr, g.indices, g.adj_weights, tie, fits, max(1, rounds)
    )


def matching_labels(match: np.ndarray) -> np.ndarray:
    """Dense supervertex labels from a matching vector.

    Matched pairs share the label of their smaller endpoint; unmatched
    vertices keep their own.  Labels are re-numbered ``0..L-1`` in
    representative order, so the output is deterministic given ``match``
    and directly consumable by :meth:`repro.graph.Graph.contract`.
    """
    match = np.asarray(match, dtype=np.int64)
    n = match.size
    ids = np.arange(n, dtype=np.int64)
    rep = np.where(match >= 0, np.minimum(ids, match), ids)
    _, labels = np.unique(rep, return_inverse=True)
    return labels.astype(np.int64, copy=False)


def _heaviest_neighbour(g: Graph) -> np.ndarray:
    """Neighbour across each vertex's heaviest edge (the first CSR entry
    on ties, ``-1`` if isolated), by two segment reductions over rows."""
    deg = np.diff(g.indptr)
    nz = deg > 0
    start = g.indptr[:-1][nz]
    top = np.repeat(np.maximum.reduceat(g.adj_weights, start), deg[nz])
    pos = np.where(g.adj_weights == top, np.arange(top.size), top.size)
    heavy = np.full(g.n, -1, dtype=np.int64)
    heavy[nz] = g.indices[np.minimum.reduceat(pos, start)]
    return heavy


def aggregate_unmatched(
    g: Graph,
    match: np.ndarray,
    *,
    vertex_weights: Optional[np.ndarray] = None,
    max_weight: Optional[float] = None,
) -> np.ndarray:
    """Merge unmatched vertices into their heaviest neighbour's cluster.

    Matching alone coarsens star-like regions one leaf per level (a hub
    can match only one spoke), so heavy-tailed graphs stall.  This is the
    standard escape hatch: every vertex the matching left single joins
    the cluster of its heaviest neighbour, *many-to-one*, lightest
    joiners first, subject to the same ``max_weight`` cap as matching.
    Returns dense supervertex labels (a drop-in replacement for
    :func:`matching_labels` output).

    Chains are resolved conservatively: a single vertex whose heaviest
    neighbour also moves may end up alone in the neighbour's abandoned
    cluster — still a valid labelling, just no shrink for that vertex.
    """
    labels = matching_labels(match)
    n = g.n
    if n == 0 or g.m == 0:
        return labels
    deg = np.diff(g.indptr)
    free = (np.asarray(match) < 0) & (deg > 0)
    if not free.any():
        return labels
    fv = np.nonzero(free)[0]
    target = labels[_heaviest_neighbour(g)[fv]]
    if vertex_weights is None or max_weight is None:
        labels[fv] = target
    else:
        vw = np.asarray(vertex_weights, dtype=np.float64)
        base = np.bincount(labels, weights=vw, minlength=int(labels.max()) + 1)
        ord2 = np.lexsort((vw[fv], target))
        fv_s = fv[ord2]
        t_s = target[ord2]
        w_s = vw[fv_s]
        # Per-target prefix sums: accept joiners while the cluster stays
        # under the cap (segment-local cumsum via a forward-filled offset).
        cs = np.cumsum(w_s)
        starts = np.nonzero(np.diff(t_s))[0] + 1
        offset = np.zeros(fv_s.size, dtype=np.float64)
        offset[starts] = cs[starts - 1]
        np.maximum.accumulate(offset, out=offset)
        ok = base[t_s] + (cs - offset) <= max_weight * (1 + 1e-9)
        labels[fv_s[ok]] = t_s[ok]
    _, labels = np.unique(labels, return_inverse=True)
    return labels.astype(np.int64, copy=False)


def two_hop_matching(
    g: Graph,
    match: np.ndarray,
    *,
    vertex_weights: Optional[np.ndarray] = None,
    max_weight: Optional[float] = None,
) -> np.ndarray:
    """Cap-aware 2-hop matching: pair unmatched vertices sharing a hub.

    On star-like graphs both the matching (hub pairs one spoke) and the
    many-to-one aggregation (the hub cluster rides the ``max_weight``
    cap) stall, leaving thousands of singleton spokes per level.  The
    standard multilevel escape is to match such vertices *with each
    other* through their common heaviest neighbour: two spokes of one
    hub are 2-hop neighbours and merging them needs no hub capacity.

    Unmatched vertices are grouped by heaviest neighbour and paired
    greedily lightest-first within each group, subject to the same
    ``max_weight`` cap as matching.  Returns a copy of ``match`` with
    the new pairs filled in (feed it to :func:`aggregate_unmatched` /
    :func:`matching_labels`).  Deterministic given ``match``; the
    per-vertex loop only runs on the stalled remainder, so the cost is
    bounded by the stall itself.
    """
    match = np.asarray(match, dtype=np.int64).copy()
    n = g.n
    if n == 0 or g.m == 0:
        return match
    deg = np.diff(g.indptr)
    free = (match < 0) & (deg > 0)
    if not free.any():
        return match
    fv = np.nonzero(free)[0]
    key = _heaviest_neighbour(g)[fv]
    if vertex_weights is not None and max_weight is not None:
        vw = np.asarray(vertex_weights, dtype=np.float64)
        limit = float(max_weight) * (1 + 1e-9)
    else:
        vw = np.zeros(n, dtype=np.float64)
        limit = np.inf
    ord2 = np.lexsort((fv, vw[fv], key))
    pending = -1
    pending_key = -1
    for v, k in zip(fv[ord2].tolist(), key[ord2].tolist()):
        if k != pending_key or pending < 0:
            pending, pending_key = v, k
            continue
        if vw[pending] + vw[v] <= limit:
            match[pending] = v
            match[v] = pending
            pending = -1
        else:
            # Weights ascend within the group: if the lightest pending
            # cannot pair with v, no later pair in this group fits either.
            pending = v
    return match


def contraction_decomposition_tree(
    g: Graph, seed: SeedLike = None, max_rounds: int = 10_000
) -> DecompositionTree:
    """Decomposition tree via iterated heavy-edge contraction.

    Each matching round merges matched cluster pairs under a new internal
    node.  When a round makes no progress (no edges left — disconnected
    remnants), all remaining clusters join under the root.
    """
    rng = ensure_rng(seed)
    asm = TreeAssembler(g)
    # Current clusters: tree-node id per cluster + member vertex lists.
    node_of_cluster: List[int] = [asm.add_leaf(v) for v in range(g.n)]
    members: List[np.ndarray] = [np.asarray([v], dtype=np.int64) for v in range(g.n)]
    current = g

    for _ in range(max_rounds):
        if len(node_of_cluster) == 1:
            break
        if current.m == 0:
            # Disconnected leftovers: a single root joins them for free.
            root = asm.add_internal(node_of_cluster)
            node_of_cluster = [root]
            break
        match = heavy_edge_matching(current, rng)
        labels = np.full(current.n, -1, dtype=np.int64)
        new_nodes: List[int] = []
        new_members: List[np.ndarray] = []
        nxt = 0
        for v in range(current.n):
            if labels[v] >= 0:
                continue
            u = int(match[v])
            if u >= 0 and labels[u] < 0:
                labels[v] = labels[u] = nxt
                new_nodes.append(
                    asm.add_internal([node_of_cluster[v], node_of_cluster[u]])
                )
                new_members.append(
                    np.concatenate([members[v], members[u]])
                )
            else:
                labels[v] = nxt
                new_nodes.append(node_of_cluster[v])
                new_members.append(members[v])
            nxt += 1
        if nxt == current.n:
            # No pair matched (e.g. a perfect independent remnant): join all.
            root = asm.add_internal(node_of_cluster)
            node_of_cluster = [root]
            break
        current = current.contract(labels)
        node_of_cluster = new_nodes
        members = new_members

    if len(node_of_cluster) != 1:
        root = asm.add_internal(node_of_cluster)
        node_of_cluster = [root]
    return asm.finish(node_of_cluster[0])
