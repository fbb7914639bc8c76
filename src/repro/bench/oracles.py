"""Exhaustive oracles used to certify the DP (tests + experiment E1).

``brute_force_optimum`` minimises over every *edge cut-level assignment*
of a binary tree — each edge gets a deepest-kept level ``j_e`` and is cut
at all levels ``k > j_e``, exactly the shape of nice solutions
(Corollary 1) — checking quantized capacities on the leaf components of
each level and charging ``w(e) · (cm(k−1) − cm(k))`` for every cut level
whose child-side component is non-empty.  Its minimum is the
ground-truth RHGPT optimum for small trees.

A level's components, and so its feasibility and cost, depend only on
which edges that level keeps.  The oracle therefore evaluates each
kept-edge mask once (``2^E`` masks over the ``E`` finite edges; dummy
edges are always kept) and scores assignments from those tables: an
assignment is a chain of masks ``S_1 ⊇ … ⊇ S_h`` with
``S_k = {e : j_e ≥ k}``, and the cheapest chain is found level by level
with a subset-minimum pass.  Exponential in the edge count — keep below
~16 edges.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.decomposition.tree import TreeAssembler
from repro.hgpt.binarize import BinaryTree, binarize

__all__ = ["brute_force_optimum", "path_binary_tree"]


def path_binary_tree(weights: Sequence[float], demands: Sequence[int]) -> BinaryTree:
    """Balanced binary decomposition tree over a path graph's vertices.

    A convenient small-instance factory: ``weights[i]`` is the path edge
    ``(i, i+1)``; leaves get ``demands``.
    """
    n = len(demands)
    g = Graph(n, [(i, i + 1, float(weights[i])) for i in range(n - 1)])
    asm = TreeAssembler(g)
    nodes: List[int] = [asm.add_leaf(v) for v in range(n)]
    while len(nodes) > 1:
        nxt: List[int] = []
        for i in range(0, len(nodes) - 1, 2):
            nxt.append(asm.add_internal([nodes[i], nodes[i + 1]]))
        if len(nodes) % 2:
            nxt.append(nodes[-1])
        nodes = nxt
    tree = asm.finish(nodes[0])
    return binarize(tree, np.asarray(demands, dtype=np.int64))


def brute_force_optimum(
    bt: BinaryTree, caps: Sequence[int], deltas: Sequence[float]
) -> float:
    """Minimum edge-cut cost over all cut-level assignments (see module doc)."""
    parent = _parents(bt)
    leaves = [v for v in range(bt.n_nodes) if bt.is_leaf(v)]
    finite = [
        v
        for v in range(bt.n_nodes)
        if v != bt.root and not math.isinf(bt.up_weight[v])
    ]
    n_masks = 1 << len(finite)
    # Per kept-edge mask: the largest component demand, and the weight of
    # each cut edge whose child-side component is non-empty (0 otherwise).
    max_demand = np.zeros(n_masks, dtype=np.int64)
    cut_weights = np.zeros((n_masks, len(finite)))
    for mask in range(n_masks):
        cut = {v for i, v in enumerate(finite) if not (mask >> i) & 1}
        demand: dict[int, int] = {}
        for v in leaves:
            r = v
            while r != bt.root and r not in cut:
                r = parent[r]
            demand[r] = demand.get(r, 0) + int(bt.demand[v])
        max_demand[mask] = max(demand.values())
        for i, v in enumerate(finite):
            if v in cut and demand.get(v, 0) > 0:
                cut_weights[mask, i] = float(bt.up_weight[v])
    # best[S]: cheapest cost of levels k..h with S_k = S (inf = infeasible).
    # Each edge is charged w(e) · δ_k on its own: factoring δ_k out of the
    # sum rounds differently, by far more than 1e-12, when δ_k is subnormal.
    best = np.zeros(n_masks)
    for k in range(len(caps), 0, -1):
        if k < len(caps):
            best = _subset_min(best, len(finite))
        level_cost = (cut_weights * deltas[k]).sum(axis=1)
        best = best + np.where(max_demand <= caps[k - 1], level_cost, math.inf)
    return float(best.min())


def _subset_min(values: np.ndarray, n_bits: int) -> np.ndarray:
    """``out[S] = min(values[T] for T ⊆ S)`` over bit masks ``S``."""
    out = values.copy()
    masks = np.arange(out.size)
    for i in range(n_bits):
        has = masks[(masks >> i) & 1 == 1]
        out[has] = np.minimum(out[has], out[has ^ (1 << i)])
    return out


def _parents(bt: BinaryTree) -> List[int]:
    parent = [-1] * bt.n_nodes
    for p in range(bt.n_nodes):
        if bt.left[p] >= 0:
            parent[int(bt.left[p])] = p
            parent[int(bt.right[p])] = p
    return parent
