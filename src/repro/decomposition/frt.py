"""FRT-style random hierarchical decomposition trees.

Fakcharoenphol–Rao–Talwar (FRT) trees probabilistically embed a metric
into a distribution of hierarchically-well-separated trees with expected
distortion ``O(log n)``.  Räcke's construction (the one the paper invokes)
is the *cut/congestion* analogue of this *distance* embedding; we include
FRT trees in the ensemble because on communication graphs the metric
``len(e) = 1 / w(e)`` places heavily-communicating vertices close
together, so low-diameter decompositions group exactly the vertices a
good placement should co-locate.

Implementation is the standard one: a random vertex permutation ``π`` and
a random radius multiplier ``β ∈ [1, 2)``; level-``i`` clusters are formed
by assigning each vertex to the first ``π``-vertex within distance
``β · 2^i``.  Nested levels give a laminar family, i.e. a tree.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.graph.ops import all_pairs_dijkstra
from repro.decomposition.tree import DecompositionTree, TreeAssembler
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["frt_decomposition_tree"]


def frt_decomposition_tree(g: Graph, seed: SeedLike = None) -> DecompositionTree:
    """Sample one FRT tree over the ``1 / w`` shortest-path metric.

    Requires a connected graph (the metric must be finite).  All-pairs
    distances are computed with repeated Dijkstra, so this builder is
    meant for the ≲ 2000-vertex instances the evaluation uses.
    """
    if g.n == 0:
        raise InvalidInputError("empty graph")
    if g.n == 1:
        asm = TreeAssembler(g)
        leaf = asm.add_leaf(0)
        return asm.finish(asm.add_internal([leaf]))
    if not g.is_connected():
        raise InvalidInputError(
            "frt_decomposition_tree requires a connected graph; "
            "decompose components first"
        )
    rng = ensure_rng(seed)
    dist = all_pairs_dijkstra(g)
    finite = dist[np.isfinite(dist)]
    diameter = float(finite.max())
    if diameter == 0:  # pragma: no cover - only multi-vertex zero metric
        diameter = 1.0

    pi = rng.permutation(g.n)
    beta = float(rng.uniform(1.0, 2.0))

    # Number of levels: radii beta * 2^i down to below the minimum distance.
    positive = finite[finite > 0]
    min_dist = float(positive.min()) if positive.size else 1.0
    levels: List[np.ndarray] = []
    radius = beta * diameter
    # Top cluster: everything together.
    labels = np.zeros(g.n, dtype=np.int64)
    levels.append(labels.copy())
    while radius >= min_dist / 2 and len(levels) < 64:
        radius /= 2.0
        new_labels = np.full(g.n, -1, dtype=np.int64)
        for v in range(g.n):
            # First permutation vertex within `radius`, but respecting the
            # parent cluster (FRT cuts within clusters only).
            for c in pi:
                if dist[c, v] <= radius and labels[c] == labels[v]:
                    new_labels[v] = int(c)
                    break
            if new_labels[v] < 0:
                new_labels[v] = v  # own singleton (always within radius 0)
        # Compose with parent labels to stay laminar.
        combined = labels * g.n + new_labels
        _, labels = np.unique(combined, return_inverse=True)
        levels.append(labels.copy())
        if np.unique(labels).size == g.n:
            break

    # Build the tree from the nested label sequence.
    asm = TreeAssembler(g)
    # Deepest level: force singletons.
    leaf_nodes = [asm.add_leaf(v) for v in range(g.n)]
    # node id per (cluster at current level)
    cluster_nodes = {v: leaf_nodes[v] for v in range(g.n)}
    cluster_labels = np.arange(g.n, dtype=np.int64)
    for labels in levels[::-1]:
        groups: dict[int, List[int]] = {}
        for v in range(g.n):
            groups.setdefault(int(labels[v]), []).append(int(cluster_labels[v]))
        new_nodes: dict[int, int] = {}
        for lab, members in groups.items():
            uniq = sorted(set(members))
            if len(uniq) == 1:
                new_nodes[lab] = cluster_nodes[uniq[0]]
            else:
                new_nodes[lab] = asm.add_internal([cluster_nodes[c] for c in uniq])
        cluster_nodes = new_nodes
        cluster_labels = labels.copy()
    roots = sorted(set(int(c) for c in cluster_labels))
    if len(roots) == 1:
        root = cluster_nodes[roots[0]]
    else:  # pragma: no cover - connected graphs always end with one root
        root = asm.add_internal([cluster_nodes[r] for r in roots])
    return asm.finish(root)
