"""Greedy constructive placement.

Places vertices one at a time (heaviest-communication-first BFS order),
each onto the feasible leaf that minimises its *incremental* Eq. (1)
cost against already-placed neighbours.  A strong, cheap baseline — it
is hierarchy-aware (it reads ``cm`` through the LCA levels) but has no
global view, so it shows what local decisions alone can achieve.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy, LeafTable
from repro.hierarchy.placement import Placement
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["greedy_placement"]


def greedy_placement(
    g: Graph,
    hierarchy: Hierarchy,
    demands: Sequence[float],
    seed: SeedLike = None,
) -> Placement:
    """Hierarchy-aware greedy constructive placement.

    Order: vertices sorted by weighted degree (descending), ties broken by
    the RNG, then traversed; each vertex goes to the leaf minimising
    ``Σ_{placed u ∈ N(v)} w(u, v) · cm(LCA(leaf, p(u)))``, restricted to
    leaves with room (least-loaded fallback when none fits).  Each sum is
    ``np.dot`` over one row of a
    :class:`~repro.hierarchy.hierarchy.LeafTable` built per call (rows
    from ``lca_level`` above its size guard).
    """
    rng = ensure_rng(seed)
    d = np.asarray(demands, dtype=np.float64)
    k = hierarchy.k
    cap = hierarchy.leaf_capacity
    table = LeafTable(hierarchy)

    # Heaviest communicators first; random jitter diversifies ties.
    score = g.weighted_degrees + rng.random(g.n) * 1e-9
    order = np.argsort(score)[::-1]

    loads = np.zeros(k)
    leaf_of = np.full(g.n, -1, dtype=np.int64)
    for v in order:
        nbrs = g.neighbors(v)
        ws = g.neighbor_weights(v)
        placed = leaf_of[nbrs] >= 0
        if placed.any():
            pn = nbrs[placed]
            pw = ws[placed]
            # incremental cost of every leaf, one table row per leaf
            inc = np.zeros(k)
            nbr_leaves = leaf_of[pn]
            for leaf in range(k):
                inc[leaf] = float(np.dot(table.costs(leaf, nbr_leaves), pw))
        else:
            inc = np.zeros(k)
        fits = loads + d[v] <= cap + 1e-12
        if fits.any():
            cand = np.where(fits, inc, np.inf)
            # Tie-break toward fuller leaves to keep free leaves available.
            leaf = int(
                min(
                    range(k),
                    key=lambda j: (cand[j], -loads[j]),
                )
            )
        else:
            leaf = int(np.argmin(loads))
        leaf_of[v] = leaf
        loads[leaf] += d[v]
    return Placement(g, hierarchy, d, leaf_of, meta={"solver": "greedy"})
