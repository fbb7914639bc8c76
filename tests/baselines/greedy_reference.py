"""Reference for the greedy constructive placement.

``greedy_placement`` as ``repro.baselines.greedy`` shipped it before the
per-call leaf-cost table, kept unchanged: ``Hierarchy.lca_level`` once
per leaf for every vertex.  ``test_local_search_oracle.py`` requires
equal ``leaf_of``, ``cost()`` and ``meta`` from both.

The original module docstring follows.

Greedy constructive placement.

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
from repro.hierarchy.hierarchy import Hierarchy
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
    leaves with room (least-loaded fallback when none fits).
    """
    rng = ensure_rng(seed)
    d = np.asarray(demands, dtype=np.float64)
    k = hierarchy.k
    cap = hierarchy.leaf_capacity
    cm = np.asarray(hierarchy.cm)

    # Heaviest communicators first; random jitter diversifies ties.
    score = g.weighted_degrees + rng.random(g.n) * 1e-9
    order = np.argsort(score)[::-1]

    loads = np.zeros(k)
    leaf_of = np.full(g.n, -1, dtype=np.int64)
    all_leaves = np.arange(k, dtype=np.int64)
    for v in order:
        nbrs = g.neighbors(v)
        ws = g.neighbor_weights(v)
        placed = leaf_of[nbrs] >= 0
        if placed.any():
            pn = nbrs[placed]
            pw = ws[placed]
            # incremental cost of every leaf, vectorised over neighbours:
            # levels[k_leaf, j] via broadcasting ancestor comparisons.
            inc = np.zeros(k)
            nbr_leaves = leaf_of[pn]
            for leaf in all_leaves:
                levels = np.asarray(hierarchy.lca_level(leaf, nbr_leaves))
                inc[leaf] = float(np.dot(cm[levels], pw))
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
