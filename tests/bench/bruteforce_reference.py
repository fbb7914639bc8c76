"""Reference enumerator for :func:`repro.bench.oracles.brute_force_optimum`.

This is the oracle's original implementation, kept verbatim: it walks
parent chains for each of the ``(h+1)^E`` cut-level assignments, so it
is slow but has no cleverness to get wrong.  ``test_oracle_reference``
checks the shipped (mask-table) oracle against it on small instances.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence

from repro.hgpt.binarize import BinaryTree


def brute_force_optimum(
    bt: BinaryTree, caps: Sequence[int], deltas: Sequence[float]
) -> float:
    """Minimum edge-cut cost over all cut-level assignments (see module doc)."""
    h = len(caps)
    edges = [v for v in range(bt.n_nodes) if v != bt.root]
    choice_sets = [
        [h] if math.isinf(bt.up_weight[v]) else list(range(h + 1)) for v in edges
    ]
    parent = _parents(bt)
    best = math.inf
    for combo in itertools.product(*choice_sets):
        j_of = dict(zip(edges, combo))
        cost = 0.0
        ok = True
        for k in range(1, h + 1):
            parent_k = {
                v: (parent[v] if v != bt.root and j_of[v] >= k else -1)
                for v in range(bt.n_nodes)
            }

            def root_of(v: int) -> int:
                while parent_k[v] >= 0:
                    v = parent_k[v]
                return v

            demand: dict[int, int] = {}
            for v in range(bt.n_nodes):
                if bt.is_leaf(v):
                    r = root_of(v)
                    demand[r] = demand.get(r, 0) + int(bt.demand[v])
            if any(dm > caps[k - 1] for dm in demand.values()):
                ok = False
                break
            for v in edges:
                if j_of[v] < k and demand.get(root_of(v), 0) > 0:
                    cost += float(bt.up_weight[v]) * deltas[k]
        if ok and cost < best:
            best = cost
    return best


def _parents(bt: BinaryTree) -> List[int]:
    parent = [-1] * bt.n_nodes
    for p in range(bt.n_nodes):
        if bt.left[p] >= 0:
            parent[int(bt.left[p])] = p
            parent[int(bt.right[p])] = p
    return parent
