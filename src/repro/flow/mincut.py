"""Minimum cuts: s–t cuts (via Dinic) and the Stoer–Wagner global min cut.

The paper's cost rewrite (Eq. 3) is phrased in terms of minimum cuts
separating leaf sets; on general graphs these are flow problems.  The
decomposition-tree builders also use the global min cut as a splitting
criterion on small pieces.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.flow.maxflow import max_flow
from repro.obs.metrics import get_registry

__all__ = ["st_min_cut", "stoer_wagner", "isolating_cut_weight"]


def st_min_cut(g: Graph, s: int, t: int) -> Tuple[float, np.ndarray]:
    """Minimum ``s``–``t`` cut value and the ``s``-side boolean mask."""
    if not (0 <= s < g.n and 0 <= t < g.n) or s == t:
        raise InvalidInputError(f"bad terminal pair ({s}, {t})")
    return max_flow(g, s, t)


def isolating_cut_weight(g: Graph, vertices: np.ndarray) -> float:
    """Weight of the trivial cut isolating ``vertices`` (boundary weight).

    This is an upper bound on the minimum cut separating the set; on
    *trees* (where the library actually needs exact values, computed in
    :mod:`repro.hgpt.solution`) it matches the minimum cut of contiguous
    sets.
    """
    return g.cut_weight(np.asarray(vertices))


def stoer_wagner(g: Graph) -> Tuple[float, np.ndarray]:
    """Global minimum cut of a connected weighted graph.

    Classic Stoer–Wagner: repeat *minimum cut phases* (maximum-adjacency
    orderings) on a shrinking contracted graph, keeping the best
    cut-of-the-phase.  O(n³) on a dense weight matrix held as Python
    lists (one ``tolist()`` per call), which is fine for the ≲ 500-vertex
    pieces the decomposition builders hand it.

    Returns
    -------
    (float, numpy.ndarray)
        Cut weight and a boolean mask of one side (in original ids).
    """
    if g.n < 2:
        raise InvalidInputError("global min cut needs n >= 2")
    if not g.is_connected():
        # Disconnected graphs have a zero cut along any component split.
        _, labels = g.connected_components()
        return 0.0, labels == labels[0]

    n = g.n
    # Dense symmetric weight matrix of the current contracted graph.
    dense = np.zeros((n, n), dtype=np.float64)
    dense[g.edges_u, g.edges_v] = g.edges_w
    dense[g.edges_v, g.edges_u] = g.edges_w
    w = dense.tolist()
    # groups[i] = original vertices merged into supervertex i.
    groups = [[i] for i in range(n)]
    active = list(range(n))

    best_weight = float("inf")
    best_group: list[int] = []

    while len(active) > 1:
        # Maximum-adjacency ordering within `active`; the last two added
        # are s and t.
        s = t = active[0]
        row = w[t]
        weights_to_a = {v: row[v] for v in active if v != t}
        while weights_to_a:
            nxt = max(weights_to_a, key=weights_to_a.__getitem__)
            s, t = t, nxt
            del weights_to_a[nxt]
            row = w[nxt]
            for v in weights_to_a:
                weights_to_a[v] += row[v]
        # Explicit left-to-right sum: builtin sum() compensates floats
        # from Python 3.12 on, and np.sum sums pairwise.
        w_t = w[t]
        cut_of_phase = 0.0
        for v in active:
            if v != t:
                cut_of_phase += w_t[v]
        if cut_of_phase < best_weight:
            best_weight = cut_of_phase
            best_group = list(groups[t])
        # Contract t into s.
        w_s = w[s]
        for v in active:
            if v != s and v != t:
                w_s[v] += w_t[v]
                w[v][s] = w_s[v]
        groups[s].extend(groups[t])
        active.remove(t)

    mask = np.zeros(n, dtype=bool)
    mask[best_group] = True
    get_registry().counter(
        "repro_flow_stoerwagner_cuts_total", "Stoer-Wagner global min cuts computed"
    ).inc()
    return best_weight, mask
