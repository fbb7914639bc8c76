"""Sort-based reference implementations the sort-free kernels are checked against.

``heavy_edge_match`` is the lexsort kernel the python backend shipped
before its sort-free rewrite, kept unchanged: one static
``(owner, -weight, tie[nbr])`` order per call, then the first eligible
entry of each CSR segment per round.  ``heaviest_neighbour`` is the
lexsort that ``aggregate_unmatched`` and ``two_hop_matching`` used to
find each vertex's heaviest neighbour.  ``test_heavy_edge_oracle.py``
requires exact equality with both.
"""

import numpy as np


def heavy_edge_match(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    tie: np.ndarray,
    fits: np.ndarray,
    rounds: int,
) -> np.ndarray:
    """Proposal rounds over CSR adjacency (see the dispatch docstring)."""
    n = indptr.shape[0] - 1
    match = np.full(n, -1, dtype=np.int64)
    deg = np.diff(indptr)
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    # Static per-call entry order: within each vertex's CSR segment,
    # heaviest edge first, then lowest random priority of the neighbour.
    order = np.lexsort((tie[indices], -weights, owner))
    nbr = indices[order]
    fits = fits[order]
    n_entries = nbr.size
    entry_pos = np.arange(n_entries, dtype=np.int64)
    seg_start = indptr[:-1]
    nonempty = deg > 0
    ids = np.arange(n, dtype=np.int64)
    for _ in range(rounds):
        free = match < 0
        if not free.any():
            break
        elig = fits & free[nbr]
        # First eligible entry per CSR segment (min position, reduceat
        # over the non-empty segments only; an empty reduce is invalid).
        pos = np.where(elig, entry_pos, n_entries)
        first = np.full(n, n_entries, dtype=np.int64)
        if nonempty.any():
            first[nonempty] = np.minimum.reduceat(pos, seg_start[nonempty])
        proposal = np.full(n, -1, dtype=np.int64)
        has = free & (first < n_entries)
        proposal[has] = nbr[first[has]]
        # Conflict resolution: only mutual proposals match this round.
        target = np.where(proposal >= 0, proposal, 0)
        mutual = (proposal >= 0) & (proposal[target] == ids)
        if not mutual.any():
            break
        match[mutual] = proposal[mutual]
    return match


def heaviest_neighbour(g) -> np.ndarray:
    """``heavy[v]`` = neighbour across ``v``'s heaviest edge (first CSR
    entry on ties), ``-1`` for isolated vertices."""
    deg = np.diff(g.indptr)
    owner = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    order = np.lexsort((-g.adj_weights, owner))
    # Sorted stably by owner, each vertex's segment keeps its CSR
    # position, so the segment's first sorted entry is its heaviest edge.
    heavy_nbr = np.full(g.n, -1, dtype=np.int64)
    nz = deg > 0
    heavy_nbr[nz] = g.indices[order[g.indptr[:-1][nz]]]
    return heavy_nbr
