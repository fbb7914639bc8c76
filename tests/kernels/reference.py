"""Earlier implementations the rewritten python kernels are checked against.

``heavy_edge_match`` is the lexsort kernel the python backend shipped
before its sort-free rewrite, kept unchanged: one static
``(owner, -weight, tie[nbr])`` order per call, then the first eligible
entry of each CSR segment per round.  ``heaviest_neighbour`` is the
lexsort that ``aggregate_unmatched`` and ``two_hop_matching`` used to
find each vertex's heaviest neighbour.  ``test_heavy_edge_oracle.py``
requires exact equality with both.

``dp_tile_merge`` (one index gather per cross-product rank) and
``dp_dominance_prune`` (a per-survivor loop inside each ``h >= 3``
block) are the DP kernels the python backend shipped before they were
vectorised, kept unchanged.  ``dominance_scan_order`` and
``most_closed`` are the lexsorts ``repro.hgpt.dp._dominance_prune``
used for its scan order and its beam guard before it relied on sorted
input.  ``dedupe_min`` is ``repro.hgpt.dp._dedupe_min`` as it was before
the one-sort rewrite: a (key, cost, tie) lexsort and the first row of
each key.  ``test_dp_oracle.py`` requires exact equality with all five.
"""

import bisect
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.hgpt.dp import _encode_rows


def heavy_edge_match(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    tie: np.ndarray,
    fits: np.ndarray,
    rounds: int,
) -> np.ndarray:
    """Proposal rounds over CSR adjacency (contract on
    :func:`repro.kernels.python_backend.heavy_edge_match`)."""
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


def dp_tile_merge(
    pa_sig: np.ndarray,
    pa_cost: np.ndarray,
    pb_sig: np.ndarray,
    pb_cost: np.ndarray,
    caps: np.ndarray,
    start: int,
    stop: int,
    budget: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One DP merge tile over cross-product ranks ``[start, stop)``.

    Rank ``r`` pairs state ``r // nb`` of side A with state ``r % nb``
    of side B.  Mutates nothing; returns ``(sums, costs, ii, jj, rank,
    n_ok)`` — the capacity-feasible pairs (in ascending rank order) and
    the count of pairs that survived the ``budget`` mask (feasible or
    not), for the caller's pruning stats.
    """
    nb = pb_cost.size
    idx = np.arange(start, stop, dtype=np.int64)
    ii = idx // nb
    jj = idx - ii * nb
    costs = pa_cost[ii] + pb_cost[jj]
    if budget < math.inf:
        ok = costs <= budget
        n_ok = int(np.count_nonzero(ok))
        if n_ok < idx.size:
            ii, jj, costs, idx = ii[ok], jj[ok], costs[ok], idx[ok]
    else:
        n_ok = int(idx.size)
    if n_ok == 0:
        empty = np.empty(0, dtype=np.int64)
        return (
            np.empty((0, caps.size), dtype=pa_sig.dtype),
            np.empty(0, dtype=np.float64),
            empty,
            empty,
            empty.copy(),
            0,
        )
    sums = pa_sig[ii] + pb_sig[jj]
    feas = (sums <= caps).all(axis=1)
    return sums[feas], costs[feas], ii[feas], jj[feas], idx[feas], n_ok


#: Candidate rows per vectorised dominance block (h >= 3 scan).
_DOM_BLOCK = 256


def dp_dominance_prune(
    sigs: np.ndarray,
    costs: np.ndarray,
    order: np.ndarray,
    beam_width: int,
) -> Tuple[np.ndarray, bool]:
    """Dominance scan over states pre-sorted by ``order``.

    ``beam_width < 0`` disables the beam.  Mutates nothing; returns
    ``(kept, truncated)`` — surviving row indices in scan order, and
    whether the beam fired (the caller re-inserts the most-closed
    state).

    A state survives unless a previously kept signature is ≤ it
    componentwise.  Because survivors are scanned cheapest-first, the
    kept signatures form an antichain — for ``h ≤ 2`` that is a monotone
    staircase, so dominance queries become binary searches (O(m log m)
    total) instead of the generic O(m · kept) scan.  For ``h ≥ 3`` the
    scan is blocked: a whole block is checked against every previously
    kept signature in one vectorised comparison, and only rows that
    survive it (final survivors plus rows dominated solely inside their
    own block — transitivity guarantees nothing else slips through)
    reach the sequential pass, which then compares against block-local
    keeps only.
    """
    m = costs.size
    h = sigs.shape[1]
    beam = None if beam_width < 0 else int(beam_width)
    kept_idx: List[int] = []
    truncated = False
    if h == 1:
        # Survivor iff its signature is a new minimum.
        best = np.iinfo(np.int64).max
        for pos in order:
            s = int(sigs[pos, 0])
            if s >= best:
                continue
            best = s
            kept_idx.append(int(pos))
            if beam is not None and len(kept_idx) >= beam:
                truncated = True
                break
    elif h == 2:
        # Maintain the Pareto frontier of kept signatures as a staircase
        # (xs strictly increasing, ys strictly decreasing): (a, b) is
        # dominated iff the frontier point with the largest x <= a has
        # y <= b.  Kept states themselves need not be an antichain (a
        # later, more expensive state may be componentwise smaller), so
        # insertion evicts frontier points the new signature covers.
        xs: List[int] = []
        ys: List[int] = []
        for pos in order:
            a, b = int(sigs[pos, 0]), int(sigs[pos, 1])
            k = bisect.bisect_right(xs, a)
            if k > 0 and ys[k - 1] <= b:
                continue
            # Evict frontier points (x >= a, y >= b): anything they would
            # dominate in the future, (a, b) dominates too.
            end = k
            while end < len(xs) and ys[end] >= b:
                end += 1
            del xs[k:end]
            del ys[k:end]
            xs.insert(k, a)
            ys.insert(k, b)
            kept_idx.append(int(pos))
            if beam is not None and len(kept_idx) >= beam:
                truncated = True
                break
    else:
        sorted_sigs = sigs[order]
        kept_rows = np.empty((m, h), dtype=sigs.dtype)
        n_kept = 0
        for s in range(0, m, _DOM_BLOCK):
            block = sorted_sigs[s:s + _DOM_BLOCK]
            if n_kept:
                # One comparison of the whole block against every kept
                # signature; (h, kept, block) accumulation keeps the
                # temporary two-dimensional.
                dom = np.ones((n_kept, block.shape[0]), dtype=bool)
                for i in range(h):
                    dom &= kept_rows[:n_kept, i, None] <= block[None, :, i]
                survivors = np.nonzero(~dom.any(axis=0))[0]
            else:
                survivors = np.arange(block.shape[0])
            block_start = n_kept
            for t in survivors:
                sig = block[t]
                if n_kept > block_start and bool(
                    np.all(kept_rows[block_start:n_kept] <= sig, axis=1).any()
                ):
                    continue
                kept_rows[n_kept] = sig
                kept_idx.append(int(order[s + t]))
                n_kept += 1
                if beam is not None and n_kept >= beam:
                    truncated = True
                    break
            if truncated:
                break
    return np.asarray(kept_idx, dtype=np.int64), truncated


def dominance_scan_order(sigs: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Row order by ascending ``(cost, sig_0, …, sig_{h-1})``."""
    h = sigs.shape[1]
    return np.lexsort(tuple(sigs[:, i] for i in range(h - 1, -1, -1)) + (costs,))


def most_closed(sigs: np.ndarray) -> int:
    """The row with the smallest component sum, ties by smallest signature."""
    h = sigs.shape[1]
    sums = sigs.sum(axis=1)
    return int(
        np.lexsort(tuple(sigs[:, i] for i in range(h - 1, -1, -1)) + (sums,))[0]
    )


def dedupe_min(
    sigs: np.ndarray, costs: np.ndarray, tie: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per unique signature keep the cheapest row.

    Returns (unique_sigs, min_costs, source_row_index) with the unique
    rows in ascending lexicographic order, deterministic: ties resolve
    to the smallest ``tie`` rank in (cost, tie) order (row position when
    ``tie`` is ``None``, which the stable lexsort gives for free — the
    tiled merge passes the global cross-product rank so compaction order
    cannot change winners).  Rows are radix-encoded to scalar keys so
    uniqueness is one int64 sort — ``np.unique(axis=0)``'s
    structured-dtype argsort profiled ~10x slower on the DP's tables.
    """
    if sigs.shape[0] == 0:
        return sigs, costs, np.empty(0, dtype=np.int64)
    keys = _encode_rows(sigs)
    uniq = None
    if keys is None:  # pragma: no cover - astronomically large capacities
        uniq, keys = np.unique(sigs, axis=0, return_inverse=True)
        keys = keys.ravel()
    order = np.lexsort((costs, keys) if tie is None else (tie, costs, keys))
    sorted_keys = keys[order]
    first = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    winners = order[first]
    return (sigs[winners] if uniq is None else uniq), costs[winners], winners
