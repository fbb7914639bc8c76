"""Numba JIT backend for the kernel ABI.

``@njit(cache=True)`` ports of the python reference kernels, written to
preserve floating-point accumulation order exactly (no ``fastmath``, no
reassociation) so outputs stay bit-identical to the python backend —
the kernel contract, enforced by ``tests/kernels/test_backends.py``.

Soft-gated: importing this module never raises.  When numba does not
import, ``NUMBA_AVAILABLE`` is ``False``, the decorators degrade to
no-ops (the functions stay callable as plain Python, which is how the
equivalence suite checks them without numba), and :mod:`repro.kernels`
binds the python backend instead.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):  # noqa: ARG001 - signature-compatible stub
        if args and callable(args[0]):
            return args[0]

        def decorate(fn):
            return fn

        return decorate


__all__ = [
    "NUMBA_AVAILABLE",
    "dinic_bfs_levels",
    "dinic_blocking_flow",
    "dp_tile_merge",
    "dp_dominance_prune",
    "csr_matvec",
    "heavy_edge_match",
]


@njit(cache=True)
def dinic_bfs_levels(heads, caps, arc_indptr, arc_ids, s):
    n = arc_indptr.shape[0] - 1
    level = np.full(n, -1, np.int64)
    level[s] = 0
    queue = np.empty(n, np.int64)
    queue[0] = s
    qn = 1
    qi = 0
    while qi < qn:
        v = queue[qi]
        qi += 1
        for p in range(arc_indptr[v], arc_indptr[v + 1]):
            a = arc_ids[p]
            u = heads[a]
            if caps[a] > 1e-12 and level[u] < 0:
                level[u] = level[v] + 1
                queue[qn] = u
                qn += 1
    return level


@njit(cache=True)
def dinic_blocking_flow(heads, caps, arc_indptr, arc_ids, level, s, t):
    n = arc_indptr.shape[0] - 1
    it = np.zeros(n, np.int64)
    # A level-graph path visits strictly increasing levels, so n arcs
    # bound its length.
    path = np.empty(n, np.int64)
    total = 0.0
    while True:
        plen = 0
        v = s
        pushed = 0.0
        done = False
        while not done:
            if v == t:
                if plen > 0:
                    bottleneck = np.inf
                    for p in range(plen):
                        c = caps[path[p]]
                        if c < bottleneck:
                            bottleneck = c
                    for p in range(plen):
                        a = path[p]
                        caps[a] -= bottleneck
                        caps[a ^ 1] += bottleneck
                    pushed = bottleneck
                done = True
                break
            advanced = False
            base = arc_indptr[v]
            deg = arc_indptr[v + 1] - base
            while it[v] < deg:
                a = arc_ids[base + it[v]]
                u = heads[a]
                if caps[a] > 1e-12 and level[u] == level[v] + 1:
                    path[plen] = a
                    plen += 1
                    v = u
                    advanced = True
                    break
                it[v] += 1
            if advanced:
                continue
            level[v] = -1
            if plen == 0:
                done = True
                break
            plen -= 1
            a = path[plen]
            v = heads[a ^ 1]
            it[v] += 1
        if pushed <= 1e-12:
            break
        total += pushed
    return total


@njit(cache=True)
def dp_tile_merge(pa_sig, pa_cost, pb_sig, pb_cost, caps, start, stop, budget):
    nb = pb_cost.shape[0]
    h = caps.shape[0]
    m = stop - start
    sums = np.empty((m, h), np.int64)
    costs = np.empty(m, np.float64)
    ii = np.empty(m, np.int64)
    jj = np.empty(m, np.int64)
    rank = np.empty(m, np.int64)
    n_ok = 0
    n_f = 0
    for k in range(start, stop):
        i = k // nb
        j = k - i * nb
        c = pa_cost[i] + pb_cost[j]
        if c > budget:
            continue
        n_ok += 1
        feasible = True
        for q in range(h):
            sv = pa_sig[i, q] + pb_sig[j, q]
            sums[n_f, q] = sv
            if sv > caps[q]:
                feasible = False
        if not feasible:
            continue
        costs[n_f] = c
        ii[n_f] = i
        jj[n_f] = j
        rank[n_f] = k
        n_f += 1
    return (
        sums[:n_f].copy(),
        costs[:n_f].copy(),
        ii[:n_f].copy(),
        jj[:n_f].copy(),
        rank[:n_f].copy(),
        n_ok,
    )


@njit(cache=True)
def dp_dominance_prune(sigs, costs, order, beam_width):
    # Generic sequential scan: equivalent to the python backend's
    # specialised h==1 / h==2 / blocked h>=3 branches because all three
    # keep exactly the states no previously kept signature dominates,
    # in the same scan order.
    m = order.shape[0]
    h = sigs.shape[1]
    kept = np.empty(m, np.int64)
    kept_rows = np.empty((m, h), np.int64)
    n_kept = 0
    truncated = False
    for oi in range(m):
        pos = order[oi]
        dominated = False
        for r in range(n_kept):
            below = True
            for q in range(h):
                if kept_rows[r, q] > sigs[pos, q]:
                    below = False
                    break
            if below:
                dominated = True
                break
        if dominated:
            continue
        for q in range(h):
            kept_rows[n_kept, q] = sigs[pos, q]
        kept[n_kept] = pos
        n_kept += 1
        if beam_width >= 0 and n_kept >= beam_width:
            truncated = True
            break
    return kept[:n_kept].copy(), truncated


@njit(cache=True)
def csr_matvec(indptr, indices, data, x):
    # Sequential per-row accumulation in index order — the same op order
    # as scipy's CSR matvec, so results match the python backend bitwise.
    n = indptr.shape[0] - 1
    y = np.empty(n, np.float64)
    for i in range(n):
        acc = 0.0
        for p in range(indptr[i], indptr[i + 1]):
            acc += data[p] * x[indices[p]]
        y[i] = acc
    return y


@njit(cache=True)
def heavy_edge_match(indptr, indices, weights, tie, fits, rounds):
    # Per-vertex best-eligible scan: max weight, then min neighbour tie,
    # then (strict comparisons) the earlier CSR entry — python's order.
    n = indptr.shape[0] - 1
    match = np.full(n, -1, np.int64)
    proposal = np.empty(n, np.int64)
    for _ in range(rounds):
        any_free = False
        for v in range(n):
            if match[v] < 0:
                any_free = True
                break
        if not any_free:
            break
        for v in range(n):
            best = -1
            best_w = 0.0
            best_t = 0
            if match[v] < 0:
                for p in range(indptr[v], indptr[v + 1]):
                    if not fits[p]:
                        continue
                    u = indices[p]
                    if match[u] >= 0:
                        continue
                    w = weights[p]
                    tu = tie[u]
                    if best < 0 or w > best_w or (w == best_w and tu < best_t):
                        best = u
                        best_w = w
                        best_t = tu
            proposal[v] = best
        matched = False
        for v in range(n):
            u = proposal[v]
            if u > v and proposal[u] == v:
                match[v] = u
                match[u] = v
                matched = True
        if not matched:
            break
    return match
