"""Spectral toolbox: Laplacians, Fiedler vectors, sweep cuts.

The spectral recursive-bisection decomposition builder
(:mod:`repro.decomposition.spectral_tree`) and the multilevel baseline's
initial-partition stage both need a cheap, dependable way to find
low-conductance cuts.  We implement:

* graph Laplacian / normalized Laplacian assembly (sparse; the
  normalized one straight from the graph's CSR arrays),
* a Fiedler-vector solver — a power iteration on ``2I − L`` deflated
  against the kernel direction ``D^{1/2} 1``, falling back to
  :func:`scipy.sparse.linalg.eigsh` from the last iterate when it has not
  converged within its step budget, and
* the classic *sweep cut* rounding that scans the sorted Fiedler
  embedding and takes the best conductance (or best balanced-cut)
  threshold, which carries Cheeger-style guarantees.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

import repro.kernels as kernels
from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "laplacian",
    "normalized_laplacian",
    "fiedler_vector",
    "sweep_cut",
    "spectral_bisection",
]


def laplacian(g: Graph) -> sp.csr_matrix:
    """Combinatorial Laplacian ``L = D − A`` as sparse CSR."""
    a = g.to_scipy_sparse()
    deg = np.asarray(a.sum(axis=1)).ravel()
    return sp.diags(deg).tocsr() - a


def normalized_laplacian(g: Graph) -> sp.csr_matrix:
    """Symmetric normalized Laplacian ``I − D^{-1/2} A D^{-1/2}``.

    Isolated vertices get a zero row/column (their "eigenvalue" is 0,
    which is correct: they are free to go anywhere).  The entries, their
    order and the dropped zeros are those of scipy's expression
    ``eye − d_half @ a @ d_half`` (see :func:`_normalized_laplacian_arrays`).
    """
    indptr, indices, data = _normalized_laplacian_arrays(g)
    return sp.csr_matrix((data, indices, indptr), shape=(g.n, g.n))


def _normalized_laplacian_arrays(
    g: Graph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices, data)`` of the normalized Laplacian.

    Built straight from the graph's CSR, entry for entry what scipy
    leaves for ``eye − d_half @ a @ d_half``: degrees are the row
    ``reduceat`` sums of ``a.sum(axis=1)`` (not :attr:`Graph.weighted_degrees`,
    which sums in edge order), the off-diagonal entry of row ``i`` is
    ``-((inv[i] * w) * inv[j])`` with ``inv = 1 / sqrt(deg)``, exact-zero
    products are dropped, and each vertex with ``deg > 0`` gets a
    diagonal ``1.0``.  The order matters because the matvec sums each
    row in storage order: when every row of off-diagonals is sorted,
    scipy's canonical subtraction keeps rows sorted with the diagonal in
    place; otherwise its general one leaves each row reversed with the
    diagonal last (``Graph`` rows list higher neighbours before lower
    ones, so most graphs take this form).
    """
    n = g.n
    indptr, indices, aw = g.indptr, g.indices, g.adj_weights
    row_len = np.diff(indptr)
    rows = np.flatnonzero(row_len)
    deg = np.zeros(n)
    if rows.size:
        deg[rows] = np.add.reduceat(aw, indptr[rows])
    has_diag = deg > 0
    inv = np.zeros(n)
    inv[has_diag] = 1.0 / np.sqrt(deg[has_diag])
    owner = np.repeat(np.arange(n, dtype=np.int64), row_len)
    off = -((inv[owner] * aw) * inv[indices])
    keep = off != 0
    owner, cols, off = owner[keep], indices[keep], off[keep]
    diag = np.flatnonzero(has_diag)
    k = off.size
    if not np.any((cols[1:] <= cols[:-1]) & (owner[1:] == owner[:-1])):
        key = np.concatenate([owner * n + cols, diag * (n + 1)])
    else:
        pos = np.arange(k - 1, -1, -1, dtype=np.int64)
        key = np.concatenate([owner * (k + 1) + pos, diag * (k + 1) + k])
    order = np.argsort(key)
    lap_rows = np.concatenate([owner, diag])
    lap_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lap_rows, minlength=n), out=lap_indptr[1:])
    lap_indices = np.concatenate([cols, diag])[order]
    lap_data = np.concatenate([off, np.ones(diag.size)])[order]
    return lap_indptr, lap_indices, lap_data


def fiedler_vector(
    g: Graph,
    tol: float = 1e-8,
    max_iter: int = 2000,
    seed: SeedLike = None,
) -> np.ndarray:
    """Eigenvector of the second-smallest normalized-Laplacian eigenvalue.

    Strategy: deflated power iteration on ``2I − L`` (which maps the
    smallest eigenvalues of ``L`` to the largest of the iteration
    matrix), orthogonalised against the kernel direction ``D^{1/2} 1``
    each step.  If the iterates do not converge (successive distance
    below ``tol``, up to sign) within ``max_iter`` steps, or vanish, the
    last iterate is the ``v0`` of scipy's ``eigsh`` (shift-invert near
    0).  A near-tie ``λ3 ≈ λ2`` stalls the iteration, which contracts the
    ``λ3`` direction by ``(2 − λ3) / (2 − λ2)`` per step: on a square grid
    with random weights the two lowest modes differ by ~10% (0.126 and
    0.138 on a 5x5 grid, a 0.994 contraction), so the root split runs all
    ``max_iter`` steps and then ``eigsh``.  Since ``eigsh``'s answer
    depends on that ``v0``, the steps cannot be cut short without
    changing the cut.

    The random start vector is one ``standard_normal(g.n)`` draw, so a
    generator passed as ``seed`` advances by exactly that much.

    Parameters
    ----------
    g: connected graph with ``n >= 2``.
    tol: convergence threshold on successive-iterate distance.
    max_iter: power-iteration budget before falling back to scipy.
    seed: seed for the random start vector.
    """
    if g.n < 2:
        raise InvalidInputError("fiedler_vector needs n >= 2")
    rng = ensure_rng(seed)
    start = rng.standard_normal(g.n)
    return _solve_fiedler(g, tol, max_iter, start)


def _solve_fiedler(
    g: Graph, tol: float, max_iter: int, start: np.ndarray
) -> np.ndarray:
    """The actual eigensolve, from a caller-supplied start vector.

    Norms are ``math.sqrt(v.dot(v))``, which is what ``np.linalg.norm``
    computes for a real 1-D array, without its per-call overhead.
    """
    lap_indptr, lap_indices, lap_data = _normalized_laplacian_arrays(g)
    n = g.n
    deg = g.weighted_degrees.copy()
    deg[deg <= 0] = 1.0
    kernel = np.sqrt(deg)
    kernel /= math.sqrt(kernel.dot(kernel))

    x = start.copy()
    x -= kernel * kernel.dot(x)
    nrm = math.sqrt(x.dot(x))
    if nrm == 0:  # pragma: no cover - probability zero
        x = np.ones(n)
        x[0] = -1.0
        nrm = math.sqrt(x.dot(x))
    x /= nrm
    # The matvec dominates the iteration; dispatch it through the kernel
    # seam over the raw CSR arrays (the python backend is scipy's own
    # CSR routine, so the vectors match a ``csr_matrix @ x`` iteration).
    matvec = kernels.csr_matvec
    diff = np.empty(n)
    for _ in range(max_iter):
        y = 2.0 * x  # 2 bounds the normalized Laplacian's eigenvalues
        y -= matvec(lap_indptr, lap_indices, lap_data, x)
        y -= kernel * kernel.dot(y)
        nrm = math.sqrt(y.dot(y))
        if nrm < 1e-14:
            break
        y /= nrm
        np.subtract(y, x, out=diff)
        if math.sqrt(diff.dot(diff)) < tol:
            return y
        np.add(y, x, out=diff)
        if math.sqrt(diff.dot(diff)) < tol:
            return y
        x = y
    # Fallback: scipy Lanczos on the two smallest eigenpairs.  The start
    # vector is the last power iterate so the result stays deterministic
    # for a given seed.
    lap = sp.csr_matrix((lap_data, lap_indices, lap_indptr), shape=(n, n))
    try:
        from scipy.sparse.linalg import eigsh

        k = min(2, n - 1)
        _, vecs = eigsh(lap, k=k, sigma=-1e-3, which="LM", v0=x)
        return vecs[:, -1]
    except Exception:  # pragma: no cover - last resort, dense solve
        _, vecs = np.linalg.eigh(lap.toarray())
        return vecs[:, 1]


def sweep_cut(
    g: Graph,
    embedding: np.ndarray,
    balance_fraction: float = 0.0,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Best threshold cut along a 1-D embedding.

    Sorts vertices by ``embedding`` and evaluates every prefix as one cut
    side, returning the boolean mask of the best side and its score
    (conductance).  With ``balance_fraction = f > 0`` only prefixes whose
    ``weights``-mass lies within ``[f, 1 − f]`` of the total are eligible —
    this is how the bisection callers enforce balance.

    Prefix cut weights follow the identity
    ``cut(prefix + v) = cut(prefix) + deg_w(v) − 2·w(v, prefix)``, one
    python-level step per vertex in sweep order (each touching that
    vertex's CSR row once), then the scores are vectorised: O(m + n log n)
    total.
    """
    emb = np.asarray(embedding, dtype=np.float64)
    if emb.shape != (g.n,):
        raise InvalidInputError(f"embedding must have shape ({g.n},)")
    if g.n < 2:
        raise InvalidInputError("sweep_cut needs n >= 2")
    w_node = np.ones(g.n) if weights is None else np.asarray(weights, dtype=np.float64)
    if w_node.shape != (g.n,):
        raise InvalidInputError(f"weights must have shape ({g.n},)")

    order = np.argsort(emb, kind="stable")
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)

    # cut(prefix_t) for t = 1..n-1 via the streaming identity above.
    wdeg = g.weighted_degrees
    cut = np.zeros(g.n - 1)
    running = 0.0
    # For each vertex in order, subtract twice the weight to already-placed
    # neighbours. This is the only per-edge Python-level loop; it touches
    # each CSR entry once.
    indptr, indices, aw = g.indptr, g.indices, g.adj_weights
    for t, v in enumerate(order[:-1]):
        w_back = 0.0
        rv = rank[indices[indptr[v] : indptr[v + 1]]]
        ws = aw[indptr[v] : indptr[v + 1]]
        w_back = float(ws[rv < t].sum())
        running += float(wdeg[v]) - 2.0 * w_back
        cut[t] = running

    vol = np.cumsum(wdeg[order])[:-1]
    total_vol = float(wdeg.sum())
    mass = np.cumsum(w_node[order])[:-1]
    total_mass = float(w_node.sum())

    denom = np.minimum(vol, total_vol - vol)
    denom[denom <= 0] = np.inf
    score = cut / denom

    if balance_fraction > 0:
        lo = balance_fraction * total_mass
        hi = (1.0 - balance_fraction) * total_mass
        eligible = (mass >= lo - 1e-12) & (mass <= hi + 1e-12)
        if not eligible.any():
            # Fall back to the most balanced available split.
            eligible = np.zeros_like(score, dtype=bool)
            eligible[int(np.argmin(np.abs(mass - total_mass / 2)))] = True
        score = np.where(eligible, score, np.inf)

    best = int(np.argmin(score))
    mask = np.zeros(g.n, dtype=bool)
    mask[order[: best + 1]] = True
    return mask, float(score[best])


def spectral_bisection(
    g: Graph,
    balance_fraction: float = 0.25,
    weights: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Fiedler vector + balanced sweep cut; returns a boolean side mask.

    ``balance_fraction = 0.25`` keeps each side between 25% and 75% of the
    vertex mass — loose enough to find good cuts, tight enough that the
    recursion in the decomposition builders terminates in O(log n) depth.
    """
    if g.n < 2:
        raise InvalidInputError("spectral_bisection needs n >= 2")
    if g.m == 0:
        mask = np.zeros(g.n, dtype=bool)
        mask[: g.n // 2] = True
        return mask
    fv = fiedler_vector(g, seed=seed)
    mask, _ = sweep_cut(g, fv, balance_fraction=balance_fraction, weights=weights)
    return mask
