"""The embed layer's loops as they were before their list and array rewrites.

Each function below is the earlier implementation, kept unchanged:

* ``normalized_laplacian`` — scipy's ``eye − D^{-1/2} A D^{-1/2}``;
* ``_solve_fiedler`` — the power iteration with ``np.linalg.norm`` and
  the wrapped matvec (its one edit: it calls this module's
  ``csr_matvec``, the python backend's old kernel, not the live one);
* ``csr_matvec`` — ``csr_matrix @ x`` behind a one-slot wrapper cache;
* ``stoer_wagner`` — the maximum-adjacency phases on numpy scalars;
* ``connected_components`` and ``subgraph`` — the ``Graph`` methods
  (``self`` is the graph), union–find on an int64 array and the induced
  subgraph through ``Graph.from_edge_arrays``.

``test_embed_oracle.py`` requires exact equality with all of them:
values, order and shapes (index dtypes may differ).
"""

from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.graph.spectral import laplacian
from repro.obs.metrics import get_registry


def normalized_laplacian(g: Graph) -> sp.csr_matrix:
    """Symmetric normalized Laplacian ``I − D^{-1/2} A D^{-1/2}``.

    Isolated vertices get a zero row/column (their "eigenvalue" is 0,
    which is correct: they are free to go anywhere).
    """
    a = g.to_scipy_sparse()
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    d_half = sp.diags(inv_sqrt)
    eye = sp.diags(nz.astype(np.float64))
    return (eye - d_half @ a @ d_half).tocsr()


def _solve_fiedler(
    g: Graph, normalized: bool, tol: float, max_iter: int, start: np.ndarray
) -> np.ndarray:
    """The actual eigensolve, from a caller-supplied start vector."""
    lap = normalized_laplacian(g) if normalized else laplacian(g)
    n = g.n
    if normalized:
        deg = g.weighted_degrees.copy()
        deg[deg <= 0] = 1.0
        kernel = np.sqrt(deg)
    else:
        kernel = np.ones(n)
    kernel /= np.linalg.norm(kernel)

    # Upper bound on eigenvalues: 2 for normalized, 2*max degree otherwise.
    shift = 2.0 if normalized else 2.0 * float(g.weighted_degrees.max() or 1.0)
    x = start.copy()
    x -= kernel * (kernel @ x)
    nrm = np.linalg.norm(x)
    if nrm == 0:  # pragma: no cover - probability zero
        x = np.ones(n)
        x[0] = -1.0
        nrm = np.linalg.norm(x)
    x /= nrm
    # The matvec dominates the iteration; dispatch it through the kernel
    # seam over the raw CSR arrays (the python backend reproduces
    # ``lap @ x`` exactly, so cached Fiedler digests are unaffected).
    lap_indptr, lap_indices, lap_data = lap.indptr, lap.indices, lap.data
    for _ in range(max_iter):
        y = shift * x - csr_matvec(lap_indptr, lap_indices, lap_data, x)
        y -= kernel * (kernel @ y)
        nrm = np.linalg.norm(y)
        if nrm < 1e-14:
            break
        y /= nrm
        if np.linalg.norm(y - x) < tol or np.linalg.norm(y + x) < tol:
            return y
        x = y
    # Fallback: scipy Lanczos on the two smallest eigenpairs.  The start
    # vector is the last power iterate so the result stays deterministic
    # for a given seed.
    try:
        from scipy.sparse.linalg import eigsh

        k = min(2, n - 1)
        _, vecs = eigsh(lap, k=k, sigma=-1e-3, which="LM", v0=x)
        return vecs[:, -1]
    except Exception:  # pragma: no cover - last resort, dense solve
        _, vecs = np.linalg.eigh(lap.toarray())
        return vecs[:, 1]


#: One-slot wrapper cache: the power iteration multiplies the same
#: Laplacian thousands of times, so rebuilding the scipy view per call
#: would dominate.  Strong references to the arrays keep the id() key
#: from being recycled while the entry lives.
_MATVEC_CACHE: List[tuple] = []


def csr_matvec(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``y = A @ x`` for the CSR matrix ``(data, indices, indptr)``.

    Mutates nothing.  Uses scipy's CSR kernel, so the arithmetic (and
    accumulation order) is that of ``lap @ x``.
    """
    key = (id(indptr), id(indices), id(data))
    if _MATVEC_CACHE and _MATVEC_CACHE[0][0] == key:
        mat = _MATVEC_CACHE[0][4]
    else:
        n = indptr.shape[0] - 1
        mat = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        _MATVEC_CACHE[:] = [(key, indptr, indices, data, mat)]
    return mat @ x


def stoer_wagner(g: Graph) -> Tuple[float, np.ndarray]:
    """Global minimum cut of a connected weighted graph.

    Classic Stoer–Wagner: repeat *minimum cut phases* (maximum-adjacency
    orderings) on a shrinking contracted graph, keeping the best
    cut-of-the-phase.  O(n·m + n² log n) conceptually; here O(n³)-ish with
    dense numpy inner ops, which is fine for the ≲ 500-vertex pieces the
    decomposition builders hand it.

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
    w = np.zeros((n, n), dtype=np.float64)
    w[g.edges_u, g.edges_v] = g.edges_w
    w[g.edges_v, g.edges_u] = g.edges_w
    # groups[i] = original vertices merged into supervertex i.
    groups = [[i] for i in range(n)]
    active = list(range(n))

    best_weight = float("inf")
    best_group: list[int] = []

    while len(active) > 1:
        # Maximum-adjacency ordering within `active`.
        a0 = active[0]
        in_a = {a0}
        weights_to_a = {v: w[a0, v] for v in active if v != a0}
        order = [a0]
        while len(in_a) < len(active):
            nxt = max(weights_to_a, key=lambda v: weights_to_a[v])
            order.append(nxt)
            in_a.add(nxt)
            del weights_to_a[nxt]
            for v in weights_to_a:
                weights_to_a[v] += w[nxt, v]
        s, t = order[-2], order[-1]
        cut_of_phase = float(sum(w[t, v] for v in active if v != t))
        if cut_of_phase < best_weight:
            best_weight = cut_of_phase
            best_group = list(groups[t])
        # Contract t into s.
        for v in active:
            if v not in (s, t):
                w[s, v] += w[t, v]
                w[v, s] = w[s, v]
        groups[s].extend(groups[t])
        active.remove(t)

    mask = np.zeros(n, dtype=bool)
    mask[best_group] = True
    get_registry().counter(
        "repro_flow_stoerwagner_cuts_total", "Stoer-Wagner global min cuts computed"
    ).inc()
    return best_weight, mask


def connected_components(self) -> Tuple[int, np.ndarray]:
    """Connected components via iterative union–find over edge arrays.

    Returns
    -------
    (int, numpy.ndarray)
        The number of components and a dense label vector.
    """
    parent = np.arange(self.n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(self.edges_u, self.edges_v):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
    roots = np.array([find(i) for i in range(self.n)], dtype=np.int64)
    uniq, labels = np.unique(roots, return_inverse=True)
    return int(uniq.size), labels


def subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", np.ndarray]:
    """Induced subgraph on ``vertices``.

    Returns
    -------
    (Graph, numpy.ndarray)
        The subgraph (vertices relabelled ``0..len-1`` in the order
        given) and the array mapping new ids back to original ids.
    """
    verts = np.asarray(list(vertices), dtype=np.int64)
    if verts.size != np.unique(verts).size:
        raise InvalidInputError("subgraph vertex list contains duplicates")
    new_id = np.full(self.n, -1, dtype=np.int64)
    new_id[verts] = np.arange(verts.size)
    keep = (new_id[self.edges_u] >= 0) & (new_id[self.edges_v] >= 0)
    sub = Graph.from_edge_arrays(
        int(verts.size),
        new_id[self.edges_u[keep]],
        new_id[self.edges_v[keep]],
        self.edges_w[keep],
    )
    return sub, verts
