"""The embed layer's rewritten loops against their earlier implementations
(``tests/graph/embed_reference.py``).

Equality is exact: values (compared as bytes), order and shapes; only
index dtypes may differ.

* The normalized Laplacian must be scipy's ``eye − D^{-1/2} A D^{-1/2}``
  entry for entry, on graphs whose CSR rows are all sorted (bipartite
  between low and high ids) and graphs with unsorted rows, with degrees
  above 8 (so pairwise and sequential sums differ), weights from 1e-300
  to 1e300 (so products underflow and are dropped) and isolated
  vertices.
* ``_solve_fiedler`` must return the same vector from the same start on
  connected graphs, or hand the ``eigsh`` fallback the same matrix and
  ``v0``; a weighted 5x5 grid (λ3 within 10% of λ2) takes the fallback
  at the default ``max_iter`` and must return the same vector.
* ``python_backend.csr_matvec`` must equal ``csr_matrix(...) @ x`` with
  int32 and int64 indices, unsorted and empty rows.
* ``stoer_wagner``, ``Graph.connected_components`` and
  ``Graph.subgraph`` must match on connected and disconnected graphs,
  tied integer weights, and vertex lists in any order.
* Whole decomposition trees of every builder must not change when the
  five references are swapped in.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.decomposition.mincut_split as mincut_split
import repro.graph.spectral as spectral
from repro.bench.instances import FAMILIES
from repro.decomposition import BUILDERS
from repro.flow.mincut import stoer_wagner
from repro.graph.generators import grid_2d
from repro.graph.graph import Graph
from repro.graph.spectral import _normalized_laplacian_arrays, _solve_fiedler
from repro.kernels import python_backend

from . import embed_reference as ref

# Weight draws: log-uniform over the whole range, or small integers (ties).
_SCALES = ("extreme", "moderate", "integer")


def _weights(rng: np.random.Generator, m: int, scale: str) -> np.ndarray:
    if scale == "extreme":
        return 10.0 ** rng.uniform(-300.0, 300.0, size=m)
    if scale == "moderate":
        return 10.0 ** rng.uniform(-3.0, 3.0, size=m)
    return rng.integers(1, 4, size=m).astype(np.float64)


def _random_graph(
    seed: int, sorted_rows: bool, scale: str, n_max: int = 40, connected: bool = False
) -> Graph:
    """A random graph; with ``sorted_rows`` every CSR row comes out sorted.

    ``Graph`` rows list higher neighbours, then lower ones, each run
    ascending, so a row is sorted exactly when one run is empty: every
    edge joining the low ids ``[0, a)`` to the high ids ``[a, n)`` gives
    that.  Otherwise edges are drawn over all pairs; a dense hub lifts
    some degrees above 8, and the highest ids may stay isolated unless
    the graph must be ``connected``.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    if sorted_rows:
        a = int(rng.integers(1, n))
        m = int(rng.integers(0, 3 * n))
        eu = rng.integers(0, a, size=m)
        ev = rng.integers(a, n, size=m)
        if connected or rng.random() < 0.5:  # vertex 0 sees every high id
            eu = np.concatenate([eu, np.zeros(n - a, dtype=np.int64)])
            ev = np.concatenate([ev, np.arange(a, n)])
        if connected:  # every low id sees the first high id
            eu = np.concatenate([eu, np.arange(a)])
            ev = np.concatenate([ev, np.full(a, a)])
    else:
        # Ids >= n_live stay isolated.
        n_live = n if connected else int(rng.integers(2, n + 1))
        m = int(rng.integers(0, 4 * n_live))
        eu = rng.integers(0, n_live, size=m)
        ev = rng.integers(0, n_live, size=m)
        hub = int(rng.integers(0, n_live))
        others = np.setdiff1d(np.arange(n_live), [hub])
        eu = np.concatenate([eu, np.full(others.size, hub)])
        ev = np.concatenate([ev, others])
        loop = eu == ev
        eu, ev = eu[~loop], ev[~loop]
    return Graph.from_edge_arrays(n, eu, ev, _weights(rng, eu.size, scale))


def _rows_sorted(g: Graph) -> bool:
    for i in range(g.n):
        row = g.indices[g.indptr[i] : g.indptr[i + 1]]
        if np.any(row[1:] <= row[:-1]):
            return False
    return True


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_csr(arrays, mat: sp.csr_matrix) -> None:
    indptr, indices, data = arrays
    assert np.array_equal(indptr, mat.indptr)
    assert np.array_equal(indices, mat.indices)
    assert _same_bytes(data, mat.data)


graph_draws = st.tuples(
    st.integers(min_value=0, max_value=10**9),
    st.booleans(),
    st.sampled_from(_SCALES),
)


class TestLaplacian:
    @given(graph_draws)
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy_expression(self, draw):
        seed, sorted_rows, scale = draw
        g = _random_graph(seed, sorted_rows, scale)
        if sorted_rows:
            assert _rows_sorted(g)
        expected = ref.normalized_laplacian(g)
        _same_csr(_normalized_laplacian_arrays(g), expected)
        lap = spectral.normalized_laplacian(g)
        assert lap.shape == expected.shape
        _same_csr((lap.indptr, lap.indices, lap.data), expected)

    def test_draws_cover_both_forms_and_drops(self):
        """The draws reach sorted and unsorted rows, degrees above 8,
        dropped underflowing products and isolated vertices."""
        seen = set()
        for seed in range(200):
            for sorted_rows in (False, True):
                g = _random_graph(seed, sorted_rows, "extreme")
                seen.add(("sorted", _rows_sorted(g)))
                if np.diff(g.indptr).max(initial=0) > 8:
                    seen.add("deg>8")
                if np.any(np.diff(g.indptr) == 0):
                    seen.add("isolated")
                nnz_off = ref.normalized_laplacian(g).nnz - int((np.diff(g.indptr) > 0).sum())
                if nnz_off < g.indptr[-1]:
                    seen.add("dropped")
        assert seen >= {("sorted", True), ("sorted", False), "deg>8", "isolated", "dropped"}


class TestFiedler:
    @given(
        graph_draws,
        st.sampled_from([1e-8, 1e-4]),
        st.sampled_from([5, 60, 400]),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_reference(self, draw, tol, max_iter):
        """Connected graphs only, as ``fiedler_vector`` requires.  When the
        power iteration runs out, both sides must hand ``eigsh`` the same
        matrix and ``v0``; its answer is compared only on the grids below,
        because ARPACK draws restart vectors from a process-wide seed when
        the lowest eigenvalue is (numerically) repeated, and then the same
        call is not repeatable."""
        seed, sorted_rows, scale = draw
        g = _random_graph(seed, sorted_rows, scale, n_max=30, connected=True)
        assert g.is_connected()
        start = np.random.default_rng(seed + 1).standard_normal(g.n)
        calls = []
        real = spla.eigsh

        def recording(a, **kwargs):
            calls.append((a, kwargs["v0"].copy()))
            return real(a, **kwargs)

        with mock.patch.object(spla, "eigsh", recording):
            got = _solve_fiedler(g, tol, max_iter, start.copy())
            expected = ref._solve_fiedler(g, True, tol, max_iter, start.copy())
        if calls:
            (lap, v0), (ref_lap, ref_v0) = calls
            assert lap.shape == ref_lap.shape
            _same_csr((lap.indptr, lap.indices, lap.data), ref_lap)
            assert _same_bytes(v0, ref_v0)
        else:
            assert _same_bytes(got, expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_square_grid_takes_the_eigsh_fallback(self, seed, monkeypatch):
        calls = []
        real = spla.eigsh

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", counting)
        g = FAMILIES["grid"](25, 3)
        assert (g.n, g.m) == (25, 40)
        start = np.random.default_rng(seed).standard_normal(g.n)
        got = _solve_fiedler(g, 1e-8, 2000, start.copy())
        assert len(calls) == 1
        expected = ref._solve_fiedler(g, True, 1e-8, 2000, start.copy())
        assert len(calls) == 2
        assert _same_bytes(got, expected)

    def test_start_vector_not_mutated(self):
        g = grid_2d(3, 4)
        start = np.random.default_rng(5).standard_normal(g.n)
        before = start.copy()
        _solve_fiedler(g, 1e-8, 50, start)
        assert _same_bytes(start, before)


class TestMatvec:
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from([np.int32, np.int64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_csr_matrix_matmul(self, seed, index_dtype):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        row_len = rng.integers(0, n + 1, size=n)
        row_len[rng.random(n) < 0.3] = 0  # empty rows
        indptr = np.concatenate([[0], np.cumsum(row_len)]).astype(index_dtype)
        # Columns in random (unsorted) order within each row.
        indices = np.concatenate(
            [rng.permutation(n)[:k] for k in row_len] + [np.empty(0, dtype=np.int64)]
        ).astype(index_dtype)
        data = rng.uniform(-1.0, 1.0, size=indices.size) * 10.0 ** rng.uniform(
            -8, 8, size=indices.size
        )
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, size=n)
        mat = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        got = python_backend.csr_matvec(indptr, indices, data, x)
        assert _same_bytes(got, mat @ x)

    @pytest.mark.parametrize(
        "indptr,indices,data,x",
        [
            ([0, 1, 2], [1, 0], [1.0, 1.0], [1.0, 1.0, 1.0]),  # x too long
            ([0, 1, 2], [1, 0], [1.0, 1.0], [1.0]),  # x too short
            ([0, 1, 2], [1, 0], [1.0], [1.0, 1.0]),  # data shorter than indices
            ([0, 1, 3], [1, 0], [1.0, 1.0], [1.0, 1.0]),  # indptr past the data
        ],
    )
    def test_inconsistent_sizes_rejected(self, indptr, indices, data, x):
        with pytest.raises(ValueError):
            python_backend.csr_matvec(
                np.array(indptr), np.array(indices), np.array(data), np.array(x)
            )


class TestStoerWagner:
    @given(graph_draws)
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, draw):
        seed, sorted_rows, scale = draw
        g = _random_graph(seed, sorted_rows, scale, n_max=24)
        weight, mask = stoer_wagner(g)
        ref_weight, ref_mask = ref.stoer_wagner(g)
        assert type(weight) is float
        assert _same_bytes(np.float64(weight), np.float64(ref_weight))
        assert _same_bytes(mask, ref_mask)


class TestComponents:
    @given(st.integers(min_value=0, max_value=10**9), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, seed, sparsity):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 40))
        m = int(rng.integers(0, max(1, n * (4 - sparsity) // 2)))
        if n >= 2:
            eu = rng.integers(0, n, size=m)
            ev = rng.integers(0, n, size=m)
            loop = eu == ev
            eu, ev = eu[~loop], ev[~loop]
        else:
            eu = ev = np.empty(0, dtype=np.int64)
        g = Graph.from_edge_arrays(n, eu, ev, np.ones(eu.size))
        count, labels = g.connected_components()
        ref_count, ref_labels = ref.connected_components(g)
        assert count == ref_count
        assert _same_bytes(labels, ref_labels)


class TestSubgraph:
    @given(graph_draws, st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, draw, pick_seed):
        seed, sorted_rows, scale = draw
        g = _random_graph(seed, sorted_rows, scale)
        rng = np.random.default_rng(pick_seed)
        k = int(rng.integers(0, g.n + 1))
        verts = rng.permutation(g.n)[:k]
        if rng.random() < 0.3:
            verts = np.sort(verts)
        as_list = rng.random() < 0.5
        arg = verts.tolist() if as_list else verts
        sub, back = g.subgraph(arg)
        ref_sub, ref_back = ref.subgraph(g, arg)
        assert _same_bytes(back, ref_back)
        assert (sub.n, sub.m) == (ref_sub.n, ref_sub.m)
        for name in (
            "edges_u", "edges_v", "edges_w",
            "indptr", "indices", "adj_weights", "adj_edge_ids",
        ):
            assert _same_bytes(getattr(sub, name), getattr(ref_sub, name)), name
        assert sub.digest() == ref_sub.digest()
        assert _same_bytes(sub.weighted_degrees, ref_sub.weighted_degrees)


def _patch_references(monkeypatch) -> None:
    monkeypatch.setattr(
        spectral,
        "_solve_fiedler",
        lambda g, tol, max_iter, start: ref._solve_fiedler(g, True, tol, max_iter, start),
    )
    monkeypatch.setattr(mincut_split, "stoer_wagner", ref.stoer_wagner)
    monkeypatch.setattr(Graph, "connected_components", ref.connected_components)
    monkeypatch.setattr(Graph, "subgraph", ref.subgraph)


@pytest.mark.parametrize("family,n", [("blocks", 32), ("powerlaw", 28), ("grid", 25), ("dag", 30)])
def test_whole_trees_unchanged(family, n, monkeypatch):
    g = FAMILIES[family](n, 3)
    trees = {name: BUILDERS[name](g, seed=7) for name in sorted(BUILDERS)}
    with monkeypatch.context() as m:
        _patch_references(m)
        expected = {name: BUILDERS[name](g, seed=7) for name in sorted(BUILDERS)}
    for name in trees:
        got, want = trees[name], expected[name]
        assert _same_bytes(got.parent, want.parent), name
        assert _same_bytes(got.leaf_vertex, want.leaf_vertex), name
        assert _same_bytes(got.edge_weight, want.edge_weight), name
        assert got.children == want.children, name
