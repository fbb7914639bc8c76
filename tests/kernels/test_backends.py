"""Import-time backend selection + cross-backend kernel equivalence.

The kernels' contract (``src/repro/kernels``) is that both backends
return — and mutate — *bit-identical* arrays for every kernel, so the
choice of backend can never change solver output, only wall-clock.  The
hypothesis suites here generate random inputs for all six kernels and
compare ``numba_backend`` against the pure-python reference with exact
(not approximate) equality: JIT-compiled where numba imports, and as its
plain-Python source (the ``njit`` stub returns the function unchanged)
where it does not, so the comparison runs on every machine.  The
solver-level tests rebind the six ``repro.kernels`` attributes to each
backend in turn and assert that whole ``solve_rhgpt`` / ``run_pipeline``
runs are reproduced verbatim, and that run reports stamp the backend
``repro.kernels`` chose at import.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.cache import CacheConfig, get_cache
from repro.core.config import SolverConfig
from repro.core.engine import run_pipeline
from repro.errors import InvalidInputError
from repro.graph.generators import planted_partition, random_demands
from repro.hierarchy.hierarchy import Hierarchy
from repro.kernels import KERNEL_NAMES, numba_backend, python_backend, resolve_backend

#: Backends under test; the first is the bit-exact reference.
BACKENDS = {"python": python_backend, "numba": numba_backend}


def bind(monkeypatch, name):
    """Point the six ``repro.kernels`` attributes and ``BACKEND`` at one
    backend, as if it had been chosen at import (undone after the test)."""
    for kernel in KERNEL_NAMES:
        monkeypatch.setattr(kernels, kernel, getattr(BACKENDS[name], kernel))
    monkeypatch.setattr(kernels, "BACKEND", name)


# ----------------------------------------------------------------------
# import-time selection
# ----------------------------------------------------------------------


class TestRegistry:
    """Which backend ``repro.kernels`` binds at import, and its accessor."""

    def test_numba_availability_matches_import(self):
        assert (kernels.BACKEND == "numba") == numba_backend.NUMBA_AVAILABLE
        chosen = BACKENDS[kernels.BACKEND]
        backend = resolve_backend("auto")
        assert backend.name == kernels.BACKEND
        for name in KERNEL_NAMES:
            assert getattr(kernels, name) is getattr(chosen, name)
            assert getattr(backend, name) is getattr(chosen, name)

    def test_missing_numba_falls_back_to_python(self, monkeypatch):
        # A numba that is installed but fails to import leaves
        # NUMBA_AVAILABLE false; re-run the import-time choice under that.
        monkeypatch.setattr(numba_backend, "NUMBA_AVAILABLE", False)
        try:
            importlib.reload(kernels)
            assert kernels.BACKEND == "python"
            for name in KERNEL_NAMES:
                assert getattr(kernels, name) is getattr(python_backend, name)
        finally:
            monkeypatch.undo()
            importlib.reload(kernels)

    def test_unknown_explicit_backend_raises(self):
        for choice in ("cython", "python", "numba"):
            with pytest.raises(InvalidInputError):
                resolve_backend(choice)


# ----------------------------------------------------------------------
# cross-backend equivalence (bit-exact, hypothesis-generated inputs)
# ----------------------------------------------------------------------


def _dinic_network(rng):
    """A random paired-arc residual network (arc ``a ^ 1`` reverses ``a``)."""
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 18))
    heads, tails, caps = [], [], []
    for _ in range(m):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            v = (u + 1) % n
        c = float(rng.uniform(0.1, 5.0))
        heads += [v, u]
        tails += [u, v]
        # Occasionally give the reverse arc capacity too (mid-run
        # residual networks look like this).
        caps += [c, float(rng.uniform(0.0, 1.0)) if rng.random() < 0.3 else 0.0]
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    caps = np.asarray(caps, dtype=np.float64)
    arc_ids = np.argsort(tails, kind="stable").astype(np.int64)
    arc_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=arc_indptr[1:])
    s, t = 0, n - 1
    return heads, caps, arc_indptr, arc_ids, s, t


class TestCrossBackendEquivalence:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_dinic_bfs_levels(self, seed):
        rng = np.random.default_rng(seed)
        heads, caps, arc_indptr, arc_ids, s, _ = _dinic_network(rng)
        ref = None
        for name, b in BACKENDS.items():
            level = b.dinic_bfs_levels(heads, caps.copy(), arc_indptr, arc_ids, s)
            level = np.asarray(level)
            if ref is None:
                ref = level
            else:
                assert np.array_equal(level, ref), name

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_dinic_blocking_flow_and_full_maxflow(self, seed):
        rng = np.random.default_rng(seed)
        heads, caps0, arc_indptr, arc_ids, s, t = _dinic_network(rng)
        results = []
        for name, b in BACKENDS.items():
            caps = caps0.copy()
            total = 0.0
            phases = []
            while True:
                level = np.asarray(
                    b.dinic_bfs_levels(heads, caps, arc_indptr, arc_ids, s)
                )
                if level[t] < 0:
                    break
                pushed = b.dinic_blocking_flow(
                    heads, caps, arc_indptr, arc_ids, level, s, t
                )
                phases.append(float(pushed))
                total += pushed
            results.append((name, phases, total, caps, level))
        _, phases0, total0, caps_ref, level_ref = results[0]
        for name, phases, total, caps, level in results[1:]:
            assert phases == phases0, name  # exact float equality, per phase
            assert total == total0, name
            assert np.array_equal(caps, caps_ref), name
            assert np.array_equal(level, level_ref), name

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_dp_tile_merge(self, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(1, 4))
        na, nb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        pa_sig = rng.integers(0, 6, size=(na, h)).astype(np.int64)
        pb_sig = rng.integers(0, 6, size=(nb, h)).astype(np.int64)
        pa_cost = rng.uniform(0.0, 10.0, size=na)
        pb_cost = rng.uniform(0.0, 10.0, size=nb)
        caps = rng.integers(2, 9, size=h).astype(np.int64)
        budget = float("inf") if rng.random() < 0.5 else float(rng.uniform(0.0, 15.0))
        start = int(rng.integers(0, na * nb))
        stop = int(rng.integers(start, na * nb + 1))
        ref = None
        for name, b in BACKENDS.items():
            out = b.dp_tile_merge(
                pa_sig, pa_cost, pb_sig, pb_cost, caps, start, stop, budget
            )
            if ref is None:
                ref = out
            else:
                for got, want in zip(out[:5], ref[:5]):
                    assert np.array_equal(np.asarray(got), np.asarray(want)), name
                assert int(out[5]) == int(ref[5]), name

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_dp_dominance_prune(self, seed):
        rng = np.random.default_rng(seed)
        # Up to 700 rows, so the python h >= 3 scan spans several blocks.
        m = int(rng.integers(1, 700))
        h = int(rng.integers(1, 5))
        sigs = rng.integers(0, 6, size=(m, h)).astype(np.int64)
        # Integer costs produce ties, exercising scan-order stability.
        costs = rng.integers(0, 8, size=m).astype(np.float64)
        order = np.lexsort(
            tuple(sigs[:, i] for i in range(h - 1, -1, -1)) + (costs,)
        )
        beam = -1 if rng.random() < 0.5 else int(rng.integers(1, 6))
        ref = None
        for name, b in BACKENDS.items():
            kept, truncated = b.dp_dominance_prune(sigs, costs, order, beam)
            kept = np.asarray(kept)
            if ref is None:
                ref = (kept, bool(truncated))
            else:
                assert np.array_equal(kept, ref[0]), name
                assert bool(truncated) == ref[1], name

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_csr_matvec(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        dense = rng.uniform(-2.0, 2.0, size=(n, n))
        dense[rng.random(size=(n, n)) < 0.5] = 0.0
        import scipy.sparse as sp

        mat = sp.csr_matrix(dense)
        indptr = mat.indptr.astype(np.int64)
        indices = mat.indices.astype(np.int64)
        data = mat.data.astype(np.float64)
        x = rng.uniform(-1.0, 1.0, size=n)
        ref = None
        for name, b in BACKENDS.items():
            y = np.asarray(b.csr_matvec(indptr, indices, data, x))
            if ref is None:
                ref = y
            else:
                # Bit-exact, not approx: accumulation order is part of
                # the kernel spec (the Fiedler cache digests depend on it).
                assert np.array_equal(y, ref), name

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_heavy_edge_match(self, seed):
        rng = np.random.default_rng(seed)
        from repro.graph.graph import Graph

        n = int(rng.integers(2, 20))
        m = int(rng.integers(0, 40))
        edges = []
        for _ in range(m):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u != v:
                edges.append((u, v, float(rng.uniform(0.1, 5.0))))
        g = Graph(n, edges)
        tie = rng.permutation(n).astype(np.int64)
        fits = (
            np.ones(g.indices.size, dtype=bool)
            if rng.random() < 0.5
            else rng.random(g.indices.size) < 0.8
        )
        rounds = int(rng.integers(1, 5))
        ref = None
        for name, b in BACKENDS.items():
            match = np.asarray(
                b.heavy_edge_match(g.indptr, g.indices, g.adj_weights, tie, fits, rounds)
            )
            if ref is None:
                ref = match
            else:
                assert np.array_equal(match, ref), name


# ----------------------------------------------------------------------
# solver-level determinism + report stamping
# ----------------------------------------------------------------------


def _canonical_solution(sol):
    return (
        sol.cost,
        [
            [(tuple(int(v) for v in s.vertices), int(s.qdemand)) for s in level]
            for level in sol.levels
        ],
    )


class TestSolverDeterminism:
    def test_solve_rhgpt_bit_identical_across_backends(self, monkeypatch):
        from repro.bench.oracles import path_binary_tree
        from repro.hgpt.dp import solve_rhgpt

        bt = path_binary_tree([1.0, 2.5, 0.5, 3.0, 1.5], [2, 1, 3, 1, 2])
        caps = [6, 3]
        deltas = [0.0, 4.0, 1.0]
        runs = []
        for name in BACKENDS:
            bind(monkeypatch, name)
            runs.append(_canonical_solution(solve_rhgpt(bt, caps, deltas)))
        assert runs[1] == runs[0]

    def test_run_pipeline_identical_and_meta_stamped(self, monkeypatch):
        g = planted_partition(4, 4, 0.8, 0.1, seed=5)
        hier = Hierarchy([2, 4], [10.0, 3.0, 0.0])
        d = random_demands(g.n, hier.total_capacity, fill=0.5, skew=0.3, seed=6)
        # With the process cache off and a gomory_hu member, each run calls
        # all six kernels itself instead of reusing the other run's
        # Fiedler vectors and cut trees.
        monkeypatch.setattr(get_cache(), "enabled", False)
        cfg = SolverConfig(
            seed=0,
            n_trees=3,
            tree_methods=("spectral", "contraction", "gomory_hu"),
            refine=False,
            cache=CacheConfig(enabled=False),
        )
        runs = []
        for name in BACKENDS:
            bind(monkeypatch, name)
            res = run_pipeline(g, hier, d, cfg)
            assert res.report().meta["kernel_backend"] == name
            runs.append((res.cost, res.placement.leaf_of.copy()))
        (ref_cost, ref_leaf), (cost, leaf) = runs
        assert cost == ref_cost  # exact — backends may not drift
        assert np.array_equal(leaf, ref_leaf)

    def test_auto_resolves_and_stamps(self):
        g = planted_partition(3, 4, 0.8, 0.1, seed=7)
        hier = Hierarchy([2, 3], [5.0, 2.0, 0.0])
        d = random_demands(g.n, hier.total_capacity, fill=0.5, skew=0.3, seed=8)
        cfg = SolverConfig(
            seed=0, n_trees=2, refine=False, cache=CacheConfig(enabled=False)
        )
        res = run_pipeline(g, hier, d, cfg)
        assert res.report().meta["kernel_backend"] == kernels.BACKEND
