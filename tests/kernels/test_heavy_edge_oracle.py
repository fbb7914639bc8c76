"""The python ``heavy_edge_match`` and heaviest-neighbour helper against
their sort-based references (``tests/kernels/reference.py``).

The python backend is the contract every other backend is compared
with, so it needs an oracle of its own that runs without numba.  Inputs
stress the tie-break order: few distinct integer weights, repeated
``tie`` values, multi-edges, isolated vertices, ``uint8`` and bool
``fits`` masks and every round count the coarsener uses.  Equality is
exact.  The coarsening stacks compare every level of ``coarsen_graph``
on small graphs of the large-multilevel benchmark's families; the ba
stacks also reach the many-to-one and two-hop stall escapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro import Graph, Hierarchy
from repro.bench.instances import make_instance
from repro.decomposition.contraction import _heaviest_neighbour
from repro.kernels import python_backend
from repro.multilevel import coarsen_graph

from . import reference


@st.composite
def csr_inputs(draw):
    """Raw CSR arrays: any neighbour, repeated entries and empty rows."""
    n = draw(st.integers(min_value=1, max_value=14))
    deg = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    indptr = np.concatenate(([0], np.cumsum(deg))).astype(np.int64)
    e = int(indptr[-1])
    indices = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=e, max_size=e)), dtype=np.int64
    )
    weights = np.asarray(
        draw(
            st.one_of(
                st.lists(st.integers(1, 3), min_size=e, max_size=e),
                st.lists(st.floats(0.1, 5.0), min_size=e, max_size=e),
            )
        ),
        dtype=np.float64,
    )
    tie = np.asarray(
        draw(
            st.one_of(
                st.permutations(range(n)),
                st.lists(st.integers(0, 2), min_size=n, max_size=n),
            )
        ),
        dtype=np.int64,
    )
    fits = np.asarray(
        draw(st.lists(st.booleans(), min_size=e, max_size=e)),
        dtype=draw(st.sampled_from([bool, np.uint8])),
    )
    rounds = draw(st.integers(min_value=1, max_value=8))
    return indptr, indices, weights, tie, fits, rounds


@given(csr_inputs())
@settings(max_examples=300, deadline=None)
def test_heavy_edge_match_equals_lexsort_reference(args):
    got = python_backend.heavy_edge_match(*args)
    assert np.array_equal(got, reference.heavy_edge_match(*args))


@given(
    st.integers(min_value=1, max_value=20).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)
                ),
                max_size=50,
            ),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_heaviest_neighbour_equals_lexsort_reference(case):
    n, edges = case
    g = Graph(n, [(u, v, float(w)) for u, v, w in edges if u != v])
    assert np.array_equal(_heaviest_neighbour(g), reference.heaviest_neighbour(g))


HIER = Hierarchy([2, 4], [10.0, 3.0, 0.0])


@pytest.mark.parametrize(
    "family,n,target_n", [("mesh3d", 1000, 8), ("ba", 2000, 160)]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coarsen_stack_equals_reference(monkeypatch, family, n, target_n, seed):
    inst = make_instance(family, n, HIER, seed=seed)
    d = np.asarray(inst.demands, dtype=np.float64)

    def stack():
        return coarsen_graph(
            inst.graph, d, target_n=target_n, max_weight=HIER.leaf_capacity, rng=seed
        )

    monkeypatch.setattr(kernels, "heavy_edge_match", python_backend.heavy_edge_match)
    got = stack()
    calls = []

    def lexsort_kernel(*args):
        calls.append(1)
        return reference.heavy_edge_match(*args)

    monkeypatch.setattr(kernels, "heavy_edge_match", lexsort_kernel)
    want = stack()
    assert got.stats.levels > 2
    assert len(calls) >= got.stats.levels - 1
    assert got.stats == want.stats
    for a, b in zip(got.maps, want.maps, strict=True):
        assert np.array_equal(a, b)
    for a, b in zip(got.demands, want.demands, strict=True):
        assert np.array_equal(a, b)
    for a, b in zip(got.graphs, want.graphs, strict=True):
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.adj_weights, b.adj_weights)
