"""``fm_refine_hierarchy`` against the sort-based refiner it replaced
(``tests/baselines/fm_reference.py``).

The boundary-only, one-sort rewrite must return the same labels and the
same ``passes``/``moves``/``gain``/``rolled_back`` on every input, so
equality is exact.  Inputs stress what the rewrite touches: tied gains
(small integer weights), group sums whose value depends on summation
order (parallel edges merged into fractional weights), hierarchies with
an odd degree, a single level and a zero-delta level, starts with no
boundary vertex at all, both capacity budgets and every pass count the
front-end uses.  The coarsening stacks replay the multilevel
uncoarsening sweep on small graphs of the large-multilevel benchmark's
families.  No numba is needed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Graph, Hierarchy
from repro.baselines.fm import fm_refine_hierarchy
from repro.bench.instances import make_instance
from repro.multilevel import coarsen_graph

from . import fm_reference

#: (degrees, cm) of the hierarchies under test; ``[4, 4]`` with
#: ``cm = (5, 5, 1)`` has a zero delta at level 1.
SHAPES = [
    ((2, 4), (10.0, 3.0, 0.0)),
    ((2, 2, 2), (7.0, 4.0, 1.5, 0.5)),
    ((3, 2, 2), (9.0, 4.0, 2.0, 0.0)),
    ((16,), (3.0, 0.0)),
    ((4, 4), (5.0, 5.0, 1.0)),
]
STARTS = ("random", "block", "one")


def start_labels(start: str, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    if start == "random":
        return rng.integers(0, k, size=n)
    if start == "block":
        return np.arange(n, dtype=np.int64) * k // n
    return np.full(n, int(rng.integers(0, k)), dtype=np.int64)


def assert_same(g, hier, d, leaf, **kwargs):
    """Run both refiners on one input; return the (shared) result."""
    got, got_stats = fm_refine_hierarchy(g, hier, d, leaf, **kwargs)
    want, want_stats = fm_reference.fm_refine_hierarchy(g, hier, d, leaf, **kwargs)
    assert np.array_equal(got, want)
    assert got_stats.passes == want_stats.passes
    assert got_stats.moves == want_stats.moves
    assert got_stats.gain == want_stats.gain
    assert got_stats.rolled_back == want_stats.rolled_back
    return got, got_stats


@st.composite
def refine_inputs(draw):
    degrees, cm = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(min_value=1, max_value=24))
    weight = st.one_of(
        st.integers(1, 3).map(float), st.sampled_from([0.1, 0.2, 0.3, 0.7])
    )
    # Repeated pairs are parallel edges: Graph merges them into one
    # summed weight.
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
            max_size=3 * n,
        )
    )
    g = Graph(n, [(u, v, w) for u, v, w in edges if u != v])
    d = np.asarray(
        draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=np.float64
    )
    k = int(np.prod(degrees))
    # Leaf capacity around the mean leaf load, so budgets both bind and
    # leave room.
    slack = draw(st.sampled_from([0.5, 1.0, 2.0]))
    hier = Hierarchy(degrees, cm, leaf_capacity=slack * float(d.sum()) / k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    leaf = start_labels(draw(st.sampled_from(STARTS)), n, k, rng)
    kwargs = {
        "load_limit": draw(st.sampled_from([None, 1.25])),
        "max_passes": draw(st.integers(1, 4)),
    }
    return g, hier, d, leaf, kwargs


@given(refine_inputs())
@settings(max_examples=400, deadline=None)
def test_refiner_equals_reference(case):
    g, hier, d, leaf, kwargs = case
    assert_same(g, hier, d, leaf, **kwargs)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s[0])))
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("load_limit", [None, 1.25])
@pytest.mark.parametrize("max_passes", [1, 2, 3, 4])
def test_star_with_isolated_vertices(shape, start, load_limit, max_passes):
    """Hub 0 with leaves 1..7 and isolated vertices 8..11: the hub is a
    boundary vertex under almost every labelling, the isolated vertices
    never are."""
    degrees, cm = shape
    n = 12
    g = Graph(n, [(0, v, float(v % 3 + 1)) for v in range(1, 8)])
    d = np.ones(n)
    k = int(np.prod(degrees))
    hier = Hierarchy(degrees, cm, leaf_capacity=2.0 * n / k)
    leaf = start_labels(start, n, k, np.random.default_rng(max_passes))
    assert_same(g, hier, d, leaf, load_limit=load_limit, max_passes=max_passes)


@pytest.mark.parametrize("max_passes", [1, 2])
def test_group_sums_follow_csr_order(max_passes):
    """Vertex 1 reaches leaves 6, 4, 5 with weights 0.1, 0.3, 0.2 in CSR
    order; vertex 0 reaches leaf 4 with 0.6.  Summed in CSR order, 1's
    weight into the other socket is 0.6000000000000001, so 1 moves first
    and takes leaf 4's last unit of room.  Summed in leaf order it would
    be 0.6, a tie that vertex 0 wins."""
    g = Graph(5, [(1, 2, 0.1), (1, 3, 0.3), (1, 4, 0.2), (0, 3, 0.6)])
    hier = Hierarchy([2, 4], [1.0, 0.0, 0.0], leaf_capacity=2.0)
    leaf = np.array([0, 0, 6, 4, 5])
    out, _ = assert_same(g, hier, np.ones(5), leaf, max_passes=max_passes)
    assert (out[0], out[1]) == (0, 4)


def test_rounding_noise_gain_is_not_a_move():
    """Moving vertex 0 to leaf 1 gains (0.1 + 0.2) − 0.3 = 5.6e-17: a
    rounding artefact below ``MIN_GAIN``, so nothing moves."""
    g = Graph(5, [(0, 1, 0.3), (0, 2, 0.1), (0, 3, 0.2), (2, 4, 1.0), (3, 4, 1.0)])
    hier = Hierarchy([2], [1.0, 0.0], leaf_capacity=10.0)
    leaf = np.array([0, 0, 1, 1, 1])
    out, stats = assert_same(g, hier, np.ones(5), leaf)
    assert (0.1 + 0.2) - 0.3 > 0
    assert stats.moves == 0 and np.array_equal(out, leaf)


HIER = Hierarchy([2, 4], [10.0, 3.0, 0.0])


@pytest.mark.parametrize(
    "family,n,target_n", [("mesh3d", 1000, 8), ("ba", 2000, 160)]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_coarsen_stack_levels_equal_reference(family, n, target_n, seed):
    """Every level of an uncoarsening sweep, from a block labelling of
    the coarsest graph down to the input graph."""
    inst = make_instance(family, n, HIER, seed=seed)
    d = np.asarray(inst.demands, dtype=np.float64)
    levels = coarsen_graph(
        inst.graph, d, target_n=target_n, max_weight=HIER.leaf_capacity, rng=seed
    )
    assert levels.stats.levels > 2
    leaf = np.arange(levels.coarsest.n, dtype=np.int64) * HIER.k // levels.coarsest.n
    leaf, stats = assert_same(levels.coarsest, HIER, levels.demands[-1], leaf)
    moves = stats.moves
    for i in range(len(levels.maps) - 1, -1, -1):
        leaf = leaf[levels.maps[i]]
        leaf, stats = assert_same(levels.graphs[i], HIER, levels.demands[i], leaf)
        moves += stats.moves
    assert moves > 0
