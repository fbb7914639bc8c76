"""The table-driven local searches against the ``lca_level`` versions they
replaced (``tests/baselines/local_search_reference.py`` and
``greedy_reference.py``).

Every Eq. (1) delta now reads a :class:`~repro.hierarchy.hierarchy.LeafTable`
row, which holds the same floats as ``cm[lca_level(...)]`` in the same
order, so equality is exact: the same ``leaf_of``, the same ``cost()``,
the same ``meta`` and the same "returned the input unchanged" answer.
Inputs: blocks, powerlaw, grid and dag graphs from random and packed
starts, on 2x4, 2x2x2x2 and [2,3,2] (with a zero-delta level) and on
one hierarchy above the table's size guard, where rows come from
``lca_level`` per lookup.
"""

import numpy as np
import pytest

from repro import Hierarchy, Placement
from repro.baselines.greedy import greedy_placement
from repro.baselines.local_search import enforce_capacity, refine_placement
from repro.bench.instances import FAMILIES
from repro.hierarchy.hierarchy import LEAF_TABLE_MAX_BYTES, LeafTable

from . import greedy_reference, local_search_reference

#: name -> (degrees, cm, leaf_capacity, n_target).  ``guarded`` has
#: k = 1028 leaves, past the table's size guard; its leaves hold two
#: units so residents can share them.
SHAPES = {
    "2x4": ((2, 4), (10.0, 3.0, 0.0), 1.0, 16),
    "2x2x2x2": ((2, 2, 2, 2), (15.0, 7.0, 3.0, 1.0, 0.0), 1.0, 16),
    "2x3x2": ((2, 3, 2), (9.0, 4.0, 4.0, 0.0), 1.0, 16),
    "guarded": ((2, 2, 257), (6.0, 3.0, 1.0, 0.0), 2.0, 8),
}
FAMILY_NAMES = ("blocks", "powerlaw", "grid", "dag")


def make_case(shape: str, family: str, seed: int, start: str):
    degrees, cm, leaf_capacity, n_target = SHAPES[shape]
    hier = Hierarchy(degrees, cm, leaf_capacity=leaf_capacity)
    g = FAMILIES[family](n_target, seed)
    rng = np.random.default_rng(seed)
    # 0.1-0.9 of a leaf each: packed starts overload their leaves, and
    # moves and swaps run into the budgets.
    d = rng.uniform(0.1, 0.9, size=g.n) * leaf_capacity
    if start == "random":
        leaf_of = rng.integers(0, hier.k, size=g.n)
    else:  # packed onto three leaves spread across the hierarchy
        leaf_of = rng.choice(rng.choice(hier.k, size=3, replace=False), size=g.n)
    return Placement(g, hier, d, leaf_of.astype(np.int64))


def assert_same(start, got, want):
    assert (got is start) == (want is start)
    assert np.array_equal(got.leaf_of, want.leaf_of)
    assert got.cost() == want.cost()
    assert got.meta == want.meta


CASES = [
    (shape, family, seed, start)
    for shape in ("2x4", "2x2x2x2", "2x3x2")
    for family in FAMILY_NAMES
    for seed in (1, 2)
    for start in ("random", "packed")
] + [("guarded", "blocks", 1, "packed"), ("guarded", "grid", 1, "random")]


@pytest.mark.parametrize("shape,family,seed,start", CASES)
def test_local_searches_equal_reference(shape, family, seed, start):
    p = make_case(shape, family, seed, start)
    for swaps in (False, True):
        assert_same(
            p,
            refine_placement(p, max_passes=2, max_violation=1.2, seed=seed, allow_swaps=swaps),
            local_search_reference.refine_placement(
                p, max_passes=2, max_violation=1.2, seed=seed, allow_swaps=swaps
            ),
        )
    for target in (1.0, 1.3):
        got = enforce_capacity(p, target, seed=seed)
        assert_same(p, got, local_search_reference.enforce_capacity(p, target, seed=seed))
    # The strict-balance polish of ``hgp_feasible``: refine what
    # enforcement to 1.0 left.
    assert_same(
        got,
        refine_placement(got, max_passes=2, max_violation=1.3, seed=seed, allow_swaps=True),
        local_search_reference.refine_placement(
            got, max_passes=2, max_violation=1.3, seed=seed, allow_swaps=True
        ),
    )
    got = greedy_placement(p.graph, p.hierarchy, p.demands, seed=seed)
    want = greedy_reference.greedy_placement(p.graph, p.hierarchy, p.demands, seed=seed)
    assert_same(None, got, want)


def test_table_rows_equal_lca_level():
    for shape in SHAPES:
        degrees, cm, leaf_capacity, _ = SHAPES[shape]
        hier = Hierarchy(degrees, cm, leaf_capacity=leaf_capacity)
        table = LeafTable(hier)
        built = 16 * hier.k**2 <= LEAF_TABLE_MAX_BYTES
        assert (table._cost is not None) is built and (shape != "guarded") is built
        leaves = np.random.default_rng(0).integers(0, hier.k, size=50)
        for leaf in (0, hier.k // 3, hier.k - 1):
            want_levels = hier.lca_level(leaf, leaves)
            got_costs = table.costs(leaf, leaves)
            assert got_costs.dtype == np.float64 and got_costs.flags.c_contiguous
            assert np.array_equal(got_costs, np.asarray(cm)[want_levels])
            assert np.array_equal(table.levels(leaf, leaves), want_levels)
            assert int(table.levels(leaf, int(leaves[0]))) == hier.lca_level(leaf, int(leaves[0]))
            for j in range(hier.h + 1):
                assert table.ancestors[j][leaf] == hier.ancestor(leaf, j)


def test_below_guard_calls_lca_level_once(monkeypatch):
    """Below the guard each search calls ``lca_level`` once, for the table."""
    p = make_case("2x2x2x2", "blocks", 1, "packed")
    calls = []
    real = Hierarchy.lca_level

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(Hierarchy, "lca_level", counting)
    for run in (
        lambda: refine_placement(p, max_violation=1.2, allow_swaps=True),
        lambda: enforce_capacity(p, 1.0),
        lambda: greedy_placement(p.graph, p.hierarchy, p.demands, seed=1),
    ):
        calls.clear()
        run()
        assert len(calls) == 1
