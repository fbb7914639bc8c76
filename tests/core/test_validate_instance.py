"""Property-based edge-case coverage for instance validation.

``validate_instance`` is the gate every solve path passes through; these
tests pin its behaviour on the awkward inputs users actually produce:
non-finite demands, empty edge sets, demands sitting exactly on a
capacity boundary, and demands just past one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Graph, Hierarchy, SolverConfig, solve_hgp
from repro.core.engine import validate_instance
from repro.errors import InfeasibleError, InvalidInputError


def _hier(leaf_capacity: float = 4.0) -> Hierarchy:
    return Hierarchy([2, 2], [5.0, 1.0, 0.0], leaf_capacity=leaf_capacity)


def _path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


class TestNonFiniteDemands:
    @given(
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        position=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_nan_inf_demand_rejected(self, bad, position):
        g = _path_graph(4)
        d = np.ones(4)
        d[position] = bad
        with pytest.raises((InvalidInputError, InfeasibleError)):
            validate_instance(g, _hier(), d)

    @given(position=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_zero_or_negative_demand_rejected(self, position):
        g = _path_graph(4)
        d = np.ones(4)
        d[position] = 0.0
        with pytest.raises(InvalidInputError):
            validate_instance(g, _hier(), d)
        d[position] = -1.0
        with pytest.raises(InvalidInputError):
            validate_instance(g, _hier(), d)


class TestCapacityBoundaries:
    @given(n=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_demand_exactly_at_leaf_capacity_is_feasible(self, n):
        g = _path_graph(n)
        d = np.full(n, 4.0)  # == leaf_capacity, one task fills one leaf
        validate_instance(g, _hier(4.0), d)  # must not raise

    def test_total_demand_exactly_at_total_capacity_is_feasible(self):
        hier = _hier(4.0)  # 4 leaves x 4.0 = 16.0 total
        g = _path_graph(4)
        validate_instance(g, hier, np.full(4, 4.0))

    @given(excess=st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_single_vertex_over_leaf_capacity_raises(self, excess):
        g = _path_graph(3)
        d = np.ones(3)
        d[1] = 4.0 + excess
        with pytest.raises(InfeasibleError):
            validate_instance(g, _hier(4.0), d)

    @given(excess=st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_total_demand_over_total_capacity_raises(self, excess):
        g = _path_graph(5)
        d = np.full(5, (16.0 + excess) / 5)  # sum just over 16.0 total
        with pytest.raises(InfeasibleError):
            validate_instance(g, _hier(4.0), d)


class TestDegenerateGraphs:
    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidInputError):
            validate_instance(Graph(0, []), _hier(), np.zeros(0))

    @given(n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_edgeless_graph_validates_and_solves(self, n):
        g = Graph(n, [])
        d = np.ones(n)
        validate_instance(g, _hier(), d)
        result = solve_hgp(
            g, _hier(), d, SolverConfig(seed=0, n_trees=1, refine=False)
        )
        assert result.cost == 0.0  # no edges, nothing to cut

    @given(extra=st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_wrong_demand_shape_rejected(self, extra):
        g = _path_graph(3)
        with pytest.raises(InvalidInputError):
            validate_instance(g, _hier(), np.ones(3 + extra))
        with pytest.raises(InvalidInputError):
            validate_instance(g, _hier(), np.ones((3, 1)))
