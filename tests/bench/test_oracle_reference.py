"""The shipped brute-force oracle agrees with the plain enumerator.

:func:`repro.bench.oracles.brute_force_optimum` scores cut-level
assignments from per-mask tables; ``bruteforce_reference`` walks every
assignment's parent chains.  Both minimise the same sums in a different
order, so they must agree to 1e-12 relative — including on non-binary
trees (whose dummy edges are infinite and never cut) and on infeasible
instances (both return ``inf``).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.oracles import brute_force_optimum, path_binary_tree
from repro.decomposition.tree import TreeAssembler
from repro.graph.graph import Graph
from repro.hgpt.binarize import binarize
from tests.bench.bruteforce_reference import brute_force_optimum as reference

#: Largest assignment count drawn, so the reference stays under a second.
MAX_ASSIGNMENTS = 4096


def _tree(weights, demands, groups):
    """Binarized tree over a path graph; ``groups`` = (start, fan-out) merges."""
    n = len(demands)
    g = Graph(n, [(i, i + 1, float(weights[i])) for i in range(n - 1)])
    asm = TreeAssembler(g)
    nodes = [asm.add_leaf(v) for v in range(n)]
    for start, fan_out in groups:
        nodes[start:start + fan_out] = [asm.add_internal(nodes[start:start + fan_out])]
    assert len(nodes) == 1
    return binarize(asm.finish(nodes[0]), np.asarray(demands, dtype=np.int64))


def _finite_edges(bt):
    return sum(
        1 for v in range(bt.n_nodes) if v != bt.root and not math.isinf(bt.up_weight[v])
    )


#: A root with three leaf children: binarize adds one infinite dummy edge.
STAR = (_tree([1.0, 2.0], [1, 2, 1], [(0, 3)]), [3, 2], [0.0, 1.5, 0.5])
#: Two demand-3 leaves cannot fit under capacity 2 at any cut.
INFEASIBLE = (path_binary_tree([1.0], [3, 3]), [2], [0.0, 1.0])


@st.composite
def instances(draw):
    """A random tree of fan-out 2–3 over 2–6 leaves, with caps that may
    be infeasible and h capped so the reference enumerates at most
    :data:`MAX_ASSIGNMENTS` assignments."""
    n = draw(st.integers(min_value=2, max_value=6))
    weights = [draw(st.floats(min_value=0.25, max_value=4.0)) for _ in range(n - 1)]
    demands = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n)]
    groups, width = [], n
    while width > 1:
        fan_out = draw(st.integers(min_value=2, max_value=min(3, width)))
        groups.append((draw(st.integers(min_value=0, max_value=width - fan_out)), fan_out))
        width -= fan_out - 1
    bt = _tree(weights, demands, groups)
    h = draw(st.integers(min_value=1, max_value=3))
    while h > 1 and (h + 1) ** _finite_edges(bt) > MAX_ASSIGNMENTS:
        h -= 1
    lo = max(demands) - 1  # a cap below the largest demand is infeasible
    caps = sorted(
        (draw(st.integers(min_value=lo, max_value=sum(demands))) for _ in range(h)),
        reverse=True,
    )
    deltas = [0.0] + [draw(st.floats(min_value=0.0, max_value=5.0)) for _ in range(h)]
    return bt, caps, deltas


class TestOracleMatchesReference:
    @given(instances())
    @example(STAR)
    @example(INFEASIBLE)
    @settings(max_examples=60, deadline=None)
    def test_agrees_to_1e12_relative(self, instance):
        bt, caps, deltas = instance
        fast = brute_force_optimum(bt, caps, deltas)
        slow = reference(bt, caps, deltas)
        if math.isinf(slow):
            assert fast == slow
        else:
            assert math.isclose(fast, slow, rel_tol=1e-12, abs_tol=0.0)

    def test_examples_cover_dummy_edges_and_infeasibility(self):
        bt, caps, deltas = STAR
        assert any(math.isinf(w) for w in bt.up_weight)
        assert math.isfinite(brute_force_optimum(bt, caps, deltas))
        assert brute_force_optimum(*INFEASIBLE) == math.inf
