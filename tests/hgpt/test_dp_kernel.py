"""Equivalence and admissibility tests for the bounded/tiled DP kernel.

The kernel's contract is that every :class:`DPConfig` knob combination —
tiling (including tiny tiles that force mid-merge compaction) and
incumbent bound pruning — returns solution costs identical to the
exhaustive legacy merge.  These tests pin that contract
with hypothesis-generated random trees plus the lower-bound invariant
backing the pruning (``sub_lb(v)`` never exceeds the true cost of any
state at ``v``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInputError
from repro.hgpt.dp import (
    DPConfig,
    DPStats,
    _solve_tables,
    compute_lower_bounds,
    solve_rhgpt,
)
from repro.bench.oracles import brute_force_optimum, path_binary_tree

#: The pre-kernel reference semantics: untiled, unbounded.
LEGACY = DPConfig(tile_size=0, bound_pruning=False)

#: Knob combinations that must all match LEGACY's costs exactly.
VARIANTS = [
    DPConfig(),  # the shipped default (tiled + bound pruning)
    DPConfig(bound_pruning=False),  # tiling alone
    DPConfig(tile_size=0, bound_pruning=True),  # bounding alone
    DPConfig(tile_size=7, bound_pruning=False),  # tiny tiles force compaction
    DPConfig(tile_size=7, bound_pruning=True),
    DPConfig(tile_size=5, bound_pruning=True, incumbent_beam=1),
]


@st.composite
def random_instance(draw):
    """A random path binary tree + feasible caps/deltas with h in 1..3."""
    n = draw(st.integers(min_value=3, max_value=6))
    weights = [
        draw(st.floats(min_value=0.25, max_value=4.0, allow_nan=False))
        for _ in range(n - 1)
    ]
    demands = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n)]
    h = draw(st.integers(min_value=1, max_value=3))
    total = sum(demands)
    caps = []
    lo = max(demands)
    hi = total
    for _ in range(h):
        c = draw(st.integers(min_value=lo, max_value=max(lo, hi)))
        caps.append(min(c, hi))
        hi = caps[-1]
    deltas = [0.0] + [
        draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        for _ in range(h)
    ]
    return weights, demands, caps, deltas


class TestKernelEquivalence:
    @given(random_instance())
    @settings(max_examples=60, deadline=None)
    def test_all_knob_combos_match_legacy_exact(self, instance):
        weights, demands, caps, deltas = instance
        bt = path_binary_tree(weights, demands)
        reference = solve_rhgpt(bt, caps, deltas, dp_config=LEGACY)
        reference.validate(len(demands), caps, np.asarray(demands))
        for cfg in VARIANTS:
            sol = solve_rhgpt(bt, caps, deltas, dp_config=cfg)
            assert sol.cost == reference.cost, cfg
            sol.validate(len(demands), caps, np.asarray(demands))

    @given(random_instance(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_beamed_runs_identical_across_configs(self, instance, beam):
        """Under a beam the kernel must keep the *same states* as the
        legacy merge (bound pruning is disabled, tiling is exact), so
        beamed costs are bit-identical, not merely equal-optimal."""
        weights, demands, caps, deltas = instance
        bt = path_binary_tree(weights, demands)

        def run(cfg):
            try:
                return solve_rhgpt(
                    bt, caps, deltas, beam_width=beam, dp_config=cfg
                ).cost
            except Exception:
                return None  # beam killed feasibility: must do so everywhere

        reference = run(LEGACY)
        for cfg in VARIANTS:
            assert run(cfg) == reference, cfg

    @given(random_instance())
    @settings(max_examples=25, deadline=None)
    def test_default_kernel_matches_bruteforce(self, instance):
        weights, demands, caps, deltas = instance
        bt = path_binary_tree(weights, demands)
        sol = solve_rhgpt(bt, caps, deltas)  # shipped default config
        assert sol.cost == pytest.approx(brute_force_optimum(bt, caps, deltas))


class TestLowerBoundAdmissibility:
    @given(random_instance())
    @settings(max_examples=40, deadline=None)
    def test_sub_lb_below_every_exact_state(self, instance):
        """``sub_lb[v]`` must lower-bound the cost of *every* state the
        exhaustive DP produces at ``v`` — the invariant that makes
        incumbent pruning safe (white-box: inspects the DP tables)."""
        weights, demands, caps, deltas = instance
        bt = path_binary_tree(weights, demands)
        caps_arr = np.asarray(caps, dtype=np.int64)
        deltas_arr = np.asarray(deltas, dtype=np.float64)
        tables = [None] * bt.n_nodes
        _solve_tables(
            bt, caps_arr, deltas_arr, None, LEGACY, DPStats(),
            bt.postorder(), tables,
        )
        sub_lb, outside_lb = compute_lower_bounds(bt, caps, deltas)
        opt = float(tables[bt.root].costs.min())
        assert outside_lb[bt.root] == 0.0
        for v in bt.postorder():
            min_cost = float(tables[v].costs.min())
            assert sub_lb[v] <= min_cost + 1e-9
            # Any completion of v's best state still pays outside_lb[v]
            # outside SUB(v), so the pair can never undercut the optimum.
            assert min_cost + outside_lb[v] <= opt + 1e-9

    @given(random_instance())
    @settings(max_examples=25, deadline=None)
    def test_sub_lb_below_bruteforce_optimum(self, instance):
        weights, demands, caps, deltas = instance
        bt = path_binary_tree(weights, demands)
        sub_lb, _outside = compute_lower_bounds(bt, caps, deltas)
        assert sub_lb[bt.root] <= brute_force_optimum(bt, caps, deltas) + 1e-9


class TestDPConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(InvalidInputError):
            DPConfig(tile_size=-1)
        with pytest.raises(InvalidInputError):
            DPConfig(incumbent_beam=0)

    def test_kernel_counters_populated(self):
        bt = path_binary_tree([1.0, 2.0, 3.0], [1, 1, 1, 1])
        stats = DPStats()
        solve_rhgpt(bt, caps=[4], deltas=[0.0, 1.0], stats=stats)
        assert stats.tiles >= bt.n_nodes // 2  # one per internal merge
        assert stats.table_peak_bytes > 0
        assert stats.bound_pruned >= 0
        assert math.isfinite(stats.table_peak_bytes)
        d = stats.as_dict()
        assert {"tiles", "bound_pruned", "table_peak_bytes"} <= set(d)
