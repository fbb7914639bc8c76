"""Direct tests of the vectorised DP internals (dedupe, dominance, project).

The numpy fast paths (radix keys, Pareto staircase) replaced a simple
dict implementation after profiling; these tests pin their semantics
against naive reference implementations so future optimisation passes
cannot silently change behaviour.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hgpt.dp import _dedupe_min, _dominance_prune, _encode_rows, _project, _Table


def naive_dedupe(sigs, costs):
    best = {}
    for i in range(len(costs)):
        key = tuple(sigs[i])
        if key not in best or costs[i] < costs[best[key]]:
            best[key] = i
    return best


def naive_prune(sigs, costs):
    """Reference dominance filter: O(m^2), cost-order scan."""
    order = sorted(
        range(len(costs)), key=lambda i: (costs[i], tuple(sigs[i]))
    )
    kept = []
    for i in order:
        if any(all(sigs[j][c] <= sigs[i][c] for c in range(sigs.shape[1])) for j in kept):
            continue
        kept.append(i)
    return set(kept)


@st.composite
def state_tables(draw, h):
    m = draw(st.integers(min_value=1, max_value=40))
    sigs = np.asarray(
        draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=6), min_size=h, max_size=h),
                min_size=m,
                max_size=m,
            )
        ),
        dtype=np.int64,
    )
    costs = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0, max_value=20, allow_nan=False),
                min_size=m,
                max_size=m,
            )
        )
    )
    return sigs, costs


class TestEncodeRows:
    def test_distinct_rows_distinct_keys(self):
        sigs = np.array([[1, 2], [2, 1], [1, 2], [0, 0]], dtype=np.int64)
        keys = _encode_rows(sigs)
        assert keys[0] == keys[2]
        assert len({int(keys[0]), int(keys[1]), int(keys[3])}) == 3

    def test_overflow_returns_none(self):
        sigs = np.array([[2**40, 2**40]], dtype=np.int64)
        assert _encode_rows(sigs) is None

    def test_empty(self):
        assert _encode_rows(np.empty((0, 2), dtype=np.int64)).size == 0


class TestDedupeMin:
    @given(state_tables(h=2))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, table):
        sigs, costs = table
        uniq, min_costs, winners = _dedupe_min(sigs, costs)
        ref = naive_dedupe(sigs, costs)
        assert uniq.shape[0] == len(ref)
        for row, cost in zip(uniq, min_costs):
            assert cost == pytest.approx(costs[ref[tuple(row)]])

    def test_winners_index_source_rows(self):
        sigs = np.array([[1, 1], [1, 1], [2, 2]], dtype=np.int64)
        costs = np.array([5.0, 3.0, 1.0])
        uniq, min_costs, winners = _dedupe_min(sigs, costs)
        for w, row, cost in zip(winners, uniq, min_costs):
            assert np.array_equal(sigs[w], row)
            assert costs[w] == cost


class TestDominancePrune:
    @given(state_tables(h=1))
    @settings(max_examples=60, deadline=None)
    def test_h1_matches_naive(self, table):
        sigs, costs = table
        uniq, ucosts, _ = _dedupe_min(sigs, costs)
        kept = set(_dominance_prune(uniq, ucosts, None).tolist())
        assert kept == naive_prune(uniq, ucosts)

    @given(state_tables(h=2))
    @settings(max_examples=60, deadline=None)
    def test_h2_staircase_matches_naive(self, table):
        sigs, costs = table
        uniq, ucosts, _ = _dedupe_min(sigs, costs)
        kept = set(_dominance_prune(uniq, ucosts, None).tolist())
        assert kept == naive_prune(uniq, ucosts)

    @given(state_tables(h=3))
    @settings(max_examples=40, deadline=None)
    def test_h3_generic_matches_naive(self, table):
        sigs, costs = table
        uniq, ucosts, _ = _dedupe_min(sigs, costs)
        kept = set(_dominance_prune(uniq, ucosts, None).tolist())
        assert kept == naive_prune(uniq, ucosts)

    def test_pareto_pair_both_kept(self):
        """Cheaper-but-larger and costlier-but-smaller must both survive."""
        sigs = np.array([[3, 3], [1, 1]], dtype=np.int64)
        costs = np.array([1.0, 2.0])
        uniq, ucosts, _ = _dedupe_min(sigs, costs)
        kept = _dominance_prune(uniq, ucosts, None)
        assert {tuple(uniq[i]) for i in kept.tolist()} == {(3, 3), (1, 1)}

    def test_beam_keeps_most_closed(self):
        sigs = np.array([[5, 5], [4, 4], [3, 3], [0, 0]], dtype=np.int64)
        costs = np.array([0.0, 1.0, 2.0, 50.0])
        uniq, ucosts, _ = _dedupe_min(sigs, costs)
        kept = _dominance_prune(uniq, ucosts, beam_width=2)
        kept_sigs = {tuple(uniq[i]) for i in kept.tolist()}
        assert (0, 0) in kept_sigs  # flexibility guard

    def test_beam_width_respected_plus_guard(self):
        sigs = np.array([[5, 1], [4, 2], [3, 3], [2, 4], [1, 5]], dtype=np.int64)
        costs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        uniq, ucosts, _ = _dedupe_min(sigs, costs)
        kept = _dominance_prune(uniq, ucosts, beam_width=2)
        # The two cheapest rows fill the beam; every sum is 6, so the
        # guard is the lexicographically smallest row.
        assert [tuple(uniq[i]) for i in kept.tolist()] == [(5, 1), (4, 2), (1, 5)]


class TestProject:
    def _table(self, sigs, costs):
        m = len(costs)
        neg = np.full(m, -1, dtype=np.int64)
        return _Table(
            np.asarray(sigs, dtype=np.int64),
            np.asarray(costs, dtype=np.float64),
            neg.copy(), neg.copy(), neg.copy(), neg.copy(),
        )

    def test_finite_edge_payments(self):
        # One state (3, 2), weight 2, deltas (., 5, 1).
        t = self._table([[3, 2]], [1.0])
        psig, pcost, porig, pj = _project(t, 2.0, np.array([0.0, 5.0, 1.0]), 2)
        got = {tuple(s): (c, j) for s, c, j in zip(psig, pcost, pj)}
        # j=2: keep all, no payment.
        assert got[(3, 2)] == (1.0, 2)
        # j=1: close level 2 (D=2>0): pay 2*1.
        assert got[(3, 0)] == (3.0, 1)
        # j=0: additionally close level 1 (D=3>0): pay 2*5 more.
        assert got[(0, 0)] == (13.0, 0)

    def test_infinite_edge_only_free_cuts(self):
        t = self._table([[3, 2], [3, 0]], [1.0, 4.0])
        psig, pcost, porig, pj = _project(
            t, float("inf"), np.array([0.0, 5.0, 1.0]), 2
        )
        got = {tuple(s): c for s, c in zip(psig, pcost)}
        # State (3,2) admits only j=2 (any cut would pay on an inf edge).
        assert got[(3, 2)] == 1.0
        # State (3,0) admits j=2 and j=1 (level-2 close is free: D=0).
        assert got[(3, 0)] == 4.0
        assert (0, 0) not in got  # j=0 would pay for level 1

    def test_zero_demand_level_projection_dedupes(self):
        t = self._table([[2, 0]], [0.0])
        psig, pcost, porig, pj = _project(t, 1.0, np.array([0.0, 1.0, 1.0]), 2)
        # (2,0) at j=2 and j=1 coincide; dedupe keeps one.
        keys = [tuple(s) for s in psig]
        assert len(keys) == len(set(keys))
