"""The python DP kernels against their earlier implementations
(``tests/kernels/reference.py``).

The python backend is the contract every other backend is compared
with, so its vectorised ``dp_tile_merge`` and ``dp_dominance_prune``
need an oracle of their own that runs without numba.  Equality is exact:
arrays, dtypes, shapes, ``n_ok`` and ``truncated``.

* Prune inputs span several ``_DOM_BLOCK`` blocks (m up to ~1,500) at
  h = 1–5, with tied integer or float costs, duplicate signature rows,
  antichain-heavy tables (many survivors per block), beams on either
  side of a block boundary, and scan orders that are either the
  (cost, signature) lexsort or an arbitrary permutation.
* Tile inputs cover whole-row, mid-row, multi-row and empty tiles at
  h = 1–4, with and without a finite budget.
* ``_dedupe_min`` must return what its (key, cost, tie) lexsort did on
  tables with duplicate rows, tied, ``inf`` and NaN costs and an absent,
  increasing or shuffled tie-break, at h = 1–5 and on empty tables.
* ``_dominance_prune`` must scan and pick its beam guard exactly as the
  old lexsorts did on every table ``_dedupe_min`` can hand it.
* Whole ``solve_rhgpt`` runs at h = 3 and h = 4 must not change when
  both kernels and ``_dedupe_min`` are swapped for the references.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hgpt.dp as dp
import repro.kernels as kernels
from repro.graph.generators import grid_2d
from repro.decomposition.spectral_tree import spectral_decomposition_tree
from repro.hgpt.binarize import binarize
from repro.hgpt.dp import DPConfig, _dedupe_min, _dominance_prune, solve_rhgpt
from repro.kernels import python_backend
from repro.kernels.python_backend import _DOM_BLOCK

from . import reference


def assert_same_arrays(got, want):
    """Exact equality of values, dtype and shape."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# dp_dominance_prune
# ----------------------------------------------------------------------


def prune_case(seed):
    """A random state table, scan order and beam for the prune kernel."""
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, 6))
    m = int(rng.choice([rng.integers(1, 40), rng.integers(200, 700), rng.integers(700, 1500)]))
    shape = rng.integers(0, 3)
    if shape == 0:
        # Small values: heavy dominance and many duplicate rows.
        sigs = rng.integers(0, 5, size=(m, h))
    elif shape == 1:
        # Wide values: many rows survive the cross-block filter.
        sigs = rng.integers(0, 400, size=(m, h))
    else:
        # Near-constant row sums: an antichain with a few duplicates.
        sigs = rng.multinomial(60, np.full(h, 1.0 / h), size=m)
    sigs = sigs.astype(np.int64)
    if rng.random() < 0.5:
        costs = rng.integers(0, 6, size=m).astype(np.float64)  # ties
    else:
        costs = rng.uniform(0.0, 100.0, size=m)
    if rng.random() < 0.5:
        order = reference.dominance_scan_order(sigs, costs)
    else:
        order = rng.permutation(m).astype(np.int64)
    beam = int(
        rng.choice(
            [
                -1,
                rng.integers(1, 8),
                _DOM_BLOCK,
                2 * _DOM_BLOCK,
                rng.integers(_DOM_BLOCK + 1, 2 * _DOM_BLOCK),
                rng.integers(8, 1500),
            ]
        )
    )
    return sigs, costs, order, beam


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_dominance_prune_equals_reference(seed):
    sigs, costs, order, beam = prune_case(seed)
    kept, truncated = python_backend.dp_dominance_prune(sigs, costs, order, beam)
    want_kept, want_truncated = reference.dp_dominance_prune(sigs, costs, order, beam)
    assert_same_arrays(kept, want_kept)
    assert truncated is want_truncated


@pytest.mark.parametrize("h", [3, 4, 5])
@pytest.mark.parametrize(
    "beam", [-1, 0, 1, _DOM_BLOCK - 1, _DOM_BLOCK, _DOM_BLOCK + 1, 2 * _DOM_BLOCK, 700]
)
def test_antichain_beam_at_block_boundaries(h, beam):
    """Every row of an antichain survives, so the beam cut lands exactly
    on, before or after a block boundary."""
    rng = np.random.default_rng(h * 1000 + beam)
    m = 3 * _DOM_BLOCK + 17
    sigs = rng.multinomial(90, np.full(h, 1.0 / h), size=m).astype(np.int64)
    sigs = np.unique(sigs, axis=0)
    costs = rng.integers(0, 9, size=sigs.shape[0]).astype(np.float64)
    order = reference.dominance_scan_order(sigs, costs)
    kept, truncated = python_backend.dp_dominance_prune(sigs, costs, order, beam)
    want_kept, want_truncated = reference.dp_dominance_prune(sigs, costs, order, beam)
    assert_same_arrays(kept, want_kept)
    assert truncated is want_truncated


def test_empty_table():
    for h in (1, 2, 3, 4):
        sigs = np.empty((0, h), dtype=np.int64)
        costs = np.empty(0)
        order = np.empty(0, dtype=np.int64)
        for beam in (-1, 3):
            kept, truncated = python_backend.dp_dominance_prune(sigs, costs, order, beam)
            want_kept, want_truncated = reference.dp_dominance_prune(
                sigs, costs, order, beam
            )
            assert_same_arrays(kept, want_kept)
            assert truncated is want_truncated


# ----------------------------------------------------------------------
# dp_tile_merge
# ----------------------------------------------------------------------


def tile_case(seed):
    """Random projected tables, a tile of their cross product and a budget."""
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, 5))
    na, nb = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    pa_sig = rng.integers(0, 8, size=(na, h)).astype(np.int64)
    pb_sig = rng.integers(0, 8, size=(nb, h)).astype(np.int64)
    if rng.random() < 0.5:
        pa_cost = rng.integers(0, 6, size=na).astype(np.float64)
        pb_cost = rng.integers(0, 6, size=nb).astype(np.float64)
    else:
        pa_cost = rng.uniform(0.0, 10.0, size=na)
        pb_cost = rng.uniform(0.0, 10.0, size=nb)
    caps = np.sort(rng.integers(3, 14, size=h))[::-1].astype(np.int64)
    total = na * nb
    kind = int(rng.integers(0, 5))
    if kind == 0:  # whole rows
        a = int(rng.integers(0, na + 1))
        b = int(rng.integers(a, na + 1))
        start, stop = a * nb, b * nb
    elif kind == 1:  # empty tile
        start = stop = int(rng.integers(0, total + 1))
    elif kind == 2:  # inside one row
        row = int(rng.integers(0, na))
        lo = int(rng.integers(0, nb))
        start, stop = row * nb + lo, row * nb + int(rng.integers(lo, nb + 1))
    elif kind == 3:  # the whole cross product
        start, stop = 0, total
    else:  # any span, usually starting and ending mid-row
        start = int(rng.integers(0, total + 1))
        stop = int(rng.integers(start, total + 1))
    budget = float("inf") if rng.random() < 0.5 else float(rng.uniform(0.0, 20.0))
    return pa_sig, pa_cost, pb_sig, pb_cost, caps, start, stop, budget


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_tile_merge_equals_reference(seed):
    args = tile_case(seed)
    got = python_backend.dp_tile_merge(*args)
    want = reference.dp_tile_merge(*args)
    for g, w in zip(got[:5], want[:5]):
        assert_same_arrays(g, w)
    assert type(got[5]) is int and got[5] == want[5]


# ----------------------------------------------------------------------
# _dedupe_min, and _dominance_prune's scan order and beam guard
# ----------------------------------------------------------------------


@st.composite
def dedupe_inputs(draw):
    """Raw merge rows with duplicate signatures, tied and ``inf`` costs
    and an absent, increasing (``_project`` positions, in-order ranks)
    or shuffled (a tiled ``compact()``'s ``acc`` before newer tiles)
    tie-break, as the DP hands them over."""
    h = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=60))
    row = st.lists(st.integers(0, 4), min_size=h, max_size=h)
    sigs = np.asarray(draw(st.lists(row, min_size=m, max_size=m)), dtype=np.int64)
    sigs = sigs.reshape(m, h)
    costs = np.asarray(
        draw(
            st.one_of(
                st.lists(st.integers(0, 4), min_size=m, max_size=m),
                st.lists(st.floats(0, 20, allow_nan=False), min_size=m, max_size=m),
                st.lists(st.sampled_from([0.0, 1.0, 2.0, math.inf]), min_size=m, max_size=m),
            )
        ),
        dtype=np.float64,
    )
    tie = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(0, 10**6), min_size=m, max_size=m, unique=True).map(sorted),
            st.permutations(range(m)),
        )
    )
    if tie is not None:
        tie = np.asarray(tie, dtype=np.int64)
    return sigs, costs, tie


def assert_same_dedupe(sigs, costs, tie):
    got = _dedupe_min(sigs, costs, tie=tie)
    want = reference.dedupe_min(sigs, costs, tie=tie)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=g.dtype.kind == "f")


@given(dedupe_inputs())
@settings(max_examples=400, deadline=None)
def test_dedupe_min_equals_reference(case):
    assert_same_dedupe(*case)


@given(dedupe_inputs(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_dedupe_min_nan_costs_equal_reference(case, seed):
    """NaN costs reach the DP only from an infinite cost multiplier on
    two levels (``inf - inf``); a NaN row sorts after every number and
    ties with other NaN rows, as in the lexsort."""
    sigs, costs, tie = case
    rng = np.random.default_rng(seed)
    costs = np.where(rng.random(costs.size) < rng.random(), math.nan, costs)
    assert_same_dedupe(sigs, costs, tie)


def test_dedupe_min_empty_table():
    for h in (1, 2, 3, 4, 5):
        sigs = np.empty((0, h), dtype=np.int64)
        for tie in (None, np.empty(0, dtype=np.int64)):
            assert_same_dedupe(sigs, np.empty(0), tie)


@given(dedupe_inputs())
@settings(max_examples=200, deadline=None)
def test_scan_order_and_guard_equal_lexsorts(case):
    sigs, costs, tie = case
    uniq, ucosts, _ = _dedupe_min(sigs, costs, tie=tie)
    if ucosts.size <= 1:
        return
    seen = {}

    def spy(sigs_, costs_, order, beam_width):
        # Keep no row and report the beam as fired, so the only row
        # _dominance_prune returns is its guard.
        seen["order"] = order
        return np.empty(0, dtype=np.int64), True

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "dp_dominance_prune", spy)
        kept = _dominance_prune(uniq, ucosts, beam_width=1)
    assert np.array_equal(seen["order"], reference.dominance_scan_order(uniq, ucosts))
    assert kept.tolist() == [reference.most_closed(uniq)]


# ----------------------------------------------------------------------
# whole solves with the reference kernels
# ----------------------------------------------------------------------


def _canonical(sol):
    return (
        sol.cost,
        [
            sorted((tuple(sorted(int(v) for v in s.vertices)), int(s.qdemand)) for s in level)
            for level in sol.levels
        ],
    )


@pytest.mark.parametrize(
    "caps",
    [[40, 12, 6], [40, 16, 8, 4]],
    ids=["h3", "h4"],
)
@pytest.mark.parametrize("beam", [None, 24])
@pytest.mark.parametrize(
    "cfg",
    [DPConfig(), DPConfig(tile_size=0, bound_pruning=False), DPConfig(tile_size=97)],
    ids=["default", "legacy", "small-tiles"],
)
def test_solve_rhgpt_equals_reference_kernels(monkeypatch, caps, beam, cfg):
    g = grid_2d(4, 5, weight_range=(0.5, 2.0), seed=3)
    tree = spectral_decomposition_tree(g, seed=3)
    bt = binarize(tree, np.full(g.n, 2, dtype=np.int64))
    deltas = [0.0] + [float(len(caps) - k + 1) for k in range(1, len(caps) + 1)]
    got = _canonical(solve_rhgpt(bt, caps, deltas, beam_width=beam, dp_config=cfg))
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "dp_tile_merge", reference.dp_tile_merge)
        patch.setattr(kernels, "dp_dominance_prune", reference.dp_dominance_prune)
        patch.setattr(dp, "_dedupe_min", reference.dedupe_min)
        want = _canonical(solve_rhgpt(bt, caps, deltas, beam_width=beam, dp_config=cfg))
    assert got == want
