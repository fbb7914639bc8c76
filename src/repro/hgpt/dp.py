"""The RHGPT signature dynamic program (paper Section 3, Theorem 4).

Overview
--------
The relaxed problem (Definition 4) drops the ``≤ DEG(j)`` refinement
bound, after which Theorem 3 guarantees an optimal *nice* solution: for
every tree node ``v`` and level ``j`` at most one set's mirror region
crosses ``v`` — the ``(v, j)``-active set.  A partial solution on
``SUB(v)`` is then fully summarised by its *signature*
``(D¹, …, Dʰ)`` — the quantized demand of the active set per level
(Definition 8) — because every other set is closed strictly inside or
strictly outside the subtree.

States and transitions
----------------------
* Leaf ``v`` with quantized demand ``d'``: single state
  ``(d', …, d')`` at cost 0 (the leaf is active at every level).
* Internal ``v`` with children ``v1, v2`` reached by edges of weight
  ``w1, w2``: choose cut levels ``j1, j2 ∈ {0, …, h}`` (Definition 9).
  Child ``i``'s active sets at levels ``k ≤ ji`` propagate through ``v``
  and merge with the other child's; levels ``k > ji`` with ``Dᵢᵏ > 0``
  are *closed* — edge ``v vᵢ`` joins their cut and pays
  ``wᵢ · (cm(k−1) − cm(k))``.  The merged signature is
  ``Dᵏ = D₁ᵏ·[k ≤ j1] + D₂ᵏ·[k ≤ j2]`` and must respect the quantized
  capacities; Corollary 1's monotonicity ``Dᵏ ≥ Dᵏ⁺¹`` is automatic.

Cost accounting (one deliberate deviation — DESIGN.md §2)
---------------------------------------------------------
The paper's Eq. (4) charges half the multiplier difference per closed
set, matching Eq. (3) where per-set *minimum* cuts double-count shared
boundary edges.  We charge the full difference once per cut edge per
level — the *edge-cut* objective

    ``cost = Σ_{e ∈ T} Σ_{k : e cut at level k} w_T(e) · (cm(k−1) − cm(k))``

— which (i) equals the Eq. (1) cost of the placement induced by the level
sets (each level-``k`` component is one H-subtree) and (ii) upper-bounds
the mapped Eq. (1) cost on decomposition trees via Proposition 1.  The
literal half-payment rule can undercount by up to 2× when a closed set's
boundary edge is shared with the enclosing set, yielding tree "costs"
below the cost of any realizable placement.

Implementation
--------------
State tables are *structure-of-arrays* (signature matrix, cost vector,
back-pointer columns) and every pass — projection, pairwise merge,
deduplication, dominance pruning — is vectorised numpy over those
arrays.  The merge engine is a *bounded, tiled* kernel configured by
:class:`DPConfig`; all knob combinations return costs identical to the
exhaustive merge (pinned by ``tests/hgpt/test_dp_kernel.py``).
Semantics:

* **Projection**: cutting a child's up-edge at level ``j`` zeroes
  signature components above ``j`` and pays for each closed non-empty
  level.  Infinite (dummy) edges admit only payment-free cut levels.
* **Dominance pruning**: ``(sig', cost')`` kills ``(sig, cost)`` when
  ``sig' ≤ sig`` componentwise and ``cost' ≤ cost`` — a smaller active
  set only loosens future capacity checks, and any payment triggered by
  ``Dᵏ > 0`` under ``sig'`` is also triggered under ``sig``.  States
  are scanned cheapest-first; deduplication already leaves them in
  signature order, so one stable sort on cost gives the scan order.
  The ``h ≥ 3`` scan is blocked: each block of cost-ordered candidates
  is filtered against every previously kept signature in one
  vectorised comparison, then its survivors against each other in one
  comparison under a strict upper-triangular mask (an earlier survivor
  ≤ a later one drops it).
* **Incumbent-bound pruning** (exact solves): a cheap beamed pre-pass
  seeds an upper bound, and an admissible per-node lower bound on the
  cost paid *outside* each subtree (mandatory closure payments,
  :func:`compute_lower_bounds`) drops any partial state that provably
  cannot beat the incumbent before it enters a cross-product.
* **Tiled merges**: the ``(j1, j2) × K1 × K2`` cross-product streams
  through fixed-size tiles — each one block of side-A rows broadcast
  against side B — that are bound-pruned, feasibility-masked and
  periodically compacted (radix dedupe + dominance), capping peak table
  bytes instead of materialising every candidate at once.
* **Beam**: an optional cap on states kept per node; the most-closed
  surviving state is always retained (dropping every flexible state can
  make an ancestor infeasible), and the solver escalates to the exact
  DP if pruning ever kills feasibility.  Beamed runs stay *sound* — any
  kept state reconstructs to a valid solution.  Incumbent-bound pruning
  is disabled under a beam so beamed state selection (and therefore
  beamed results) stay bit-identical to the pre-kernel implementation.

The solver publishes no metrics: its counters go into the caller's
:class:`DPStats`, and the engine publishes them from each member's
record (:func:`repro.core.engine.publish_member_metrics`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

import repro.kernels as kernels
from repro.errors import InvalidInputError, SolverError
from repro.hgpt.binarize import BinaryTree
from repro.hgpt.solution import LevelSet, TreeSolution

__all__ = [
    "solve_rhgpt",
    "DPConfig",
    "DPStats",
    "SubtreeMemo",
    "compute_lower_bounds",
]


@dataclass(frozen=True)
class DPConfig:
    """Knobs of the bounded, tiled merge kernel.

    Every combination returns the same solution *costs* as the
    exhaustive merge; the knobs trade memory and wall-clock, never
    quality (property-tested in ``tests/hgpt/test_dp_kernel.py``).

    Attributes
    ----------
    tile_size:
        Cross-product pairs materialised per merge tile.  Survivors are
        compacted (dedupe + dominance) whenever the pending buffer
        exceeds ``2 × tile_size`` rows, capping peak table bytes.
        ``0`` = legacy single-pass accumulation (one compaction per
        node, chunked only to bound the transient ``sums`` array).
    bound_pruning:
        Incumbent/lower-bound pruning on *exact* solves: a beamed
        pre-pass (width :attr:`incumbent_beam`) seeds an upper bound,
        and states whose cost plus the admissible outside-subtree lower
        bound exceeds it are dropped before they enter a cross-product.
        Ignored under a beam (see the module docstring).
    incumbent_beam:
        Beam width of the bound-seeding pre-pass.  Wider beams cost
        more up front but tighten the incumbent; 256 is the sweet spot
        on deep (h >= 4) hierarchies, where a loose bound leaves most
        of the cross-product unpruned.
    """

    tile_size: int = 1 << 18
    bound_pruning: bool = True
    incumbent_beam: int = 256

    def __post_init__(self) -> None:
        if self.tile_size < 0:
            raise InvalidInputError(
                f"tile_size must be >= 0, got {self.tile_size}"
            )
        if self.incumbent_beam < 1:
            raise InvalidInputError(
                f"incumbent_beam must be >= 1, got {self.incumbent_beam}"
            )


#: Module default: tiling + bound pruning on.
_DEFAULT_CONFIG = DPConfig()


class DPStats:
    """Counters describing one DP run (consumed by E4/E18's scaling studies)."""

    __slots__ = (
        "states_total",
        "states_max",
        "merges",
        "nodes",
        "tiles",
        "bound_pruned",
        "table_peak_bytes",
        "memo_hits",
        "memo_misses",
    )

    def __init__(self) -> None:
        self.states_total = 0
        self.states_max = 0
        self.merges = 0
        self.nodes = 0
        self.tiles = 0
        self.bound_pruned = 0
        self.table_peak_bytes = 0
        self.memo_hits = 0
        self.memo_misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DPStats(nodes={self.nodes}, states_total={self.states_total}, "
            f"states_max={self.states_max}, merges={self.merges}, "
            f"tiles={self.tiles}, bound_pruned={self.bound_pruned}, "
            f"table_peak_bytes={self.table_peak_bytes}, "
            f"memo_hits={self.memo_hits}, memo_misses={self.memo_misses})"
        )

    def as_dict(self) -> dict:
        """Plain-dict view (folded into engine telemetry member records)."""
        return {
            "nodes": self.nodes,
            "states_total": self.states_total,
            "states_max": self.states_max,
            "merges": self.merges,
            "tiles": self.tiles,
            "bound_pruned": self.bound_pruned,
            "table_peak_bytes": self.table_peak_bytes,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
        }

    def update(self, other: "DPStats") -> None:
        """Accumulate another run's counters (per-tree -> caller totals)."""
        self.states_total += other.states_total
        self.states_max = max(self.states_max, other.states_max)
        self.merges += other.merges
        self.nodes += other.nodes
        self.tiles += other.tiles
        self.bound_pruned += other.bound_pruned
        self.table_peak_bytes = max(
            self.table_peak_bytes, other.table_peak_bytes
        )
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses


@dataclass
class _Table:
    """State table of one tree node (structure-of-arrays).

    ``sigs[(m, h)]`` / ``costs[(m,)]`` hold the Pareto states; the four
    back-pointer columns record, for internal nodes, which child states
    and cut levels produced each state (−1 at leaves).
    """

    sigs: np.ndarray
    costs: np.ndarray
    ia: np.ndarray
    ja: np.ndarray
    ib: np.ndarray
    jb: np.ndarray

    @property
    def size(self) -> int:
        return int(self.costs.size)


class SubtreeMemo:
    """Content-addressed per-node DP-table memo (the ``subtree_tables``
    cache tier).

    One instance carries one solve attempt's key material: the
    position-independent bottom-up subtree digests
    (:meth:`repro.hgpt.binarize.BinaryTree.subtree_digests` — hierarchy
    shape, child up-edge weights, quantized leaf demands and each leaf
    vertex's induced CSR slice) plus an *instance token* covering every
    remaining input the table pass reads: quantized capacities, level
    deltas, beam width and the merge tile size.  Lookups and stores go
    through the process-wide :mod:`repro.cache` instance, so the tier
    shares the byte budget, disk persistence and corrupt-entry recovery
    discipline of the existing tiers.

    Correctness contract: a memoised table is byte-for-byte what
    ``_solve_tables`` would rebuild for that node, because every input
    of the build is folded into the digest or the token.  Only
    *context-free* passes may memoise — exact solves with
    incumbent-bound pruning shape tables by the global incumbent and
    outside-subtree lower bounds, so :func:`solve_rhgpt` drops the memo
    in that mode (see the gating there).  The kernel backend is
    deliberately excluded from the token: backends are bit-identical by
    the PR 8 equivalence contract, so tables interchange freely.
    """

    KIND = "subtree_tables"

    __slots__ = ("_digests", "_token", "_cache", "_h")

    def __init__(
        self,
        digests: Sequence[bytes],
        caps: Sequence[int],
        deltas: Sequence[float],
        beam_width: Optional[int],
        dp_config: Optional[DPConfig] = None,
        extra_parts: Tuple[object, ...] = (),
    ):
        from repro.cache import cache_key, get_cache

        cfg = dp_config if dp_config is not None else _DEFAULT_CONFIG
        caps_arr = np.asarray(caps, dtype=np.int64)
        deltas_arr = np.asarray(deltas, dtype=np.float64)
        self._digests = list(digests)
        self._h = int(caps_arr.size)
        self._token = cache_key(
            "subtree_token",
            (
                caps_arr,
                deltas_arr,
                -1 if beam_width is None else int(beam_width),
                int(cfg.tile_size),
            )
            + tuple(extra_parts),
        )
        self._cache = get_cache()

    def load(self, node: int) -> Optional[_Table]:
        """The memoised table of ``node``, or ``None`` on miss.

        Hit values are shape-validated before use so a corrupt disk
        entry that survived unpickling degrades to a miss instead of
        poisoning the solve.
        """
        hit, value = self._cache.lookup(
            self.KIND, (self._digests[node], self._token)
        )
        if not hit:
            return None
        if (
            not isinstance(value, _Table)
            or value.sigs.ndim != 2
            or value.sigs.shape[1] != self._h
            or value.costs.shape != (value.sigs.shape[0],)
        ):
            return None
        return value

    def save(self, node: int, table: _Table) -> None:
        """Store ``node``'s freshly built table in both cache tiers."""
        self._cache.store(self.KIND, (self._digests[node], self._token), table)


def _encode_rows(sigs: np.ndarray) -> Optional[np.ndarray]:
    """Radix-encode signature rows into scalar int64 keys (or ``None``
    when the value range would overflow — caller falls back to
    row-wise uniqueness)."""
    if sigs.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    bases = sigs.max(axis=0).astype(np.int64) + 1
    total = 1
    for b in bases:
        total *= int(b)
        if total > (1 << 62):
            return None
    keys = np.zeros(sigs.shape[0], dtype=np.int64)
    for i in range(sigs.shape[1]):
        keys = keys * int(bases[i]) + sigs[:, i]
    return keys


#: Tie of a row above its signature's minimal cost: it never wins.
_NO_TIE = np.iinfo(np.int64).max


def _dedupe_min(
    sigs: np.ndarray, costs: np.ndarray, tie: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per unique signature keep the cheapest row.

    Returns (unique_sigs, min_costs, source_row_index) with the unique
    rows in ascending lexicographic order, deterministic: among a
    signature's rows of minimal cost the one with the smallest ``tie``
    wins (row position when ``tie`` is ``None`` — the tiled merge passes
    the global cross-product rank so compaction order cannot change
    winners).  Ties must be unique, as row positions and ranks
    ``ii * nb + jj`` are; then exactly one row per signature has both
    the minimal cost and the minimal tie among those, whatever order
    the ties come in.

    Rows are radix-encoded to scalar keys, so uniqueness is one int64
    argsort — ``np.unique(axis=0)``'s structured-dtype argsort profiled
    ~10x slower on the DP's tables — and each key group's minimal cost
    and then minimal tie are two segment minima.  State costs are sums
    of non-negative edge payments, so they may be ``inf``; they are NaN
    only when two equal infinite multipliers make a level's delta
    ``inf - inf``.  A NaN row loses to every number and ties with the
    other NaN rows, as in a (key, cost, tie) lexsort, so the answer is
    the lexsort's on every input.
    """
    n = sigs.shape[0]
    if n == 0:
        return sigs, costs, np.empty(0, dtype=np.int64)
    keys = _encode_rows(sigs)
    uniq = None
    if keys is None:  # pragma: no cover - astronomically large capacities
        uniq, keys = np.unique(sigs, axis=0, return_inverse=True)
        keys = keys.ravel()
    # Array methods, not numpy functions: most tables have a few dozen
    # rows, where dispatch overhead outweighs the work.
    order = keys.argsort()
    keys = keys[order]
    head = np.empty(n, dtype=bool)  # first row of each key group
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = head.nonzero()[0]
    group = head.cumsum()
    group -= 1
    # Row-sized temporaries go once used: a compaction holds up to
    # 2 × tile_size rows, so the peak is what counts.
    del keys, head
    sorted_costs = costs[order]
    group_min = np.fmin.reduceat(sorted_costs, starts)  # NaN loses to numbers
    at_min = sorted_costs == group_min[group]
    del sorted_costs
    nan_group = np.isnan(group_min)
    if nan_group.any():  # a group of NaN rows only: they all tie
        at_min |= nan_group[group]
    cand = np.where(at_min, order if tie is None else tie[order], _NO_TIE)
    del at_min
    winners = order[cand == np.minimum.reduceat(cand, starts)[group]]
    return (sigs[winners] if uniq is None else uniq), costs[winners], winners


def _project(
    table: _Table, w: float, deltas: np.ndarray, h: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All (cut-level, signature) projections of a child's state table.

    Returns (psigs, pcosts, origin_state, cut_level) after per-signature
    deduplication.  Infinite edges keep only payment-free projections.
    """
    sigs, costs = table.sigs, table.costs
    m = costs.size
    infinite = math.isinf(w)
    blocks_sig: List[np.ndarray] = []
    blocks_cost: List[np.ndarray] = []
    blocks_orig: List[np.ndarray] = []
    blocks_j: List[np.ndarray] = []
    extra = np.zeros(m)
    valid = np.ones(m, dtype=bool)
    arange = np.arange(m, dtype=np.int64)
    for j in range(h, -1, -1):
        psig = sigs.copy()
        if j < h:
            psig[:, j:] = 0
        rows = valid if infinite else slice(None)
        blocks_sig.append(psig[rows])
        blocks_cost.append((costs + extra)[rows])
        blocks_orig.append(arange[rows])
        blocks_j.append(np.full(int(np.count_nonzero(valid)) if infinite else m, j,
                                dtype=np.int64))
        if j > 0:
            pays = sigs[:, j - 1] > 0
            if infinite:
                # A row that would pay on an uncuttable edge is invalid at
                # this and every smaller cut level.
                valid = valid & ~pays
            else:
                extra = extra + np.where(pays, w * deltas[j], 0.0)
    psigs = np.vstack(blocks_sig)
    pcosts = np.concatenate(blocks_cost)
    porig = np.concatenate(blocks_orig)
    pj = np.concatenate(blocks_j)
    uniq, min_costs, winners = _dedupe_min(psigs, pcosts)
    return uniq, min_costs, porig[winners], pj[winners]


def _dominance_prune(
    sigs: np.ndarray,
    costs: np.ndarray,
    beam_width: Optional[int],
) -> np.ndarray:
    """Indices of surviving states (dominance + optional beam).

    Precondition: the rows of ``sigs`` are unique and in ascending
    lexicographic order, as :func:`_dedupe_min` returns them.  Then one
    stable sort on cost scans the states in ascending (cost, signature)
    order, and the first row of minimal component sum is the
    lexicographically smallest one.

    A state survives unless a previously kept signature is ≤ it
    componentwise.  The scan itself is the ``dp_dominance_prune`` kernel
    dispatched through :mod:`repro.kernels` (the python backend keeps
    staircase / blocked specialisations, the numba backend JIT-compiles
    an equivalent sequential scan — identical kept sets by construction).
    Under beam truncation the most-closed state (minimal component sum)
    is always re-inserted — see the module docstring.
    """
    m = costs.size
    if m <= 1:
        return np.arange(m, dtype=np.int64)
    order = np.argsort(costs, kind="stable")
    kept_idx, truncated = kernels.dp_dominance_prune(
        sigs, costs, order, -1 if beam_width is None else int(beam_width)
    )
    if truncated:
        flex = int(np.argmin(sigs.sum(axis=1)))
        if not (kept_idx == flex).any():
            kept_idx = np.append(kept_idx, np.int64(flex))
    return kept_idx


# ----------------------------------------------------------------------
# admissible lower bounds (incumbent-bound pruning)
# ----------------------------------------------------------------------


def compute_lower_bounds(
    bt: BinaryTree, caps: Sequence[int], deltas: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Admissible per-node closure-payment lower bounds, in one pass each.

    Returns ``(sub_lb, outside_lb)``:

    * ``sub_lb[v]`` lower-bounds the cost of **any** feasible DP state
      at ``v`` — the mandatory closure payments inside ``SUB(v)``.  At
      level ``k`` every set holds at most ``caps[k-1]`` quantized
      demand and at most one set stays active across ``v``, so at least
      ``ceil(dem(v)/caps[k-1]) − 1`` sets are closed strictly inside
      ``SUB(v)``; distinct same-level closures are paid by distinct
      edge cuts, each at least the cheapest finite edge weight below
      ``v`` times ``deltas[k]``.  The recursion takes the max of that
      splitting bound and the children's bounds (subtree costs add).
    * ``outside_lb[v]`` lower-bounds the cost any completion pays
      **outside** ``SUB(v)``: the sum of ``sub_lb`` over every subtree
      hanging off the path from ``v`` to the root.

    Admissibility (``sub_lb[v] ≤`` the cheapest state cost at ``v``) is
    pinned against the exhaustive DP in ``tests/hgpt/test_dp_kernel.py``.
    """
    caps_arr = np.asarray(caps, dtype=np.int64)
    deltas_arr = np.asarray(deltas, dtype=np.float64)
    h = caps_arr.size
    n = bt.n_nodes
    dem = np.zeros(n, dtype=np.int64)
    wmin = np.full(n, np.inf)  # cheapest finite edge weight below v
    sub_lb = np.zeros(n)
    post = bt.postorder()
    for v in post:
        if bt.is_leaf(v):
            dem[v] = int(bt.demand[v])
            continue
        a, b = int(bt.left[v]), int(bt.right[v])
        dem[v] = dem[a] + dem[b]
        w = min(wmin[a], wmin[b])
        for child in (a, b):
            cw = float(bt.up_weight[child])
            if math.isfinite(cw):
                w = min(w, cw)
        wmin[v] = w
        split = 0.0
        if math.isfinite(w):
            for k in range(1, h + 1):
                cap = int(caps_arr[k - 1])
                forced = -(-int(dem[v]) // cap) - 1
                if forced > 0:
                    split += deltas_arr[k] * forced * w
        sub_lb[v] = max(sub_lb[a] + sub_lb[b], split)
    outside_lb = np.zeros(n)
    for v in post[::-1]:  # parents before children
        if bt.is_leaf(v):
            continue
        a, b = int(bt.left[v]), int(bt.right[v])
        outside_lb[a] = outside_lb[v] + sub_lb[b]
        outside_lb[b] = outside_lb[v] + sub_lb[a]
    return sub_lb, outside_lb


# ----------------------------------------------------------------------
# the tiled merge
# ----------------------------------------------------------------------

# Cap on the cross-product entries materialised at once in legacy
# (tile_size=0) mode (matches the pre-kernel chunking).
_MERGE_CHUNK = 4_000_000


def _merge_node(
    pa: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    pb: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    caps_arr: np.ndarray,
    beam_width: Optional[int],
    budget: float,
    cfg: DPConfig,
    stats: "DPStats",
) -> Optional[_Table]:
    """Merge two projected child tables through the tiled kernel.

    ``budget`` is the node-local cost ceiling (incumbent minus the
    outside-subtree lower bound; ``inf`` disables bound pruning).
    Returns ``None`` when no feasible pair survives.
    """
    pa_sig, pa_cost, pa_orig, pa_j = pa
    pb_sig, pb_cost, pb_orig, pb_j = pb

    if budget < math.inf and pa_cost.size and pb_cost.size:
        # Row-level pruning before the cross-product: a row that cannot
        # beat the budget even with the cheapest possible partner never
        # produces a surviving pair (the optimal pair's rows survive
        # because their joint cost is within budget).
        keep_a = pa_cost + float(pb_cost.min()) <= budget
        stats.bound_pruned += int(pa_cost.size - np.count_nonzero(keep_a))
        pa_sig, pa_cost = pa_sig[keep_a], pa_cost[keep_a]
        pa_orig, pa_j = pa_orig[keep_a], pa_j[keep_a]
        if pa_cost.size:
            keep_b = pb_cost + float(pa_cost.min()) <= budget
            stats.bound_pruned += int(pb_cost.size - np.count_nonzero(keep_b))
            pb_sig, pb_cost = pb_sig[keep_b], pb_cost[keep_b]
            pb_orig, pb_j = pb_orig[keep_b], pb_j[keep_b]

    na, nb = pa_cost.size, pb_cost.size
    total = na * nb
    if total == 0:
        return None
    h = caps_arr.size
    tiled = cfg.tile_size > 0
    tile = cfg.tile_size if tiled else max(1, _MERGE_CHUNK // max(1, h))
    compact_rows = 2 * tile

    # Accumulated survivors (compacted) + pending tile survivors.
    acc: Optional[Tuple[np.ndarray, ...]] = None
    buf: List[Tuple[np.ndarray, ...]] = []
    pending = 0
    peak = 0

    def compact(final: bool) -> None:
        nonlocal acc, buf, pending
        parts = ([acc] if acc is not None else []) + buf
        if not parts:
            return
        sigs = np.vstack([p[0] for p in parts])
        costs = np.concatenate([p[1] for p in parts])
        ii = np.concatenate([p[2] for p in parts])
        jj = np.concatenate([p[3] for p in parts])
        rank = np.concatenate([p[4] for p in parts])
        uniq, min_costs, winners = _dedupe_min(sigs, costs, tie=rank)
        keep = _dominance_prune(
            uniq, min_costs, beam_width if final else None
        )
        win = winners[keep]
        acc = (uniq[keep], min_costs[keep], ii[win], jj[win], rank[win])
        buf = []
        pending = 0

    # Transient per-row tile footprint: int64 sig row + float64 cost +
    # three int64 index columns (what the pre-seam loop materialised).
    row_bytes = 8 * h + 32
    for start in range(0, total, tile):
        stats.tiles += 1
        stop = min(total, start + tile)
        sums, costs_t, ii, jj, rank, n_ok = kernels.dp_tile_merge(
            pa_sig, pa_cost, pb_sig, pb_cost, caps_arr, start, stop, budget
        )
        stats.bound_pruned += (stop - start) - n_ok
        stats.merges += n_ok
        if n_ok == 0:
            continue
        tile_bytes = n_ok * row_bytes
        if costs_t.size:
            buf.append((sums, costs_t, ii, jj, rank))
            pending += int(costs_t.size)
        live = tile_bytes + sum(
            sum(arr.nbytes for arr in part)
            for part in ([acc] if acc is not None else []) + buf
        )
        peak = max(peak, live)
        if tiled and pending >= compact_rows:
            compact(final=False)
    compact(final=True)
    stats.table_peak_bytes = max(stats.table_peak_bytes, peak)
    if acc is None or acc[0].shape[0] == 0:
        return None
    sigs, costs, ii, jj, _rank = acc
    return _Table(
        sigs=sigs,
        costs=costs,
        ia=pa_orig[ii],
        ja=pa_j[ii],
        ib=pb_orig[jj],
        jb=pb_j[jj],
    )


# ----------------------------------------------------------------------
# table construction
# ----------------------------------------------------------------------


def _solve_tables(
    bt: BinaryTree,
    caps_arr: np.ndarray,
    deltas_arr: np.ndarray,
    beam_width: Optional[int],
    cfg: DPConfig,
    stats: "DPStats",
    nodes: np.ndarray,
    tables: List[Optional[_Table]],
    incumbent: float = math.inf,
    outside_lb: Optional[np.ndarray] = None,
    memo: Optional["SubtreeMemo"] = None,
) -> None:
    """Fill ``tables`` for ``nodes`` (a children-before-parents order).

    ``tables`` entries for the children of every processed internal node
    must already be present (leaves are built on the fly).

    When ``memo`` is given, every internal node first probes the
    ``subtree_tables`` tier; hits skip the projection/merge work
    entirely (the children's tables are still present for the rebuild —
    they hit the memo themselves unless they sit on the dirty spine).
    The memo is only honoured on context-free passes
    (``incumbent == inf``); bound-pruned passes shape tables by global
    state and must rebuild.
    """
    h = int(caps_arr.size)
    caps_min = int(caps_arr.min())
    neg1 = np.full(1, -1, dtype=np.int64)
    use_memo = memo is not None and incumbent == math.inf
    for node in nodes:
        if bt.is_leaf(node):
            d = int(bt.demand[node])
            if d > caps_min:
                raise SolverError(
                    f"leaf demand {d} exceeds capacities {caps_arr.tolist()} "
                    "— the demand grid should have rejected this instance"
                )
            tables[node] = _Table(
                sigs=np.full((1, h), d, dtype=np.int64),
                costs=np.zeros(1),
                ia=neg1.copy(),
                ja=neg1.copy(),
                ib=neg1.copy(),
                jb=neg1.copy(),
            )
        else:
            cached = memo.load(node) if use_memo else None
            if cached is not None:
                stats.memo_hits += 1
                tables[node] = cached
            else:
                a, b = int(bt.left[node]), int(bt.right[node])
                ta, tb = tables[a], tables[b]
                assert ta is not None and tb is not None
                pa = _project(ta, float(bt.up_weight[a]), deltas_arr, h)
                pb = _project(tb, float(bt.up_weight[b]), deltas_arr, h)
                budget = math.inf
                if incumbent < math.inf and outside_lb is not None:
                    budget = incumbent - float(outside_lb[node])
                merged = _merge_node(
                    pa, pb, caps_arr, beam_width, budget, cfg, stats
                )
                if merged is None:
                    raise SolverError(
                        "no feasible merged state — capacities too tight for "
                        "this tree (grid admission should prevent this)"
                    )
                tables[node] = merged
                if use_memo:
                    stats.memo_misses += 1
                    memo.save(node, merged)  # type: ignore[union-attr]
        stats.nodes += 1
        size = tables[node].size  # type: ignore[union-attr]
        stats.states_total += size
        stats.states_max = max(stats.states_max, size)


# ----------------------------------------------------------------------
# the solver
# ----------------------------------------------------------------------


def solve_rhgpt(
    bt: BinaryTree,
    caps: Sequence[int],
    deltas: Sequence[float],
    beam_width: Optional[int] = None,
    stats: Optional[DPStats] = None,
    dp_config: Optional[DPConfig] = None,
    memo: Optional[SubtreeMemo] = None,
) -> TreeSolution:
    """Run the signature DP and reconstruct an optimal nice solution.

    Parameters
    ----------
    bt:
        Binarized decomposition tree with quantized leaf demands.
    caps:
        Quantized capacities for levels ``1..h`` (``caps[i]`` is
        ``C'(i+1)``), non-increasing in ``i``.
    deltas:
        ``deltas[k] = cm(k−1) − cm(k)`` for ``k = 1..h`` (index 0
        unused); non-negative.
    beam_width:
        Optional cap on states kept per node (exact when ``None``).
    stats:
        Optional counter object the run adds its counts to (nothing
        else is written: the solver publishes no metrics).
    dp_config:
        Merge-kernel knobs (``None`` = the tiled, bound-pruned default;
        see :class:`DPConfig`).  All combinations return identical
        solution costs.
    memo:
        Optional :class:`SubtreeMemo` for the incremental warm path.
        Honoured only when the table pass is *context-free* — beamed
        solves, or exact solves with ``bound_pruning`` off — because
        incumbent-bound pruning shapes tables by global state.  Memo
        hits return exactly what a rebuild would produce, so warm
        results are bit-identical to cold ones.

    Returns
    -------
    TreeSolution
        Optimal relaxed solution (level collections 1..h) with its
        edge-cut cost.

    Raises
    ------
    SolverError
        If no feasible state survives at the root (cannot happen when the
        demand grid admitted the instance — signals a bug).

    Notes
    -----
    The solve has no registry side effects.  Members solved through the
    engine publish their ``repro_dp_*`` metrics from their member records
    (:func:`repro.core.engine.publish_member_metrics`); a direct call
    publishes nothing.
    """
    h = len(caps)
    if len(deltas) != h + 1:
        raise SolverError(f"need h+1 = {h + 1} deltas, got {len(deltas)}")
    if any(d < 0 for d in deltas):
        raise SolverError(f"deltas must be non-negative, got {list(deltas)}")
    caps_arr = np.asarray(caps, dtype=np.int64)
    if np.any(caps_arr[:-1] < caps_arr[1:]):
        raise SolverError(f"capacities must be non-increasing, got {list(caps)}")
    deltas_arr = np.asarray(deltas, dtype=np.float64)
    cfg = dp_config if dp_config is not None else _DEFAULT_CONFIG

    own_stats = stats if stats is not None else DPStats()

    # Incumbent-bound pruning (exact solves only — see module docstring):
    # a beamed pre-pass seeds the upper bound, the lower-bound passes
    # price the mandatory closures outside each subtree.
    incumbent = math.inf
    outside_lb: Optional[np.ndarray] = None
    if cfg.bound_pruning and beam_width is None:
        pre_tables: List[Optional[_Table]] = [None] * bt.n_nodes
        pre_cfg = DPConfig(
            tile_size=cfg.tile_size,
            bound_pruning=False,
            incumbent_beam=cfg.incumbent_beam,
        )
        try:
            _solve_tables(
                bt,
                caps_arr,
                deltas_arr,
                cfg.incumbent_beam,
                pre_cfg,
                DPStats(),  # pre-pass work is not the caller's solve
                bt.postorder(),
                pre_tables,
            )
            pre_root = pre_tables[bt.root]
            assert pre_root is not None
            ub = float(pre_root.costs.min())
            # Keep every state that can still tie the incumbent (strict
            # pruning could drop the optimum itself on exact ties).
            incumbent = ub * (1 + 1e-12) + 1e-9
            _sub_lb, outside_lb = compute_lower_bounds(bt, caps_arr, deltas_arr)
        except SolverError:
            incumbent = math.inf  # beam killed feasibility: no pruning

    # The memo is honoured only on context-free passes: under a beam, or
    # on exact solves with bound pruning off.  Bound-pruned exact tables
    # depend on the incumbent and outside-subtree lower bounds, which
    # are global to the solve and not part of the subtree digest.
    active_memo = memo
    if active_memo is not None and not (
        beam_width is not None or not cfg.bound_pruning
    ):
        active_memo = None

    tables: List[Optional[_Table]] = [None] * bt.n_nodes
    _solve_tables(
        bt,
        caps_arr,
        deltas_arr,
        beam_width,
        cfg,
        own_stats,
        bt.postorder(),
        tables,
        incumbent=incumbent,
        outside_lb=outside_lb,
        memo=active_memo,
    )

    root_table = tables[bt.root]
    assert root_table is not None
    # Deterministic winner: min cost, ties by lexicographically smallest sig.
    order = np.lexsort(
        tuple(root_table.sigs[:, i] for i in range(h - 1, -1, -1))
        + (root_table.costs,)
    )
    best = int(order[0])
    solution = _rebuild(bt, tables, best, h)
    solution.cost = float(root_table.costs[best])
    return solution


def _rebuild(
    bt: BinaryTree,
    tables: List[Optional[_Table]],
    root_state: int,
    h: int,
) -> TreeSolution:
    """Reconstruct the level collections from the stored back-pointers.

    Two iterative passes (deep trees must not hit the recursion limit):
    a pre-order descent assigning each node its chosen state index, then
    a reverse sweep maintaining per-node active-set vertex lists and
    closing sets where the chosen cut levels dictate.
    """
    state_of: dict[int, int] = {bt.root: root_state}
    preorder: List[int] = []
    stack = [bt.root]
    while stack:
        v = stack.pop()
        preorder.append(v)
        if bt.is_leaf(v):
            continue
        t = tables[v]
        assert t is not None
        s = state_of[v]
        a, b = int(bt.left[v]), int(bt.right[v])
        state_of[a] = int(t.ia[s])
        state_of[b] = int(t.ib[s])
        stack.append(a)
        stack.append(b)

    closed: List[List[LevelSet]] = [[] for _ in range(h)]
    active: dict[int, List[List[int]]] = {}
    for v in reversed(preorder):
        if bt.is_leaf(v):
            active[v] = [[int(bt.vertex[v])] for _ in range(h)]
            continue
        t = tables[v]
        assert t is not None
        s = state_of[v]
        a, b = int(bt.left[v]), int(bt.right[v])
        ta, tb = tables[a], tables[b]
        assert ta is not None and tb is not None
        parts_spec = (
            (a, ta.sigs[int(t.ia[s])], int(t.ja[s])),
            (b, tb.sigs[int(t.ib[s])], int(t.jb[s])),
        )
        act: List[List[int]] = []
        for i in range(h):
            level = i + 1
            merged: List[int] = []
            for child, sigc, jc in parts_spec:
                child_active = active[child][i]
                if level <= jc:
                    merged.extend(child_active)
                elif sigc[i] > 0:
                    closed[i].append(LevelSet(np.asarray(child_active), int(sigc[i])))
                elif child_active:
                    raise SolverError(
                        "active set non-empty but signature component is 0 "
                        "(positive quantized demands should prevent this)"
                    )
            act.append(merged)
        active[v] = act
        del active[a], active[b]

    root_t = tables[bt.root]
    assert root_t is not None
    root_sig = root_t.sigs[root_state]
    for i in range(h):
        root_active = active[bt.root][i]
        if root_sig[i] > 0:
            closed[i].append(LevelSet(np.asarray(root_active), int(root_sig[i])))
        elif root_active:
            raise SolverError("root active set inconsistent with its signature")
    return TreeSolution(levels=closed, cost=0.0)
