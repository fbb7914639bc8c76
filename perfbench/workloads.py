"""The four seeded workloads of the repo benchmark.

Each workload builds its inputs from the run's seed, runs its ops in a
closed loop through a public entry point with tracing off, checks every
answer, and can replay the same ops through the public functions of the
layers they cross to time each layer (:meth:`Workload.replay`).  The
program under test only ever sees the generated inputs.

Every answer is checked:

* it is a complete placement (one valid leaf per task);
* ``Placement.cost()`` equals ``baselines.fm.eq1_cost`` on the same
  ``leaf_of`` (the two Eq. 1 evaluators must agree) and the cost the
  entry point reported;
* every level-``j`` load is at most ``(1 + j)(1 + eps)`` times capacity,
  with ``eps`` the grid's epsilon, as bench E2 checks (not
  ``DemandGrid.violation_bound``: that is the grid-only ``1 + eps``,
  which a correct answer may exceed at the leaf level);
* ``deep-churn``: leaf loads stay within the placer's ``max_violation``;
* ``serve-dup``: answers equal in-process ``run_pipeline`` under the
  server's solver config, and every repeat is byte-identical to the
  first answer for the same request.

A failed check fails its op.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.decomposition.racke as racke_module
from repro import Hierarchy, SolverConfig, get_cache, run_pipeline, solve_hgp
from repro.baselines.fm import eq1_cost, fm_refine_hierarchy
from repro.baselines.local_search import refine_placement
from repro.bench.instances import make_instance
from repro.core import pool
from repro.core.config import MultilevelConfig
from repro.core.engine import DPStage, RepairStage, make_grid
from repro.core.resilience import ResilienceConfig, RetryPolicy
from repro.decomposition.racke import racke_ensemble
from repro.graph.generators import planted_partition, random_demands
from repro.hgpt.dp import DPStats
from repro.hierarchy.placement import Placement
from repro.multilevel.coarsen import coarsen_graph
from repro.serve import protocol
from repro.serve.client import PlacementClient
from repro.streaming.online import OnlinePlacer

from speed import reference_seconds
from tracing import Tracer, median_per_op

#: The paper's server: 2 sockets x 4 cores, cm = (10, 3, 0).
SERVER_2X4 = ([2, 4], [10.0, 3.0, 0.0])

DECOMPOSITION_BUILDERS = ("spectral", "mincut", "frt", "contraction")


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` in run ``seed``.

    ``make_instance`` uses ``s`` and ``s + 1``, so ops are spaced by 2.
    """
    return 1_000_003 * (seed + 1) + 2 * index


@dataclass
class Op:
    """One op's outcome: latency, answer, and the first failed check."""

    index: int
    latency_s: float
    cost: float = math.nan
    violation: float = math.nan
    leaf_of: Optional[np.ndarray] = None
    error: Optional[str] = None
    extra: dict = field(default_factory=dict)


def check_answer(g, hier, d, leaf_of, eps: Optional[float], cost) -> Tuple[float, float]:
    """Run the answer checks; returns ``(cost, worst load / capacity)``.

    Raises ``ValueError`` naming the first failed check.
    """
    leaf = np.asarray(leaf_of)
    if leaf.shape != (g.n,) or leaf.dtype.kind not in "iu":
        raise ValueError(f"incomplete placement: leaf_of shape {leaf.shape}")
    p = Placement(g, hier, d, leaf)  # rejects leaves outside [0, k)
    c = p.cost()
    if c != eq1_cost(g, hier, p.leaf_of):
        raise ValueError(f"Placement.cost {c!r} != fm.eq1_cost {eq1_cost(g, hier, p.leaf_of)!r}")
    if cost is not None and c != cost:
        raise ValueError(f"reported cost {cost!r} != Placement.cost {c!r}")
    if eps is not None:
        for j in range(1, hier.h + 1):
            v = p.level_violation(j)
            if v > (1 + j) * (1 + eps) + 1e-9:
                raise ValueError(
                    f"level {j} load/capacity {v:.4f} > (1+j)(1+eps) = {(1 + j) * (1 + eps):.4f}"
                )
    return c, p.max_violation()


def answer_op(index: int, latency: float, g, hier, d, leaf_of, eps, cost) -> Op:
    op = Op(index, latency, leaf_of=np.asarray(leaf_of))
    try:
        op.cost, op.violation = check_answer(g, hier, d, leaf_of, eps, cost)
    except ValueError as exc:
        op.error = str(exc)
    return op


def same_answer(op: Op, placement: Placement) -> bool:
    """Bit-identity of a replayed answer with the untraced one."""
    return placement.cost() == op.cost and np.array_equal(placement.leaf_of, op.leaf_of)


def replay_engine(tr: Tracer, g, hier, d, cfg: SolverConfig):
    """The engine's stages, called in the engine's order, one span each.

    embed (``racke_ensemble``; one child span per ``build_tree``) ->
    quantize (``make_grid``) -> per member DP (``DPStage.run_member``)
    and repair (``RepairStage.run_member``) -> cheapest member ->
    ``refine_placement``.  Returns ``(placement, member costs)`` with
    one ``(dp_cost, mapped_cost)`` pair per member, as the engine's
    member records hold them.
    """
    d = np.asarray(d, dtype=np.float64)
    with tr.wrapped(
        racke_module, "build_tree", lambda g, method, seed=None: f"decomposition.{method}"
    ):
        with tr.span("decomposition"):
            trees = racke_ensemble(
                g,
                n_trees=cfg.n_trees,
                methods=cfg.tree_methods,
                seed=cfg.seed,
                use_cache=cfg.cache.enabled,
            )
    with tr.span("hgpt.quantize"):
        grid = make_grid(hier, d, cfg)
    best, best_cost, members = None, math.inf, []
    for tree in trees:
        stats = DPStats()
        with tr.span("hgpt.dp") as rec:
            solution, escalations = DPStage().run_member(tree, hier, d, cfg, grid, stats=stats)
        rec["counts"] = dict(stats.as_dict(), escalations=escalations)
        with tr.span("hgpt.repair"):
            placement = RepairStage().run_member(tree, hier, d, solution, grid)
        cost = placement.cost()
        members.append((float(solution.cost), float(cost)))
        if cost < best_cost:
            best, best_cost = placement, cost
    if cfg.refine and cfg.refine_passes > 0:
        with tr.span("baselines.local_search"):
            best = refine_placement(
                best,
                max_passes=cfg.refine_passes,
                max_violation=max(1.0, best.max_violation()),
                allow_swaps=True,
            )
    return best, members


def engine_layer_metrics(tr: Tracer, ops: List[int], cache_before: dict) -> Dict[str, float]:
    """Per-layer medians (per op) and DP counters of the replayed engine."""
    per_op = tr.self_seconds()
    out = {
        "decomposition.busy_s": median_per_op(per_op, ops, "decomposition"),
        "hgpt.quantize.busy_s": median_per_op(per_op, ops, "hgpt.quantize"),
        "hgpt.dp.busy_s": median_per_op(per_op, ops, "hgpt.dp"),
        "hgpt.repair.busy_s": median_per_op(per_op, ops, "hgpt.repair"),
        "baselines.local_search.busy_s": median_per_op(per_op, ops, "baselines.local_search"),
    }
    for method in DECOMPOSITION_BUILDERS:
        out[f"decomposition.{method}_s"] = median_per_op(per_op, ops, f"decomposition.{method}")
    wanted = set(ops)
    dp = [rec for rec in tr.spans if rec["name"] == "hgpt.dp" and rec["op"] in wanted]
    by_op: Dict[int, List[dict]] = {}
    for rec in dp:
        by_op.setdefault(rec["op"], []).append(rec["counts"])

    def med(fn) -> float:
        return statistics.median(fn(c) for c in by_op.values()) if by_op else 0.0

    out["hgpt.dp.states_max"] = med(lambda cs: max(c["states_max"] for c in cs))
    out["hgpt.dp.merges"] = med(lambda cs: sum(c["merges"] for c in cs))
    out["hgpt.dp.bound_pruned"] = med(lambda cs: sum(c["bound_pruned"] for c in cs))
    out["hgpt.dp.escalations"] = med(lambda cs: sum(c["escalations"] for c in cs))
    out["hgpt.dp.table_peak_bytes"] = med(lambda cs: max(c["table_peak_bytes"] for c in cs))
    hits = sum(c["counts"]["memo_hits"] for c in dp)
    misses = sum(c["counts"]["memo_misses"] for c in dp)
    out["hgpt.dp.memo_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    after = get_cache().stats.as_dict()["by_kind"]
    looked = hit = 0
    for kind in ("trees", "fiedler"):
        a, b = after.get(kind, {}), cache_before.get(kind, {})
        h = a.get("hits", 0) + a.get("disk_hits", 0) - b.get("hits", 0) - b.get("disk_hits", 0)
        hit += h
        looked += h + a.get("misses", 0) - b.get("misses", 0)
    out["decomposition.cache_hit_frac"] = hit / looked if looked else 0.0
    return out


def peak_rss_self_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Base: a seeded op list run in a closed loop by one caller.

    ``cycle`` ops make one repetition of the workload's op mix; a run
    ends on a cycle boundary, so every run holds the mix in the same
    proportions.  The first ``fixed_ops`` ops are the fixed, seeded op
    list that ``eq1_cost`` and ``cap_violation`` are taken over.
    ``compensate`` says whether the run's times are divided by its
    speed factor (:mod:`speed`).  ``peak_mib`` is the peak resident
    memory once the fixed op list is done: later ops only add cache
    entries, and how many run depends on the machine's speed.
    """

    name = ""
    cycle = 1
    fixed_ops = 1
    compensate = True

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir

    def setup(self) -> None:
        """Build inputs and run the untimed warm-up."""

    def do_op(self, index: int) -> Op:
        raise NotImplementedError

    def run(self, seconds: float) -> Tuple[List[Op], float]:
        """Closed loop; returns the ops and the timed wall clock.

        The clock runs only inside the entry-point call: generating the
        next input, checking the answer and sampling the reference
        kernel (:func:`reference_seconds`, once between ops) are not the
        system's work.
        After each whole cycle the loop stops if one more cycle would
        overshoot ``seconds`` by more than it would undershoot.
        """
        ops: List[Op] = []
        busy = 0.0
        self.reference = [reference_seconds()] if self.compensate else []
        while True:
            op = self.do_op(len(ops))
            if self.compensate:
                self.reference.append(reference_seconds())
            ops.append(op)
            busy += op.latency_s
            done = len(ops)
            if done == self.fixed_ops:
                self.peak_mib = peak_rss_self_mib()
            if done % self.cycle == 0 and done >= self.fixed_ops:
                per_cycle = busy / (done // self.cycle)
                if busy + per_cycle / 2 >= seconds:
                    return ops, busy

    def fixed_list(self, ops: List[Op]) -> List[Op]:
        """The ops of the fixed, seeded op list."""
        return ops[: self.fixed_ops]

    def replay(self, tr: Tracer, ops: List[Op]) -> Tuple[int, Dict[str, float]]:
        """Traced replay of ``ops``; returns ``(mismatches, layer metrics)``."""
        raise NotImplementedError

    def loop_metrics(self, ops: List[Op]) -> Dict[str, float]:
        """Per-layer metrics read off the untraced loop itself."""
        return {}

    def untraced_seconds(self, ops: List[Op]) -> float:
        """Untraced time of the ops :meth:`replay` replays."""
        return sum(op.latency_s for op in ops)

    def peak_rss_mib(self) -> float:
        return self.peak_mib

    def close(self) -> None:
        pass


class SolveLoop(Workload):
    """Base of the ``solve_hgp`` workloads: one caller solves distinct
    instances of ``families`` in turn, each family at ``sizes[family]``,
    on the 2x4 server."""

    families: Tuple[str, ...] = ()
    sizes: Dict[str, int] = {}

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.hier = Hierarchy(*SERVER_2X4)

    def instance(self, index: int):
        fam = self.families[index % len(self.families)]
        return make_instance(fam, self.sizes[fam], self.hier, seed=op_seed(self.seed, index))

    def setup(self):
        warm = self.instance(-1)
        solve_hgp(warm.graph, self.hier, warm.demands, self.config)

    def do_op(self, index):
        inst = self.instance(index)
        t0 = time.perf_counter()
        res = solve_hgp(inst.graph, self.hier, inst.demands, self.config)
        dt = time.perf_counter() - t0
        return answer_op(
            index, dt, inst.graph, self.hier, inst.demands,
            res.placement.leaf_of, res.grid.epsilon, res.cost,
        )


class FlatCold(SolveLoop):
    """``flat-cold``: ``solve_hgp`` with ``SolverConfig`` defaults, ``n_jobs=1``.

    One caller solves distinct instances in a closed loop: families
    blocks / powerlaw / grid / dag in turn, n = 25-32, on the 2x4 server
    (cm 10/3/0); 8 trees from the default builder mix, beam 256, refine
    on.  Why: this is the paper's pipeline as a one-shot placement user
    runs it.  Every trees-cache lookup misses and the pool is idle; the
    DP memo hits only where ensemble members share subtrees within one
    solve.  Embedding is the largest layer (about half a solve), then
    the DP (a third) and refinement.  Each family's n is picked so that
    its solves take about as long as the others' (0.45-0.65 s on a
    2-core machine): with four families at one n the median op sat in
    the gap between the two middle families and moved 20% between
    seeds.  At the n = 64-128 of the first probes one solve takes
    2.2-7 s, too few per run.
    """

    name = "flat-cold"
    families = ("blocks", "powerlaw", "grid", "dag")
    sizes = {"blocks": 32, "powerlaw": 28, "grid": 25, "dag": 30}

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        if smoke:
            self.families, self.sizes = ("blocks",), {"blocks": 12}
        self.cycle = len(self.families)
        self.fixed_ops = self.cycle if smoke else 4 * self.cycle
        self.config = SolverConfig(n_jobs=1)

    def replay(self, tr, ops):
        get_cache().clear()
        before = get_cache().stats.as_dict()["by_kind"]
        bad = 0
        for op in ops:
            inst = self.instance(op.index)
            tr.op = op.index
            with tr.span("op"):
                placement, _members = replay_engine(tr, inst.graph, self.hier, inst.demands, self.config)
            bad += not same_answer(op, placement)
        return bad, engine_layer_metrics(tr, [op.index for op in ops], before)


#: deep-churn's task graph, the same in every run (bench E23's seed).
GRAPH_SEED = 23


class DeepChurn(Workload):
    """``deep-churn``: ``OnlinePlacer.reoptimize()`` after every churn step.

    128 planted-partition tasks (16 blocks of 8; one fixed graph, as in
    bench E23, whose cold solves otherwise vary by a fifth from graph
    to graph) arrive in a seeded order with seeded demands on the
    2x2x2x2 hierarchy (cm 20/10/5/2/0); contraction trees,
    ``n_trees=2``, beam 192, refine off.  Every step ramps the weights
    of three intra-block hot links by 2% more; the first step of every
    four also has one task depart and one arrive in its block, and
    moves the hot links to another block.
    Why: the DP does ~90% of a reoptimize.  On weight-only steps the
    subtree memo serves most DP tables (0.33-0.6 s per step, by hot
    block) while topology steps run cold (2.0-2.5 s), so memo work shows in
    ``latency_p50_s`` and cold-DP work in ``ops_per_s``.  The memo gain
    rests on the hot-link property: a monotone ramp on a fixed edge set
    keeps the heavy-edge order, so the contraction trees stay the same
    shape and only the hot links' spine is dirty.  When random edges
    drift instead, the warm median falls only from 3.18 s to 2.74 s.
    Contraction trees keep embedding at ~6%.  128 tasks rather than
    the ~160 first probed, so a run holds four cycles and so samples
    four hot blocks, whose warm steps differ by up to 1.6x.
    """

    name = "deep-churn"
    period = 4

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.blocks, self.per_block = (4, 5) if smoke else (16, 8)
        if smoke:
            self.period = 1
        self.cycle = self.period
        self.fixed_ops = self.cycle if smoke else 2 * self.cycle
        self.hier = Hierarchy([2, 2, 2, 2], [20.0, 10.0, 5.0, 2.0, 0.0])
        self.config = SolverConfig(
            n_trees=2, tree_methods=("contraction",), beam_width=192, refine=False
        )
        self.events: Dict[int, list] = {}

    def setup(self):
        s = op_seed(self.seed, 0)
        rng = np.random.default_rng(s)
        g = planted_partition(self.blocks, self.per_block, 0.85, 0.02, seed=GRAPH_SEED)
        d = random_demands(g.n, self.hier.total_capacity, fill=0.6, skew=0.3, seed=s + 1)
        nbrs: Dict[int, Dict[int, float]] = {t: {} for t in range(g.n)}
        for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w):
            nbrs[int(u)][int(v)] = float(w)
            nbrs[int(v)][int(u)] = float(w)
        order = [int(t) for t in rng.permutation(g.n)]
        arrived = set()
        arrivals = []
        for t in order:
            edges = tuple((o, w) for o, w in sorted(nbrs[t].items()) if o in arrived)
            arrivals.append(("arrive", t, float(d[t]), edges))
            arrived.add(t)
        self.weight = {(int(u), int(v)): float(w) for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w)}
        self.hot: List[Tuple[int, int, float]] = []
        self.rng = rng
        self.block_of = {t: t // self.per_block for t in range(g.n)}
        self.demand_of = {t: float(d[t]) for t in range(g.n)}
        self.live = set(range(g.n))
        self.next_task = g.n
        self.events[-1] = arrivals
        self.placer = OnlinePlacer(self.hier, self.config)
        self._apply(self.placer, arrivals)
        self.warm_op = self._reoptimize(-1)

    def step_events(self, k: int) -> list:
        """Events of step ``k``; depends only on earlier events, never on
        the placement, so a second placer fed the same list sees the same
        graphs.

        The topology step of each cycle also moves the hot links to a
        new seeded block, so a run's warm steps sample several dirty
        spines, and the tree reshape after a new hot set's first ramp
        lands on the step that runs cold anyway.
        """
        ev = []
        if k % self.period == 0:
            hot_ends = {x for a, b, _ in self.hot for x in (a, b)}
            victims = sorted(self.live - hot_ends)
            victim = victims[int(self.rng.integers(len(victims)))]
            block = self.block_of[victim]
            mates = sorted(t for t in self.live if self.block_of[t] == block and t != victim)
            picks = sorted(self.rng.choice(len(mates), size=min(4, len(mates)), replace=False))
            new = self.next_task
            self.next_task += 1
            ev.append(("depart", victim))
            ev.append(("arrive", new, self.demand_of[victim], tuple((mates[i], 1.0) for i in picks)))
            self.live.discard(victim)
            self.live.add(new)
            self.block_of[new] = block
            self.demand_of[new] = self.demand_of[victim]
            self.weight.update({(mates[i], new): 1.0 for i in picks})
            hot_block = int(self.rng.integers(self.blocks))
            intra = sorted(
                (a, b, w)
                for (a, b), w in self.weight.items()
                if a in self.live and b in self.live
                and self.block_of[a] == hot_block == self.block_of[b]
            )
            self.hot = intra[:3]
            self.hot_since = k
        for a, b, w in self.hot:
            self.weight[(a, b)] = w * (1.0 + 0.02 * (k - self.hot_since + 1))
            ev.append(("weight", a, b, self.weight[(a, b)]))
        return ev

    @staticmethod
    def _apply(placer: OnlinePlacer, events: list) -> None:
        for ev in events:
            if ev[0] == "arrive":
                placer.arrive(ev[1], ev[2], ev[3])
            elif ev[0] == "depart":
                placer.depart(ev[1])
            else:
                placer.update_edge(ev[1], ev[2], ev[3])

    def _reoptimize(self, index: int) -> Op:
        placer = self.placer
        fallbacks = placer.counters.incremental_fallbacks
        t0 = time.perf_counter()
        moved = placer.reoptimize()
        dt = time.perf_counter() - t0
        g, d, leaf, _tasks = placer.live_graph()
        op = answer_op(index, dt, g, self.hier, d, leaf, None, placer.cost())
        cap = placer.max_violation * self.hier.leaf_capacity + 1e-9
        if op.error is None and Placement(g, self.hier, d, leaf).leaf_loads().max() > cap:
            op.error = "leaf load above the placer's max_violation"
        report = placer.last_report
        op.extra = {
            "migrations": moved,
            "full_solve": placer.counters.incremental_fallbacks > fallbacks,
            "engine": (report.cost, [(m.dp_cost, m.mapped_cost) for m in report.members]),
        }
        return op

    def do_op(self, index):
        events = self.step_events(index)
        self.events[index] = events
        self._apply(self.placer, events)
        return self._reoptimize(index)

    def replay(self, tr, ops):
        """Replays the engine on ``live_graph()``'s snapshot in place of
        ``reoptimize()``'s own engine call.  The engine's inputs do not
        depend on the placement, so the memo sees the same sequence as
        in the untraced run; the warm-up solve is replayed (untimed) to
        fill it the same way."""
        get_cache().clear()
        before = None
        shadow = OnlinePlacer(self.hier, self.config)
        inc = self.config.incremental
        bad = 0
        for op in [self.warm_op] + ops:
            self._apply(shadow, self.events[op.index])
            if op is ops[0]:
                before = get_cache().stats.as_dict()["by_kind"]
            cfg = self.config
            if op.extra["full_solve"]:
                cfg = replace(cfg, incremental=replace(inc, enabled=False))
            tr.op = op.index
            with tr.span("op"):
                with tr.span("streaming.snapshot"):
                    g, d, _leaf, _tasks = shadow.live_graph()
                placement, members = replay_engine(tr, g, self.hier, d, cfg)
            bad += (placement.cost(), members) != op.extra["engine"]
        timed = [op.index for op in ops]
        out = engine_layer_metrics(tr, timed, before)
        out["streaming.snapshot_s"] = median_per_op(tr.self_seconds(), timed, "streaming.snapshot")
        out["streaming.migrations"] = float(sum(op.extra["migrations"] for op in ops))
        return bad, out


class LargeMultilevel(SolveLoop):
    """``large-multilevel``: ``solve_hgp`` with ``multilevel.enabled``, ``n_trees=4``.

    One caller solves distinct instances in a closed loop: per cycle a
    mesh3d graph, a power-law (ba) graph and a second mesh3d graph, all
    at n = 64000, on the 2x4 server.  Why: the only workload that
    crosses ``multilevel.coarsen`` and ``baselines.fm``.  mesh3d
    coarsens to ~10 supervertices, so coarsening and FM uncoarsening
    take ~90% of its 1.5-1.7 s; ba reaches the two-hop hub-matching
    path, which mesh3d never does, stops near the 160-vertex target and
    spends ~45% in the coarse solve (4.3-5.2 s).  Two mesh3d per ba keep
    the median op inside one class.  Peak memory matters at this size.
    ba at n = 32000 was tried first: its coarse solve swung from 3.4 to
    5.7 s between seeds (at n = 64000: 1.8-2.5 s), which spread
    ``ops_per_s`` by 15%.  mesh3d stays below the n ~ 1e5 first probed
    so that a run holds two whole cycles.
    """

    name = "large-multilevel"
    #: numpy-bound: the pure-Python reference kernel does not track its
    #: speed.  Three runs of one seed read 1.558-1.570 s for the median
    #: op raw, but 1.39-1.53 s divided by their speed factors.
    compensate = False
    families = ("mesh3d", "ba", "mesh3d")
    sizes = {"mesh3d": 64000, "ba": 64000}

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        if smoke:
            self.families, self.sizes = ("ba",), {"ba": 3000}
        self.cycle = self.fixed_ops = len(self.families)
        self.config = SolverConfig(n_trees=4, multilevel=MultilevelConfig(enabled=True))

    def replay(self, tr, ops):
        get_cache().clear()
        before = get_cache().stats.as_dict()["by_kind"]
        cfg = self.config
        ml = cfg.multilevel
        inner = replace(cfg, multilevel=replace(ml, enabled=False))
        bad = 0
        for op in ops:
            inst = self.instance(op.index)
            d = np.asarray(inst.demands, dtype=np.float64)
            tr.op = op.index
            with tr.span("op"):
                with tr.span("multilevel.coarsen") as rec:
                    levels = coarsen_graph(
                        inst.graph,
                        d,
                        target_n=ml.coarsen_to,
                        max_weight=self.hier.leaf_capacity,
                        rng=cfg.seed,
                        max_levels=ml.max_levels,
                        stall_ratio=ml.stall_ratio,
                        rounds=ml.match_rounds,
                    )
                rec["counts"] = {"levels": levels.stats.levels, "coarsest_n": levels.stats.n_coarsest}
                coarse, _members = replay_engine(tr, levels.coarsest, self.hier, levels.demands[-1], inner)
                leaf = coarse.leaf_of
                for i in range(len(levels.maps) - 1, -1, -1):
                    leaf = leaf[levels.maps[i]]
                    with tr.span("baselines.fm") as rec:
                        leaf, stats = fm_refine_hierarchy(
                            levels.graphs[i], self.hier, levels.demands[i], leaf,
                            max_passes=ml.refine_passes,
                        )
                    rec["counts"] = {"moves": stats.moves}
            bad += not same_answer(op, Placement(inst.graph, self.hier, d, leaf))
        timed = [op.index for op in ops]
        out = engine_layer_metrics(tr, timed, before)
        per_op = tr.self_seconds()
        out["multilevel.coarsen.busy_s"] = median_per_op(per_op, timed, "multilevel.coarsen")
        out["baselines.fm.busy_s"] = median_per_op(per_op, timed, "baselines.fm")
        moves: Dict[int, int] = {}
        for rec in tr.spans:
            if rec["name"] == "baselines.fm":
                moves[rec["op"]] = moves.get(rec["op"], 0) + rec["counts"]["moves"]
        out["baselines.fm.moves"] = float(statistics.median(moves.values()))
        coarse = [rec["counts"] for rec in tr.spans if rec["name"] == "multilevel.coarsen"]
        out["multilevel.coarsen.levels"] = float(statistics.median(c["levels"] for c in coarse))
        out["multilevel.coarsen.coarsest_n"] = float(statistics.median(c["coarsest_n"] for c in coarse))
        return bad, out


def queue_wait(metrics_text: str) -> Tuple[float, float]:
    """(sum, count) of ``repro_serve_queue_wait_seconds`` over all lanes."""
    total = count = 0.0
    for line in metrics_text.splitlines():
        m = re.match(r"repro_serve_queue_wait_seconds_(sum|count)\{[^}]*\} (\S+)", line)
        if m:
            if m.group(1) == "sum":
                total += float(m.group(2))
            else:
                count += float(m.group(2))
    return total, count


def serve_solver_config() -> SolverConfig:
    """The solver config ``repro serve`` builds from its defaults
    (``--n-trees 8 --seed 0 --jobs 2 --retries 1``)."""
    return SolverConfig(
        seed=0,
        n_trees=8,
        n_jobs=2,
        resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=2)),
    )


class ServeDup(Workload):
    """``serve-dup``: ``repro serve`` with its defaults, two closed-loop clients.

    The server runs in its own process (``--jobs 2``); two
    ``PlacementClient`` callers (= nproc) in this process send small
    instances (5x5 grids, n = 25, on the 2x4 server).  Every fourth
    request byte-identically repeats the latest, the second or the
    third latest distinct request, in turn.  Why: the only workload
    that crosses HTTP parse, admission, coalescing, the response cache,
    pool dispatch and the payload spool.  A repeat of a request still in
    flight is coalesced; a repeat of a finished one is a ~5 ms cache
    hit.  Round trips fall in two clusters: cache hits, coalesced
    repeats and solves that found the dispatcher idle (0.3-0.6 s), and
    solves queued behind the other client's (0.6-1.2 s).  With a third
    of requests repeated the lower cluster held 49% of them, so the
    median sat in the gap and moved 20% between seeds; at one half it
    sat between cache hits and solves.  At a quarter the median lies
    inside the queued-solve cluster.  One graph shape and a fixed
    repeat order keep the mix the same from seed to seed.  Two clients
    never fill admission, so overload shedding stays bench E19's job.
    """

    name = "serve-dup"
    #: Three processes share the two cores, and the single-threaded
    #: reference kernel, sampled while the server idles, does not track
    #: their speed: divided by it, ``ops_per_s`` spread 23% over ten
    #: seeds, raw 12%.
    compensate = False
    repeat_every = 4
    cycle = 1

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.n = 9 if smoke else 25
        self.fixed_ops = 1 if smoke else 4
        self.hier = Hierarchy(*SERVER_2X4)
        self.server: Optional[subprocess.Popen] = None

    def _distinct(self, index: int):
        return make_instance("grid", self.n, self.hier, seed=op_seed(self.seed, index))

    @staticmethod
    def _body(inst) -> bytes:
        g = inst.graph
        return json.dumps(
            {
                "graph": {
                    "n": g.n,
                    "edges": [[int(u), int(v), float(w)] for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w)],
                },
                "hierarchy": {"degrees": SERVER_2X4[0], "cm": SERVER_2X4[1]},
                "demands": [float(x) for x in inst.demands],
            }
        ).encode("utf-8")

    def _start_server(self) -> None:
        log = self.out_dir / f"serve-{os.getpid()}.log"
        self._log = open(log, "w")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            m = re.search(r"listening on (http://\S+)", log.read_text())
            if m:
                self.client = PlacementClient(m.group(1), timeout=120)
                return
            if self.server.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not start: {log.read_text()[-2000:]}")

    def setup(self):
        self._start_server()
        warm = self.client.request("POST", "/v1/solve", self._body(self._distinct(-1)))
        if warm.status != 200:
            raise RuntimeError(f"warm-up request failed: {warm.status} {warm.body[:200]!r}")

    def _request(self, pos: int) -> int:
        """The distinct request behind position ``pos`` of the stream."""
        while len(self.stream) <= pos:
            p = len(self.stream)
            if p % self.repeat_every == self.repeat_every - 1 and self.n_distinct:
                back = (p // self.repeat_every) % 3
                self.stream.append(max(0, self.n_distinct - 1 - back))
            else:
                self.stream.append(self.n_distinct)
                self.n_distinct += 1
        return self.stream[pos]

    def run(self, seconds):
        self.stream: List[int] = []
        self.n_distinct = 0
        bodies: Dict[int, bytes] = {}
        lock = threading.Lock()
        records: List[tuple] = []
        next_pos = [0]
        errors: List[BaseException] = []

        def take() -> Optional[Tuple[int, int, bytes]]:
            with lock:
                pos = next_pos[0]
                # The fixed op list (the first fixed_ops distinct requests)
                # is always sent, whatever the time.
                if time.perf_counter() - start >= seconds and self._request(pos) >= self.fixed_ops:
                    return None
                next_pos[0] += 1
                idx = self._request(pos)
                if idx not in bodies:
                    bodies[idx] = self._body(self._distinct(idx))
                return pos, idx, bodies[idx]

        def client_loop() -> None:
            try:
                while True:
                    item = take()
                    if item is None:
                        return
                    pos, idx, body = item
                    t0 = time.perf_counter()
                    resp = self.client.request("POST", "/v1/solve", body)
                    dt = time.perf_counter() - t0
                    with lock:
                        records.append((pos, idx, dt, resp))
            except BaseException as exc:  # surfaced below, after the join
                errors.append(exc)

        self.queue_before = queue_wait(self.client.metrics())
        # The server keeps both cores busy during the loop, so the
        # reference kernel is sampled while it idles, before and after.
        self.reference = [reference_seconds() for _ in range(10)] if self.compensate else []
        start = time.perf_counter()
        threads = [threading.Thread(target=client_loop) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        if self.compensate:
            self.reference += [reference_seconds() for _ in range(10)]
        if errors:
            raise errors[0]
        records.sort(key=lambda r: r[0])
        self.bodies = bodies
        return self._check(records), wall

    def _check(self, records) -> List[Op]:
        """Checks every answer; repeats must be byte-identical to the
        first answer for the same request, and the fixed op list must
        equal in-process ``run_pipeline`` under the server's config."""
        first: Dict[int, bytes] = {}
        cfg = replace(serve_solver_config(), n_jobs=1)
        ops = []
        for pos, idx, dt, resp in records:
            op = Op(pos, dt, extra={"request": idx, "served_from": resp.served_from})
            ops.append(op)
            if resp.status != 200:
                op.error = f"HTTP {resp.status} ({resp.served_from}): {resp.body[:200]!r}"
                continue
            if first.setdefault(idx, resp.body) != resp.body:
                op.error = "repeat answer differs from the first answer"
                continue
            answer = resp.json()
            inst = self._distinct(idx)
            eps = make_grid(self.hier, np.asarray(inst.demands), cfg).epsilon
            done = answer_op(pos, dt, inst.graph, self.hier, inst.demands, answer["leaf_of"], eps, answer["cost"])
            op.cost, op.violation, op.leaf_of, op.error = done.cost, done.violation, done.leaf_of, done.error
        get_cache().clear()
        expected: Dict[int, Placement] = {}
        for idx in range(self.fixed_ops):
            inst = self._distinct(idx)
            expected[idx] = run_pipeline(inst.graph, self.hier, inst.demands, cfg).placement
        for op in ops:
            ref = expected.get(op.extra["request"])
            if op.error is None and ref is not None and not same_answer(op, ref):
                op.error = "served answer differs from in-process run_pipeline"
        return ops

    def fixed_list(self, ops):
        """First answer of each request in the fixed op list."""
        seen, out = set(), []
        for op in ops:
            idx = op.extra["request"]
            if idx < self.fixed_ops and idx not in seen:
                seen.add(idx)
                out.append(op)
        return out

    def loop_metrics(self, ops):
        """Round trips split by ``X-Repro-Served-From``, plus the server's
        queue-wait histogram (the one wait a client cannot see)."""
        seen, repeats = set(), 0
        by_class: Dict[str, List[float]] = {}
        for op in ops:
            repeats += op.extra["request"] in seen
            seen.add(op.extra["request"])
            by_class.setdefault(op.extra["served_from"], []).append(op.latency_s)
        lat = sorted(op.latency_s for op in ops)
        q_sum, q_count = queue_wait(self.client.metrics())
        waited = q_count - self.queue_before[1]
        return {
            "serve.repeat_frac": repeats / len(ops),
            "serve.coalesced_frac": len(by_class.get("coalesced", [])) / len(ops),
            "serve.cache_frac": len(by_class.get("cache", [])) / len(ops),
            "serve.cache_latency_s": statistics.median(by_class.get("cache", [0.0])),
            "serve.solve_latency_s": statistics.median(by_class.get("solve", [0.0])),
            "serve.latency_p90_s": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
            "serve.requests": float(len(ops)),
            "serve.queue_wait_s": (q_sum - self.queue_before[0]) / waited if waited else 0.0,
        }

    def untraced_seconds(self, ops):
        return self.serial_seconds

    def replay(self, tr, ops):
        """In-process replay of the fixed op list: parse + cache key, the
        engine under the server's config (``n_jobs=1``), serialize; then
        the pool's payload spool and ``run_pipeline`` at ``n_jobs=1``
        vs ``2`` on the same instances."""
        cfg = serve_solver_config()
        serial_cfg = replace(cfg, n_jobs=1)
        get_cache().clear()
        before = get_cache().stats.as_dict()["by_kind"]
        bad = 0
        fixed = self.fixed_list(ops)
        for op in fixed:
            body = self.bodies[op.extra["request"]]
            tr.op = op.index
            with tr.span("op"):
                with tr.span("serve.parse"):
                    req = protocol.parse_solve_request(body)
                    protocol.request_cache_key(req)
                placement, _members = replay_engine(tr, req.graph, req.hierarchy, req.demands, serial_cfg)
                with tr.span("serve.serialize"):
                    protocol.json_body(
                        {
                            "n": req.graph.n,
                            "cost": placement.cost(),
                            "degraded": False,
                            "failures": [],
                            "leaf_of": placement.leaf_of.tolist(),
                        }
                    )
            bad += not same_answer(op, placement)
        timed = [op.index for op in fixed]
        out = engine_layer_metrics(tr, timed, before)
        per_op = tr.self_seconds()
        out["serve.parse_s"] = median_per_op(per_op, timed, "serve.parse")
        out["serve.serialize_s"] = median_per_op(per_op, timed, "serve.serialize")

        publish, spool, serial, parallel = [], [], [], []
        for op in fixed:
            inst = self._distinct(op.extra["request"])
            d = np.asarray(inst.demands, dtype=np.float64)
            trees = racke_ensemble(inst.graph, n_trees=cfg.n_trees, seed=cfg.seed)
            payload = {
                "trees": trees,
                "hierarchy": self.hier,
                "demands": d,
                "config": cfg,
                "grid": make_grid(self.hier, d, cfg),
                "run_id": "perfbench",
            }
            t0 = time.perf_counter()
            ref = pool.publish_generation(payload)
            publish.append(time.perf_counter() - t0)
            spool.append(ref.nbytes)
            pool.release_generation(ref)
        for jobs, sink in ((1, serial), (2, parallel)):
            if jobs > 1:
                # Spawn the workers and let them import before timing.
                warm = self._distinct(-1)
                run_pipeline(warm.graph, self.hier, warm.demands, replace(cfg, n_jobs=jobs))
            for op in fixed:
                inst = self._distinct(op.extra["request"])
                get_cache().clear()
                t0 = time.perf_counter()
                res = run_pipeline(inst.graph, self.hier, inst.demands, replace(cfg, n_jobs=jobs))
                sink.append(time.perf_counter() - t0)
                bad += not same_answer(op, res.placement)
        pool.shutdown_pool()
        out["core.pool.publish_s"] = statistics.median(publish)
        out["core.pool.spool_bytes"] = float(statistics.median(spool))
        out["core.pool.serial_s"] = statistics.median(serial)
        out["core.pool.parallel_s"] = statistics.median(parallel)
        out["core.pool.speedup"] = out["core.pool.serial_s"] / out["core.pool.parallel_s"]
        # The untraced baseline of the replayed ops is the serial solve.
        self.serial_seconds = sum(serial)
        return bad, out

    def peak_rss_mib(self) -> float:
        """Peak resident memory of the server process."""
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def close(self):
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self._log.close()
        Path(self._log.name).unlink()
        self.server = None


WORKLOADS = {
    w.name: w for w in (FlatCold, DeepChurn, LargeMultilevel, ServeDup)
}
