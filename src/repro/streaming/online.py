"""Online task placement under churn (extension beyond the paper).

The paper solves the *static* placement problem; real stream systems see
tasks arrive and depart continuously, and migrating a running operator
costs state transfer.  This module adds the natural online layer on top
of the static solver:

* :class:`OnlinePlacer` keeps a live task set, places arrivals greedily
  (capacity-aware, hierarchy-aware incremental cost — the same rule as
  :mod:`repro.baselines.greedy`), and supports *budgeted
  re-optimisation*: solve the static HGP on the live graph, then adopt
  only the most valuable migrations up to a per-call budget, applied in
  decreasing immediate-gain order.
* :func:`simulate_churn` drives an arrival/departure trace through three
  policies (never re-optimise, re-optimise every ``period`` events with
  a budget, unlimited re-optimisation) and reports the cost trajectory —
  the experiment behind bench E11.

The static solver's guarantees apply at each re-optimisation point; in
between, quality degrades gracefully with churn — exactly the trade-off
the simulation quantifies.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DegradedRunError, InvalidInputError
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.placement import Placement
from repro.core.config import SolverConfig
from repro.core.telemetry import RunReport, Telemetry
from repro.obs.metrics import get_registry

__all__ = [
    "OnlineCounters",
    "OnlinePlacer",
    "ChurnEvent",
    "ChurnResult",
    "simulate_churn",
]

#: Dirty-fraction gate of :meth:`OnlinePlacer.reoptimize`: when more than
#: this fraction of live tasks was touched by churn since the last
#: reoptimize, the solve skips the subtree memo (with most subtrees
#: dirty, per-node lookups are pure overhead).  A performance heuristic
#: only; placements are identical either way.
MAX_DIRTY_FRAC = 0.25


@dataclass
class OnlineCounters:
    """Event counters of one :class:`OnlinePlacer` lifetime.

    ``rejections`` counts arrivals that found no leaf within the load
    budget and fell back to the least-loaded leaf (the placement
    succeeded but violated the budget) — previously these were silent.
    ``tree_cache_hits`` / ``tree_cache_misses`` count re-optimisation
    runs whose decomposition ensemble came from the solver cache versus
    being rebuilt — back-to-back calls on an unchanged live graph should
    be all hits after the first.  ``reopt_failures`` counts
    re-optimisations abandoned because the engine run degraded past its
    resilience policy — the placer keeps serving the current placement.
    ``edge_updates`` counts :meth:`OnlinePlacer.update_edge` calls;
    ``incremental_reopts`` / ``incremental_fallbacks`` count
    re-optimisations that ran through the subtree-memo warm path versus
    those forced to a plain full solve because the dirty fraction
    exceeded :data:`MAX_DIRTY_FRAC` (placements are identical either
    way — the gate is a performance heuristic).
    """

    arrivals: int = 0
    departures: int = 0
    rejections: int = 0
    migrations: int = 0
    reopt_calls: int = 0
    reopt_seconds: float = 0.0
    reopt_failures: int = 0
    tree_cache_hits: int = 0
    tree_cache_misses: int = 0
    edge_updates: int = 0
    incremental_reopts: int = 0
    incremental_fallbacks: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (used by churn results and experiment logs)."""
        return asdict(self)


@dataclass(frozen=True)
class ChurnEvent:
    """One trace event: an arrival (with demand and edges) or a departure."""

    kind: str  # "arrive" | "depart"
    task: int
    demand: float = 0.0
    edges: Tuple[Tuple[int, float], ...] = ()


class OnlinePlacer:
    """Incremental hierarchy-aware placement with budgeted re-optimisation.

    Parameters
    ----------
    hierarchy:
        The machine.
    config:
        Static-solver configuration used by :meth:`reoptimize`.
    max_violation:
        Leaf-load budget enforced by arrivals and migrations.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        config: Optional[SolverConfig] = None,
        max_violation: float = 1.0,
    ):
        self.hierarchy = hierarchy
        self.config = config or SolverConfig(n_trees=4, refine=False)
        self.max_violation = max_violation
        self._demand: Dict[int, float] = {}
        self._adj: Dict[int, Dict[int, float]] = {}
        self._leaf: Dict[int, int] = {}
        self._loads = np.zeros(hierarchy.k)
        #: Bumped on every topology change (arrive/depart or a new edge);
        #: the snapshot cache below is keyed on it.  Migrations move
        #: tasks between leaves but never change the graph, so
        #: re-optimisation and the cost probe after it reuse one build.
        self._topology_version = 0
        #: Bumped by pure weight updates (:meth:`update_edge` on an
        #: existing edge).  A weight-only change keeps the snapshot's
        #: structure arrays and patches weights via
        #: :meth:`repro.graph.graph.Graph.reweighted` — no CSR rebuild.
        self._weights_version = 0
        self._snapshot: Optional[
            Tuple[int, int, Graph, np.ndarray, List[int]]
        ] = None
        #: Tasks touched by churn since the last successful reoptimize:
        #: arrivals (plus their live neighbours), departure neighbours
        #: and edge-update endpoints.  Drives the incremental-vs-full
        #: gate in :meth:`reoptimize`; cleared after every successful
        #: re-optimisation.
        self._dirty: set = set()
        #: Aggregate event counters (arrivals, departures, rejections,
        #: migrations, re-optimisation calls/seconds).
        self.counters = OnlineCounters()
        #: Migrations performed by each :meth:`reoptimize` call, in call
        #: order — previously this per-call count was dropped.
        self.reopt_migrations: List[int] = []
        #: Run report of the most recent :meth:`reoptimize` engine run
        #: (``None`` until the first re-optimisation).
        self.last_report: Optional[RunReport] = None

    @property
    def migrations(self) -> int:
        """Total migrations performed across all re-optimisations."""
        return self.counters.migrations

    # ------------------------------------------------------------------
    # live-state queries
    # ------------------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        """Number of live tasks."""
        return len(self._demand)

    def leaf_of(self, task: int) -> int:
        """Current leaf of a live task."""
        return self._leaf[task]

    def live_graph(self) -> Tuple[Graph, np.ndarray, np.ndarray, List[int]]:
        """Snapshot: (graph, demands, leaf assignment, task ids in order).

        The graph/demand build is cached between topology changes
        (arrivals/departures bump a version counter); only the leaf
        assignment — which migrations mutate — is re-read per call.
        Pure weight updates (:meth:`update_edge` on an existing edge)
        keep the snapshot's structure arrays and only regather weights
        (:meth:`repro.graph.graph.Graph.reweighted`) — no re-sort, no
        CSR rebuild, no new demand vector.
        """
        cached = self._snapshot
        if cached is not None and cached[0] == self._topology_version:
            _tv, wv, g, d, tasks = cached
            if wv != self._weights_version:
                new_w = np.asarray(
                    [
                        self._adj[tasks[u]][tasks[v]]
                        for u, v in zip(g.edges_u, g.edges_v)
                    ],
                    dtype=np.float64,
                )
                g = g.reweighted(new_w)
                self._snapshot = (
                    self._topology_version,
                    self._weights_version,
                    g,
                    d,
                    tasks,
                )
        else:
            tasks = sorted(self._demand)
            index = {t: i for i, t in enumerate(tasks)}
            edges = []
            for t in tasks:
                for u, w in self._adj[t].items():
                    if u > t and u in index:
                        edges.append((index[t], index[u], w))
            g = Graph(len(tasks), edges)
            d = np.asarray([self._demand[t] for t in tasks])
            self._snapshot = (
                self._topology_version,
                self._weights_version,
                g,
                d,
                tasks,
            )
        leaf = np.asarray([self._leaf[t] for t in tasks], dtype=np.int64)
        return g, d, leaf, tasks

    def cost(self) -> float:
        """Current Eq. (1) cost of the live placement."""
        if not self._demand:
            return 0.0
        g, d, leaf, _tasks = self.live_graph()
        return Placement(g, self.hierarchy, d, leaf).cost()

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def arrive(
        self, task: int, demand: float, edges: Tuple[Tuple[int, float], ...] = ()
    ) -> int:
        """Place a new task; returns its leaf.

        The leaf minimising the incremental Eq. (1) cost against already
        placed neighbours is chosen among leaves with room; least-loaded
        fallback when none fits.
        """
        if task in self._demand:
            raise InvalidInputError(f"task {task} is already live")
        if (
            not np.isfinite(demand)
            or demand <= 0
            or demand > self.hierarchy.leaf_capacity * self.max_violation
        ):
            raise InvalidInputError(f"task {task}: bad demand {demand}")
        cm = np.asarray(self.hierarchy.cm)
        k = self.hierarchy.k
        inc = np.zeros(k)
        live_edges: Dict[int, float] = {}
        for other, w in edges:
            if w <= 0 or not np.isfinite(w):
                raise InvalidInputError(
                    f"edge to {other}: weight must be finite and > 0, got {w}"
                )
            if other in self._leaf:
                live_edges[other] = live_edges.get(other, 0.0) + w
        for other, w in live_edges.items():
            lo = self._leaf[other]
            levels = np.asarray(
                self.hierarchy.lca_level(np.arange(k, dtype=np.int64), lo)
            )
            inc += cm[levels] * w
        budget = self.max_violation * self.hierarchy.leaf_capacity + 1e-12
        fits = self._loads + demand <= budget
        metrics = get_registry()
        if fits.any():
            cand = np.where(fits, inc, np.inf)
            leaf = int(np.argmin(cand + 1e-12 * self._loads))
        else:
            # No leaf has room within the budget: least-loaded fallback.
            # The task is still placed, but the budget is violated —
            # count it so operators can see overload instead of
            # discovering it from drifting costs.
            leaf = int(np.argmin(self._loads))
            self.counters.rejections += 1
            metrics.counter(
                "repro_online_rejections_total",
                "Arrivals that found no leaf within the load budget",
            ).inc()
        self._demand[task] = float(demand)
        self._adj.setdefault(task, {})
        for other, w in live_edges.items():
            self._adj[task][other] = w
            self._adj[other][task] = w
        self._leaf[task] = leaf
        self._loads[leaf] += demand
        self._topology_version += 1
        self._dirty.add(task)
        self._dirty.update(live_edges)
        self.counters.arrivals += 1
        metrics.counter(
            "repro_online_arrivals_total", "Tasks placed by the online placer"
        ).inc()
        metrics.gauge(
            "repro_online_live_tasks", "Currently live tasks"
        ).set(self.n_tasks)
        return leaf

    def depart(self, task: int) -> None:
        """Remove a live task and its edges."""
        if task not in self._demand:
            raise InvalidInputError(f"task {task} is not live")
        self._loads[self._leaf[task]] -= self._demand[task]
        for other in list(self._adj.get(task, ())):
            del self._adj[other][task]
            self._dirty.add(other)
        self._adj.pop(task, None)
        del self._demand[task]
        del self._leaf[task]
        self._dirty.discard(task)
        self._topology_version += 1
        self.counters.departures += 1
        metrics = get_registry()
        metrics.counter(
            "repro_online_departures_total", "Tasks removed from the online placer"
        ).inc()
        metrics.gauge(
            "repro_online_live_tasks", "Currently live tasks"
        ).set(self.n_tasks)

    def update_edge(self, a: int, b: int, weight: float) -> None:
        """Set the weight of the edge between two live tasks.

        Reweighting an existing edge is a *pure weight update*: the live
        graph keeps its topology, so the next :meth:`live_graph` call
        reuses the cached snapshot's structure arrays and only regathers
        weights.  Introducing a new edge (no current adjacency between
        ``a`` and ``b``) is a topology change and invalidates the
        snapshot like an arrival would.  Both endpoints join the dirty
        set driving :meth:`reoptimize`'s incremental-vs-full decision.
        """
        if a not in self._demand or b not in self._demand:
            raise InvalidInputError(
                f"both endpoints must be live tasks, got ({a}, {b})"
            )
        if a == b:
            raise InvalidInputError("self-loops are not allowed")
        if weight <= 0 or not np.isfinite(weight):
            raise InvalidInputError(
                f"edge ({a}, {b}): weight must be finite and > 0, got {weight}"
            )
        existed = b in self._adj.get(a, {})
        self._adj.setdefault(a, {})[b] = float(weight)
        self._adj.setdefault(b, {})[a] = float(weight)
        if existed:
            self._weights_version += 1
        else:
            self._topology_version += 1
        self._dirty.add(a)
        self._dirty.add(b)
        self.counters.edge_updates += 1
        get_registry().counter(
            "repro_online_edge_updates_total",
            "Edge-weight updates applied to the live graph",
        ).inc()

    # ------------------------------------------------------------------
    # re-optimisation
    # ------------------------------------------------------------------

    def reoptimize(self, migration_budget: Optional[int] = None) -> int:
        """Re-solve the static problem; adopt the best migrations.

        Parameters
        ----------
        migration_budget:
            Maximum tasks to move (``None`` = unlimited).

        Returns
        -------
        int
            Number of migrations performed.  Per-call counts are kept in
            :attr:`reopt_migrations` and aggregate event counts in
            :attr:`counters`.
        """
        if self.n_tasks <= 1:
            return 0
        t0 = time.perf_counter()
        moved = self._reoptimize(migration_budget)
        elapsed = time.perf_counter() - t0
        self.counters.reopt_calls += 1
        self.counters.reopt_seconds += elapsed
        self.counters.migrations += moved
        self.reopt_migrations.append(moved)
        metrics = get_registry()
        metrics.counter(
            "repro_online_reopts_total", "Budgeted re-optimisation calls"
        ).inc()
        metrics.counter(
            "repro_online_migrations_total", "Tasks migrated by re-optimisation"
        ).inc(moved)
        metrics.histogram(
            "repro_online_reoptimize_seconds",
            "Wall-clock seconds of one reoptimize() call",
        ).observe(elapsed)
        return moved

    def _reoptimize(self, migration_budget: Optional[int]) -> int:
        """The re-optimisation itself; returns migrations performed."""
        g, d, current, tasks = self.live_graph()
        from repro.core.engine import (
            incremental_enabled,
            persist_report,
            run_pipeline,
        )
        from repro.baselines.local_search import enforce_capacity

        # Incremental-vs-full decision: when the fraction of live tasks
        # touched since the last successful reoptimize exceeds
        # MAX_DIRTY_FRAC, per-subtree memo probes are pure overhead
        # (most digests changed), so the solve runs plain.  Placements
        # are bit-identical either way — the memo never changes table
        # contents, only whether they are rebuilt.
        inc = self.config.incremental
        warm_capable = incremental_enabled(self.config)
        dirty_live = sum(1 for t in self._dirty if t in self._demand)
        dirty_frac = dirty_live / max(1, self.n_tasks)
        use_warm = warm_capable and dirty_frac <= MAX_DIRTY_FRAC
        run_cfg = self.config
        if use_warm != inc.enabled:
            run_cfg = replace(
                self.config, incremental=replace(inc, enabled=use_warm)
            )

        tel = Telemetry("streaming")
        tel.counter("live_tasks", float(g.n))
        try:
            result = run_pipeline(
                g, self.hierarchy, d, run_cfg, telemetry=tel
            )
        except DegradedRunError:
            # A background re-optimisation is an *improvement* attempt:
            # losing it must never take the placer down.  Keep serving
            # the current placement and surface the failure through the
            # counter + metric; the next call retries from scratch.
            # The dirty set is kept — the region is still unresolved.
            self.counters.reopt_failures += 1
            get_registry().counter(
                "repro_online_reopt_failures_total",
                "Re-optimisations abandoned after a degraded engine run",
            ).inc()
            return 0
        if warm_capable:
            if use_warm:
                self.counters.incremental_reopts += 1
                get_registry().counter(
                    "repro_incremental_reopts_total",
                    "Re-optimisations run through the subtree-memo warm path",
                ).inc()
            else:
                self.counters.incremental_fallbacks += 1
                get_registry().counter(
                    "repro_incremental_fallbacks_total",
                    "Re-optimisations forced to a full solve by the "
                    "dirty-fraction gate",
                ).inc()
        self._dirty.clear()
        meta = {"live_tasks": g.n, "dirty_frac": round(dirty_frac, 6)}
        self.last_report = result.report(**meta)
        persist_report(result, **meta)
        trees_span = tel.root.lookup("trees")
        if trees_span is not None:
            self.counters.tree_cache_hits += int(
                trees_span.counters.get("cache_hits", 0)
            )
            self.counters.tree_cache_misses += int(
                trees_span.counters.get("cache_misses", 0)
            )
        target = enforce_capacity(result.placement, self.max_violation)
        diffs = [i for i in range(g.n) if current[i] != target.leaf_of[i]]
        current_cost = Placement(g, self.hierarchy, d, current).cost()
        if (migration_budget is None or migration_budget >= len(diffs)) and (
            target.cost() < current_cost - 1e-12
        ):
            # Budget covers the full diff: adopt the target wholesale —
            # greedy per-task adoption cannot execute joint cluster moves
            # whose individual steps have negative gain.
            loads = np.zeros(self.hierarchy.k)
            np.add.at(loads, target.leaf_of, d)
            for i, t in enumerate(tasks):
                self._leaf[t] = int(target.leaf_of[i])
            self._loads = loads
            return len(diffs)
        moved = 0
        leaf = current.copy()
        cm = np.asarray(self.hierarchy.cm)
        loads = self._loads.copy()
        budget_load = self.max_violation * self.hierarchy.leaf_capacity + 1e-12

        # Flattened adjacency, built once per re-optimisation (topology is
        # fixed inside the call): owner[e] / nbr[e] / w[e] per directed
        # half-edge.  Each loop iteration then prices every candidate
        # move in one vectorised pass over the half-edges — the old code
        # re-ran a per-task Python gain() for all pending tasks after
        # every single migration.
        tgt = np.asarray(target.leaf_of, dtype=np.int64)
        nbr_blocks = [g.neighbors(i) for i in range(g.n)]
        counts = np.asarray([b.size for b in nbr_blocks], dtype=np.int64)
        if counts.sum():
            flat_owner = np.repeat(np.arange(g.n, dtype=np.int64), counts)
            flat_nbr = np.concatenate(nbr_blocks)
            flat_w = np.concatenate([g.neighbor_weights(i) for i in range(g.n)])
        else:
            flat_owner = np.empty(0, dtype=np.int64)
            flat_nbr = np.empty(0, dtype=np.int64)
            flat_w = np.empty(0)

        def all_gains() -> np.ndarray:
            """Per-task cost reduction of moving it to its target leaf."""
            gains = np.zeros(g.n)
            if flat_owner.size:
                nl = leaf[flat_nbr]
                before = cm[np.asarray(self.hierarchy.lca_level(leaf[flat_owner], nl))]
                after = cm[np.asarray(self.hierarchy.lca_level(tgt[flat_owner], nl))]
                np.add.at(gains, flat_owner, (before - after) * flat_w)
            gains[leaf == tgt] = 0.0
            return gains

        pending = [i for i in range(g.n) if leaf[i] != target.leaf_of[i]]
        while pending and (migration_budget is None or moved < migration_budget):
            pend = np.asarray(pending, dtype=np.int64)
            gains = all_gains()[pend]
            # Descending (gain, task) — the order the old tuple sort used.
            order = np.lexsort((pend, gains))[::-1]
            applied = False
            for k in order:
                gval, i = float(gains[k]), int(pend[k])
                if gval <= 1e-12:
                    break
                dst = int(target.leaf_of[i])
                if loads[dst] + d[i] > budget_load:
                    continue
                loads[int(leaf[i])] -= d[i]
                loads[dst] += d[i]
                leaf[i] = dst
                pending.remove(i)
                moved += 1
                applied = True
                break
            if not applied:
                break

        for i, t in enumerate(tasks):
            if self._leaf[t] != int(leaf[i]):
                self._leaf[t] = int(leaf[i])
        self._loads = loads
        return moved


@dataclass
class ChurnResult:
    """What one churn replay produced.

    Attributes
    ----------
    costs:
        Eq. (1) cost after every event.
    migrations:
        Total migrations performed.
    counters:
        The placer's aggregate event counters (arrivals, departures,
        rejections, migrations, re-optimisation calls/seconds).
    reopt_migrations:
        Migrations adopted by each :meth:`OnlinePlacer.reoptimize` call,
        in call order.
    """

    costs: List[float]
    migrations: int
    counters: OnlineCounters = field(default_factory=OnlineCounters)
    reopt_migrations: List[int] = field(default_factory=list)


def simulate_churn(
    hierarchy: Hierarchy,
    events: List[ChurnEvent],
    reopt_period: int = 0,
    migration_budget: Optional[int] = None,
    config: Optional[SolverConfig] = None,
    max_violation: float = 1.0,
) -> ChurnResult:
    """Replay a churn trace under one re-optimisation policy.

    Parameters
    ----------
    hierarchy:
        The machine.
    events:
        Arrival/departure trace (see :func:`make_churn_trace` in the
        bench for a generator).
    reopt_period:
        Re-optimise every this many events (0 = never).
    migration_budget:
        Migrations allowed per re-optimisation (``None`` = unlimited).
    config, max_violation:
        Forwarded to :class:`OnlinePlacer`.

    Returns
    -------
    ChurnResult
        Cost trajectory, migrations and the placer's event counters.
    """
    placer = OnlinePlacer(hierarchy, config=config, max_violation=max_violation)
    costs: List[float] = []
    for i, ev in enumerate(events, start=1):
        if ev.kind == "arrive":
            placer.arrive(ev.task, ev.demand, ev.edges)
        elif ev.kind == "depart":
            placer.depart(ev.task)
        else:
            raise InvalidInputError(f"unknown event kind {ev.kind!r}")
        if reopt_period and i % reopt_period == 0 and placer.n_tasks > 1:
            placer.reoptimize(migration_budget)
        costs.append(placer.cost())
    return ChurnResult(
        costs=costs,
        migrations=placer.migrations,
        counters=placer.counters,
        reopt_migrations=list(placer.reopt_migrations),
    )
