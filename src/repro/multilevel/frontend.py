"""The coarsen–solve–refine front-end for million-vertex instances.

:func:`solve_multilevel` is the scaling layer on top of the staged
engine: it coarsens the task graph to a DP-friendly size
(:mod:`repro.multilevel.coarsen`), runs the **unchanged** Theorem-1
pipeline on the coarsest instance — so the solver cache, worker pool,
resilience policy and telemetry all apply exactly as in a flat solve —
and projects the coarse placement back up the level stack, running
hierarchy-aware FM refinement
(:func:`repro.baselines.fm.fm_refine_hierarchy`) at every level.

Feasibility is preserved by construction: coarsening caps merged
supervertex demand at the hierarchy's leaf capacity, so the coarsest
instance passes :func:`repro.core.engine.validate_instance` whenever the
fine instance does, and projection assigns each fine vertex its
supervertex's leaf, conserving per-leaf load exactly.

Telemetry: the front-end opens ``coarsen`` / ``coarse_solve`` /
``uncoarsen`` spans on one shared collector, so the engine's five stage
spans nest under ``coarse_solve`` and ``repro report show`` displays the
per-level refinement spans (``level_0`` … adjacent to the engine tree).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.fm import HierarchyRefineStats, fm_refine_hierarchy
from repro.core.config import MultilevelConfig, SolverConfig
from repro.core.engine import (
    EngineResult,
    persist_report,
    run_pipeline,
    validate_instance,
)
from repro.core.telemetry import RunReport, Telemetry
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.placement import Placement
from repro.multilevel.coarsen import CoarseningHierarchy, coarsen_graph
from repro.obs.metrics import get_registry

__all__ = ["MultilevelResult", "solve_multilevel"]


@dataclass
class MultilevelResult(EngineResult):
    """Return value of :func:`solve_multilevel`: an :class:`EngineResult`
    whose ``placement`` is the final fine-level placement (projected +
    refined) and whose ``tree_costs`` / ``dp_costs`` / ``grid`` /
    ``failures`` describe the coarse solve.

    Attributes
    ----------
    coarse:
        The :class:`repro.core.engine.EngineResult` of the coarsest
        solve (cache hits and ensemble diagnostics live here).
    levels:
        The coarsening hierarchy (graphs, demands, maps, stats).
    refine_stats:
        One :class:`repro.baselines.fm.HierarchyRefineStats` per
        uncoarsening level, coarsest-to-finest order.
    """

    coarse: Optional[EngineResult] = None
    levels: Optional[CoarseningHierarchy] = None
    refine_stats: List[HierarchyRefineStats] = field(default_factory=list)

    def stats_dict(self) -> dict:
        """JSON-ready multilevel summary (stamped into report meta)."""
        return {
            "coarsen": self.levels.stats.to_dict(),
            "coarse_cost": self.coarse.cost,
            "refine_moves": int(sum(s.moves for s in self.refine_stats)),
            "refine_gain": float(sum(s.gain for s in self.refine_stats)),
        }

    def report(self, **meta: object) -> RunReport:
        """Freeze the whole front-end run into one :class:`RunReport`."""
        meta.setdefault("multilevel", self.stats_dict())
        return super().report(**meta)


def solve_multilevel(
    g: Graph,
    hierarchy: Hierarchy,
    demands: Sequence[float],
    config: SolverConfig = SolverConfig(),
    *,
    telemetry: Optional[Telemetry] = None,
    path: str = "multilevel",
) -> MultilevelResult:
    """Coarsen–solve–refine on one HGP instance.

    Parameters
    ----------
    g, hierarchy, demands:
        The instance (validated exactly as the flat path does).
    config:
        Engine knobs; ``config.multilevel`` steers coarsening depth and
        refinement (``enabled`` is ignored here — calling this function
        *is* the opt-in).  The coarse solve runs this very configuration
        with ``multilevel.enabled`` cleared.
    telemetry:
        Shared collector (``None`` = a fresh one rooted at ``path``,
        owned by this call: with ``REPRO_RUN_REPORT_DIR`` set, the whole
        front-end report is persisted once, after refinement).  The
        coarse solve runs on it, so the result and ``coarse`` share its
        ``run_id``.
    """
    ml: MultilevelConfig = config.multilevel
    d = np.asarray(demands, dtype=np.float64)
    validate_instance(g, hierarchy, d)
    tel = telemetry if telemetry is not None else Telemetry(path)
    registry = get_registry()
    registry.counter(
        "repro_multilevel_runs_total", "Multilevel front-end solves started."
    ).inc()

    with tel.span("coarsen"):
        levels = coarsen_graph(
            g,
            d,
            target_n=ml.coarsen_to,
            max_weight=hierarchy.leaf_capacity,
            rng=config.seed,
            max_levels=ml.max_levels,
            stall_ratio=ml.stall_ratio,
            rounds=ml.match_rounds,
        )
        st = levels.stats
        tel.counter("levels", st.levels)
        tel.counter("coarsest_n", st.n_coarsest)
        tel.counter("coarsest_m", st.m_coarsest)
        tel.counter("shrink_factor", st.shrink_factor)
        if st.stalled:
            tel.counter("stalled")
    registry.gauge(
        "repro_multilevel_levels", "Levels in the last coarsening hierarchy."
    ).set(st.levels)
    registry.gauge(
        "repro_multilevel_shrink_factor",
        "Fine-over-coarsest vertex ratio of the last coarsening.",
    ).set(st.shrink_factor)

    # The coarsest instance goes through the unchanged engine path, so
    # cache / pool / resilience / telemetry behave exactly as in a flat
    # solve.  Sharing ``tel`` nests the engine's stage spans under
    # ``coarse_solve`` (and leaves persisting the report to this call).
    inner_cfg = replace(config, multilevel=replace(ml, enabled=False))
    with tel.span("coarse_solve"):
        coarse = run_pipeline(
            levels.coarsest,
            hierarchy,
            levels.demands[-1],
            inner_cfg,
            telemetry=tel,
        )

    leaf = coarse.placement.leaf_of
    refine_stats: List[HierarchyRefineStats] = []
    moves_total = 0
    gain_total = 0.0
    with tel.span("uncoarsen"):
        for i in range(len(levels.maps) - 1, -1, -1):
            leaf = leaf[levels.maps[i]]
            with tel.span(f"level_{i}"):
                leaf, stats = fm_refine_hierarchy(
                    levels.graphs[i],
                    hierarchy,
                    levels.demands[i],
                    leaf,
                    max_passes=ml.refine_passes,
                )
                refine_stats.append(stats)
                moves_total += stats.moves
                gain_total += stats.gain
                tel.counter("n", levels.graphs[i].n)
                tel.counter("moves", stats.moves)
                tel.counter("gain", stats.gain)
    registry.counter(
        "repro_multilevel_refine_moves_total",
        "Vertex moves applied by multilevel uncoarsening refinement.",
    ).inc(moves_total)
    registry.counter(
        "repro_multilevel_refine_gain_total",
        "Eq. (1) cost reduction won by uncoarsening refinement.",
    ).inc(gain_total)

    placement = Placement(
        g,
        hierarchy,
        d,
        leaf,
        meta={
            "solver": "hgp_multilevel",
            "config": config.describe(),
            "coarsen": st.to_dict(),
            "coarse_cost": coarse.cost,
            "refine_moves": moves_total,
            "refine_gain": gain_total,
        },
    )
    result = MultilevelResult(
        placement=placement,
        tree_costs=coarse.tree_costs,
        dp_costs=coarse.dp_costs,
        grid=coarse.grid,
        telemetry=tel,
        config=config,
        failures=coarse.failures,
        incremental=coarse.incremental,
        coarse=coarse,
        levels=levels,
        refine_stats=refine_stats,
    )
    if telemetry is None:
        persist_report(result)
    return result
