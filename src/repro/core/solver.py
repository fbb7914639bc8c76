"""The end-to-end Theorem-1 pipeline (thin wrappers over the engine).

``solve_hgp`` runs the paper's two steps:

1. **Embed** ``G`` into an ensemble of decomposition trees (the Räcke
   step, Theorems 6–7; heuristic ensemble per DESIGN.md §2);
2. **Solve on trees**: for each tree, quantize demands (Hochbaum–Shmoys
   grid), binarize, run the RHGPT signature DP (Theorem 4), repair the
   relaxed solution into a valid hierarchy placement (Theorem 5), and
   map back to ``G``.

The cheapest placement *measured by the true Eq. (1) cost in G* wins —
exactly Theorem 7's ``arg min`` — so any weakness of the heuristic tree
ensemble can only cost optimality, never correctness.  An optional final
local-search pass (hierarchy-aware greedy moves) polishes the constant
factors the worst-case analysis ignores.

The pipeline itself lives in :mod:`repro.core.engine`; ``solve_hgp``
picks the flat engine or the multilevel front-end and returns the
engine's :class:`repro.core.engine.EngineResult`, whose span tree
(``result.telemetry``) is the run's one timing model and whose
:meth:`~repro.core.engine.EngineResult.report` freezes it to JSON.

``solve_hgpt`` exposes the tree-only solver for callers who already have
a tree instance (the HGPT problem per se, Theorem 2).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.placement import Placement
from repro.graph.graph import Graph
from repro.decomposition.tree import DecompositionTree
from repro.hgpt.dp import DPStats
from repro.hgpt.quantize import DemandGrid
from repro.core.config import SolverConfig
from repro.core.engine import (
    EngineResult,
    make_grid,
    publish_member_metrics,
    run_pipeline,
    solve_member,
    validate_instance,
)

__all__ = ["solve_hgp", "solve_hgpt"]


def solve_hgpt(
    tree: DecompositionTree,
    hierarchy: Hierarchy,
    demands: Sequence[float],
    config: SolverConfig = SolverConfig(),
    grid: Optional[DemandGrid] = None,
    stats: Optional[DPStats] = None,
) -> tuple[Placement, float]:
    """Solve HGP on one tree instance (Theorem 2).

    Returns the repaired placement and the DP's tree-side cost.  The
    placement's true cost is available as ``placement.cost()`` and is
    never above the tree-side cost (Proposition 1).
    """
    g = tree.graph
    d = np.asarray(demands, dtype=np.float64)
    validate_instance(g, hierarchy, d)
    if grid is None:
        grid = make_grid(hierarchy, d, config)
    outcome = solve_member(tree, hierarchy, d, config, grid, stats=stats)
    publish_member_metrics([outcome.record])
    return outcome.placement, outcome.record.dp_cost


def solve_hgp(
    g: Graph,
    hierarchy: Hierarchy,
    demands: Sequence[float],
    config: SolverConfig = SolverConfig(),
) -> EngineResult:
    """Full bicriteria HGP solver (Theorem 1 pipeline).

    Parameters
    ----------
    g:
        Task graph.
    hierarchy:
        Hierarchy tree with cost multipliers.
    demands:
        Per-vertex demand in ``(0, leaf_capacity]``.
    config:
        Pipeline knobs (ensemble size, grid, beam, refinement).

    Returns
    -------
    EngineResult
        Winning placement (guaranteed capacity violation at most
        ``(1 + ε)(1 + h)``) plus diagnostics and telemetry.

    Raises
    ------
    InfeasibleError
        If a vertex exceeds leaf capacity or total demand exceeds total
        capacity.

    Notes
    -----
    This is the one reader of ``config.multilevel.enabled``.  When it
    is set the instance is routed through the coarsen–solve–refine
    front-end and the :class:`repro.multilevel.MultilevelResult` (an
    ``EngineResult``) is returned as is: its ``tree_costs`` /
    ``dp_costs`` / ``grid`` describe the coarse solve while
    ``placement`` (and ``cost``) are the fine-level result.
    """
    if config.multilevel.enabled:
        # Local import: repro.multilevel sits on top of the engine.
        from repro.multilevel import solve_multilevel

        return solve_multilevel(g, hierarchy, demands, config)
    return run_pipeline(g, hierarchy, demands, config, path="batch")
