"""k-Balanced Graph Partitioning as the ``h = 1`` special case of HGP.

The paper's Section 1: k-BGP *is* HGP with a height-1 hierarchy,
``cm(0) = 1``, ``cm(1) = 0`` and uniform demands.  This module provides
that reduction both ways — it is used by experiment E8 to check that the
general machinery degrades gracefully to the classical problem, and as a
convenience API for users who just want balanced partitioning.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.placement import Placement
from repro.core.config import SolverConfig
from repro.core.telemetry import Telemetry
from repro.utils.rng import SeedLike

__all__ = ["kbgp_hierarchy", "solve_kbgp", "minimum_bisection"]


def kbgp_hierarchy(k: int, capacity: float = 1.0) -> Hierarchy:
    """The height-1 hierarchy encoding k-BGP: ``cm = (1, 0)``, ``k`` leaves."""
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    return Hierarchy([k], [1.0, 0.0], leaf_capacity=capacity)


def solve_kbgp(
    g: Graph,
    k: int,
    demands: Optional[Sequence[float]] = None,
    config: SolverConfig = SolverConfig(),
    telemetry: Optional[Telemetry] = None,
) -> Placement:
    """Solve k-BGP through the full HGP pipeline (the staged engine).

    With default demands (``n/k`` per vertex scaled to unit leaves, the
    paper's reduction), the returned placement's :meth:`cost` is exactly
    the weight of the edges cut by the partition, and its
    :meth:`max_violation` the balance violation.  Pass a ``telemetry``
    collector to capture the run's structured report; otherwise a fresh
    ``Telemetry("kbgp")`` is used and this call persists its report when
    ``REPRO_RUN_REPORT_DIR`` is set.
    """
    if demands is None:
        d = np.full(g.n, k / max(g.n, 1))
        d = np.minimum(d, 1.0)
    else:
        d = np.asarray(demands, dtype=np.float64)
    hier = kbgp_hierarchy(k)
    from repro.core.engine import persist_report, run_pipeline

    tel = telemetry if telemetry is not None else Telemetry("kbgp")
    tel.counter("k", float(k))
    result = run_pipeline(g, hier, d, config, telemetry=tel)
    if telemetry is None:
        persist_report(result)
    return result.placement


def minimum_bisection(
    g: Graph, tol: float = 0.0, seed: SeedLike = None
) -> tuple[float, np.ndarray]:
    """Heuristic minimum bisection via the multilevel engine.

    ``tol = 0`` asks for an exactly balanced split (matched via KL);
    positive values relax the balance as in the (α, β) bicriteria
    results the paper surveys.  Returns (cut weight, side mask).
    """
    from repro.baselines.multilevel import bisect

    mask = bisect(g, target_fraction=0.5, tol=max(tol, 1.0 / max(g.n, 1)), seed=seed)
    return g.cut_weight(mask), mask
