"""Portfolio solving: best-of over several configurations.

The pipeline's quality varies with its random seed (tree ensemble) and
its grid/beam knobs; a *portfolio* run simply executes several
configurations and keeps the cheapest valid placement — the standard way
to spend extra compute for quality without touching the algorithm.
Combine with ``n_jobs`` inside each member for two-level parallelism.

Every member runs through the shared staged engine with one
``Telemetry("portfolio")`` collector, so a portfolio run emits a single
run report whose spans accumulate across members and whose member
records cover every tree solved by every configuration.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.core.config import SolverConfig
from repro.core.engine import EngineResult, run_pipeline
from repro.core.telemetry import Telemetry

__all__ = ["solve_hgp_portfolio", "seed_portfolio"]


def seed_portfolio(base: SolverConfig, n_seeds: int) -> list[SolverConfig]:
    """Derive ``n_seeds`` configurations differing only in their seed."""
    if n_seeds < 1:
        raise InvalidInputError(f"n_seeds must be >= 1, got {n_seeds}")
    base_seed = base.seed if base.seed is not None else 0
    return [replace(base, seed=base_seed + 1009 * i) for i in range(n_seeds)]


def solve_hgp_portfolio(
    g: Graph,
    hierarchy: Hierarchy,
    demands: Sequence[float],
    configs: Optional[Sequence[SolverConfig]] = None,
    n_seeds: int = 3,
    telemetry: Optional[Telemetry] = None,
) -> EngineResult:
    """Run several pipeline configurations; return the cheapest result.

    Parameters
    ----------
    g, hierarchy, demands:
        The instance.
    configs:
        Explicit configurations to race (``None`` = a seed portfolio of
        ``n_seeds`` members derived from the default config).
    n_seeds:
        Size of the default seed portfolio.
    telemetry:
        Shared collector for all members (``None`` = a fresh
        ``Telemetry("portfolio")``, attached to the returned result).

    Returns
    -------
    EngineResult
        The member result with the lowest true Eq. (1) cost; its
        placement's ``meta['portfolio_member']`` records which member
        won, and ``.telemetry`` covers the whole portfolio.
    """
    if configs is None:
        configs = seed_portfolio(SolverConfig(), n_seeds)
    if not configs:
        raise InvalidInputError("portfolio needs at least one configuration")
    tel = telemetry if telemetry is not None else Telemetry("portfolio")
    best: Optional[EngineResult] = None
    best_member = -1
    for i, cfg in enumerate(configs):
        tel.counter("portfolio_members")
        result = run_pipeline(g, hierarchy, demands, cfg, telemetry=tel)
        if best is None or result.cost < best.cost:
            best = result
            best_member = i
    assert best is not None
    best.placement = best.placement.with_meta(portfolio_member=best_member)
    return best
