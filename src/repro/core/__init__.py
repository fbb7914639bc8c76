"""Core solvers: the staged engine, Theorem-1 pipeline, k-BGP, exact search."""

from repro.core.config import SolverConfig
from repro.core.engine import (
    Engine,
    EngineResult,
    RunContext,
    run_pipeline,
    solve_member,
)
from repro.core.solver import solve_hgp, solve_hgpt
from repro.core.exact import exact_hgp
from repro.core.kbgp import kbgp_hierarchy, minimum_bisection, solve_kbgp
from repro.core.portfolio import seed_portfolio, solve_hgp_portfolio
from repro.core.telemetry import MemberRecord, RunReport, Span, Telemetry

__all__ = [
    "SolverConfig",
    "Engine",
    "EngineResult",
    "RunContext",
    "run_pipeline",
    "solve_member",
    "solve_hgp",
    "solve_hgpt",
    "exact_hgp",
    "kbgp_hierarchy",
    "minimum_bisection",
    "solve_kbgp",
    "seed_portfolio",
    "solve_hgp_portfolio",
    "MemberRecord",
    "RunReport",
    "Span",
    "Telemetry",
]
