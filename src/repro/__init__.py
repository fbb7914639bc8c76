"""repro — reproduction of *Hierarchical Graph Partitioning* (SPAA 2014).

Public API (one import for the common workflow)::

    from repro import Graph, Hierarchy, SolverConfig, solve_hgp

    g = ...                       # task graph (Graph)
    H = Hierarchy([2, 8], [10.0, 3.0, 0.0])   # 2 sockets x 8 cores
    result = solve_hgp(g, H, demands, SolverConfig(seed=0))
    print(result.placement.summary())

Subpackages
-----------
``repro.graph``
    CSR graph kernel, generators, I/O, spectral tools.
``repro.flow``
    Max-flow / min-cut / Gomory–Hu substrate.
``repro.hierarchy``
    The HGP problem model: hierarchy trees, placements, Eq. (1)/(3) costs.
``repro.decomposition``
    Decomposition trees + builders (the Räcke step of Theorem 1).
``repro.hgpt``
    Demand grids, binarization, the RHGPT signature DP, Theorem-5 repair.
``repro.core``
    The end-to-end pipeline, exact ground truth, k-BGP reduction.
``repro.baselines``
    Flat/multilevel/greedy/local-search comparators.
``repro.streaming``
    Streaming-operator placement application (the paper's motivation).
"""

from repro.cache import CacheConfig, configure_cache, get_cache
from repro.errors import (
    DegradedRunError,
    InfeasibleError,
    InvalidInputError,
    ReproError,
    SolverError,
)
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.placement import Placement
from repro.core.config import SolverConfig
from repro.core.engine import EngineResult, run_pipeline
from repro.core.resilience import ResilienceConfig, RetryPolicy
from repro.core.solver import solve_hgp, solve_hgpt
from repro.core.telemetry import RunReport, Telemetry
from repro.core.exact import exact_hgp
from repro.core.kbgp import kbgp_hierarchy, solve_kbgp

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "InvalidInputError",
    "InfeasibleError",
    "SolverError",
    "DegradedRunError",
    "Graph",
    "Hierarchy",
    "Placement",
    "SolverConfig",
    "ResilienceConfig",
    "RetryPolicy",
    "CacheConfig",
    "get_cache",
    "configure_cache",
    "EngineResult",
    "solve_hgp",
    "solve_hgpt",
    "run_pipeline",
    "RunReport",
    "Telemetry",
    "exact_hgp",
    "kbgp_hierarchy",
    "solve_kbgp",
    "__version__",
]
