"""Bridging streaming workloads and the HGP solver.

``dag_to_instance`` converts a :class:`StreamDAG` into the HGP triple
``(Graph, demands)`` — communication traffic becomes edge weights, CPU
utilisation becomes vertex demand — and ``place_dag`` runs any placement
method end-to-end, returning both the placement and its throughput
report.  This is the code path a user of the original system would
actually call: "here is my query workload and my server, pin it."
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.placement import Placement
from repro.core.config import SolverConfig
from repro.core.telemetry import Telemetry
from repro.streaming.operators import StreamDAG
from repro.streaming.simulator import CommCostModel, ThroughputReport, evaluate_placement

__all__ = ["dag_to_instance", "place_dag"]


def dag_to_instance(
    dag: StreamDAG,
    hierarchy: Hierarchy,
    target_fill: float = 0.7,
    min_demand: float = 1e-3,
) -> Tuple[Graph, np.ndarray]:
    """Convert a stream DAG into an HGP instance.

    CPU demands are rescaled so the aggregate equals ``target_fill``
    times the hierarchy's capacity (placements should be load-feasible
    but non-trivial); traffic becomes undirected edge weight.

    Returns
    -------
    (Graph, numpy.ndarray)
        Communication graph and per-operator demand vector.
    """
    if not (0 < target_fill <= 1):
        raise InvalidInputError(f"target_fill must be in (0, 1], got {target_fill}")
    n, triples = dag.communication_graph()
    g = Graph(n, triples)
    cpu = dag.cpu_demands()
    total = float(cpu.sum())
    if total <= 0:
        demands = np.full(n, min_demand)
    else:
        demands = cpu / total * (target_fill * hierarchy.total_capacity)
    demands = np.clip(demands, min_demand, hierarchy.leaf_capacity)
    return g, demands


def place_dag(
    dag: StreamDAG,
    hierarchy: Hierarchy,
    method: str = "hgp",
    config: Optional[SolverConfig] = None,
    model: Optional[CommCostModel] = None,
    seed: int | None = 0,
    replicate_hot: bool = False,
    max_utilisation: float = 0.8,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Placement, ThroughputReport]:
    """Pin a streaming workload onto a core hierarchy and score it.

    Parameters
    ----------
    dag:
        Workload.
    hierarchy:
        Core hierarchy.
    method:
        ``"hgp"`` (the paper's algorithm) or any key of
        :func:`repro.baselines.placement_baselines`.
    config:
        Solver configuration for the ``"hgp"`` method.
    model:
        Communication tax model for the throughput report.
    seed:
        Seed forwarded to baseline methods.
    replicate_hot:
        First split operators hotter than ``max_utilisation`` of a core
        into data-parallel replicas (see
        :func:`repro.streaming.replicate.auto_replicate`); the returned
        placement then covers the *transformed* DAG's operators.
    max_utilisation:
        Per-replica CPU budget used when ``replicate_hot`` is set.
    telemetry:
        Collector threaded through the ``"hgp"`` engine run (``None`` =
        a fresh one rooted at ``streaming``, owned by the run);
        ignored by baselines.

    Returns
    -------
    (Placement, ThroughputReport)
    """
    if replicate_hot:
        from repro.streaming.replicate import auto_replicate

        dag, _applied = auto_replicate(dag, max_utilisation=max_utilisation)
    g, demands = dag_to_instance(dag, hierarchy)
    if method == "hgp":
        from repro.core.engine import run_pipeline

        cfg = config if config is not None else SolverConfig(seed=seed or 0)
        placement = run_pipeline(
            g, hierarchy, demands, cfg, telemetry=telemetry, path="streaming"
        ).placement
    else:
        from repro.baselines import placement_baselines

        registry = placement_baselines()
        if method not in registry:
            raise InvalidInputError(
                f"unknown method {method!r}; use 'hgp' or one of {sorted(registry)}"
            )
        placement = registry[method](g, hierarchy, demands, seed=seed)
    report = evaluate_placement(dag, hierarchy, placement.leaf_of, model=model)
    return placement, report
