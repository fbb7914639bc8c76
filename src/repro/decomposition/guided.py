"""Placement-guided decomposition trees (warm-started iteration).

An extension beyond the paper: once *any* placement exists, its laminar
structure (which tasks share a leaf, which leaves share a socket, …) is
itself a hierarchical decomposition of ``V(G)`` — and usually a very
good one, because the placement was chosen to keep chatty tasks
together.  :func:`placement_guided_tree` materialises that structure as
a decomposition tree (splitting within-leaf groups by recursive spectral
bisection down to singletons), and :func:`solve_hgp_iterated` closes the
loop: solve → build the guided tree from the winner → re-solve on an
ensemble seeded with it → keep the best — a self-improvement iteration
whose cost is monotonically non-increasing by construction (the previous
winner remains a candidate).

Soundness is inherited: a guided tree is an ordinary decomposition tree,
so Proposition 1 applies unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.graph.spectral import fiedler_vector, sweep_cut
from repro.decomposition.tree import DecompositionTree, TreeAssembler
from repro.hierarchy.placement import Placement
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["placement_guided_tree", "solve_hgp_iterated"]


def placement_guided_tree(
    placement: Placement, seed: SeedLike = None
) -> DecompositionTree:
    """Decomposition tree mirroring a placement's hierarchy structure.

    Internal nodes correspond to the H-nodes whose subtrees host at
    least one task; within each leaf's task group, vertices are split
    recursively by spectral bisection down to singletons (the DP needs
    leaf-level granularity to consider re-splitting the group).
    """
    g = placement.graph
    hier = placement.hierarchy
    rng = ensure_rng(seed)
    asm = TreeAssembler(g)

    def split_group(vertices: np.ndarray) -> int:
        """Binary split of a same-leaf group down to singleton leaves."""
        if vertices.size == 1:
            return asm.add_leaf(int(vertices[0]))
        sub, back = g.subgraph(vertices)
        ncomp, labels = sub.connected_components()
        if ncomp > 1:
            kids = [
                split_group(back[np.nonzero(labels == c)[0]]) for c in range(ncomp)
            ]
            return asm.add_internal(kids)
        if sub.n == 2 or sub.m == 0:
            half = sub.n // 2
            mask = np.zeros(sub.n, dtype=bool)
            mask[:half] = True
        else:
            fv = fiedler_vector(sub, seed=rng)
            mask, _ = sweep_cut(sub, fv, balance_fraction=0.25)
            if not (0 < mask.sum() < sub.n):
                mask = np.zeros(sub.n, dtype=bool)
                mask[: sub.n // 2] = True
        left = split_group(back[np.nonzero(mask)[0]])
        right = split_group(back[np.nonzero(~mask)[0]])
        return asm.add_internal([left, right])

    def build(level: int, node: int) -> Optional[int]:
        if level == hier.h:
            members = np.nonzero(placement.leaf_of == node)[0]
            if members.size == 0:
                return None
            return split_group(members)
        kids = [
            child_id
            for child in hier.children(level, node)
            if (child_id := build(level + 1, int(child))) is not None
        ]
        if not kids:
            return None
        if len(kids) == 1:
            return kids[0]
        return asm.add_internal(kids)

    root = build(0, 0)
    if root is None:
        raise InvalidInputError("placement hosts no tasks")
    return asm.finish(root)


def solve_hgp_iterated(
    g: Graph,
    hierarchy,
    demands: Sequence[float],
    config=None,
    rounds: int = 2,
    telemetry=None,
):
    """Iterate the pipeline with placement-guided warm-started trees.

    Both the initial ensemble solve and every guided round fold into one
    collector, so the whole iteration emits one structured run report
    (guided trees appear as extra member records with
    ``method == "guided"``).

    Parameters
    ----------
    g, hierarchy, demands:
        The instance.
    config:
        Base :class:`repro.core.SolverConfig` (default constructed when
        ``None``).
    rounds:
        Guided re-solve rounds after the initial ensemble solve
        (0 = plain :func:`repro.core.solve_hgp`).
    telemetry:
        Shared :class:`repro.core.telemetry.Telemetry` collector
        (``None`` = a fresh ``Telemetry("guided")``, attached to the
        returned result and owned by this call, which persists its one
        report when ``REPRO_RUN_REPORT_DIR`` is set).

    Returns
    -------
    EngineResult
        Result whose cost is ≤ the plain pipeline's (the incumbent always
        stays a candidate); ``placement.meta['guided_rounds']`` records
        how many rounds actually improved.
    """
    from repro.core.config import SolverConfig
    from repro.core.engine import (
        fold_members,
        persist_report,
        run_pipeline,
        solve_member,
    )
    from repro.core.telemetry import Telemetry

    cfg = config if config is not None else SolverConfig()
    tel = telemetry if telemetry is not None else Telemetry("guided")
    d = np.asarray(demands, dtype=np.float64)
    result = run_pipeline(g, hierarchy, d, cfg, telemetry=tel)
    improved_rounds = 0
    for r in range(rounds):
        with tel.span("trees"):
            guided = placement_guided_tree(result.placement, seed=(cfg.seed or 0) + r)
            guided.method = "guided"
        outcome = solve_member(
            guided, hierarchy, d, cfg, result.grid, index=len(tel.members)
        )
        fold_members(tel, [outcome])
        placement = outcome.placement
        if cfg.refine and cfg.refine_passes > 0:
            from repro.baselines.local_search import refine_placement

            with tel.span("refine"):
                placement = refine_placement(
                    placement,
                    max_passes=cfg.refine_passes,
                    max_violation=max(1.0, placement.max_violation()),
                    allow_swaps=True,
                )
        result.tree_costs.append(placement.cost())
        result.dp_costs.append(outcome.dp_cost)
        if placement.cost() < result.cost:
            result.placement = placement.with_meta(
                solver="hgp_iterated", config=cfg.describe()
            )
            improved_rounds += 1
    result.placement = result.placement.with_meta(guided_rounds=improved_rounds)
    if telemetry is None:
        persist_report(result)
    return result
