"""Placements: assignments ``p : V(G) → LEAVES(H)`` and their diagnostics.

A :class:`Placement` bundles the task graph, the hierarchy, the demand
vector and the leaf assignment, and knows how to audit itself: per-leaf
loads, the worst capacity-violation factor (the β of a bicriteria
guarantee), and the Eq. (1) communication cost (the α side).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy

__all__ = ["Placement", "eq1_cost"]


def eq1_cost(g: Graph, hierarchy: Hierarchy, leaf_of: np.ndarray) -> float:
    """Eq. (1) communication cost ``Σ_e cm(LCA(p(u), p(v))) · w(e)`` of a
    raw leaf labelling (no :class:`Placement` validation needed).

    Fully vectorised: one LCA-level pass over the canonical edge arrays,
    one fancy-indexed multiplier lookup, one dot product.  The one Eq. (1)
    evaluator: :meth:`Placement.cost` and the multilevel refiner (which
    scores intermediate coarse levels) both call it.
    """
    if g.m == 0:
        return 0.0
    mult = hierarchy.pair_cost_multiplier(leaf_of[g.edges_u], leaf_of[g.edges_v])
    return float(np.dot(np.asarray(mult, dtype=np.float64), g.edges_w))


@dataclass(frozen=True)
class Placement:
    """An assignment of every task vertex to a hierarchy leaf.

    Attributes
    ----------
    graph:
        The task graph ``G``.
    hierarchy:
        The hierarchy tree ``H``.
    demands:
        Per-vertex demand vector, shape ``(n,)``, entries in
        ``(0, leaf_capacity]``.
    leaf_of:
        Integer vector, shape ``(n,)``: the leaf id hosting each vertex.
    meta:
        Free-form provenance (solver name, parameters, timings).
    """

    graph: Graph
    hierarchy: Hierarchy
    demands: np.ndarray
    leaf_of: np.ndarray
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        demands = np.asarray(self.demands, dtype=np.float64)
        leaf_of = np.asarray(self.leaf_of, dtype=np.int64)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "leaf_of", leaf_of)
        n = self.graph.n
        if demands.shape != (n,):
            raise InvalidInputError(f"demands must have shape ({n},), got {demands.shape}")
        if leaf_of.shape != (n,):
            raise InvalidInputError(f"leaf_of must have shape ({n},), got {leaf_of.shape}")
        if n and (demands.min() <= 0 or not np.all(np.isfinite(demands))):
            raise InvalidInputError("demands must be finite and > 0")
        if n and (leaf_of.min() < 0 or leaf_of.max() >= self.hierarchy.k):
            raise InvalidInputError(
                f"leaf ids must lie in [0, {self.hierarchy.k}), got range "
                f"[{leaf_of.min()}, {leaf_of.max()}]"
            )

    # ------------------------------------------------------------------
    # cost (Eq. 1)
    # ------------------------------------------------------------------

    def cost(self) -> float:
        """Eq. (1) communication cost (see :func:`eq1_cost`)."""
        return eq1_cost(self.graph, self.hierarchy, self.leaf_of)

    def level_cut_costs(self) -> np.ndarray:
        """Cost decomposition by LCA level: entry ``j`` is the weight of
        edges whose endpoints meet at level ``j`` times ``cm(j)``.

        Summing the vector reproduces :meth:`cost`; the benchmark tables
        use it to show *where* each algorithm pays.
        """
        g, hier = self.graph, self.hierarchy
        out = np.zeros(hier.h + 1)
        if g.m == 0:
            return out
        levels = np.asarray(
            hier.lca_level(self.leaf_of[g.edges_u], self.leaf_of[g.edges_v])
        )
        cm = np.asarray(hier.cm)
        np.add.at(out, levels, cm[levels] * g.edges_w)
        return out

    # ------------------------------------------------------------------
    # load / feasibility diagnostics
    # ------------------------------------------------------------------

    def leaf_loads(self) -> np.ndarray:
        """Total demand assigned to each leaf, shape ``(k,)``."""
        loads = np.zeros(self.hierarchy.k)
        np.add.at(loads, self.leaf_of, self.demands)
        return loads

    def level_loads(self, level: int) -> np.ndarray:
        """Total demand under each level-``level`` H-node."""
        hier = self.hierarchy
        loads = np.zeros(hier.count(level))
        nodes = np.asarray(hier.ancestor(self.leaf_of, level))
        np.add.at(loads, nodes, self.demands)
        return loads

    def max_violation(self) -> float:
        """Worst load / capacity ratio over *all* hierarchy nodes.

        ``≤ 1`` means fully feasible; the paper's guarantee bounds this by
        ``(1 + ε)(1 + h)``.  Checking every level (not just leaves)
        matters because the Theorem 5 repair spreads violation across
        levels — level ``j`` is only guaranteed ``(1 + j)``.
        """
        worst = 0.0
        for level in range(self.hierarchy.h + 1):
            cap = self.hierarchy.capacity(level)
            loads = self.level_loads(level)
            if loads.size:
                worst = max(worst, float(loads.max()) / cap)
        return worst

    def level_violation(self, level: int) -> float:
        """Worst load / capacity ratio at one hierarchy level."""
        cap = self.hierarchy.capacity(level)
        loads = self.level_loads(level)
        return float(loads.max()) / cap if loads.size else 0.0

    def is_feasible(self, slack: float = 1e-9) -> bool:
        """Whether no hierarchy node is overloaded (up to ``slack``)."""
        return self.max_violation() <= 1.0 + slack

    # ------------------------------------------------------------------

    def with_meta(self, **meta: object) -> "Placement":
        """Copy with extra provenance merged into ``meta``."""
        merged = dict(self.meta)
        merged.update(meta)
        return Placement(self.graph, self.hierarchy, self.demands, self.leaf_of, merged)

    def summary(self) -> str:
        """One-line audit string used by examples and the bench harness."""
        return (
            f"cost={self.cost():.4f} max_violation={self.max_violation():.3f} "
            f"leaves_used={int(np.unique(self.leaf_of).size)}/{self.hierarchy.k}"
        )
