"""Recursive-splitting skeleton shared by cut-based tree builders.

A builder only supplies a *split function* mapping a connected subgraph to
one side of a 2-way cut; the skeleton handles everything else —
disconnected pieces become siblings (a zero-cost split), singletons become
leaves, degenerate splits fall back to a balanced random split so the
recursion always terminates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graph.graph import Graph
from repro.decomposition.tree import DecompositionTree, TreeAssembler
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["build_recursive_tree", "SplitFn"]

# A split function sees (connected subgraph, rng) and returns a boolean
# side mask over the subgraph's local vertex ids.
SplitFn = Callable[[Graph, np.random.Generator], np.ndarray]


def build_recursive_tree(
    g: Graph, split_fn: SplitFn, seed: SeedLike = None
) -> DecompositionTree:
    """Build a decomposition tree by recursively 2-splitting vertex sets.

    Parameters
    ----------
    g:
        The graph to decompose.
    split_fn:
        Maps a *connected* subgraph with ``n >= 2`` to a boolean side
        mask; a trivial (empty/full) mask triggers the random fallback.
    seed:
        RNG seed threaded through all splits.

    Returns
    -------
    DecompositionTree
        Tree whose internal nodes correspond to the recursive clusters.
    """
    rng = ensure_rng(seed)
    asm = TreeAssembler(g)

    def build(vertices: np.ndarray) -> int:
        if vertices.size == 1:
            return asm.add_leaf(int(vertices[0]))
        sub, back = g.subgraph(vertices)
        ncomp, labels = sub.connected_components()
        if ncomp > 1:
            kids = [
                build(back[np.nonzero(labels == c)[0]]) for c in range(ncomp)
            ]
            return asm.add_internal(kids)
        if vertices.size == 2:
            return asm.add_internal([build(vertices[:1]), build(vertices[1:])])
        mask = split_fn(sub, rng)
        n_side = int(mask.sum())
        if n_side == 0 or n_side == sub.n:
            # Degenerate split: random balanced fallback keeps termination.
            mask = np.zeros(sub.n, dtype=bool)
            mask[rng.permutation(sub.n)[: sub.n // 2]] = True
        left = build(back[np.nonzero(mask)[0]])
        right = build(back[np.nonzero(~mask)[0]])
        return asm.add_internal([left, right])

    root = build(np.arange(g.n, dtype=np.int64))
    return asm.finish(root)
