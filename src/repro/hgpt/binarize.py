"""Binarization of decomposition trees for the DP (paper Section 3).

The DP's merge step (Claim 1) combines exactly two children, so arbitrary
trees are first converted to binary form the way the paper prescribes: a
node with ``f > 2`` children is replaced by a balanced binary gadget of
``f − 1`` dummy nodes whose *internal* edges have infinite weight (they
may never be cut), while each original child keeps its own edge weight.

Unary chains are collapsed: a node with a single child spans the same
leaf set as the child, and by the ``w_T`` definition both edges carry the
same weight, so the chain is equivalent to its bottom edge.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import InvalidInputError
from repro.decomposition.tree import DecompositionTree

__all__ = ["BinaryTree", "binarize", "INF_WEIGHT"]

#: Sentinel weight of dummy (uncuttable) edges.
INF_WEIGHT = math.inf


@dataclass
class BinaryTree:
    """Flat-array binary tree consumed by :mod:`repro.hgpt.dp`.

    Attributes
    ----------
    left, right:
        Child node ids (−1 at leaves).
    up_weight:
        Weight of the edge to the parent (``INF_WEIGHT`` on dummy edges,
        0 at the root — the root edge does not exist).
    vertex:
        Graph vertex hosted at each leaf (−1 at internal nodes).
    demand:
        Quantized leaf demand (0 at internal nodes).
    root:
        Root node id.
    """

    left: np.ndarray
    right: np.ndarray
    up_weight: np.ndarray
    vertex: np.ndarray
    demand: np.ndarray
    root: int

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return int(self.left.size)

    def is_leaf(self, node: int) -> bool:
        """Whether ``node`` is a leaf."""
        return self.left[node] < 0

    def postorder(self) -> np.ndarray:
        """Node ids with children before parents (iterative, no recursion)."""
        return self.subtree_postorder(self.root)

    def subtree_postorder(self, root: int) -> np.ndarray:
        """Postorder of the subtree rooted at ``root`` (children first)."""
        order: List[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            if self.left[v] >= 0:
                stack.append(int(self.left[v]))
            if self.right[v] >= 0:
                stack.append(int(self.right[v]))
        return np.asarray(order[::-1], dtype=np.int64)

    def subtree_digests(self, leaf_material: Sequence[bytes]) -> List[bytes]:
        """Bottom-up BLAKE2b digest of every subtree (one per node).

        ``leaf_material[vertex]`` is the graph-content hash of each
        ``G``-vertex's induced CSR slice
        (:func:`repro.decomposition.tree.vertex_content_digests`).  A
        leaf digest binds the leaf's quantized demand to that material;
        an internal digest binds both child digests *with the child
        up-edge weights* (the only tree inputs the DP reads at a merge
        beyond the child tables themselves).  Two subtrees with equal
        digests therefore produce bit-identical DP tables under equal
        capacities/deltas/beam — the correctness contract of the
        ``subtree_tables`` cache tier.

        Digests are position-independent: node ids never enter, so the
        same subtree recurring at a different index (or in a rebuilt
        tree after churn elsewhere) still hits the memo.
        """
        digests: List[bytes] = [b""] * self.n_nodes
        for v in self.postorder():
            if self.left[v] < 0:
                h = hashlib.blake2b(digest_size=16)
                h.update(b"L")
                h.update(int(self.demand[v]).to_bytes(8, "little"))
                h.update(leaf_material[int(self.vertex[v])])
                digests[v] = h.digest()
            else:
                a, b = int(self.left[v]), int(self.right[v])
                h = hashlib.blake2b(digest_size=16)
                h.update(b"I")
                h.update(digests[a])
                h.update(np.float64(self.up_weight[a]).tobytes())
                h.update(digests[b])
                h.update(np.float64(self.up_weight[b]).tobytes())
                digests[v] = h.digest()
        return digests

    def validate(self) -> None:
        """Structural sanity: every internal node has two children, every
        leaf a vertex and positive demand."""
        seen = np.zeros(self.n_nodes, dtype=bool)
        for v in self.postorder():
            seen[v] = True
            leaf = self.left[v] < 0
            if leaf:
                if self.right[v] >= 0 or self.vertex[v] < 0 or self.demand[v] < 1:
                    raise InvalidInputError(f"malformed leaf {v}")
            else:
                if self.right[v] < 0 or self.vertex[v] >= 0:
                    raise InvalidInputError(f"malformed internal node {v}")
        if not seen.all():
            raise InvalidInputError("unreachable nodes present")


def binarize(tree: DecompositionTree, qdemands: np.ndarray) -> BinaryTree:
    """Convert a decomposition tree + quantized demands into a
    :class:`BinaryTree`.

    Parameters
    ----------
    tree:
        Decomposition tree over ``G``.
    qdemands:
        Quantized demand per ``G``-vertex (positive integers).

    Notes
    -----
    Implemented iteratively over the decomposition tree's post-order so
    arbitrarily deep trees cannot blow the Python recursion limit.
    """
    q = np.asarray(qdemands, dtype=np.int64)
    if q.shape != (tree.graph.n,):
        raise InvalidInputError(
            f"qdemands must have shape ({tree.graph.n},), got {q.shape}"
        )
    if q.size and q.min() < 1:
        raise InvalidInputError("quantized demands must be >= 1")

    left: List[int] = []
    right: List[int] = []
    up_w: List[float] = []
    vert: List[int] = []
    dem: List[int] = []

    def new_node(w: float) -> int:
        nid = len(left)
        left.append(-1)
        right.append(-1)
        up_w.append(w)
        vert.append(-1)
        dem.append(0)
        return nid

    # For every decomposition-tree node, the id of the binary node that
    # roots its (collapsed, binarized) subtree.
    bin_of = np.full(tree.n_nodes, -1, dtype=np.int64)
    for t_node in tree.postorder():
        w_up = float(tree.edge_weight[t_node]) if tree.parent[t_node] >= 0 else 0.0
        if tree.is_leaf(t_node):
            nid = new_node(w_up)
            v = int(tree.leaf_vertex[t_node])
            vert[nid] = v
            dem[nid] = int(q[v])
            bin_of[t_node] = nid
            continue
        kids = [int(bin_of[c]) for c in tree.children[t_node]]
        if len(kids) == 1:
            # Unary collapse: same leaf set below both edges => same weight;
            # reuse the child's binary node, adopting this node's up-weight
            # (they are equal by construction, asserted cheaply).
            bin_of[t_node] = kids[0]
            up_w[kids[0]] = w_up
            continue
        # Balanced pairwise reduction: dummy internals get INF up-edges
        # except the final gadget root, which carries the real up-weight.
        layer = kids
        while len(layer) > 1:
            nxt: List[int] = []
            for i in range(0, len(layer) - 1, 2):
                nid = new_node(INF_WEIGHT)
                left[nid] = layer[i]
                right[nid] = layer[i + 1]
                nxt.append(nid)
            if len(layer) % 2 == 1:
                nxt.append(layer[-1])
            layer = nxt
        top = layer[0]
        up_w[top] = w_up
        bin_of[t_node] = top

    root = int(bin_of[tree.root])
    up_w[root] = 0.0
    bt = BinaryTree(
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(up_w, dtype=np.float64),
        np.asarray(vert, dtype=np.int64),
        np.asarray(dem, dtype=np.int64),
        root,
    )
    return bt
