"""The hierarchy tree ``H`` of the HGP problem (paper Section 1).

``H`` is a rooted tree of height ``h`` that is *regular at each level*:
every node at level ``j`` (root = level 0) has exactly ``DEG(j)``
children.  Its ``k = Π_j DEG(j)`` leaves are processors of capacity 1
(configurable), and each level ``j`` carries a *cost multiplier*
``cm(j)``, non-increasing in ``j``: an edge of ``G`` whose endpoints land
in leaves with lowest common ancestor at level ``j`` costs
``cm(j) · w(e)``.

Indexing scheme
---------------
Nodes at level ``j`` are numbered ``0 .. count(j) − 1`` where
``count(j) = Π_{j' < j} DEG(j')``.  Node ``(j, i)`` has children
``(j+1, i·DEG(j) + c)`` for ``c < DEG(j)``.  A leaf id ``l`` therefore
decomposes into mixed-radix digits — its child-index path from the root —
and the LCA level of two leaves is the length of their common digit
prefix.  All per-edge LCA computations are vectorised over numpy arrays
of leaf ids (the hot path of Eq. (1) evaluation).
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence, Tuple

import numpy as np

from repro.errors import InvalidInputError

__all__ = ["Hierarchy", "LeafTable", "LEAF_TABLE_MAX_BYTES"]

#: Largest leaf-by-leaf table :class:`LeafTable` builds: 16 bytes per
#: leaf pair (a float64 cost and an int64 level), so k <= 1024.  Above
#: it, rows come from :meth:`Hierarchy.lca_level` per lookup.
LEAF_TABLE_MAX_BYTES = 16 << 20


class Hierarchy:
    """Immutable regular hierarchy tree with per-level cost multipliers.

    Parameters
    ----------
    degrees:
        ``[DEG(0), …, DEG(h−1)]`` — children per node at each level; the
        height is ``h = len(degrees)``.
    cost_multipliers:
        ``[cm(0), …, cm(h)]`` — ``h + 1`` non-increasing, non-negative,
        finite values.  ``cm(h)`` is the cost of co-located endpoints
        (usually 0; Lemma 1 reduces the general case to ``cm(h) = 0``).
    leaf_capacity:
        Capacity of every leaf, finite and positive (paper normalises
        to 1).

    Examples
    --------
    A 2-socket, 4-cores-per-socket server where cross-socket traffic costs
    10, cross-core-same-socket traffic costs 3, and co-located traffic is
    free::

        H = Hierarchy(degrees=[2, 4], cost_multipliers=[10.0, 3.0, 0.0])
    """

    __slots__ = ("degrees", "cm", "leaf_capacity", "h", "k", "_suffix_prod")

    def __init__(
        self,
        degrees: Sequence[int],
        cost_multipliers: Sequence[float],
        leaf_capacity: float = 1.0,
    ):
        degrees = list(int(d) for d in degrees)
        cm = [float(c) for c in cost_multipliers]
        if not degrees:
            raise InvalidInputError("hierarchy needs height >= 1 (non-empty degrees)")
        if any(d < 1 for d in degrees):
            raise InvalidInputError(f"all degrees must be >= 1, got {degrees}")
        if len(cm) != len(degrees) + 1:
            raise InvalidInputError(
                f"need h+1 = {len(degrees) + 1} cost multipliers, got {len(cm)}"
            )
        if not all(math.isfinite(c) for c in cm):
            raise InvalidInputError(f"cost multipliers must be finite, got {cm}")
        if any(c < 0 for c in cm):
            raise InvalidInputError(f"cost multipliers must be >= 0, got {cm}")
        if any(cm[i] < cm[i + 1] for i in range(len(cm) - 1)):
            raise InvalidInputError(
                f"cost multipliers must be non-increasing, got {cm}"
            )
        if not 0 < leaf_capacity < math.inf:
            raise InvalidInputError(
                f"leaf capacity must be finite and > 0, got {leaf_capacity}"
            )
        self.degrees: Tuple[int, ...] = tuple(degrees)
        self.cm: Tuple[float, ...] = tuple(cm)
        self.leaf_capacity = float(leaf_capacity)
        self.h = len(degrees)
        k = 1
        for d in degrees:
            k *= d
        self.k = k
        # _suffix_prod[j] = Π_{j' >= j} DEG(j') = number of leaves under a
        # level-j node; _suffix_prod[h] = 1.
        sp = [1] * (self.h + 1)
        for j in range(self.h - 1, -1, -1):
            sp[j] = sp[j + 1] * degrees[j]
        self._suffix_prod = tuple(sp)

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------

    def count(self, level: int) -> int:
        """Number of nodes at ``level`` (level 0 = root, level h = leaves)."""
        self._check_level(level)
        return self.k // self._suffix_prod[level]

    def capacity(self, level: int) -> float:
        """``CP(level)``: total leaf capacity under one level-``level`` node."""
        self._check_level(level)
        return self._suffix_prod[level] * self.leaf_capacity

    def leaves_under(self, level: int, node: int) -> np.ndarray:
        """Leaf ids in the subtree of node ``(level, node)``."""
        self._check_node(level, node)
        width = self._suffix_prod[level]
        return np.arange(node * width, (node + 1) * width, dtype=np.int64)

    def ancestor(self, leaf: int | np.ndarray, level: int) -> np.ndarray | int:
        """Index of the level-``level`` ancestor of ``leaf`` (vectorised)."""
        self._check_level(level)
        width = self._suffix_prod[level]
        result = np.asarray(leaf, dtype=np.int64) // width
        return result if result.ndim else int(result)

    def children(self, level: int, node: int) -> np.ndarray:
        """Indices of the children (at ``level + 1``) of node ``(level, node)``."""
        self._check_node(level, node)
        if level >= self.h:
            raise InvalidInputError("leaves have no children")
        d = self.degrees[level]
        return np.arange(node * d, (node + 1) * d, dtype=np.int64)

    def parent(self, level: int, node: int) -> int:
        """Index of the parent (at ``level − 1``) of node ``(level, node)``."""
        self._check_node(level, node)
        if level <= 0:
            raise InvalidInputError("the root has no parent")
        return node // self.degrees[level - 1]

    def lca_level(self, a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray | int:
        """Level of the lowest common ancestor of two leaves (vectorised).

        Equal leaves have LCA level ``h`` (they share the leaf itself), so
        co-located edges cost ``cm(h)``.
        """
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a_arr, b_arr).shape, dtype=np.int64)
        # Deepest level at which the ancestors coincide, scanning bottom-up.
        for level in range(self.h, 0, -1):
            width = self._suffix_prod[level]
            same = (a_arr // width) == (b_arr // width)
            out = np.where(same & (out == 0), level, out)
        # Leaves under different root children keep 0 (the root).
        result = out
        return result if result.ndim else int(result)

    def pair_cost_multiplier(
        self, a: np.ndarray | int, b: np.ndarray | int
    ) -> np.ndarray | float:
        """``cm(LCA(a, b))`` for leaf arrays (the Eq. (1) kernel)."""
        levels = np.asarray(self.lca_level(a, b))
        cm = np.asarray(self.cm)
        result = cm[levels]
        return result if result.ndim else float(result)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------

    def normalized(self) -> Tuple["Hierarchy", float]:
        """Shift multipliers so ``cm(h) = 0`` (Lemma 1).

        Returns the normalised hierarchy and the offset ``cm(h)``; for any
        placement, ``cost_general = cost_normalized + offset · W`` where
        ``W`` is the total edge weight of ``G``.
        """
        offset = self.cm[-1]
        if offset == 0:
            return self, 0.0
        cm = tuple(c - offset for c in self.cm)
        return (
            Hierarchy(self.degrees, cm, leaf_capacity=self.leaf_capacity),
            offset,
        )

    def flat(self) -> "Hierarchy":
        """The ``h = 1`` flattening with the same leaves and ``cm(0)``.

        This is the hierarchy a *k-BGP* solver sees: all leaves equidistant.
        """
        return Hierarchy([self.k], [self.cm[0], self.cm[-1]], self.leaf_capacity)

    # ------------------------------------------------------------------

    def digest(self) -> str:
        """Stable content hash of the hierarchy (32-char blake2b hex).

        Hashes the level degrees, cost multipliers and leaf capacity —
        the full identity of ``H``.  Used by the incremental-solve layer
        as part of subtree-table cache keys (hierarchies are immutable,
        so the value is computed on demand without memoisation).
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(np.asarray(self.degrees, dtype=np.int64).tobytes())
        h.update(np.asarray(self.cm, dtype=np.float64).tobytes())
        h.update(np.float64(self.leaf_capacity).tobytes())
        return h.hexdigest()

    @property
    def total_capacity(self) -> float:
        """Aggregate capacity ``k · leaf_capacity``."""
        return self.k * self.leaf_capacity

    def _check_level(self, level: int) -> None:
        if not (0 <= level <= self.h):
            raise InvalidInputError(f"level must be in [0, {self.h}], got {level}")

    def _check_node(self, level: int, node: int) -> None:
        self._check_level(level)
        if not (0 <= node < self.count(level)):
            raise InvalidInputError(
                f"node {node} out of range at level {level} (count {self.count(level)})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Hierarchy(degrees={list(self.degrees)}, cm={list(self.cm)}, "
            f"leaf_capacity={self.leaf_capacity})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return (
            self.degrees == other.degrees
            and self.cm == other.cm
            and self.leaf_capacity == other.leaf_capacity
        )

    def __hash__(self) -> int:
        return hash((self.degrees, self.cm, self.leaf_capacity))


class LeafTable:
    """Eq. (1) lookups between leaves, built once per local-search call.

    ``ancestors[j][leaf]`` is ``hierarchy.ancestor(leaf, j)`` as python
    ints, for ``j = 0 … h``.  :meth:`costs` and :meth:`levels` read rows
    of a ``k × k`` table of ``cm(LCA)`` and LCA levels, built with one
    :meth:`Hierarchy.lca_level` call.  Above
    :data:`LEAF_TABLE_MAX_BYTES` no table is built and each lookup calls
    :meth:`Hierarchy.lca_level` on just the leaves asked for.  Either
    way the values equal ``cm[lca_level(leaf, leaves)]`` element for
    element, so a ``np.dot`` over them sums the same floats in the same
    order.  Nothing is cached on the hierarchy, which is pickled into
    pool payloads.
    """

    __slots__ = ("ancestors", "_hier", "_cm", "_cost", "_lca")

    def __init__(self, hierarchy: Hierarchy):
        k = hierarchy.k
        leaves = np.arange(k, dtype=np.int64)
        self._hier = hierarchy
        self._cm = np.asarray(hierarchy.cm)
        self.ancestors = [hierarchy.ancestor(leaves, j).tolist() for j in range(hierarchy.h + 1)]
        self._cost = self._lca = None
        if 16 * k * k <= LEAF_TABLE_MAX_BYTES:
            self._lca = hierarchy.lca_level(leaves[:, None], leaves[None, :])
            self._cost = self._cm[self._lca]

    def costs(self, leaf: int, leaves: np.ndarray) -> np.ndarray:
        """``cm(LCA(leaf, l))`` for each ``l`` in ``leaves`` (contiguous float64)."""
        if self._cost is None:
            return self._cm[np.asarray(self._hier.lca_level(leaf, leaves))]
        return self._cost[leaf, leaves]

    def levels(self, leaf: int, leaves: np.ndarray | int) -> np.ndarray | int:
        """``LCA(leaf, leaves)`` levels, as :meth:`Hierarchy.lca_level`."""
        if self._lca is None:
            return self._hier.lca_level(leaf, leaves)
        return self._lca[leaf, leaves]
