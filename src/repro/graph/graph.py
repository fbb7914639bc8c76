"""CSR-backed undirected weighted graph kernel.

This is the substrate every other subsystem builds on: the task graph
``G`` of the HGP instance, the quotient graphs used by the multilevel
baselines, and the flow networks behind Gomory–Hu trees all use this one
representation.

Design notes (per the hpc-parallel guides):

* Storage is *structure-of-arrays*: a canonical undirected edge list
  (``edges_u``, ``edges_v``, ``edges_w`` with ``u < v``) plus a CSR
  adjacency (``indptr``, ``indices``, ``adj_weights``, ``adj_edge_ids``)
  built once at construction.  Hot operations — cut weights, degree sums,
  boundary scans — are single vectorised numpy passes over contiguous
  arrays; no per-edge Python objects exist anywhere.
* Graphs are **immutable** after construction.  Mutation patterns in the
  algorithms (coarsening, contraction, subgraphs) all *produce new
  graphs*, which keeps invariants trivially true and makes the structures
  safe to share across ensemble members.
* Parallel edges given to the constructor are merged by summing weights;
  self-loops are rejected (they are meaningless for partitioning costs).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.errors import InvalidInputError

__all__ = ["Graph"]


class Graph:
    """Immutable undirected weighted graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v, w)`` triples with ``u != v``, ``w > 0``.
        Parallel edges are merged by summing their weights.

    Attributes
    ----------
    n : int
        Vertex count.
    m : int
        Edge count after merging parallel edges.
    edges_u, edges_v : numpy.ndarray of int64, shape (m,)
        Canonical endpoints with ``edges_u < edges_v``, sorted
        lexicographically.
    edges_w : numpy.ndarray of float64, shape (m,)
        Edge weights, aligned with ``edges_u`` / ``edges_v``.
    indptr, indices : numpy.ndarray
        CSR adjacency over both edge directions.
    adj_weights : numpy.ndarray of float64
        Weight of each CSR entry.
    adj_edge_ids : numpy.ndarray of int64
        Canonical edge id of each CSR entry (both directions of edge ``e``
        map to ``e``).
    """

    __slots__ = (
        "n",
        "m",
        "edges_u",
        "edges_v",
        "edges_w",
        "indptr",
        "indices",
        "adj_weights",
        "adj_edge_ids",
        "_weighted_degrees",
        "_digest",
    )

    def __init__(self, n: int, edges: Iterable[Tuple[int, int, float]]):
        if n < 0:
            raise InvalidInputError(f"vertex count must be >= 0, got {n}")
        self.n = int(n)

        triples = list(edges)
        if triples:
            eu = np.asarray([t[0] for t in triples], dtype=np.int64)
            ev = np.asarray([t[1] for t in triples], dtype=np.int64)
            ew = np.asarray([t[2] for t in triples], dtype=np.float64)
        else:
            eu = np.empty(0, dtype=np.int64)
            ev = np.empty(0, dtype=np.int64)
            ew = np.empty(0, dtype=np.float64)

        if eu.size:
            if eu.min() < 0 or ev.min() < 0 or eu.max() >= n or ev.max() >= n:
                raise InvalidInputError("edge endpoint out of range [0, n)")
            if np.any(eu == ev):
                raise InvalidInputError("self-loops are not allowed")
            if np.any(ew <= 0) or not np.all(np.isfinite(ew)):
                raise InvalidInputError("edge weights must be finite and > 0")
            # Canonicalise so u < v, then merge parallel edges.
            lo = np.minimum(eu, ev)
            hi = np.maximum(eu, ev)
            key = lo * n + hi
            order = np.argsort(key, kind="stable")
            key, lo, hi, ew = key[order], lo[order], hi[order], ew[order]
            uniq, start = np.unique(key, return_index=True)
            merged_w = np.add.reduceat(ew, start)
            self.edges_u = lo[start]
            self.edges_v = hi[start]
            self.edges_w = merged_w
        else:
            self.edges_u, self.edges_v, self.edges_w = eu, ev, ew

        self.m = int(self.edges_u.size)
        self._build_csr()
        self._weighted_degrees: np.ndarray | None = None
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_csr(self) -> None:
        """Build the bidirectional CSR adjacency from the canonical edges."""
        heads = np.concatenate([self.edges_u, self.edges_v])
        tails = np.concatenate([self.edges_v, self.edges_u])
        ws = np.concatenate([self.edges_w, self.edges_w])
        eids = np.concatenate(
            [np.arange(self.m, dtype=np.int64), np.arange(self.m, dtype=np.int64)]
        )
        order = np.argsort(heads, kind="stable")
        heads, tails, ws, eids = heads[order], tails[order], ws[order], eids[order]
        counts = np.bincount(heads, minlength=self.n)
        self.indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        self.indices = tails
        self.adj_weights = ws
        self.adj_edge_ids = eids

    @classmethod
    def from_edge_arrays(
        cls, n: int, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray
    ) -> "Graph":
        """Construct from parallel numpy arrays (zero-copy-ish fast path)."""
        g = cls.__new__(cls)
        if n < 0:
            raise InvalidInputError(f"vertex count must be >= 0, got {n}")
        g.n = int(n)
        eu = np.asarray(eu, dtype=np.int64)
        ev = np.asarray(ev, dtype=np.int64)
        ew = np.asarray(ew, dtype=np.float64)
        if eu.shape != ev.shape or eu.shape != ew.shape:
            raise InvalidInputError("edge arrays must have equal shapes")
        if eu.size:
            if eu.min() < 0 or ev.min() < 0 or eu.max() >= n or ev.max() >= n:
                raise InvalidInputError("edge endpoint out of range [0, n)")
            if np.any(eu == ev):
                raise InvalidInputError("self-loops are not allowed")
            if np.any(ew <= 0) or not np.all(np.isfinite(ew)):
                raise InvalidInputError("edge weights must be finite and > 0")
            lo = np.minimum(eu, ev)
            hi = np.maximum(eu, ev)
            key = lo * n + hi
            order = np.argsort(key, kind="stable")
            key, lo, hi, ew = key[order], lo[order], hi[order], ew[order]
            uniq, start = np.unique(key, return_index=True)
            g.edges_u = lo[start]
            g.edges_v = hi[start]
            g.edges_w = np.add.reduceat(ew, start)
        else:
            g.edges_u = np.empty(0, dtype=np.int64)
            g.edges_v = np.empty(0, dtype=np.int64)
            g.edges_w = np.empty(0, dtype=np.float64)
        g.m = int(g.edges_u.size)
        g._build_csr()
        g._weighted_degrees = None
        g._digest = None
        return g

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def digest(self) -> str:
        """Stable content hash of the graph (32-char blake2b hex).

        Hashes ``n`` plus the canonical edge arrays, so two graphs built
        independently from the same edge set (in any input order — the
        constructor canonicalises) share a digest.  Computed once and
        memoised; graphs are immutable so the value can never go stale.
        This is the graph's identity in :mod:`repro.cache` keys.
        """
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self.n.to_bytes(8, "little"))
            h.update(self.edges_u.tobytes())
            h.update(self.edges_v.tobytes())
            h.update(self.edges_w.tobytes())
            self._digest = h.hexdigest()
        return self._digest

    def neighbors(self, v: int) -> np.ndarray:
        """View of the neighbour ids of vertex ``v`` (no copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """View of the incident edge weights of vertex ``v``, aligned with
        :meth:`neighbors`."""
        return self.adj_weights[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Number of distinct neighbours of ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def weighted_degrees(self) -> np.ndarray:
        """Vector of weighted degrees (sum of incident edge weights)."""
        if self._weighted_degrees is None:
            d = np.zeros(self.n, dtype=np.float64)
            np.add.at(d, self.edges_u, self.edges_w)
            np.add.at(d, self.edges_v, self.edges_w)
            self._weighted_degrees = d
        return self._weighted_degrees

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self.edges_w.sum())

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}`` or ``0.0`` when absent."""
        nbrs = self.neighbors(u)
        hit = np.nonzero(nbrs == v)[0]
        if hit.size == 0:
            return 0.0
        return float(self.neighbor_weights(u)[hit[0]])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` exists."""
        return bool(np.any(self.neighbors(u) == v))

    def iter_edges(self) -> Iterable[Tuple[int, int, float]]:
        """Yield canonical ``(u, v, w)`` triples with ``u < v``."""
        for u, v, w in zip(self.edges_u, self.edges_v, self.edges_w):
            yield int(u), int(v), float(w)

    # ------------------------------------------------------------------
    # cuts and partitions (vectorised hot paths)
    # ------------------------------------------------------------------

    def cut_weight(self, side: np.ndarray | Sequence[int]) -> float:
        """Total weight of edges with exactly one endpoint in ``side``.

        Parameters
        ----------
        side:
            Either a boolean mask of length ``n`` or an iterable of vertex
            ids forming one side of the cut.
        """
        mask = self._as_mask(side)
        cross = mask[self.edges_u] != mask[self.edges_v]
        return float(self.edges_w[cross].sum())

    def partition_cut_weight(self, labels: np.ndarray) -> float:
        """Total weight of edges whose endpoints carry different labels.

        ``labels`` is an integer vector of length ``n``; this is the
        classic k-way edge-cut objective.
        """
        labels = np.asarray(labels)
        if labels.shape != (self.n,):
            raise InvalidInputError(
                f"labels must have shape ({self.n},), got {labels.shape}"
            )
        cross = labels[self.edges_u] != labels[self.edges_v]
        return float(self.edges_w[cross].sum())

    def boundary_edges(self, side: np.ndarray | Sequence[int]) -> np.ndarray:
        """Ids of canonical edges crossing the cut defined by ``side``."""
        mask = self._as_mask(side)
        return np.nonzero(mask[self.edges_u] != mask[self.edges_v])[0]

    def volume(self, side: np.ndarray | Sequence[int]) -> float:
        """Sum of weighted degrees of the vertices in ``side``."""
        mask = self._as_mask(side)
        return float(self.weighted_degrees[mask].sum())

    def conductance(self, side: np.ndarray | Sequence[int]) -> float:
        """Conductance of the cut ``(side, complement)``.

        ``cut / min(vol(S), vol(V−S))``; returns ``inf`` for trivial sides.
        """
        mask = self._as_mask(side)
        vol_s = self.volume(mask)
        vol_rest = 2.0 * self.total_weight - vol_s
        denom = min(vol_s, vol_rest)
        if denom <= 0:
            return float("inf")
        return self.cut_weight(mask) / denom

    def _as_mask(self, side: np.ndarray | Sequence[int]) -> np.ndarray:
        arr = np.asarray(side)
        if arr.dtype == bool:
            if arr.shape != (self.n,):
                raise InvalidInputError(
                    f"boolean mask must have shape ({self.n},), got {arr.shape}"
                )
            return arr
        mask = np.zeros(self.n, dtype=bool)
        if arr.size:
            if arr.min() < 0 or arr.max() >= self.n:
                raise InvalidInputError("vertex id out of range in side set")
            mask[arr.astype(np.int64)] = True
        return mask

    # ------------------------------------------------------------------
    # structural transforms (all return new graphs)
    # ------------------------------------------------------------------

    def reweighted(self, edges_w: np.ndarray) -> "Graph":
        """Same topology, new canonical edge weights (a new graph).

        ``edges_w`` is aligned with :attr:`edges_u` / :attr:`edges_v`.
        The structure arrays (``edges_u``, ``edges_v``, ``indptr``,
        ``indices``, ``adj_edge_ids``) are *shared* with ``self`` — safe
        because graphs are immutable — so a pure weight update costs one
        ``O(m)`` gather instead of a full CSR rebuild.  The memoised
        digest is reset: content addressing must see the new weights.
        """
        ew = np.asarray(edges_w, dtype=np.float64)
        if ew.shape != (self.m,):
            raise InvalidInputError(
                f"edges_w must have shape ({self.m},), got {ew.shape}"
            )
        if ew.size and (np.any(ew <= 0) or not np.all(np.isfinite(ew))):
            raise InvalidInputError("edge weights must be finite and > 0")
        g = Graph.__new__(Graph)
        g.n = self.n
        g.m = self.m
        g.edges_u = self.edges_u
        g.edges_v = self.edges_v
        g.edges_w = ew
        g.indptr = self.indptr
        g.indices = self.indices
        g.adj_weights = ew[self.adj_edge_ids]
        g.adj_edge_ids = self.adj_edge_ids
        g._weighted_degrees = None
        g._digest = None
        return g

    def subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        The canonical edges restricted to a vertex set have no parallels,
        self-loops or bad weights, so the subgraph's edge list is built
        directly — relabel, orient each edge ``(lo, hi)``, one stable sort
        — without the constructor's merge and validation.

        Returns
        -------
        (Graph, numpy.ndarray)
            The subgraph (vertices relabelled ``0..len-1`` in the order
            given) and the array mapping new ids back to original ids.
        """
        verts = np.asarray(list(vertices), dtype=np.int64)
        if verts.size != np.unique(verts).size:
            raise InvalidInputError("subgraph vertex list contains duplicates")
        n_sub = int(verts.size)
        new_id = np.full(self.n, -1, dtype=np.int64)
        new_id[verts] = np.arange(n_sub)
        a = new_id[self.edges_u]
        b = new_id[self.edges_v]
        keep = (a >= 0) & (b >= 0)
        a, b = a[keep], b[keep]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        order = np.argsort(lo * n_sub + hi, kind="stable")
        sub = Graph.__new__(Graph)
        sub.n = n_sub
        sub.edges_u = lo[order]
        sub.edges_v = hi[order]
        sub.edges_w = self.edges_w[keep][order]
        sub.m = int(order.size)
        sub._build_csr()
        sub._weighted_degrees = None
        sub._digest = None
        return sub, verts

    def contract(self, labels: np.ndarray) -> "Graph":
        """Quotient graph: merge every label class into a supervertex.

        ``labels`` must be a length-``n`` integer vector using ids
        ``0..L-1`` densely.  Edges inside a class vanish; parallel edges
        between classes merge by weight summation (performed by the
        constructor).
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (self.n,):
            raise InvalidInputError(
                f"labels must have shape ({self.n},), got {labels.shape}"
            )
        if labels.size and (labels.min() < 0):
            raise InvalidInputError("labels must be non-negative")
        n_super = int(labels.max()) + 1 if labels.size else 0
        lu = labels[self.edges_u]
        lv = labels[self.edges_v]
        keep = lu != lv
        return Graph.from_edge_arrays(n_super, lu[keep], lv[keep], self.edges_w[keep])

    def connected_components(self) -> Tuple[int, np.ndarray]:
        """Connected components via iterative union–find over edge arrays.

        Returns
        -------
        (int, numpy.ndarray)
            The number of components and a dense label vector.
        """
        parent = list(range(self.n))

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:  # path compression
                parent[x], x = root, parent[x]
            return root

        for u, v in zip(self.edges_u.tolist(), self.edges_v.tolist()):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        roots = np.array([find(i) for i in range(self.n)], dtype=np.int64)
        uniq, labels = np.unique(roots, return_inverse=True)
        return int(uniq.size), labels

    def is_connected(self) -> bool:
        """Whether the graph has at most one connected component."""
        if self.n <= 1:
            return True
        ncomp, _ = self.connected_components()
        return ncomp == 1

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------

    def to_networkx(self):
        """Export as :class:`networkx.Graph` with ``weight`` attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_weighted_edges_from(
            (int(u), int(v), float(w)) for u, v, w in self.iter_edges()
        )
        return g

    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Import from networkx; missing ``weight`` attributes default to 1.

        Node labels must be ``0..n-1`` integers (relabel first otherwise).
        """
        n = g.number_of_nodes()
        nodes = set(g.nodes())
        if nodes != set(range(n)):
            raise InvalidInputError(
                "networkx nodes must be 0..n-1 integers; use nx.convert_node_labels_to_integers first"
            )
        edges = [
            (u, v, float(data.get("weight", 1.0))) for u, v, data in g.edges(data=True)
        ]
        return cls(n, edges)

    def to_scipy_sparse(self):
        """Symmetric CSR adjacency matrix (scipy)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.adj_weights, self.indices, self.indptr), shape=(self.n, self.n)
        )

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m}, total_weight={self.total_weight:.4g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self.edges_u, other.edges_u))
            and bool(np.array_equal(self.edges_v, other.edges_v))
            and bool(np.allclose(self.edges_w, other.edges_w))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.edges_w.sum()))
