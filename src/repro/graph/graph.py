"""In-memory adjacency-list graph store.

The paper assumes memory-resident networks ("We assume memory-resident large
networks, as having them on disk would not be practical in terms of graph
traversal", Sec. V).  This module provides that substrate: a compact,
integer-indexed adjacency structure with optional edge weights, supporting
both undirected and directed graphs.

Design notes
------------
* Nodes are dense integers ``0 .. n-1``.  External string/int labels are
  supported through an optional label table; all algorithm code works on the
  dense ids, which keeps the hot loops allocation-free.
* Adjacency is ``list[list[int]]``.  For the graph sizes this pure-Python
  reproduction targets (10^4 - 10^6 edges) this is faster to traverse from
  Python than numpy arrays, while :mod:`repro.graph.csr` offers a CSR export
  for vectorized consumers.
* Construction goes through :class:`GraphBuilder` (or the convenience
  classmethods) which validates input once; the resulting :class:`Graph` is
  immutable from the public API's point of view, so indexes built against it
  (differential index, neighborhood sizes) can never silently go stale.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EdgeNotFoundError, GraphBuildError, NodeNotFoundError

__all__ = ["Graph", "GraphBuilder"]

Edge = Tuple[int, int]
WeightedEdge = Tuple[int, int, float]

#: Serialises the first :meth:`Graph.csr` / :meth:`Graph.rev_csr` build, so
#: concurrent first readers convert a graph once.  One lock for the module
#: (not a slot per graph) keeps graphs copyable and picklable.
_CSR_BUILD_LOCK = threading.Lock()


class Graph:
    """A memory-resident graph with dense integer node ids.

    Instances should be created via :class:`GraphBuilder`,
    :meth:`Graph.from_edges`, or the generators in
    :mod:`repro.graph.generators`; the constructor is considered internal.

    Parameters
    ----------
    adjacency:
        ``adjacency[u]`` is the list of out-neighbors of ``u``.  For
        undirected graphs each edge appears in both endpoint lists.
    directed:
        Whether edges are one-way.
    weights:
        Optional parallel structure to ``adjacency`` holding per-edge weights.
        ``weights[u][i]`` is the weight of the edge to ``adjacency[u][i]``.
    labels:
        Optional external labels, ``labels[u]`` being the label of node ``u``.
    name:
        Optional human-readable dataset name (used in reports).
    """

    __slots__ = (
        "_adj",
        "_weights",
        "_directed",
        "_labels",
        "_label_to_id",
        "_num_edges",
        "_csr",
        "_rev_csr",
        "name",
    )

    def __init__(
        self,
        adjacency: List[List[int]],
        *,
        directed: bool = False,
        weights: Optional[List[List[float]]] = None,
        labels: Optional[Sequence[Hashable]] = None,
        name: str = "",
    ) -> None:
        self._adj = adjacency
        self._directed = directed
        self._weights = weights
        self.name = name
        if labels is not None:
            if len(labels) != len(adjacency):
                raise GraphBuildError(
                    f"labels has {len(labels)} entries for {len(adjacency)} nodes"
                )
            self._labels: Optional[List[Hashable]] = list(labels)
            self._label_to_id: Optional[Dict[Hashable, int]] = {
                label: i for i, label in enumerate(self._labels)
            }
            if len(self._label_to_id) != len(self._labels):
                raise GraphBuildError("node labels must be unique")
        else:
            self._labels = None
            self._label_to_id = None
        arc_count = sum(len(nbrs) for nbrs in adjacency)
        self._num_edges = arc_count if directed else arc_count // 2
        self._csr = None
        self._rev_csr = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        *,
        num_nodes: Optional[int] = None,
        directed: bool = False,
        name: str = "",
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` integer pairs.

        Self-loops and duplicate edges are rejected (the paper's neighborhood
        semantics are over simple graphs).  ``num_nodes`` may be given to
        include isolated trailing nodes.
        """
        builder = GraphBuilder(directed=directed, name=name)
        for u, v in edges:
            builder.add_edge(u, v)
        if num_nodes is not None:
            builder.ensure_node(num_nodes - 1)
        return builder.build()

    @classmethod
    def from_weighted_edges(
        cls,
        edges: Iterable[Tuple[int, int, float]],
        *,
        num_nodes: Optional[int] = None,
        directed: bool = False,
        name: str = "",
    ) -> "Graph":
        """Build a weighted graph from ``(u, v, weight)`` triples."""
        builder = GraphBuilder(directed=directed, weighted=True, name=name)
        for u, v, w in edges:
            builder.add_edge(u, v, weight=w)
        if num_nodes is not None:
            builder.ensure_node(num_nodes - 1)
        return builder.build()

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges (undirected edges counted once)."""
        return self._num_edges

    @property
    def directed(self) -> bool:
        """Whether the graph is directed."""
        return self._directed

    @property
    def weighted(self) -> bool:
        """Whether per-edge weights are stored."""
        return self._weights is not None

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "DiGraph" if self._directed else "Graph"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<repro.{kind}{label} nodes={self.num_nodes} edges={self.num_edges}>"
        )

    def nodes(self) -> range:
        """All node ids as a range (cheap, no allocation)."""
        return range(len(self._adj))

    def neighbors(self, u: int) -> Sequence[int]:
        """Out-neighbors of ``u`` (all neighbors for undirected graphs).

        The returned list is the live internal list; callers must not mutate
        it.  This avoids per-call copies in BFS hot loops.
        """
        self._check_node(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        """Out-degree of ``u`` (degree, for undirected graphs)."""
        self._check_node(u)
        return len(self._adj[u])

    def edges(self) -> Iterator[Edge]:
        """Iterate edges.  Undirected edges are yielded once, as ``u <= v``."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if self._directed or u <= v:
                    yield (u, v)

    def arcs(self) -> Iterator[Edge]:
        """Iterate directed arcs (both directions for undirected edges)."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``u -> v`` exists (edge, for undirected graphs)."""
        self._check_node(u)
        self._check_node(v)
        nbrs = self._adj[u]
        # Linear scan: adjacency lists in our workloads are short; building
        # per-node sets would double memory for a cold-path predicate.
        return v in nbrs

    def edge_weight(self, u: int, v: int, default: Optional[float] = None) -> float:
        """Weight of the arc ``u -> v``.

        Unweighted graphs report ``1.0`` for every existing edge.  A missing
        edge raises :class:`EdgeNotFoundError` unless ``default`` is given.
        """
        self._check_node(u)
        self._check_node(v)
        try:
            i = self._adj[u].index(v)
        except ValueError:
            if default is not None:
                return default
            raise EdgeNotFoundError(u, v) from None
        if self._weights is None:
            return 1.0
        return self._weights[u][i]

    def neighbor_weights(self, u: int) -> Sequence[float]:
        """Weights parallel to :meth:`neighbors`; all ``1.0`` if unweighted."""
        self._check_node(u)
        if self._weights is None:
            return [1.0] * len(self._adj[u])
        return self._weights[u]

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    @property
    def has_labels(self) -> bool:
        """Whether external node labels are attached."""
        return self._labels is not None

    def label_of(self, node: int) -> Hashable:
        """External label of ``node`` (the id itself when unlabeled)."""
        self._check_node(node)
        if self._labels is None:
            return node
        return self._labels[node]

    def id_of(self, label: Hashable) -> int:
        """Dense id of an external ``label``."""
        if self._label_to_id is None:
            if isinstance(label, int) and 0 <= label < len(self._adj):
                return label
            raise NodeNotFoundError(label)
        try:
            return self._label_to_id[label]
        except KeyError:
            raise NodeNotFoundError(label) from None

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def reversed(self) -> "Graph":
        """The graph with every arc reversed (self, if undirected)."""
        if not self._directed:
            return self
        radj: List[List[int]] = [[] for _ in self._adj]
        rweights: Optional[List[List[float]]]
        rweights = [[] for _ in self._adj] if self._weights is not None else None
        for u, nbrs in enumerate(self._adj):
            for i, v in enumerate(nbrs):
                radj[v].append(u)
                if rweights is not None:
                    assert self._weights is not None
                    rweights[v].append(self._weights[u][i])
        return Graph(
            radj,
            directed=True,
            weights=rweights,
            labels=self._labels,
            name=self.name,
        )

    def csr(self):
        """The numpy :class:`~repro.graph.csr.CSRGraph` view (numpy required).

        The graph owns its flat arrays: built by
        :func:`~repro.graph.csr.to_csr` on first request, at most once per
        immutable graph (a :class:`~repro.dynamic.graph.DynamicGraph`
        patches them on every mutation instead), and handed to every
        vectorized consumer.  Treat the arrays as read-only.
        """
        if self._csr is None:
            with _CSR_BUILD_LOCK:
                if self._csr is None:
                    from repro.graph.csr import to_csr

                    self._csr = to_csr(self, use_numpy=True)
        return self._csr

    def rev_csr(self):
        """The numpy CSR view of the reversed graph (``None`` if undirected,
        whose reversal is itself); same ownership rule as :meth:`csr`."""
        if not self._directed:
            return None
        if self._rev_csr is None:
            with _CSR_BUILD_LOCK:
                if self._rev_csr is None:
                    from repro.graph.csr import to_csr

                    self._rev_csr = to_csr(self.reversed(), use_numpy=True)
        return self._rev_csr

    def as_undirected(self) -> "Graph":
        """An undirected copy (direction dropped, parallel edges merged)."""
        if not self._directed:
            return self
        seen = [set() for _ in self._adj]  # type: List[set]
        adj: List[List[int]] = [[] for _ in self._adj]
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u == v:
                    continue
                if v not in seen[u]:
                    seen[u].add(v)
                    seen[v].add(u)
                    adj[u].append(v)
                    adj[v].append(u)
        return Graph(adj, directed=False, labels=self._labels, name=self.name)

    def subgraph(self, nodes: Iterable[int]) -> Tuple["Graph", List[int]]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph (with dense re-numbered ids) and the list mapping
        new ids back to original ids.
        """
        keep = sorted(set(nodes))
        for node in keep:
            self._check_node(node)
        remap = {old: new for new, old in enumerate(keep)}
        adj: List[List[int]] = [[] for _ in keep]
        weights: Optional[List[List[float]]]
        weights = [[] for _ in keep] if self._weights is not None else None
        for new_u, old_u in enumerate(keep):
            for i, old_v in enumerate(self._adj[old_u]):
                new_v = remap.get(old_v)
                if new_v is None:
                    continue
                adj[new_u].append(new_v)
                if weights is not None:
                    assert self._weights is not None
                    weights[new_u].append(self._weights[old_u][i])
        labels = [self.label_of(old) for old in keep] if self.has_labels else None
        sub = Graph(
            adj,
            directed=self._directed,
            weights=weights,
            labels=labels,
            name=self.name,
        )
        return sub, keep

    def adjacency_copy(self) -> List[List[int]]:
        """A deep copy of the adjacency structure (for external mutation)."""
        return [list(nbrs) for nbrs in self._adj]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_node(self, u: int) -> None:
        if not (0 <= u < len(self._adj)):
            raise NodeNotFoundError(u)


class GraphBuilder:
    """Incremental, validating builder for :class:`Graph`.

    The builder owns all mutation: duplicate-edge and self-loop rejection,
    automatic node-id growth, and optional label interning.  ``build()``
    freezes the result into an immutable :class:`Graph`.

    Examples
    --------
    >>> b = GraphBuilder()
    >>> b.add_edge(0, 1)
    >>> b.add_edge(1, 2)
    >>> g = b.build()
    >>> g.num_nodes, g.num_edges
    (3, 2)
    """

    def __init__(
        self,
        *,
        directed: bool = False,
        weighted: bool = False,
        allow_duplicates: bool = False,
        name: str = "",
    ) -> None:
        self._directed = directed
        self._weighted = weighted
        self._allow_duplicates = allow_duplicates
        self._name = name
        self._adj: List[List[int]] = []
        self._weights: List[List[float]] = []
        self._edge_set: set = set()
        self._labels: List[Hashable] = []
        self._label_to_id: Dict[Hashable, int] = {}
        self._interning = False
        self._built = False

    @property
    def num_nodes(self) -> int:
        """Nodes added so far."""
        return len(self._adj)

    def ensure_node(self, node: int) -> None:
        """Grow the node table so ``node`` exists (ids are dense)."""
        if node < 0:
            raise GraphBuildError(f"node ids must be non-negative, got {node}")
        while len(self._adj) <= node:
            self._adj.append([])
            if self._weighted:
                self._weights.append([])

    def intern(self, label: Hashable) -> int:
        """Map an external label to a dense id, allocating on first use."""
        self._interning = True
        node = self._label_to_id.get(label)
        if node is None:
            node = len(self._labels)
            self._label_to_id[label] = node
            self._labels.append(label)
            self.ensure_node(node)
        return node

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add the edge ``u - v`` (arc ``u -> v`` if directed)."""
        if self._built:
            raise GraphBuildError("builder already built; create a new builder")
        if u == v:
            raise GraphBuildError(f"self-loop on node {u} is not allowed")
        if u < 0 or v < 0:
            raise GraphBuildError(f"node ids must be non-negative, got ({u}, {v})")
        key = (u, v) if self._directed else (min(u, v), max(u, v))
        if key in self._edge_set:
            if self._allow_duplicates:
                return
            raise GraphBuildError(f"duplicate edge ({u}, {v})")
        self._edge_set.add(key)
        self.ensure_node(max(u, v))
        self._adj[u].append(v)
        if self._weighted:
            self._weights[u].append(weight)
        if not self._directed:
            self._adj[v].append(u)
            if self._weighted:
                self._weights[v].append(weight)

    def add_labeled_edge(self, ulabel: Hashable, vlabel: Hashable, weight: float = 1.0) -> None:
        """Add an edge between two externally-labeled nodes."""
        self.add_edge(self.intern(ulabel), self.intern(vlabel), weight=weight)

    def build(self) -> Graph:
        """Freeze into an immutable :class:`Graph`."""
        if self._built:
            raise GraphBuildError("builder already built; create a new builder")
        self._built = True
        labels: Optional[List[Hashable]] = self._labels if self._interning else None
        return Graph(
            self._adj,
            directed=self._directed,
            weights=self._weights if self._weighted else None,
            labels=labels,
            name=self._name,
        )
