"""Mutable graph for dynamic-network workloads.

The paper's motivating intrusion scenario is explicitly dynamic: "the
intrusion packets could formulate a large, dynamic intrusion network"
(Sec. I).  :class:`DynamicGraph` extends the immutable :class:`Graph` with
edge/node mutation and a version counter, so downstream artifacts (the
maintained aggregate view in :mod:`repro.dynamic.maintenance`) can detect
staleness and repair themselves incrementally.

All traversal and algorithm code operates on the :class:`Graph` interface,
so a :class:`DynamicGraph` can be queried directly at any point in its
mutation history.

Like every :class:`Graph` it *owns its flat arrays*: :meth:`Graph.csr` (and,
when directed, :meth:`Graph.rev_csr`) builds the numpy CSR once, on first
request; from then on every mutation here patches it — one ``indices``
insert or delete at the slot ``list.append`` / ``list.remove`` used, one
``indptr`` suffix shift (:func:`repro.graph.csr.patch_csr`) — so the view
after any mutation sequence is array-equal to a fresh ``to_csr(graph,
use_numpy=True)``, arc order included, at the cost of an ``O(arcs)`` memcpy
instead of an interpreted pass over every adjacency list.  A patch always
lands in new arrays: a reader or ball index holding the previous
:class:`~repro.graph.csr.CSRGraph` keeps a consistent snapshot.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.errors import EdgeNotFoundError, GraphBuildError
from repro.graph.csr import append_csr_node, patch_csr
from repro.graph.graph import Graph

__all__ = ["DynamicGraph"]


class DynamicGraph(Graph):
    """A :class:`Graph` that supports edge and node mutation.

    Every successful mutation bumps :attr:`version`; consumers cache
    against it.  Duplicate edges and self-loops are rejected exactly as in
    :class:`GraphBuilder`, keeping the simple-graph invariant that all
    algorithms assume.  Membership is :meth:`Graph.has_edge`'s scan of one
    adjacency list — the list an edge write walks anyway — so the adjacency
    and the patched CSR are the only edge stores to keep in step.
    """

    __slots__ = ("version",)

    def __init__(
        self,
        adjacency: Optional[List[List[int]]] = None,
        *,
        directed: bool = False,
        name: str = "",
    ) -> None:
        super().__init__(adjacency or [], directed=directed, name=name)
        self.version = 0
        for u, nbrs in enumerate(self._adj):
            if u in nbrs:
                raise GraphBuildError(f"self-loop on node {u}")
            if len(set(nbrs)) != len(nbrs):
                raise GraphBuildError("duplicate edges in initial adjacency")

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "DynamicGraph":
        """A mutable deep copy of an existing graph (weights dropped)."""
        return cls(
            graph.adjacency_copy(), directed=graph.directed, name=graph.name
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        *,
        num_nodes: Optional[int] = None,
        directed: bool = False,
        name: str = "",
    ) -> "DynamicGraph":
        """Build a mutable graph from edges (mirrors ``Graph.from_edges``)."""
        base = Graph.from_edges(
            edges, num_nodes=num_nodes, directed=directed, name=name
        )
        return cls.from_graph(base)

    # ------------------------------------------------------------------
    def add_node(self) -> int:
        """Append a new isolated node; returns its id."""
        self._adj.append([])
        if self._csr is not None:
            self._csr = append_csr_node(self._csr)
        if self._rev_csr is not None:
            self._rev_csr = append_csr_node(self._rev_csr)
        self.version += 1
        return len(self._adj) - 1

    def _arcs(self, u: int, v: int) -> List[Tuple[int, int]]:
        """The stored arcs of edge ``(u, v)``, in ascending row order."""
        return [(u, v)] if self._directed else sorted(((u, v), (v, u)))

    def add_edge(self, u: int, v: int) -> None:
        """Insert the edge ``u - v`` (arc ``u -> v`` if directed)."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphBuildError(f"self-loop on node {u} is not allowed")
        if self.has_edge(u, v):
            raise GraphBuildError(f"edge ({u}, {v}) already present")
        rows, heads = zip(*self._arcs(u, v))
        for row, head in zip(rows, heads):
            self._adj[row].append(head)
        if self._csr is not None:
            # ``list.append``: each arc goes to the end of its row's slice.
            ends = self._csr.indptr[1:]
            self._csr = patch_csr(
                self._csr, rows, [int(ends[row]) for row in rows], heads
            )
        if self._rev_csr is not None:
            self._rev_csr = patch_csr(
                self._rev_csr, [v], [self._rev_slot(v, u)], [u]
            )
        self._num_edges += 1
        self.version += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the edge ``u - v`` (arc ``u -> v`` if directed)."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        rows, heads = zip(*self._arcs(u, v))
        # ``index`` + ``del`` is ``list.remove`` with the position kept: it
        # is the arc's offset inside its row's CSR slice.
        offsets = [self._adj[row].index(head) for row, head in zip(rows, heads)]
        for row, offset in zip(rows, offsets):
            del self._adj[row][offset]
        if self._csr is not None:
            starts = self._csr.indptr
            self._csr = patch_csr(
                self._csr,
                rows,
                [int(starts[row]) + offset for row, offset in zip(rows, offsets)],
            )
        if self._rev_csr is not None:
            self._rev_csr = patch_csr(self._rev_csr, [v], [self._rev_slot(v, u)])
        self._num_edges -= 1
        self.version += 1

    def _rev_slot(self, row: int, source: int) -> int:
        """Where ``source`` sits (or belongs) in ``row``'s reverse slice.

        ``Graph.reversed`` walks the sources in id order, so every reverse
        slice is ascending and the slot is a binary search away.
        """
        assert self._rev_csr is not None
        lo = int(self._rev_csr.indptr[row])
        hi = int(self._rev_csr.indptr[row + 1])
        return lo + int(self._rev_csr.indices[lo:hi].searchsorted(source))

    # ------------------------------------------------------------------
    def snapshot(self) -> Graph:
        """An immutable deep copy at the current version."""
        return Graph(
            self.adjacency_copy(), directed=self._directed, name=self.name
        )
