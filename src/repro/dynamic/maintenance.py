"""Incremental maintenance of neighborhood aggregates under updates.

A materialized ``(F_sum(u), N(u))`` view (see
:mod:`repro.core.materialized`) answers queries in O(n log k) but dies with
any change.  This module keeps the view alive under the three update kinds
a dynamic network produces, repairing *locally* instead of rebuilding:

* **score update** ``f(x) := s`` — only nodes whose ball contains ``x`` are
  affected, i.e. the *reverse* h-hop ball of ``x``; their sums shift by
  exactly ``s - f_old(x)`` and their ball sizes do not change.  Pure
  arithmetic, one reverse-ball BFS.
* **edge insertion / deletion** ``(a, b)`` — a path that gains or loses
  the edge reaches an endpoint first, so only the balls of nodes within
  ``h - 1`` hops of ``a`` or ``b`` can change (on a directed graph, of the
  nodes reaching ``a``): that *reach* is re-evaluated exactly, its sums and
  sizes.  The edge never shortens a hop distance to an endpoint, so the
  reach is the same before and after the write; a session computes it once
  per write and hands the same set to its ball index and every view.

Each repair's cost is proportional to the perturbed region, not the graph —
the property that makes the monitoring scenario ("dynamic intrusion
network", Sec. I) workable.  The view checks itself against a version
counter and refuses to serve stale answers.

Two representations, one behaviour.  On a vectorized backend the view keeps
``F_sum`` and ``N`` in two numpy arrays: the affected set is re-evaluated
with the backend's block primitive (``ball_values(..., want_sizes=True)``,
the one Base scans with) over the graph-owned, already patched CSR
(:meth:`DynamicGraph.csr`), reverse balls and reaches come from
:func:`~repro.graph.csr.csr_hop_ball` / :func:`~repro.graph.csr.edge_write_reach`
over the graph-owned reverse CSR, and
``topk`` reads the first ``k`` ids of the descending value order, sorted no
further than that (:func:`~repro.core.vectorized.descending_prefixes`) — the
entries, and the lowest-id-wins ties, of offering every node in id order.
On the python backend (numpy absent, or asked for) it keeps two lists and
walks one ``hop_ball`` per affected node (the reach too, at ``h - 1``): the
dependency-free reference the other is tested against.
"""

from __future__ import annotations

import time
from typing import Any, List, Sequence, Set, Tuple, Union

from repro.aggregates.functions import AggregateKind, coerce_aggregate
from repro.core.backends import resolve_backend
from repro.core.query import QuerySpec
from repro.core.results import QueryStats, TopKResult
from repro.core.topk import TopKAccumulator, shared_entries
from repro.core.vectorized import NumpyKernels, descending_prefixes
from repro.dynamic.graph import DynamicGraph
from repro.errors import InvalidParameterError, RelevanceError
from repro.graph.csr import csr_hop_ball, edge_write_reach
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter, hop_ball
from repro.relevance.base import ScoreVector

__all__ = ["MaintainedAggregateView"]

#: A set of node ids: a ``set`` on the python backend, a sorted int64 array
#: on a vectorized one.  Callers only pass it back and take its ``len``.
NodeSet = Union[Set[int], Any]


class MaintainedAggregateView:
    """A live ``(F_sum, N)`` view over a :class:`DynamicGraph`.

    All mutations must flow through this object's ``add_edge`` /
    ``remove_edge`` / ``update_score`` so the view repairs in lockstep;
    mutating the graph directly is detected via the version counter and
    raises on the next query.

    ``backend`` picks the representation (module docstring) the way it does
    everywhere else: ``"auto"`` is vectorized when numpy is importable;
    values, sizes and ``topk`` entries are the same either way.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        scores: Sequence[float],
        *,
        hops: int = 2,
        include_self: bool = True,
        backend: str = "auto",
    ) -> None:
        # Validates length and the [0, 1] range (a session hands its vector).
        vector = scores if isinstance(scores, ScoreVector) else ScoreVector(scores)
        vector.check_graph(graph)
        self.graph = graph
        self.hops = hops
        self.include_self = include_self
        self.scores: List[float] = vector.values()
        self.counter = TraversalCounter()
        self.nodes_repaired = 0
        self.arithmetic_updates = 0
        self._backend = resolve_backend(backend)
        self._np = None
        if self._backend != "python":
            import numpy

            self._np = numpy
            # The block primitive gathers ``scores[members]``.  A copy: the
            # view writes score updates, a vector's own array is read-only.
            self._score_arr = vector.array().copy()
        # Python backend, directed graphs: the reversal, per graph version.
        self._reversed: Tuple[int, Graph] = (-1, graph)
        self._sums, self._sizes = self._evaluate(graph.nodes())
        self._version = graph.version

    # ------------------------------------------------------------------
    # Build / repair internals
    # ------------------------------------------------------------------
    def _evaluate(self, nodes: Any) -> Tuple[Any, Any]:
        """Exact ``(F_sum, N)`` of every node in ``nodes``, in their order."""
        np = self._np
        if np is None:
            sums: List[float] = []
            sizes: List[int] = []
            for u in nodes:
                ball = hop_ball(
                    self.graph,
                    u,
                    self.hops,
                    include_self=self.include_self,
                    counter=self.counter,
                )
                sums.append(sum(self.scores[v] for v in ball))
                sizes.append(len(ball))
            return sums, sizes
        centers = np.asarray(nodes, dtype=np.int64)
        csr = self.graph.csr()
        kernels = NumpyKernels()
        # The provider's scan profile, not a constant: the initial build is
        # a full scan and sets the process's peak memory.
        block = kernels.block_size(None, csr.num_nodes, int(csr.num_arcs))
        sums = np.empty(centers.size, dtype=np.float64)
        sizes = np.empty(centers.size, dtype=np.int64)
        for lo in range(0, int(centers.size), block):
            sums[lo : lo + block], sizes[lo : lo + block] = kernels.ball_values(
                np, csr, centers[lo : lo + block], self._score_arr,
                AggregateKind.SUM, self.hops, self.include_self, self.counter,
                want_sizes=True,
            )
        return sums, sizes

    def _reverse_graph(self) -> Graph:
        """Python backend: the graph balls are reversed on, per version."""
        if not self.graph.directed:
            return self.graph
        if self._reversed[0] != self.graph.version:
            self._reversed = (self.graph.version, self.graph.reversed())
        return self._reversed[1]

    def _reverse_ball(self, node: int) -> NodeSet:
        """Nodes whose h-hop ball contains ``node``."""
        if self._np is not None:
            # ``rev_csr()`` is None on an undirected graph: its own reversal.
            csr = self.graph.rev_csr() or self.graph.csr()
            return csr_hop_ball(
                csr, node, self.hops, include_self=self.include_self
            )
        return hop_ball(
            self._reverse_graph(),
            node,
            self.hops,
            include_self=self.include_self,
            counter=self.counter,
        )

    def _edge_reach(self, u: int, v: int) -> NodeSet:
        """Nodes whose h-hop ball an edge write ``(u, v)`` can change."""
        if self._np is not None:
            return edge_write_reach(
                self.graph.rev_csr() or self.graph.csr(), u, v, self.hops
            )
        reach: Set[int] = set()
        if self.hops > 0:
            for center in (u,) if self.graph.directed else (u, v):
                reach |= hop_ball(
                    self._reverse_graph(), center, self.hops - 1, counter=self.counter
                )
        return reach

    def _repair(self, affected: NodeSet) -> None:
        sums, sizes = self._evaluate(affected)
        if self._np is None:
            for u, total, size in zip(affected, sums, sizes):
                self._sums[u] = total
                self._sizes[u] = size
        else:
            self._sums[affected] = sums
            self._sizes[affected] = sizes
        self.nodes_repaired += len(affected)

    def _check_version(self) -> None:
        if self.graph.version != self._version:
            raise InvalidParameterError(
                "the underlying graph was mutated outside the view; "
                "mutations must go through the MaintainedAggregateView"
            )

    def check_in_sync(self) -> None:
        """Public staleness probe: raise if the graph moved past the view.

        Sessions holding several views call this *before* applying a
        mutation, so a view that already missed an outside mutation fails
        loudly instead of being repaired into a silently wrong state.
        """
        self._check_version()

    # ------------------------------------------------------------------
    # Update API
    # ------------------------------------------------------------------
    def update_score(self, node: int, new_score: float) -> int:
        """Set ``f(node)``; returns the number of affected view entries."""
        self._check_version()
        if not 0.0 <= new_score <= 1.0:
            raise RelevanceError(f"score must be in [0, 1], got {new_score}")
        delta = new_score - self.scores[node]
        if delta == 0.0:
            return 0
        self.scores[node] = new_score
        affected = self._reverse_ball(node)
        if self._np is None:
            for u in affected:
                self._sums[u] += delta
        else:
            self._score_arr[node] = new_score
            self._sums[affected] += delta
        self.arithmetic_updates += len(affected)
        return len(affected)

    def add_edge(self, u: int, v: int) -> int:
        """Insert an edge and repair; returns affected-node count."""
        self._check_version()
        self.graph.add_edge(u, v)
        return self.repair_after_insert(u, v)

    def remove_edge(self, u: int, v: int) -> int:
        """Delete an edge and repair; returns affected-node count."""
        self._check_version()
        # Before the write (the same set): the python reversal is cached.
        reach = self._edge_reach(u, v)
        self.graph.remove_edge(u, v)
        return self.repair_after_delete(u, v, reach)

    def repair_after_insert(self, u: int, v: int, reach: Any = None) -> int:
        """Repair for an edge ``(u, v)`` *already* written to the graph:
        re-evaluate the nodes within ``h - 1`` hops of an endpoint, the
        caller's ``reach`` (a session's :meth:`GraphContext.edge_write`) or
        the view's own.  A session with several views writes once and
        repairs each."""
        self._version = self.graph.version
        if reach is None:
            reach = self._edge_reach(u, v)
        elif self._np is None:
            reach = set(map(int, reach))  # a session's array
        self._repair(reach)
        return len(reach)

    #: A deletion changes the same balls: the reach is the same with or
    #: without the edge (module docstring).
    repair_after_delete = repair_after_insert

    def add_node(self) -> int:
        """Append an isolated node with score 0; returns its id."""
        self._check_version()
        node = self.graph.add_node()
        self._version = self.graph.version
        self.scores.append(0.0)
        size = 1 if self.include_self else 0
        if self._np is None:
            self._sums.append(0.0)
            self._sizes.append(size)
        else:
            append = self._np.append
            self._score_arr = append(self._score_arr, 0.0)
            self._sums = append(self._sums, 0.0)
            self._sizes = append(self._sizes, size)
        return node

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def value(self, node: int, kind: Union[str, AggregateKind] = "sum") -> float:
        """Current aggregate value of one node."""
        kind = _served(kind)
        total = float(self._sums[node])
        if kind is AggregateKind.SUM:
            return total
        size = int(self._sizes[node])
        return total / size if size else 0.0

    def topk(
        self, k: int, aggregate: Union[str, AggregateKind] = "sum"
    ) -> TopKResult:
        """Answer a top-k query from the live view."""
        self._check_version()
        kind = _served(aggregate)
        spec = QuerySpec(
            k=k, aggregate=kind, hops=self.hops, include_self=self.include_self
        )
        start = time.perf_counter()
        np = self._np
        if np is None:
            acc = TopKAccumulator(spec.k)
            for node in range(len(self._sums)):
                acc.offer(node, self.value(node, kind))
            entries = acc.entries()
        else:
            values = self._sums
            if kind is AggregateKind.AVG:
                values = np.divide(
                    values, self._sizes, out=np.zeros_like(values),
                    where=self._sizes > 0,
                )
            # Best value first, lowest id among equals: what offering every
            # node in id order leaves in the accumulator.
            best = next(descending_prefixes(np, values, spec.k))[: spec.k]
            entries = shared_entries(zip(best.tolist(), values[best].tolist()))
        stats = QueryStats(
            algorithm="maintained-view",
            aggregate=kind.value,
            hops=self.hops,
            k=k,
            elapsed_sec=time.perf_counter() - start,
        )
        stats.extra["nodes_repaired_total"] = float(self.nodes_repaired)
        stats.extra["arithmetic_updates_total"] = float(self.arithmetic_updates)
        return TopKResult(entries=entries, stats=stats)


def _served(kind: Union[str, AggregateKind]) -> AggregateKind:
    """``kind`` coerced, if the view can serve it (SUM and AVG)."""
    kind = coerce_aggregate(kind)
    if kind not in (AggregateKind.SUM, AggregateKind.AVG):
        raise InvalidParameterError(
            f"the maintained view serves SUM/AVG, not {kind.value}"
        )
    return kind
