"""Multi-query processing: shared scans for heavy query workloads.

The paper's cost argument is about workloads, not single queries: "This
computational cost is not affordable in applications involving large-scale
networks and **heavy query workloads**" (Sec. II).  When many queries hit
the same graph — different relevance functions (one per product, per gene
set, per attack signature), different k, different aggregates — per-query
BFS is wasteful: the traversal is identical, only the scores differ.

:func:`batch_base_topk` amortizes it: one truncated BFS per node evaluates
*all* score vectors against the ball before moving on (the database
"shared scan" / multi-query optimization).  For ``q`` queries it does the
traversal work of one Base run plus ``q`` cheap accumulations, instead of
``q`` full runs.

Which members of a group join that scan is not decided here:
:func:`repro.core.executor.execute_batch` is the one place a route is chosen,
for one request or a list.  Queries over *sparse* vectors run as ordinary
LONA-Backward requests (each is cheaper alone than its share of any scan),
the dense remainder comes to :func:`batch_base_topk`; a group costs what its
members cost.  :meth:`repro.session.Network.batch` is the front door onto
that entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.aggregates.functions import AggregateKind, coerce_aggregate, fold_scores
from repro.core.backends import resolve_backend
from repro.core.results import QueryStats, TopKResult, combine_query_stats
from repro.core.topk import TopKAccumulator
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter, hop_ball
from repro.relevance.base import ScoreVector, folded_scores

__all__ = [
    "BatchQuery",
    "BatchResult",
    "batch_base_topk",
    "coalescible_request",
]

#: Algorithm-steering request fields whose *explicit* pin disqualifies a
#: request from scan coalescing (they must flow through the single-query
#: executor so resolve-then-reject validation still fires).
_COALESCE_KNOBS = frozenset(
    {"gamma", "distribution_fraction", "exact_sizes", "ordering", "seed"}
)


def coalescible_request(request, *, hops: int, include_self: bool, backend: str) -> bool:
    """Whether the serving scheduler may fold ``request`` into a shared scan.

    The shared scan answers plain density-routed queries (exactly the shapes
    :meth:`repro.session.Network.batch` accepts): a sum-convertible
    aggregate, no candidate filter, no pinned algorithm/backend/knob — any
    score name and any ``k``.  Everything else runs individually through the
    executor, which also re-raises the knob-validation errors a coalesced
    run would skip.
    """
    from repro.core.request import DEFAULT_SCORE, QueryRequest

    if not request.aggregate.sum_convertible:
        return False
    if request.pinned & _COALESCE_KNOBS:
        return False
    plain = request.replace(score=DEFAULT_SCORE, k=1, aggregate=AggregateKind.SUM)
    return plain == QueryRequest(
        k=1, hops=hops, include_self=include_self, backend=backend
    )


@dataclass(frozen=True)
class BatchQuery:
    """One query of a batch: a score vector plus (k, aggregate)."""

    scores: ScoreVector
    k: int
    aggregate: AggregateKind = AggregateKind.SUM

    def __post_init__(self) -> None:
        # Accept "sum"-style strings, like QuerySpec does.
        object.__setattr__(self, "aggregate", coerce_aggregate(self.aggregate))
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")


def normalize_batch(
    graph: Graph,
    queries: Sequence[Union[BatchQuery, Tuple[object, int], Tuple[object, int, object]]],
) -> List[BatchQuery]:
    """Coerce every entry to a validated :class:`BatchQuery` over ``graph``."""
    normalized: List[BatchQuery] = []
    for i, query in enumerate(queries):
        if isinstance(query, BatchQuery):
            entry = query
        else:
            try:
                scores, k = query[0], int(query[1])  # type: ignore[index]
                aggregate = coerce_aggregate(query[2]) if len(query) > 2 else AggregateKind.SUM  # type: ignore[arg-type,index]
            except (TypeError, IndexError):
                raise InvalidParameterError(
                    f"batch entry {i} must be a BatchQuery or "
                    "(scores, k[, aggregate]) tuple"
                ) from None
            vector = scores if isinstance(scores, ScoreVector) else ScoreVector(scores)  # type: ignore[arg-type]
            entry = BatchQuery(scores=vector, k=k, aggregate=aggregate)
        entry.scores.check_graph(graph)
        if not entry.aggregate.sum_convertible:
            raise InvalidParameterError(
                f"batch entry {i}: batch processing supports SUM/AVG/COUNT, "
                f"not {entry.aggregate.value}"
            )
        normalized.append(entry)
    return normalized


def batch_base_topk(
    graph: Graph,
    queries: Sequence[Union[BatchQuery, Tuple[object, int]]],
    *,
    hops: int = 2,
    include_self: bool = True,
    backend: str = "auto",
    ball_index: Optional[object] = None,
) -> List[TopKResult]:
    """Answer all ``queries`` with one shared scan.

    One BFS per node; each ball is folded into every query's accumulator
    before the next ball is expanded.  Results are returned in input order
    and match running each query through Base alone.  ``backend`` selects
    the execution backend: the numpy path expands node blocks with one
    multi-source BFS over the graph's own flat arrays (``graph.csr()``) and
    folds each query with a vectorized gather instead of a per-member
    Python loop; ``ball_index`` hands it the session's
    :class:`~repro.graph.csr.CSRBallIndex`, the copy single scans share.
    """
    batch = normalize_batch(graph, queries)
    if not batch:
        return []
    concrete = resolve_backend(backend)
    if concrete in ("parallel", "cluster"):
        # Sharded execution needs a session context (worker pool / socket
        # transport + shard exports live there); the standalone function
        # runs the same fused kernel in-process.  The executor dispatches
        # shards before it falls back to this function.
        concrete = "numpy"
    start = time.perf_counter()
    counter = TraversalCounter()
    accumulators = [TopKAccumulator(entry.k) for entry in batch]
    if concrete != "python":
        _shared_scan_numpy(
            graph, batch, accumulators, hops, include_self, counter, ball_index
        )
    else:
        _shared_scan_python(
            graph, batch, accumulators, hops, include_self, counter
        )

    elapsed = time.perf_counter() - start
    results: List[TopKResult] = []
    for i, entry in enumerate(batch):
        stats = QueryStats(
            algorithm="batch-base",
            aggregate=entry.aggregate.value,
            backend=concrete,
            hops=hops,
            k=entry.k,
            # Whole-batch wall clock and traversal work are attributed to
            # every member; `extra` carries the batch size so reports can
            # divide fairly.
            elapsed_sec=elapsed,
            nodes_evaluated=graph.num_nodes,
            edges_scanned=counter.edges_scanned,
            nodes_visited=counter.nodes_visited,
            balls_expanded=counter.balls_expanded,
        )
        stats.extra["batch_size"] = float(len(batch))
        results.append(TopKResult(entries=accumulators[i].entries(), stats=stats))
    return results


def _shared_scan_python(
    graph: Graph,
    batch: List[BatchQuery],
    accumulators: List[TopKAccumulator],
    hops: int,
    include_self: bool,
    counter: TraversalCounter,
) -> None:
    """Reference shared scan: one Python BFS per node, q accumulations."""
    # COUNT queries fold over the indicator transform of their vector.
    folded = [fold_scores(entry.aggregate, entry.scores) for entry in batch]
    for u in graph.nodes():
        ball = hop_ball(graph, u, hops, include_self=include_self, counter=counter)
        size = len(ball)
        for i, entry in enumerate(batch):
            scores = folded[i]
            total = 0.0
            for v in ball:
                total += scores[v]
            if entry.aggregate is AggregateKind.AVG:
                value = total / size if size else 0.0
            else:
                value = total
            accumulators[i].offer(u, value)


def _shared_scan_numpy(
    graph: Graph,
    batch: List[BatchQuery],
    accumulators: List[TopKAccumulator],
    hops: int,
    include_self: bool,
    counter: TraversalCounter,
    ball_index,
) -> None:
    """Fused vectorized shared scan: one expansion, all queries per block.

    Each node block is one ``kernels.fused_ball_values`` call over the
    node-major score matrix (one multi-source BFS, then
    *every* query's ball sums out of segmented reductions over cuts of the
    block, :meth:`repro.core.vectorized.NumpyKernels.fused_ball_values`) —
    the per-query work is one row of vectorized arithmetic, not a separate
    bincount pass.  Offers
    are threshold-gated per query (see
    :func:`repro.core.vectorized.offer_block`), so the Python-loop cost is
    proportional to plausible top-k entrants, not to ``q * n``.

    Not polled for deadlines: a coalesced scan answers callers with
    different deadlines (see :mod:`repro.core.deadline`).
    """
    import numpy as np

    from repro.core.vectorized import NumpyKernels, offer_block

    kernels = NumpyKernels(ball_index)

    csr = graph.csr()
    # Node-major: each vector's own array (COUNT folded) is one column.
    node_scores = np.stack(
        [folded_scores(np, e.scores, e.aggregate)[0] for e in batch], axis=1
    )
    n = graph.num_nodes
    block_size = kernels.block_size(None, n, int(csr.num_arcs))
    avg_rows = np.asarray(
        [entry.aggregate is AggregateKind.AVG for entry in batch], dtype=bool
    )
    for lo in range(0, n, block_size):
        centers = np.arange(lo, min(lo + block_size, n), dtype=np.int64)
        values = kernels.fused_ball_values(
            np, csr, centers, node_scores, avg_rows, hops, include_self, counter
        )
        for i, acc in enumerate(accumulators):
            offer_block(np, acc, centers, values[i])


class BatchResult:
    """An ordered collection of batch answers plus workload-level stats.

    Sequence of :class:`TopKResult` (input order), with a ``stats`` property
    that aggregates the per-query counters correctly: each query contributes
    its own work — shared-scan members contribute their ``1/batch_size``
    share so the shared traversal is counted exactly once, individually
    routed members contribute their full counters (see
    :func:`repro.core.results.combine_query_stats`).  Reporting one member's
    stats as "the batch's stats" (a previous reporting habit) either drops
    the peeled-off queries or multiplies the shared scan by the batch size.
    """

    __slots__ = ("_results", "_stats")

    def __init__(self, results: Sequence[TopKResult]) -> None:
        self._results: List[TopKResult] = list(results)
        self._stats: Optional[QueryStats] = None

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self):
        return iter(self._results)

    def __getitem__(self, index):
        return self._results[index]

    @property
    def results(self) -> List[TopKResult]:
        """The per-query results, input order (list copy)."""
        return list(self._results)

    @property
    def stats(self) -> QueryStats:
        """Workload-level stats: per-query counters summed, shared work once."""
        if self._stats is None:
            self._stats = combine_query_stats(r.stats for r in self._results)
        return self._stats
