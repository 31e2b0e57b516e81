"""Base: naive forward processing (the paper's baseline).

"A naive approach to answer top-k neighborhood aggregation queries is to
check each node in the network, find its h-hop neighbors, aggregate their
values together and then choose the k nodes with the highest aggregate
values." (Sec. III)

Exactly that — one truncated BFS per node, no pruning.  Base is the
correctness oracle for everything else and the baseline line in every figure.
It supports all aggregate kinds, including the non-sum-convertible MAX/MIN.

This module is the pure-Python execution backend; ``spec.backend`` routes
the same query to the vectorized CSR implementation in
:mod:`repro.core.vectorized` (which covers every aggregate kind, MAX/MIN
included, via segmented reductions) when numpy is available.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.aggregates.functions import AggregateKind, evaluate_scores, finalize_sum
from repro.core.backends import resolve_backend
from repro.core.deadline import check_deadline
from repro.core.query import QuerySpec
from repro.core.results import QueryStats, TopKResult
from repro.core.topk import TopKAccumulator
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter, hop_ball

__all__ = ["base_topk"]


def base_topk(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    *,
    node_order: Optional[Sequence[int]] = None,
    ball_index: Optional[object] = None,
) -> TopKResult:
    """Answer ``spec`` by exhaustive forward processing.

    Dispatches on ``spec.backend`` (``"auto"`` prefers the vectorized numpy
    implementation, falling back to this module's pure-Python loop when
    numpy is absent).  ``node_order`` optionally fixes the evaluation order
    (used by tests to exercise tie behavior); the answer's value multiset is
    order-independent.  ``ball_index`` optionally supplies the session's
    :class:`~repro.graph.csr.CSRBallIndex`, which the numpy scan fills and
    reads instead of re-expanding (matched on its ``(csr, hops,
    include_self)`` triple).
    """
    concrete = resolve_backend(spec.backend)
    if concrete != "python":
        from repro.core.vectorized import NumpyKernels, base_topk_numpy

        return base_topk_numpy(
            graph,
            scores,
            spec,
            node_order=node_order,
            kernels=NumpyKernels(ball_index),
        )
    start = time.perf_counter()
    counter = TraversalCounter()
    acc = TopKAccumulator(spec.k)
    kind = spec.aggregate
    order = node_order if node_order is not None else graph.nodes()
    evaluated = 0
    for u in order:
        check_deadline()
        ball = hop_ball(
            graph, u, spec.hops, include_self=spec.include_self, counter=counter
        )
        evaluated += 1
        if kind.sum_convertible:
            if kind is AggregateKind.COUNT:
                value = float(sum(1 for v in ball if scores[v] > 0.0))
            else:
                total = 0.0
                for v in ball:
                    total += scores[v]
                value = finalize_sum(kind, total, len(ball))
        else:
            value = evaluate_scores(kind, (scores[v] for v in ball))
        acc.offer(u, value)
    stats = QueryStats(
        algorithm="base",
        aggregate=kind.value,
        hops=spec.hops,
        k=spec.k,
        elapsed_sec=time.perf_counter() - start,
        nodes_evaluated=evaluated,
        edges_scanned=counter.edges_scanned,
        nodes_visited=counter.nodes_visited,
        balls_expanded=counter.balls_expanded,
    )
    return TopKResult(entries=acc.entries(), stats=stats)
