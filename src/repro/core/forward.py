"""LONA-Forward: pruning-based forward processing (Algorithm 1 + Sec. III).

The loop is the naive forward scan, plus pruning driven by the precomputed
differential index:

1. **Static pruning.**  Every node starts with the static bound
   ``N(v) - 1 + f(v)`` (all other ball members at the maximum score 1).
   Nodes whose static bound cannot beat the rising ``topklbound`` are
   skipped without evaluation — this is the ``N(v) - 1 + f(v)`` arm of
   Eq. 1, applied lazily when the queue reaches the node.
2. **Differential (neighbor) pruning** — the paper's ``pruneNodes``: after
   evaluating ``u`` exactly, every not-yet-evaluated neighbor ``v`` receives
   the Eq. 1 bound ``F_sum(u) + delta(v-u)``; bounds from multiple evaluated
   neighbors combine by running minimum ("the upper bound of F(v) is the
   minimum value of the bounds derived from v's friends").  Since
   ``delta >= 0``, the differential arm can only prune while
   ``F_sum(u) <= topklbound``, so the whole neighbor pass is skipped for
   high-value nodes — that gate is what keeps pruning overhead below the
   savings.

Pruning uses non-strict comparison (``bound <= threshold``), sound under the
accumulator's strictly-greater acceptance rule: a node whose value cannot
*exceed* the k-th best can never enter the top-k list.

The hot loop deliberately in-lines the bound arithmetic (no per-edge
function calls): at bench scale the Python call overhead would otherwise
exceed the BFS work being saved.  The formulas live in
:mod:`repro.core.bounds` where the property tests attack them; this module
repeats them in flat form and the equivalence is covered by the
algorithm-agreement tests.

This module is the pure-Python execution backend; ``spec.backend`` routes
the same query to the vectorized CSR implementation in
:mod:`repro.core.vectorized` when numpy is available.  The two backends
return entry-for-entry identical results (asserted by the parity suite).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.aggregates.functions import AggregateKind
from repro.core.backends import resolve_backend
from repro.core.deadline import check_deadline
from repro.core.ordering import make_order
from repro.core.query import QuerySpec
from repro.core.results import QueryStats, TopKResult
from repro.core.topk import TopKAccumulator
from repro.errors import InvalidParameterError
from repro.graph.diffindex import DifferentialIndex, _set_build
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter, hop_ball

__all__ = ["forward_topk"]


def forward_topk(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    *,
    diff_index: Optional[DifferentialIndex] = None,
    ordering: str = "ubound",
    seed: Optional[int] = None,
    ball_index: Optional[object] = None,
) -> TopKResult:
    """Answer ``spec`` with LONA-Forward.

    Dispatches on ``spec.backend`` (``"auto"`` prefers the vectorized numpy
    implementation, falling back to this module's pure-Python loop when
    numpy is absent).

    Parameters
    ----------
    diff_index:
        The precomputed differential index for ``(graph, spec.hops,
        spec.include_self)``.  When omitted it is built on the fly and the
        build time is reported in ``stats.index_build_sec`` (the paper
        treats this as an offline cost).
    ordering:
        Queue order strategy (see :mod:`repro.core.ordering`).
    seed:
        Only used by the ``"random"`` ordering.
    ball_index:
        Optional session-scoped :class:`~repro.graph.csr.CSRBallIndex` (see
        :func:`repro.core.base.base_topk`); it serves the blocks pruning
        leaves contiguous.
    """
    concrete = resolve_backend(spec.backend)
    if concrete != "python":
        from repro.core.vectorized import NumpyKernels, forward_topk_numpy

        return forward_topk_numpy(
            graph,
            scores,
            spec,
            diff_index=diff_index,
            ordering=ordering,
            seed=seed,
            kernels=NumpyKernels(ball_index),
        )
    kind = spec.aggregate
    if not kind.lona_supported:
        raise InvalidParameterError(
            f"LONA-Forward supports SUM/AVG/COUNT, not {kind.value}; "
            "use algorithm='base' for MAX/MIN"
        )
    if kind is AggregateKind.COUNT:
        # COUNT == SUM over the 0/1 indicator transform.
        scores = [1.0 if s > 0.0 else 0.0 for s in scores]
        kind = AggregateKind.SUM

    build_sec = 0.0
    if diff_index is None:
        build_start = time.perf_counter()
        diff_index = _set_build(graph, spec.hops, include_self=spec.include_self)
        build_sec = time.perf_counter() - build_start
    diff_index.check_compatible(graph, spec.hops, spec.include_self)
    sizes = diff_index.sizes

    start = time.perf_counter()
    counter = TraversalCounter()
    acc = TopKAccumulator(spec.k)
    n = graph.num_nodes
    is_avg = kind is AggregateKind.AVG
    hops = spec.hops
    include_self = spec.include_self
    adj = [graph.neighbors(u) for u in range(n)]

    # Static Eq. 1 arm, one pass: N(v) - 1 + f(v) for the closed ball, or
    # N_open(v) for the open ball (the center does not contribute there).
    if include_self:
        static_ub: List[float] = [
            max(sizes.value(v) - 1, 0) + scores[v] for v in range(n)
        ]
    else:
        static_ub = [float(sizes.value(v)) for v in range(n)]
    ubound_sum = list(static_ub)
    if is_avg:
        inv_size = [1.0 / max(sizes.value(v), 1) for v in range(n)]
    else:
        inv_size = []

    pruned = bytearray(n)
    evaluated = bytearray(n)

    stats = QueryStats(
        algorithm="forward",
        aggregate=spec.aggregate.value,
        hops=spec.hops,
        k=spec.k,
        index_build_sec=build_sec,
    )

    order = make_order(ordering, graph, scores, kind=kind, sizes=sizes, seed=seed)

    bound_evals = 0
    pruned_count = 0
    evaluated_count = 0
    for u in order:
        check_deadline()
        if evaluated[u] or pruned[u]:
            continue
        threshold = acc.threshold  # -inf until k nodes have been seen
        # Lazy check of the running-minimum bound (starts at the static
        # bound, tightened by any differential bounds received so far).
        bound_u = ubound_sum[u] * inv_size[u] if is_avg else ubound_sum[u]
        if bound_u <= threshold:
            pruned[u] = 1
            pruned_count += 1
            continue

        # Exact forward processing of u.
        ball = hop_ball(graph, u, hops, include_self=include_self, counter=counter)
        fsum_u = 0.0
        for w in ball:
            fsum_u += scores[w]
        evaluated[u] = 1
        evaluated_count += 1
        if is_avg:
            value = fsum_u / len(ball) if ball else 0.0
        else:
            value = fsum_u
        acc.offer(u, value)
        threshold = acc.threshold

        # pruneNodes(u, F(u), G, topklbound): the differential arm
        # F_sum(u) + delta(v-u) can only fall under the threshold when
        # F_sum(u) itself does (delta >= 0) — skip the pass otherwise.
        if fsum_u > threshold:
            continue
        row = diff_index.delta_row(u)
        nbrs = adj[u]
        for i in range(len(nbrs)):
            v = nbrs[i]
            if evaluated[v] or pruned[v]:
                continue
            bound = fsum_u + row[i]
            bound_evals += 1
            if bound < ubound_sum[v]:
                ubound_sum[v] = bound
            else:
                bound = ubound_sum[v]
            if (bound * inv_size[v] if is_avg else bound) <= threshold:
                pruned[v] = 1
                pruned_count += 1

    stats.nodes_evaluated = evaluated_count
    stats.pruned_nodes = pruned_count
    stats.bound_evaluations = bound_evals
    stats.elapsed_sec = time.perf_counter() - start
    stats.edges_scanned = counter.edges_scanned
    stats.nodes_visited = counter.nodes_visited
    stats.balls_expanded = counter.balls_expanded
    stats.extra["ordering"] = ordering
    return TopKResult(entries=acc.entries(), stats=stats)
