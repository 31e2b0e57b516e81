"""Distance-weighted top-k aggregation (the paper's footnote 1, end to end).

Footnote 1 generalizes the SUM aggregate to
``F(u) = sum w(u, v) f(v)`` with ``w(u, v)`` e.g. the inverse of the
shortest distance between ``u`` and ``v``.  This module lifts that from a
per-node evaluation helper (:mod:`repro.aggregates.weighted`) to full
query algorithms:

* :func:`weighted_base_topk` — the naive scan, one distance-labeled BFS per
  node.
* :func:`weighted_backward_topk` — LONA-Backward adapted to weights.  The
  distribution phase pushes ``w(d) * f(u)`` to each node at distance ``d``
  (hop distance is symmetric on undirected graphs; directed graphs
  distribute over the reversed arcs).  Eq. 3 adapts because every weight is
  in [0, 1]: an undistributed ball member contributes at most
  ``rest_bound * w_max`` where ``w_max = max(w(1), ..., w(h))`` — for the
  monotone profiles of interest, ``w(1)``.

Weighted aggregation is defined for SUM (the footnote's form).  AVG under
weights has no canonical denominator and is deliberately not offered.

Both algorithms are pure-Python execution backends; ``spec.backend`` routes
the same query to the vectorized CSR implementations in
:mod:`repro.core.vectorized` (distance-labeled batched expansions) when
numpy is available.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

from repro.aggregates.functions import AggregateKind
from repro.aggregates.weighted import (
    DecayProfile,
    inverse_distance,
    precompute_weights,
)
from repro.core.backends import resolve_backend
from repro.core.backward import resolve_gamma
from repro.core.deadline import check_deadline
from repro.core.query import QuerySpec
from repro.core.results import QueryStats, TopKResult
from repro.core.topk import TopKAccumulator
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.neighborhood import NeighborhoodSizeIndex
from repro.graph.traversal import TraversalCounter, hop_ball_with_distances

__all__ = ["weighted_base_topk", "weighted_backward_topk"]


def check_weighted_spec(spec: QuerySpec) -> None:
    """Footnote 1 defines the weighted form for SUM only (every backend)."""
    if spec.aggregate is not AggregateKind.SUM:
        raise InvalidParameterError(
            "weighted aggregation is defined for SUM (footnote 1), not "
            f"{spec.aggregate.value}"
        )


def weighted_base_topk(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    profile: DecayProfile = inverse_distance,
) -> TopKResult:
    """Naive weighted scan: one distance-labeled BFS per node.

    Dispatches on ``spec.backend``.
    """
    check_weighted_spec(spec)
    concrete = resolve_backend(spec.backend)
    if concrete != "python":
        from repro.core.vectorized import base_topk_numpy

        return base_topk_numpy(
            graph,
            scores,
            spec,
            weights=precompute_weights(profile, spec.hops),
        )
    weights = precompute_weights(profile, spec.hops)
    start = time.perf_counter()
    counter = TraversalCounter()
    acc = TopKAccumulator(spec.k)
    evaluated = 0
    for u in graph.nodes():
        check_deadline()
        distances = hop_ball_with_distances(
            graph, u, spec.hops, include_self=spec.include_self, counter=counter
        )
        value = 0.0
        for v, d in distances.items():
            value += weights[d] * scores[v]
        evaluated += 1
        acc.offer(u, value)
    stats = QueryStats(
        algorithm="weighted-base",
        aggregate="sum",
        hops=spec.hops,
        k=spec.k,
        elapsed_sec=time.perf_counter() - start,
        nodes_evaluated=evaluated,
        edges_scanned=counter.edges_scanned,
        nodes_visited=counter.nodes_visited,
        balls_expanded=counter.balls_expanded,
    )
    return TopKResult(entries=acc.entries(), stats=stats)


def weighted_backward_topk(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    profile: DecayProfile = inverse_distance,
    *,
    gamma: Union[float, str] = "auto",
    distribution_fraction: float = 0.1,
    sizes: Optional[NeighborhoodSizeIndex] = None,
    ball_index: Optional[object] = None,
) -> TopKResult:
    """LONA-Backward with distance weights.

    Soundness of the adapted Eq. 3: an undistributed ball member ``w`` of
    ``v`` contributes ``weight(dist(v, w)) * f(w) <= w_max * rest_bound``,
    so ``PS(v) + w_max * rest_bound * unknown(v) + f(v)·[v undistributed]``
    dominates the true weighted sum (the self term has weight
    ``w(0) <= 1``; using ``f(v)`` unweighted keeps the bound sound).

    Dispatches on ``spec.backend``; ``ball_index`` optionally supplies the
    session's :class:`~repro.graph.csr.CSRBallIndex`, whose hop-labelled
    balls verification reads (ignored by the Python backend).
    """
    check_weighted_spec(spec)
    concrete = resolve_backend(spec.backend)
    if concrete != "python":
        from repro.core.vectorized import NumpyKernels, weighted_backward_topk_numpy

        return weighted_backward_topk_numpy(
            graph,
            scores,
            spec,
            profile,
            gamma=gamma,
            distribution_fraction=distribution_fraction,
            sizes=sizes,
            kernels=NumpyKernels(ball_index),
        )
    weights = precompute_weights(profile, spec.hops)
    w_max = max(weights[1:], default=0.0)

    build_sec = 0.0
    if sizes is None:
        build_start = time.perf_counter()
        sizes = NeighborhoodSizeIndex.estimated(
            graph, spec.hops, include_self=spec.include_self
        )
        build_sec = time.perf_counter() - build_start

    start = time.perf_counter()
    counter = TraversalCounter()
    n = graph.num_nodes
    stats = QueryStats(
        algorithm="weighted-backward",
        aggregate="sum",
        hops=spec.hops,
        k=spec.k,
        index_build_sec=build_sec,
    )

    # Phase 1: weighted partial distribution, descending score order.
    nonzero = sorted(
        (u for u in range(n) if scores[u] > 0.0),
        key=lambda u: (-scores[u], u),
    )
    ordered_scores = [scores[u] for u in nonzero]
    effective_gamma = resolve_gamma(
        gamma, ordered_scores, distribution_fraction=distribution_fraction
    )
    cut = 0
    while cut < len(nonzero) and ordered_scores[cut] >= effective_gamma:
        cut += 1
    distributed = nonzero[:cut]
    rest_bound = ordered_scores[cut] if cut < len(nonzero) else 0.0

    dist_graph = graph.reversed() if graph.directed else graph
    partial = [0.0] * n
    covered = [0] * n
    self_distributed = bytearray(n)
    for u in distributed:
        check_deadline()
        fu = scores[u]
        distances = hop_ball_with_distances(
            dist_graph, u, spec.hops, include_self=spec.include_self, counter=counter
        )
        for v, d in distances.items():
            partial[v] += weights[d] * fu
            covered[v] += 1
        stats.distribution_pushes += len(distances)
        if spec.include_self:
            self_distributed[u] = 1

    # Phase 2: adapted Eq. 3 bounds.
    candidates: List[Tuple[float, int]] = []
    rest_term = w_max * rest_bound
    for v in range(n):
        if self_distributed[v] or not spec.include_self:
            unknown = sizes.upper(v) - covered[v]
            extra = 0.0
        else:
            unknown = sizes.upper(v) - covered[v] - 1
            extra = weights[0] * scores[v]
        bound = partial[v] + rest_term * max(unknown, 0) + extra
        candidates.append((bound, v))
        stats.bound_evaluations += 1
    candidates.sort(key=lambda item: (-item[0], item[1]))

    # Phase 3: TA-style verification.  rest_bound == 0 means every non-zero
    # score was distributed with its exact weight: bounds are exact values.
    exact_shortcut = rest_bound == 0.0
    acc = TopKAccumulator(spec.k)
    offered = 0
    for bound, v in candidates:
        check_deadline()
        if acc.is_full and bound <= acc.threshold:
            stats.early_terminated = True
            break
        if exact_shortcut:
            value = partial[v]
            if not self_distributed[v] and spec.include_self:
                value += weights[0] * scores[v]
        else:
            distances = hop_ball_with_distances(
                graph, v, spec.hops, include_self=spec.include_self, counter=counter
            )
            value = 0.0
            for w, d in distances.items():
                value += weights[d] * scores[w]
            stats.nodes_evaluated += 1
            stats.candidates_verified += 1
        acc.offer(v, value)
        offered += 1

    stats.pruned_nodes = n - offered
    stats.elapsed_sec = time.perf_counter() - start
    stats.edges_scanned = counter.edges_scanned
    stats.nodes_visited = counter.nodes_visited
    stats.balls_expanded = counter.balls_expanded
    stats.extra["gamma"] = effective_gamma
    stats.extra["distributed_nodes"] = float(len(distributed))
    stats.extra["rest_bound"] = rest_bound
    stats.extra["exact_shortcut"] = float(exact_shortcut)
    return TopKResult(entries=acc.entries(), stats=stats)
