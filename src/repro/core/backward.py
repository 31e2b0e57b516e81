"""LONA-Backward: partial backward distribution + verified top-k (Sec. IV).

Three phases:

1. **Partial distribution.**  Nodes whose score reaches the threshold
   ``gamma`` distribute their score to every node of their h-hop ball, in
   descending score order ("we distribute nodes according to their scores in
   a descending order").  Each reached node ``v`` accumulates the partial
   sum ``PS(v)`` and coverage count ``l(v)``.  On directed graphs the
   distribution walks the *reversed* arcs, because ``u``'s score contributes
   to ``F(v)`` iff ``u`` is reachable from ``v`` — i.e. ``v`` is reachable
   from ``u`` along reversed arcs.

2. **Bounding.**  Every undistributed score is at most ``rest_bound`` — the
   highest score strictly below ``gamma`` (0 when everything non-zero was
   distributed, which is exactly the binary 0/1 case whose zeros Algorithm 2
   skips).  Eq. 3 then upper-bounds every node's aggregate; ball sizes come
   from an exact index when available or from index-free degree estimates
   (LONA-Backward is the paper's no-precomputation algorithm).

3. **Verification.**  Nodes are visited in descending upper-bound order and
   evaluated exactly ("performs a naive forward processing, where the
   unpromising nodes are discarded"); once the k-th best exact value reaches
   the next upper bound the scan stops — the classic threshold-algorithm
   termination.  When ``rest_bound == 0`` the bound *is* the exact value and
   verification needs no BFS at all (Algorithm 2's fast path).

This module is the pure-Python execution backend; ``spec.backend`` routes
the same query to the vectorized CSR implementation in
:mod:`repro.core.vectorized` when numpy is available.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

from repro.aggregates.functions import AggregateKind
from repro.core.backends import resolve_backend
from repro.core.bounds import avg_bound, backward_sum_bound
from repro.core.deadline import check_deadline
from repro.core.query import QuerySpec
from repro.core.results import QueryStats, TopKResult
from repro.core.topk import TopKAccumulator
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.neighborhood import NeighborhoodSizeIndex
from repro.graph.traversal import TraversalCounter, hop_ball

__all__ = ["backward_topk", "resolve_gamma"]


def resolve_gamma(
    gamma: Union[float, str],
    ordered_scores: Sequence[float],
    *,
    distribution_fraction: float = 0.1,
) -> float:
    """Turn a gamma policy into a concrete threshold.

    ``gamma`` may be a float (used as-is) or ``"auto"``: distribute at least
    ``distribution_fraction`` of the non-zero nodes — i.e. gamma becomes the
    score at that depth of the descending non-zero score list.  With binary
    scores every non-zero node scores 1.0, so auto-gamma is 1.0 and the
    whole non-zero set is distributed (Algorithm 2's zero-skipping scan).

    ``ordered_scores`` must be the non-zero scores in descending order.
    """
    if isinstance(gamma, str):
        if gamma != "auto":
            raise InvalidParameterError(
                f"gamma must be a float or 'auto', got {gamma!r}"
            )
        if not ordered_scores:
            return 1.0  # nothing to distribute either way
        if not 0.0 < distribution_fraction <= 1.0:
            raise InvalidParameterError(
                "distribution_fraction must be in (0, 1], got "
                f"{distribution_fraction}"
            )
        depth = max(1, round(distribution_fraction * len(ordered_scores)))
        return ordered_scores[min(depth, len(ordered_scores)) - 1]
    value = float(gamma)
    if value < 0.0:
        raise InvalidParameterError(f"gamma must be >= 0, got {value}")
    return value


def backward_topk(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    *,
    gamma: Union[float, str] = "auto",
    distribution_fraction: float = 0.1,
    sizes: Optional[NeighborhoodSizeIndex] = None,
    ball_index: Optional[object] = None,
    memo: Optional[object] = None,
) -> TopKResult:
    """Answer ``spec`` with LONA-Backward.

    Dispatches on ``spec.backend`` (``"auto"`` prefers the vectorized numpy
    implementation, falling back to this module's pure-Python loop when
    numpy is absent).

    Parameters
    ----------
    gamma:
        Distribution threshold: every node with ``f(u) >= gamma`` is
        distributed.  ``"auto"`` (default) picks the score at depth
        ``distribution_fraction`` of the descending non-zero score list.
    distribution_fraction:
        Only used by ``gamma="auto"``.
    sizes:
        Optional ``N(v)`` index.  When omitted, index-free degree-based
        estimates are used (upper bound for the SUM term, lower bound for
        the AVG denominator), keeping the algorithm precomputation-free as
        the paper advertises.
    ball_index:
        Optional session-scoped :class:`~repro.graph.csr.CSRBallIndex`
        that verification blocks are read through (matched on its ``(csr,
        hops, include_self)`` triple), so repeated queries re-expand
        nothing.  Ignored by the Python backend.
    memo:
        Optional session :class:`~repro.core.context.Phase1Memo` for this
        graph view: a repeated read of a vector reuses its phases 1-2 and
        pays only for verification.  Ignored by the Python backend.
    """
    concrete = resolve_backend(spec.backend)
    if concrete != "python":
        from repro.core.vectorized import NumpyKernels, backward_topk_numpy

        return backward_topk_numpy(
            graph,
            scores,
            spec,
            gamma=gamma,
            distribution_fraction=distribution_fraction,
            sizes=sizes,
            kernels=NumpyKernels(ball_index),
            memo=memo,
        )
    kind = spec.aggregate
    if not kind.lona_supported:
        raise InvalidParameterError(
            f"LONA-Backward supports SUM/AVG/COUNT, not {kind.value}; "
            "use algorithm='base' for MAX/MIN"
        )
    if kind is AggregateKind.COUNT:
        scores = [1.0 if s > 0.0 else 0.0 for s in scores]
        kind = AggregateKind.SUM
    is_avg = kind is AggregateKind.AVG

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
        algorithm="backward",
        aggregate=spec.aggregate.value,
        hops=spec.hops,
        k=spec.k,
        index_build_sec=build_sec,
    )

    # ------------------------------------------------------------------
    # Phase 1: partial distribution in descending score order.
    # ------------------------------------------------------------------
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
        ball = hop_ball(
            dist_graph, u, spec.hops, include_self=spec.include_self, counter=counter
        )
        for v in ball:
            partial[v] += fu
            covered[v] += 1
        stats.distribution_pushes += len(ball)
        if spec.include_self:
            self_distributed[u] = 1

    # ------------------------------------------------------------------
    # Phase 2: Eq. 3 upper bound for every node.
    # ------------------------------------------------------------------
    candidates: List[Tuple[float, int]] = []
    for v in range(n):
        # With the open-ball convention the center never contributes to its
        # own aggregate, which is the same accounting as "self already
        # handled" — no separate f(v) term.
        sum_bound = backward_sum_bound(
            partial[v],
            covered[v],
            sizes.upper(v),
            scores[v],
            rest_bound,
            self_distributed=bool(self_distributed[v]) or not spec.include_self,
        )
        bound = avg_bound(sum_bound, sizes.lower(v)) if is_avg else sum_bound
        candidates.append((bound, v))
        stats.bound_evaluations += 1
    candidates.sort(key=lambda item: (-item[0], item[1]))

    # ------------------------------------------------------------------
    # Phase 3: verification in descending bound order, TA-style stop.
    # ------------------------------------------------------------------
    # When nothing was left undistributed, PS(v) (+ f(v)) *is* F_sum(v):
    # no BFS needed for SUM; AVG still needs the exact ball size.
    exact_shortcut = rest_bound == 0.0 and (not is_avg or sizes.is_exact)
    acc = TopKAccumulator(spec.k)
    offered = 0
    for bound, v in candidates:
        check_deadline()
        if acc.is_full and bound <= acc.threshold:
            stats.early_terminated = True
            break
        if exact_shortcut:
            total = partial[v]
            if not self_distributed[v] and spec.include_self:
                total += scores[v]
            # An isolated node's open ball is empty (N = 0); its average is
            # 0 by the same convention the BFS branch below uses.
            value = (total / sizes.value(v) if sizes.value(v) else 0.0) if is_avg else total
        else:
            ball = hop_ball(
                graph, v, spec.hops, include_self=spec.include_self, counter=counter
            )
            total = 0.0
            for w in ball:
                total += scores[w]
            value = (total / len(ball) if ball else 0.0) if is_avg else total
            stats.nodes_evaluated += 1
            stats.candidates_verified += 1
        acc.offer(v, value)
        offered += 1

    # Every candidate never reached by the verification loop was eliminated
    # purely by its upper bound.
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
