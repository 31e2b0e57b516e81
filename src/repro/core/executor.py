"""One executor for every query path.

This module is the funnel the whole library drains through: a lowered
:class:`~repro.core.request.QueryRequest` plus a
:class:`~repro.core.context.GraphContext` (the shared caches) go in, a
:class:`~repro.core.results.TopKResult` comes out — whether the algorithm is
Base, LONA-Forward, LONA-Backward, the relational baseline, or a
candidate-filtered scan, and whichever execution backend runs it.

Entry points:

* :func:`execute` — answer the request exactly.
* :func:`execute_batch` — answer a *group*: each member takes the route it
  would take alone or joins the one fused scan; no caller chooses a route.
* :func:`stream` — answer it *incrementally*: a generator of
  :class:`~repro.core.results.StreamUpdate` refinements whose snapshots
  monotonically converge to :func:`execute`'s answer (anytime consumption).
* :func:`plan` — the cost-based :class:`~repro.core.planner.ExecutionPlan`
  for the request, without executing.
* :func:`choose_algorithm` — the ``algorithm="auto"`` policy.

The ``"view"`` algorithm is session state (a maintained aggregate view
lives on the :class:`~repro.session.Network`), so it is dispatched there;
everything else lands here.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.aggregates.functions import (
    AggregateKind,
    evaluate_scores,
    finalize_sum,
    fold_scores,
)
from repro.config import ClusterConfig
from repro.core.backends import resolve_backend
from repro.core.backward import backward_topk
from repro.core.base import base_topk
from repro.core.batch import batch_base_topk, normalize_batch
from repro.core.bounds import avg_bound, static_sum_bound
from repro.core.context import GraphContext
from repro.core.deadline import check_deadline
from repro.core.forward import forward_topk
from repro.core.planner import ExecutionPlan, QueryPlanner
from repro.core.query import QuerySpec
from repro.core.request import QueryRequest
from repro.core.results import StreamUpdate, TopKResult
from repro.core.topk import TopKAccumulator
from repro.errors import InvalidParameterError
from repro.graph.traversal import TraversalCounter, hop_ball
from repro.relevance.base import ScoreVector, folded_scores

__all__ = [
    "execute",
    "execute_batch",
    "stream",
    "plan",
    "choose_algorithm",
]

#: Score density at or below which ``"auto"`` picks backward.
AUTO_DENSITY_THRESHOLD = 0.2

#: Score density at or below which a group member leaves the shared scan
#: for LONA-Backward: its cost tracks its non-zero count, which at this
#: density is below its share of any scan over all n balls.
BATCH_SPARSE_DENSITY = 0.05


def choose_algorithm(
    scores: ScoreVector,
    spec: QuerySpec,
    *,
    index_available: bool,
) -> str:
    """The ``algorithm="auto"`` policy.

    Sparse scores -> backward (its cost tracks the non-zero count and it
    needs no index); dense with a built differential index -> forward (the
    offline cost is sunk); otherwise base.  Non-LONA aggregates (MAX/MIN)
    always take base.
    """
    if not spec.aggregate.lona_supported:
        return "base"
    if scores.density <= AUTO_DENSITY_THRESHOLD:
        return "backward"
    if index_available:
        return "forward"
    return "base"


def _with_kernel(result: TopKResult) -> TopKResult:
    """Stamp which kernels ran into ``stats.extra`` (idempotent): the python
    loops, or the numpy kernels — in process or on ``parallel``/``cluster``
    workers."""
    kernel = "python" if result.stats.backend == "python" else "numpy"
    result.stats.extra.setdefault("kernel", kernel)
    return result


def _check_context_match(ctx: GraphContext, request: QueryRequest) -> None:
    """The context's caches are built for one (hops, ball convention);
    serving a request with a different one would be silently unsound."""
    if request.hops != ctx.hops or request.include_self != ctx.include_self:
        raise InvalidParameterError(
            f"context built for (hops={ctx.hops}, "
            f"include_self={ctx.include_self}), request uses "
            f"(hops={request.hops}, include_self={request.include_self})"
        )


def _reject_inapplicable_knobs(request: QueryRequest, algorithm: str) -> None:
    """A knob the resolved algorithm cannot use must raise, not no-op.

    The contract is resolve first, then reject:
    ``ordering``/``seed`` only steer LONA-Forward, the gamma family only
    steers LONA-Backward.  ``algorithm`` here is the *resolved* concrete
    algorithm (or the execution mode, e.g. ``"filtered"``/``"stream"``).

    A knob counts as set when its value differs from the default *or* when
    the request's set-fields mask (``request.pinned``, recorded by the
    builder) names it — so an explicit default-valued pin like
    ``.distribution_fraction(0.1)`` on a forward query is rejected exactly
    like a non-default one.  Requests constructed directly carry an empty
    mask and keep the value-based check only.
    """
    inapplicable = []
    if algorithm != "forward":
        if request.ordering != "ubound" or request.is_pinned("ordering"):
            inapplicable.append("ordering")
        if request.seed is not None or request.is_pinned("seed"):
            inapplicable.append("seed")
    if algorithm != "backward":
        if request.gamma != "auto" or request.is_pinned("gamma"):
            inapplicable.append("gamma")
        if request.distribution_fraction != 0.1 or request.is_pinned(
            "distribution_fraction"
        ):
            inapplicable.append("distribution_fraction")
        if request.exact_sizes or request.is_pinned("exact_sizes"):
            inapplicable.append("exact_sizes")
    if inapplicable:
        raise InvalidParameterError(
            f"options {sorted(inapplicable)} have no effect on "
            f"{algorithm!r} execution; remove them or pin the algorithm "
            "they steer"
        )


def plan(
    ctx: GraphContext,
    scores: ScoreVector,
    request: QueryRequest,
    *,
    amortize_index: bool = True,
    planner: Optional[QueryPlanner] = None,
) -> ExecutionPlan:
    """The cost-based plan for ``request`` (see :mod:`repro.core.planner`)."""
    if request.weights is not None:
        raise InvalidParameterError(
            "the planner does not cost weighted queries; they run "
            "algorithm 'base' or 'backward' as pinned (default: backward)"
        )
    if planner is None:
        _check_context_match(ctx, request)  # the size table is the context's
        planner = QueryPlanner(
            ctx.graph,
            scores.values(),
            hops=request.hops,
            include_self=request.include_self,
            index_available=ctx.diff_index is not None,
            backend=request.backend,
            size_estimates=ctx.estimated_sizes().upper_values(),
        )
    execution_plan = planner.plan(request.spec(), amortize_index=amortize_index)
    if execution_plan.backend == "cluster":
        from repro.cluster.comm import comm_forecast

        # Shard/worker counts come from the session's configured engine
        # when one exists; otherwise the forecast assumes the default
        # cluster (a local spawn count).  Forecasting must never spawn
        # workers — reading engine attributes does not touch its transport.
        if ctx.engine_configured("cluster"):
            engine = ctx.sharded_engine("cluster")
            shards, workers = engine.shards, engine.workers
        else:
            default = ClusterConfig()
            workers = default.workers
            shards = default.shards or workers
        execution_plan.comm = comm_forecast(
            shards, request.spec().k, workers=workers
        )
    return execution_plan


def execute(
    ctx: GraphContext,
    scores: ScoreVector,
    request: QueryRequest,
    *,
    planner: Optional[QueryPlanner] = None,
) -> TopKResult:
    """Answer ``request`` over ``ctx.graph`` with ``scores``.

    Dispatch rules:

    * ``weights`` set -> footnote 1's weighted SUM (:func:`_weighted_topk`).
    * ``candidates`` set -> the filtered scan (only those nodes compete;
      the relational algorithm instead pushes the filter into its plan).
    * ``algorithm="auto"`` -> :func:`choose_algorithm`;
      ``"planned"`` -> the cost-based planner's choice.
    * otherwise the named algorithm, fed from the context's shared caches
      (differential index, size index, CSR views).
    """
    ctx.check_fresh()
    _check_context_match(ctx, request)
    spec = request.spec()
    algorithm = request.algorithm
    if algorithm == "view":
        raise InvalidParameterError(
            "algorithm 'view' requires a Network session with a maintained "
            "view; use Network.maintain(...) and query through the session"
        )
    if algorithm == "relational":
        from repro.relational.engine import relational_topk

        _reject_inapplicable_knobs(request, "relational")
        return _with_kernel(
            relational_topk(
                ctx.graph, scores.values(), spec, candidates=request.candidates
            )
        )
    concrete = resolve_backend(spec.backend)
    if request.weights is not None:
        return _with_kernel(_weighted_topk(ctx, scores, request, concrete))
    if request.candidates is not None:
        # The filtered scan evaluates candidates exactly (base semantics);
        # a pruning-algorithm pin cannot be honored there, so reject it
        # rather than silently running something else.
        if algorithm not in ("auto", "base"):
            raise InvalidParameterError(
                f"candidate filters run as an exact scan; algorithm "
                f"{algorithm!r} cannot be combined with .where(...) "
                "(supported: auto, base, relational, view)"
            )
        _reject_inapplicable_knobs(request, "filtered")
        if concrete in ("parallel", "cluster"):
            result = ctx.sharded_engine(concrete).execute_scan(
                scores, spec, "base", candidates=request.candidates
            )
            if result is not None:
                return _with_kernel(result)
        return _with_kernel(_filtered_topk(ctx, scores, request))
    if algorithm == "auto":
        algorithm = choose_algorithm(
            scores, spec, index_available=ctx.diff_index is not None
        )
    elif algorithm == "planned":
        algorithm = plan(ctx, scores, request, planner=planner).chosen
    _reject_inapplicable_knobs(request, algorithm)

    if concrete in ("parallel", "cluster"):
        # Sharded execution (multi-process repro.parallel, or the socket
        # cluster) behind the same seam; the engine returns None when it
        # declines — graph below its min_nodes floor, too few workers, or
        # LONA-Backward — and the query falls through to the in-process
        # vectorized path.
        result = _sharded_execute(ctx, scores, request, algorithm, concrete)
        if result is not None:
            return _with_kernel(result)
    if algorithm == "base":
        index = ctx.ball_index() if concrete != "python" else None
        return _with_kernel(base_topk(ctx.graph, scores, spec, ball_index=index))
    if algorithm == "forward":
        ctx.build_indexes()
        return _with_kernel(
            forward_topk(
                ctx.graph,
                scores,
                spec,
                diff_index=ctx.diff_index,
                ordering=request.ordering,
                seed=request.seed,
                ball_index=ctx.ball_index() if concrete != "python" else None,
            )
        )
    # backward: a repeated read of a vector takes phases 1-2 from the memo
    # (fetched first: a write after this point leaves it unread).
    vectorized = concrete != "python"
    memo = ctx.phase1_memo() if vectorized else None
    sizes = ctx.size_index(exact=request.exact_sizes)
    return _with_kernel(
        backward_topk(
            ctx.graph,
            scores,
            spec,
            gamma=request.gamma,  # type: ignore[arg-type]
            distribution_fraction=request.distribution_fraction,
            sizes=sizes,
            ball_index=ctx.ball_index() if vectorized else None,
            memo=memo,
        )
    )


def execute_batch(
    ctx: GraphContext, queries: Sequence, *, backend: str = "auto"
) -> List[TopKResult]:
    """Answer a group of queries over ``ctx.graph``; results in input order.

    ``queries`` are :class:`~repro.core.batch.BatchQuery` items or
    ``(scores, k[, aggregate])`` tuples.  A group is its members: a query at
    or below :data:`BATCH_SPARSE_DENSITY` is an ordinary
    ``algorithm="backward"`` request through :func:`execute` — same caches,
    same dispatch, same counters as when it is run alone — and the
    dense remainder shares one fused scan (:func:`batch_base_topk`, or one
    scan per shard on ``parallel`` / ``cluster`` unless the engine declines).
    """
    ctx.check_fresh()
    batch = normalize_batch(ctx.graph, queries)
    shape = {"hops": ctx.hops, "include_self": ctx.include_self}
    alone = QueryRequest(k=1, backend=backend, algorithm="backward", **shape)
    results: List[Optional[TopKResult]] = [None] * len(batch)
    shared = []
    for i, entry in enumerate(batch):
        if entry.scores.density <= BATCH_SPARSE_DENSITY:
            results[i] = execute(
                ctx, entry.scores, alone.replace(k=entry.k, aggregate=entry.aggregate)
            )
        else:
            shared.append(i)
    if shared:
        members = [batch[i] for i in shared]
        concrete = resolve_backend(backend)
        fused = None
        if concrete in ("parallel", "cluster"):
            fused = ctx.sharded_engine(concrete).run_batch(members, **shape)
        if fused is None:
            index = ctx.ball_index() if concrete != "python" else None
            fused = batch_base_topk(
                ctx.graph, members, backend=backend, ball_index=index, **shape
            )
        for i, result in zip(shared, fused):
            results[i] = result
    return results  # type: ignore[return-value]


def _sharded_execute(
    ctx: GraphContext,
    scores: ScoreVector,
    request: QueryRequest,
    algorithm: str,
    concrete: str,
):
    """Dispatch one resolved algorithm to a sharded engine (parallel/cluster).

    Returns None — caller falls back to in-process numpy — for algorithms
    the engines do not cover (they cover base/forward; backward always
    declines; relational and view never reach here) or when the engine
    declines the graph.
    """
    engine = ctx.sharded_engine(concrete)
    spec = request.spec()
    if algorithm in ("base", "forward"):
        return engine.execute_scan(scores, spec, algorithm)
    if algorithm == "backward":
        return engine.execute_backward(scores, spec)
    return None


def _weighted_topk(
    ctx: GraphContext, scores: ScoreVector, request: QueryRequest, concrete: str
) -> TopKResult:
    """Footnote 1's distance-weighted SUM: ``request.weights`` on the base
    or backward route (``auto`` is backward; the request admits nothing
    else).  In process the python reference is the oracle and the
    vectorized drivers take the weights as a parameter; a sharded engine
    scans owned centers exactly."""
    from repro.aggregates.weighted import table_profile
    from repro.core.weighted import weighted_backward_topk, weighted_base_topk

    algorithm = "base" if request.algorithm == "base" else "backward"
    _reject_inapplicable_knobs(request, algorithm)
    spec = request.spec()
    # The sharded scan is exact; it stands in for backward only when the
    # distribution knobs are at their defaults — a tuned gamma must reach
    # the kernel that honors it, so those queries run in-process.
    if concrete in ("parallel", "cluster") and (
        algorithm == "base"
        or (
            request.gamma == "auto"
            and request.distribution_fraction == 0.1
            and not request.exact_sizes
        )
    ):
        result = ctx.sharded_engine(concrete).execute_scan(
            scores, spec, "base", weights=request.weights
        )
        if result is not None:
            return result
    profile = table_profile(request.weights)
    if algorithm == "base":
        return weighted_base_topk(ctx.graph, scores, spec, profile)
    return weighted_backward_topk(
        ctx.graph,
        scores,
        spec,
        profile,
        gamma=request.gamma,  # type: ignore[arg-type]
        distribution_fraction=request.distribution_fraction,
        sizes=ctx.size_index(exact=request.exact_sizes),
        ball_index=ctx.ball_index() if concrete != "python" else None,
    )


# ----------------------------------------------------------------------
# Candidate-filtered scan and the streaming executor's evaluation loop
# ----------------------------------------------------------------------
def _iter_exact_values(
    ctx: GraphContext,
    scores: ScoreVector,
    spec: QuerySpec,
    order: Sequence[int],
    counter: TraversalCounter,
) -> Iterator[Tuple[int, float]]:
    """``(node, exact aggregate)`` pairs for ``order``, backend-dispatched.

    The streaming executor's exact-evaluation loop: the vectorized
    backends evaluate node blocks through their kernel provider (every
    aggregate kind, MAX/MIN included), the python backend runs one
    truncated BFS per node.
    Traversal work lands in ``counter`` either way.
    """
    kind = spec.aggregate
    concrete = resolve_backend(spec.backend)
    if concrete != "python" and len(order) > 0:
        import numpy as np

        from repro.core.vectorized import NumpyKernels

        kernels = NumpyKernels(ctx.ball_index())
        csr = ctx.csr()
        folded, eff_kind = folded_scores(np, scores, kind)
        nodes = np.asarray(order, dtype=np.int64)
        block = kernels.block_size(None, ctx.graph.num_nodes, int(csr.num_arcs))
        for lo in range(0, nodes.size, block):
            check_deadline()
            centers = nodes[lo : lo + block]
            values, _ = kernels.ball_values(
                np, csr, centers, folded, eff_kind, spec.hops,
                spec.include_self, counter,
            )
            yield from zip(centers.tolist(), values.tolist())
        return
    folded_list = fold_scores(kind, scores)
    for u in order:
        check_deadline()
        ball = hop_ball(
            ctx.graph, u, spec.hops, include_self=spec.include_self, counter=counter
        )
        if kind.sum_convertible:
            total = 0.0
            for v in ball:
                total += folded_list[v]
            value = finalize_sum(
                AggregateKind.SUM if kind is AggregateKind.COUNT else kind,
                total,
                len(ball),
            )
        else:
            value = evaluate_scores(kind, (scores[v] for v in ball))
        yield u, value


def _filtered_topk(
    ctx: GraphContext, scores: ScoreVector, request: QueryRequest
) -> TopKResult:
    """Exact scan restricted to the request's candidate set: Base with the
    candidates as its node order — every candidate's ball is evaluated
    exactly, nothing else competes."""
    spec = request.spec()
    candidates = request.candidates or ()
    concrete = resolve_backend(spec.backend)
    index = ctx.ball_index() if concrete != "python" else None
    result = base_topk(
        ctx.graph, scores, spec, node_order=candidates, ball_index=index
    )
    # The backend asked for, also when its sharded engine declined.
    result.stats.backend = concrete
    result.stats.extra["candidates"] = float(len(candidates))
    return result


# ----------------------------------------------------------------------
# Streaming (anytime) execution
# ----------------------------------------------------------------------
def _static_upper_bounds(
    ctx: GraphContext,
    scores: ScoreVector,
    spec: QuerySpec,
    pool: Sequence[int],
) -> Dict[int, float]:
    """A sound static upper bound on F(v) for every pool node, no traversal.

    SUM/COUNT use the ``(N_ub(v) - 1) + f(v)`` static bound (open ball:
    ``N_ub(v)``); AVG divides by the size *lower* bound and clamps at 1 (all
    scores are in [0, 1]); MAX is bounded by the global maximum score and
    MIN by ``f(v)`` (closed ball) or 1 (open ball).  Precision only affects
    how early the stream converges, never its soundness.  Work is
    proportional to the pool, not the graph (MAX's global maximum aside),
    so a tightly filtered stream starts instantly on a large graph.
    """
    sizes = ctx.size_index()
    kind = spec.aggregate
    if kind is AggregateKind.MAX:
        gmax = max(scores, default=0.0)
        return {v: gmax for v in pool}
    if kind is AggregateKind.MIN:
        if spec.include_self:
            return {v: scores[v] for v in pool}
        return {v: 1.0 for v in pool}
    is_count = kind is AggregateKind.COUNT
    bounds: Dict[int, float] = {}
    for v in pool:
        own = scores[v]
        if is_count:
            own = 1.0 if own > 0.0 else 0.0
        if spec.include_self:
            sum_ub = static_sum_bound(sizes.upper(v), own)
        else:
            sum_ub = float(sizes.upper(v))
        if kind is AggregateKind.AVG:
            bounds[v] = min(1.0, avg_bound(sum_ub, sizes.lower(v)))
        else:
            bounds[v] = sum_ub
    return bounds


def stream(
    ctx: GraphContext, scores: ScoreVector, request: QueryRequest
) -> Iterator[StreamUpdate]:
    """Incremental execution: yield monotonically refining top-k states.

    Nodes are evaluated exactly in descending static-upper-bound order, so
    after each evaluation the bound on every unseen node (the next node's
    static bound) is non-increasing, and the top-k snapshot only improves.
    The stream stops early — with ``done=True`` — as soon as the bound
    proves no unseen node can enter the top-k; the final snapshot equals
    ``execute``'s answer.  Both backends yield the same state sequence; the
    numpy backend merely evaluates candidate blocks with the CSR kernel.

    One update is yielded per evaluated node, so an *empty* competitor
    pool (a ``.where(...)`` filter matching nothing) produces an empty
    iterator — the streamed analogue of ``execute``'s empty result.
    """
    # Validate eagerly — stream() is a plain function returning an inner
    # generator, so misuse raises at the call site, not at first next().
    ctx.check_fresh()
    _check_context_match(ctx, request)
    spec = request.spec()
    if request.weights is not None:
        raise InvalidParameterError(
            "streaming evaluates unweighted aggregates; weighted queries "
            "cannot be combined with .stream()"
        )
    if request.algorithm not in ("auto", "base"):
        raise InvalidParameterError(
            "streaming runs its own bound-ordered exact scan; algorithm "
            f"{request.algorithm!r} cannot be pinned on .stream() "
            "(supported: auto, base)"
        )
    _reject_inapplicable_knobs(request, "stream")
    if request.candidates is not None:
        pool: Sequence[int] = request.candidates
    else:
        pool = range(ctx.graph.num_nodes)
    return _stream_updates(ctx, scores, spec, pool)


def _stream_updates(
    ctx: GraphContext,
    scores: ScoreVector,
    spec: QuerySpec,
    pool: Sequence[int],
) -> Iterator[StreamUpdate]:
    bounds = _static_upper_bounds(ctx, scores, spec, pool)
    order = sorted(pool, key=lambda v: (-bounds[v], v))
    total = len(order)
    acc = TopKAccumulator(spec.k)
    counter = TraversalCounter()

    def remaining_bound(next_index: int) -> float:
        if next_index >= total:
            return float("-inf")
        return bounds[order[next_index]]

    evaluated = 0
    for node, value in _iter_exact_values(ctx, scores, spec, order, counter):
        acc.offer(node, value)
        evaluated += 1
        bound = remaining_bound(evaluated)
        done = evaluated >= total or (
            acc.is_full and bound <= acc.threshold
        )
        yield StreamUpdate(
            node=node,
            value=value,
            bound=bound,
            entries=tuple(acc.entries()),
            evaluated=evaluated,
            total=total,
            done=done,
            k=spec.k,
        )
        if done:
            return
