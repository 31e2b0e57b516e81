"""Vectorized NumPy execution backend — full route coverage.

Same algorithms, same answers, different substrate: instead of walking
adjacency lists node-by-node, every executor route — Base (all aggregate
kinds, MAX/MIN included), LONA-Forward, LONA-Backward, and the
distance-weighted base/backward variants — runs over
:class:`~repro.graph.csr.CSRGraph` flat arrays with the bound state
(``static_ub`` / ``ubound_sum`` / ``pruned`` / ``evaluated``) resident in
numpy arrays, so the Eq. 1 / Eq. 3 bound arithmetic — exactly the bulk
bound-maintenance the threshold-algorithm literature identifies as
array-shaped work — executes without per-edge Python calls.  Block sizes
adapt to the average degree (:func:`adaptive_block_size`); the expansion
dedups by sorting its keys, so no buffer scales with the node count.

How each phase vectorizes
-------------------------
* **Ball evaluation** (forward): candidates are taken from the processing
  order in *blocks*; one frontier-batched multi-source BFS
  (:func:`~repro.graph.csr.batched_hop_balls`) expands every block member's
  ball simultaneously and ``np.bincount`` reduces the per-ball score sums.
  Evaluating a node the pure-Python loop would have pruned moments later is
  harmless: its exact value is offered to the accumulator, which rejects
  anything that cannot *exceed* the k-th best — so results are identical and
  only the work counters differ.
* **Differential pruning** (forward): after a block is evaluated, every
  evaluated node's neighbor slice is gathered from the CSR arrays in one
  shot and the Eq. 1 running minimum is maintained with ``np.minimum.at``
  over the batched ``F(u) + delta(v-u)`` bounds.
* **Distribution / bounding** (backward): per-ball score deposits are fancy-
  indexed adds; the Eq. 3 bound of *every* node is one array expression.
* **Exhaustive scans** (base / weighted base): candidate blocks expand with
  one multi-source BFS; SUM/AVG/COUNT reduce with ``np.bincount``, MAX/MIN
  with ``ufunc.reduceat`` over the sorted owner segments, and offers into
  the accumulator are threshold-gated so the Python loop touches only
  plausible top-k entrants.
* **Weighted variants**: distance-labeled batched expansion
  (:func:`~repro.graph.csr.batched_hop_balls_with_distances`) carries each
  member's hop distance, so footnote 1's ``w(d) * f(v)`` deposits and sums
  are one gather + one ``bincount``; backward verification is *blocked*
  (a batch of candidates per distance-BFS, cut at the rising threshold).

Float parity: balls are aggregated in sorted-member order, one canonical
order per ball set, so nodes with identical neighborhoods get bit-identical
aggregates in this backend (as they do in the Python backend) and tie
handling agrees between the two.  The parity suite asserts entry-for-entry
equality on every aggregate and both ball conventions.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

from repro.aggregates.functions import AggregateKind
from repro.core.deadline import check_deadline
from repro.core.query import QuerySpec
from repro.core.results import QueryStats, TopKResult
from repro.core.topk import TopKAccumulator
from repro.errors import InvalidParameterError
from repro.graph.csr import (
    CSRBallCache,
    CSRDistanceBallCache,
    CSRGraph,
    batched_hop_balls,
    batched_hop_balls_with_distances,
    slab_positions,
    to_csr,
)
from repro.graph.diffindex import DifferentialIndex, build_differential_index
from repro.graph.graph import Graph
from repro.graph.neighborhood import NeighborhoodSizeIndex
from repro.graph.traversal import TraversalCounter

__all__ = [
    "adaptive_block_size",
    "resolve_block_size",
    "base_topk_numpy",
    "forward_topk_numpy",
    "backward_topk_numpy",
    "backward_distribution_split",
    "backward_eq3_bounds",
    "backward_shortcut_values",
    "static_upper_bounds_array",
    "weighted_base_topk_numpy",
    "weighted_backward_topk_numpy",
]

#: Bounds on the candidates-per-round of a multi-source BFS.  Below the
#: floor the numpy call overhead dominates; above the ceiling the rising
#: threshold is re-checked too rarely (over-evaluation in the forward
#: kernel) for no extra amortization.
_MIN_BLOCK = 4
_MAX_BLOCK = 1024

#: Target width of one BFS level's neighbor-slab gather.  Together with the
#: average degree this bounds the per-level working set so a block's
#: expansion stays cache-resident instead of thrashing on dense graphs.
_SLAB_BUDGET = 1 << 20

#: Block ceiling for the native (compiled) kernel tier.  Its per-center
#: stamp-BFS gathers no neighbor slabs, so the budget above does not apply;
#: bigger blocks just amortize the per-call dispatch further.  4096 keeps
#: the per-block scratch (centers + two result vectors) inside L2.
_NATIVE_MAX_BLOCK = 4096


def adaptive_block_size(
    num_nodes: int,
    num_arcs: int,
    *,
    pruning: bool = False,
    backend: str = "numpy",
) -> int:
    """Candidates per multi-source BFS round, from graph size and degree.

    One budget: a BFS level gathers roughly ``block * avg_degree``
    neighbor-slab entries, capped at ~1M so each gather (and the key sort
    that dedups it) stays cache-friendly on dense graphs.  The expansion
    dedups by sorting its ``(owner, node)`` keys, so its memory follows the
    balls and the node count alone never shrinks a block; sparse graphs of
    any size run at the ``_MAX_BLOCK`` ceiling (numpy call amortization).

    ``pruning=True`` (the forward kernel) additionally caps the block at
    ~1/8 of the graph, at most 256: threshold-driven kernels only re-check
    the rising ``topklbound`` *between* blocks, so evaluating a large slice
    of the graph per round would erase the pruning the blocking exists for.

    ``backend="native"`` swaps in the compiled tier's profile: its
    per-center stamp-BFS allocates no neighbor slabs, so the slab budget
    does not apply — blocks run to
    ``_NATIVE_MAX_BLOCK`` (dispatch amortization only), and the pruning cap
    relaxes to 1024 because a compiled block is cheap enough that re-checking
    the threshold less often costs less than it saves.
    """
    if num_nodes <= 0:
        return _MIN_BLOCK
    if backend == "native":
        block = min(_NATIVE_MAX_BLOCK, max(_MIN_BLOCK, num_nodes))
        if pruning:
            block = min(block, max(_MIN_BLOCK, min(1024, num_nodes // 8)))
        return block
    avg_degree = num_arcs / num_nodes
    slab_cap = int(_SLAB_BUDGET / max(avg_degree, 1.0))
    block = min(_MAX_BLOCK, slab_cap)
    if pruning:
        block = min(block, max(_MIN_BLOCK, min(256, num_nodes // 8)))
    return max(_MIN_BLOCK, block)


def resolve_block_size(
    requested: Optional[int],
    num_nodes: int,
    num_arcs: int,
    *,
    pruning: bool = False,
    backend: str = "numpy",
) -> int:
    """``None`` -> :func:`adaptive_block_size`; an explicit request is
    honoured as given on every backend (tests pin tiny blocks on purpose)."""
    if requested is None:
        return adaptive_block_size(
            num_nodes, num_arcs, pruning=pruning, backend=backend
        )
    return max(1, int(requested))


def _as_scores_array(np, scores: Sequence[float], kind: AggregateKind):
    """Materialize scores as float64, folding COUNT to its 0/1 indicator."""
    arr = np.asarray(scores, dtype=np.float64)
    if kind is AggregateKind.COUNT:
        arr = np.where(arr > 0.0, 1.0, 0.0)
        kind = AggregateKind.SUM
    return arr, kind


def _ubound_order(np, kind, scores_arr, sizes: NeighborhoodSizeIndex):
    """Vectorized "ubound" processing order, identical to make_order's.

    Same formulas, same ``(-bound, node)`` tie-break: ``np.lexsort`` with the
    node id as the secondary key reproduces the stable Python sort exactly.
    """
    upper = np.asarray(sizes.upper_values(), dtype=np.int64)
    key = np.maximum(upper - 1, 0) + scores_arr
    if kind is AggregateKind.AVG:
        lower = np.asarray(sizes.lower_values(), dtype=np.int64)
        key = key / np.maximum(lower, 1)
    return np.lexsort((np.arange(key.size), -key))


def forward_topk_numpy(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    *,
    diff_index: Optional[DifferentialIndex] = None,
    ordering: str = "ubound",
    seed: Optional[int] = None,
    csr: Optional[CSRGraph] = None,
    block_size: Optional[int] = None,
) -> TopKResult:
    """LONA-Forward over CSR flat arrays (see module docstring).

    Mirrors :func:`repro.core.forward.forward_topk` argument-for-argument;
    ``csr`` optionally supplies a prebuilt numpy CSR view (the engine caches
    one across queries), ``block_size`` overrides the adaptive evaluation
    batching (``None`` -> :func:`adaptive_block_size`).
    """
    import numpy as np

    kind = spec.aggregate
    if not kind.lona_supported:
        raise InvalidParameterError(
            f"LONA-Forward supports SUM/AVG/COUNT, not {kind.value}; "
            "use algorithm='base' for MAX/MIN"
        )
    scores_arr, kind = _as_scores_array(np, scores, kind)
    is_avg = kind is AggregateKind.AVG

    build_sec = 0.0
    if diff_index is None:
        build_start = time.perf_counter()
        diff_index = build_differential_index(
            graph, spec.hops, include_self=spec.include_self
        )
        build_sec = time.perf_counter() - build_start
    diff_index.check_compatible(graph, spec.hops, spec.include_self)

    start = time.perf_counter()
    if csr is None:
        csr = to_csr(graph, use_numpy=True)
    deltas = diff_index.flat_deltas()
    n = graph.num_nodes
    hops = spec.hops
    include_self = spec.include_self
    sizes = np.asarray(diff_index.sizes.upper_values(), dtype=np.int64)

    # Static Eq. 1 arm for every node at once.
    if include_self:
        static_ub = np.maximum(sizes - 1, 0) + scores_arr
    else:
        static_ub = sizes.astype(np.float64)
    ubound_sum = static_ub.copy()
    inv_size = 1.0 / np.maximum(sizes, 1) if is_avg else None

    pruned = np.zeros(n, dtype=bool)
    evaluated = np.zeros(n, dtype=bool)

    stats = QueryStats(
        algorithm="forward",
        aggregate=spec.aggregate.value,
        backend="numpy",
        hops=hops,
        k=spec.k,
        index_build_sec=build_sec,
    )

    if ordering == "ubound":
        order = _ubound_order(np, kind, scores_arr, diff_index.sizes)
    else:
        from repro.core.ordering import make_order

        order = np.asarray(
            make_order(
                ordering, graph, scores_arr.tolist(), kind=kind,
                sizes=diff_index.sizes, seed=seed,
            ),
            dtype=np.int64,
        )

    acc = TopKAccumulator(spec.k)
    bound_evals = 0
    pruned_count = 0
    evaluated_count = 0
    edges_scanned = 0
    nodes_visited = 0
    neg_inf = float("-inf")
    block_size = resolve_block_size(block_size, n, int(csr.num_arcs), pruning=True)

    position = 0
    while position < order.size:
        check_deadline()
        block = order[position : position + block_size]
        position += block_size
        live = block[~(evaluated[block] | pruned[block])]
        if live.size == 0:
            continue
        threshold = acc.threshold
        # Lazy running-minimum bound check for the whole block at once.
        effective = ubound_sum[live] * inv_size[live] if is_avg else ubound_sum[live]
        if threshold != neg_inf:
            cut = effective <= threshold
            newly_pruned = live[cut]
            pruned[newly_pruned] = True
            pruned_count += int(newly_pruned.size)
            live = live[~cut]
            if live.size == 0:
                continue

        # Exact forward processing of the whole block: one multi-source BFS.
        owners, members, edges = batched_hop_balls(
            csr, live, hops, include_self=include_self
        )
        edges_scanned += edges
        nodes_visited += int(members.size) + (0 if include_self else int(live.size))
        ball_sizes = np.bincount(owners, minlength=live.size)
        ball_sums = np.bincount(
            owners, weights=scores_arr[members], minlength=live.size
        )
        evaluated[live] = True
        evaluated_count += int(live.size)
        if is_avg:
            values = np.divide(
                ball_sums,
                ball_sizes,
                out=np.zeros(live.size, dtype=np.float64),
                where=ball_sizes > 0,
            )
        else:
            values = ball_sums
        offer = acc.offer
        for node, value in zip(live.tolist(), values.tolist()):
            offer(node, value)
        threshold = acc.threshold

        # pruneNodes for the block: the differential arm can only prune
        # while F_sum(u) <= topklbound (delta >= 0), so gate first, then
        # batch every surviving node's neighbor slice in one gather.
        gate = ball_sums <= threshold
        sources = live[gate]
        if sources.size == 0:
            continue
        positions, counts = slab_positions(csr, sources)
        if positions.size == 0:
            continue
        neighbors = csr.indices[positions]
        bounds = np.repeat(ball_sums[gate], counts) + deltas[positions]
        open_mask = ~(evaluated[neighbors] | pruned[neighbors])
        targets = neighbors[open_mask]
        bound_evals += int(targets.size)
        if targets.size == 0:
            continue
        np.minimum.at(ubound_sum, targets, bounds[open_mask])
        candidates = np.unique(targets)
        effective = (
            ubound_sum[candidates] * inv_size[candidates]
            if is_avg
            else ubound_sum[candidates]
        )
        newly_pruned = candidates[effective <= threshold]
        pruned[newly_pruned] = True
        pruned_count += int(newly_pruned.size)

    stats.nodes_evaluated = evaluated_count
    stats.pruned_nodes = pruned_count
    stats.bound_evaluations = bound_evals
    stats.elapsed_sec = time.perf_counter() - start
    stats.edges_scanned = edges_scanned
    stats.nodes_visited = nodes_visited
    stats.balls_expanded = evaluated_count
    stats.extra["ordering"] = ordering
    stats.extra["block_size"] = float(block_size)
    return TopKResult(entries=acc.entries(), stats=stats)


def static_upper_bounds_array(
    np, scores_arr, sizes: NeighborhoodSizeIndex, kind: AggregateKind, include_self: bool
):
    """Per-node static upper bounds on F(v), vectorized.

    The array twin of the streaming executor's ``_static_upper_bounds``
    SUM/COUNT/AVG arms — shared with the parallel engine's bound-pruned
    forward scan so the two formulas cannot drift apart.  SUM/COUNT use
    ``(N_ub(v) - 1) + f(v)`` (open ball: ``N_ub(v)``); AVG divides by the
    size *lower* bound and clamps at 1 (scores live in [0, 1]).  MAX/MIN
    have no static-pruning arm here; callers route them to Base.
    """
    if not kind.lona_supported:
        raise InvalidParameterError(
            f"static upper bounds cover SUM/AVG/COUNT, not {kind.value}"
        )
    upper = np.asarray(sizes.upper_values(), dtype=np.float64)
    f = np.asarray(scores_arr, dtype=np.float64)
    if kind is AggregateKind.COUNT:
        f = np.where(f > 0.0, 1.0, 0.0)
    if include_self:
        bounds = np.maximum(upper - 1.0, 0.0) + f
    else:
        bounds = upper.copy()
    if kind is AggregateKind.AVG:
        lower = np.asarray(sizes.lower_values(), dtype=np.float64)
        bounds = np.minimum(1.0, bounds / np.maximum(lower, 1.0))
    return bounds


def backward_distribution_split(np, scores_arr, gamma, distribution_fraction):
    """Phase-1 policy of LONA-Backward, shared by every vectorized caller.

    Returns ``(distributed, effective_gamma, rest_bound)``: the node ids to
    distribute (descending score, ties by id — the paper's distribution
    order), the resolved gamma threshold, and the highest undistributed
    score (Eq. 3's bound on every unknown).  One implementation serves the
    in-process numpy kernel and the sharded parallel engine, so the two
    can never disagree on which nodes distribute.
    """
    from repro.core.backward import resolve_gamma

    nonzero_ids = np.nonzero(scores_arr > 0.0)[0]
    nonzero_scores = scores_arr[nonzero_ids]
    desc = np.lexsort((nonzero_ids, -nonzero_scores))
    ordered_ids = nonzero_ids[desc]
    ordered_scores = nonzero_scores[desc]
    effective_gamma = resolve_gamma(
        gamma, ordered_scores.tolist(), distribution_fraction=distribution_fraction
    )
    cut = int(np.searchsorted(-ordered_scores, -effective_gamma, side="right"))
    distributed = ordered_ids[:cut]
    rest_bound = float(ordered_scores[cut]) if cut < ordered_scores.size else 0.0
    return distributed, effective_gamma, rest_bound


def backward_eq3_bounds(
    np,
    scores_arr,
    partial,
    covered,
    self_distributed,
    sizes: NeighborhoodSizeIndex,
    rest_bound: float,
    *,
    include_self: bool,
    is_avg: bool,
):
    """Eq. 3 upper bound for every node, one array expression.

    The vectorized twin of :func:`repro.core.bounds.backward_sum_bound`
    (plus the AVG division), shared by the numpy kernel and the parallel
    engine's merged-state bounding so their pruning can never diverge.
    """
    upper = np.asarray(sizes.upper_values(), dtype=np.int64)
    self_known = self_distributed | (not include_self)
    unknown = np.where(self_known, upper - covered, upper - covered - 1)
    extra = np.where(self_known, 0.0, scores_arr)
    sum_bounds = partial + rest_bound * np.maximum(unknown, 0) + extra
    if is_avg:
        lower = np.asarray(sizes.lower_values(), dtype=np.int64)
        return sum_bounds / np.maximum(lower, 1)
    return sum_bounds


def backward_shortcut_values(
    np,
    scores_arr,
    partial,
    self_distributed,
    sizes: NeighborhoodSizeIndex,
    *,
    include_self: bool,
    is_avg: bool,
):
    """Exact aggregates from full distribution (``rest_bound == 0``).

    When everything non-zero was distributed, PS(v) (+ the center's own
    score where applicable) *is* the exact SUM; AVG divides by the exact
    ball size (callers guarantee ``sizes.is_exact`` before taking the
    shortcut).  Shared for the same no-divergence reason as
    :func:`backward_eq3_bounds`.
    """
    totals = partial + np.where(
        ~self_distributed & include_self, scores_arr, 0.0
    )
    if is_avg:
        size_values = np.asarray(sizes.upper_values(), dtype=np.int64)
        return totals / np.maximum(size_values, 1)
    return totals


def backward_topk_numpy(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    *,
    gamma: Union[float, str] = "auto",
    distribution_fraction: float = 0.1,
    sizes: Optional[NeighborhoodSizeIndex] = None,
    csr: Optional[CSRGraph] = None,
    rev_csr: Optional[CSRGraph] = None,
    ball_cache: Optional[CSRBallCache] = None,
) -> TopKResult:
    """LONA-Backward over CSR flat arrays (see module docstring).

    Mirrors :func:`repro.core.backward.backward_topk` argument-for-argument;
    ``csr`` optionally supplies a prebuilt numpy CSR view of ``graph`` and
    ``rev_csr`` one of ``graph.reversed()`` (only consulted on directed
    graphs, where distribution walks the reversed arcs; without it the
    reversal is rebuilt per query).  ``ball_cache`` optionally supplies a
    session-scoped :class:`~repro.graph.csr.CSRBallCache` over the same
    ``csr`` so repeated queries reuse verification-phase expansions; it is
    consulted only when its ``(csr, hops, include_self)`` triple matches.
    """
    import numpy as np

    kind = spec.aggregate
    if not kind.lona_supported:
        raise InvalidParameterError(
            f"LONA-Backward supports SUM/AVG/COUNT, not {kind.value}; "
            "use algorithm='base' for MAX/MIN"
        )
    scores_arr, kind = _as_scores_array(np, scores, kind)
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
    include_self = spec.include_self
    stats = QueryStats(
        algorithm="backward",
        aggregate=spec.aggregate.value,
        backend="numpy",
        hops=spec.hops,
        k=spec.k,
        index_build_sec=build_sec,
    )
    if csr is None:
        csr = to_csr(graph, use_numpy=True)

    # ------------------------------------------------------------------
    # Phase 1: partial distribution in descending score order.
    # ------------------------------------------------------------------
    distributed, effective_gamma, rest_bound = backward_distribution_split(
        np, scores_arr, gamma, distribution_fraction
    )

    if not graph.directed:
        dist_csr = csr
    elif rev_csr is not None:
        dist_csr = rev_csr
    else:
        dist_csr = to_csr(graph.reversed(), use_numpy=True)
    partial = np.zeros(n, dtype=np.float64)
    covered = np.zeros(n, dtype=np.int64)
    self_distributed = np.zeros(n, dtype=bool)
    pushes = 0
    # Deposits stay in descending score order (block order preserves it and
    # bincount accumulates in pair order), so every node's partial sum is
    # built by the same float addition sequence as the Python backend's.
    block_size = resolve_block_size(None, n, int(dist_csr.num_arcs))
    for lo in range(0, int(distributed.size), block_size):
        check_deadline()
        block = distributed[lo : lo + block_size]
        owners, members, edges = batched_hop_balls(
            dist_csr, block, spec.hops, include_self=include_self
        )
        counter.edges_scanned += edges
        counter.nodes_visited += int(members.size) + (
            0 if include_self else int(block.size)
        )
        counter.balls_expanded += int(block.size)
        ball_sizes = np.bincount(owners, minlength=block.size)
        partial += np.bincount(
            members, weights=np.repeat(scores_arr[block], ball_sizes), minlength=n
        )
        covered += np.bincount(members, minlength=n)
        pushes += int(members.size)
    stats.distribution_pushes = pushes
    if include_self:
        self_distributed[distributed] = True

    # ------------------------------------------------------------------
    # Phase 2: Eq. 3 upper bound for every node, one array expression.
    # ------------------------------------------------------------------
    bounds = backward_eq3_bounds(
        np,
        scores_arr,
        partial,
        covered,
        self_distributed,
        sizes,
        rest_bound,
        include_self=include_self,
        is_avg=is_avg,
    )
    stats.bound_evaluations = n
    candidate_order = np.lexsort((np.arange(n), -bounds))

    # ------------------------------------------------------------------
    # Phase 3: verification in descending bound order, TA-style stop.
    # ------------------------------------------------------------------
    exact_shortcut = rest_bound == 0.0 and (not is_avg or sizes.is_exact)
    shortcut_values = None
    if exact_shortcut:
        shortcut_values = backward_shortcut_values(
            np,
            scores_arr,
            partial,
            self_distributed,
            sizes,
            include_self=include_self,
            is_avg=is_avg,
        )
    if (
        ball_cache is not None
        and ball_cache.csr is csr
        and ball_cache.hops == spec.hops
        and ball_cache.include_self == include_self
    ):
        # Session-shared cache: charge this query's counter per call rather
        # than mutating the cache's own counter, so concurrent queries
        # sharing the cache never charge each other's stats.
        verify_cache = ball_cache
    else:
        verify_cache = CSRBallCache(
            csr, spec.hops, include_self=include_self, counter=counter
        )
    acc = TopKAccumulator(spec.k)
    offered = 0
    for v in candidate_order:
        check_deadline()
        bound = float(bounds[v])
        if acc.is_full and bound <= acc.threshold:
            stats.early_terminated = True
            break
        node = int(v)
        if exact_shortcut:
            value = float(shortcut_values[v])
        else:
            ball = verify_cache.ball(node, counter)
            # cumsum, not sum: sequential left-to-right accumulation over
            # the sorted members, the same float result the Python loop
            # gets (np.sum's pairwise order would differ in the last ulp).
            total = float(scores_arr[ball].cumsum()[-1]) if ball.size else 0.0
            value = (total / ball.size if ball.size else 0.0) if is_avg else total
            stats.nodes_evaluated += 1
            stats.candidates_verified += 1
        acc.offer(node, value)
        offered += 1
    stats.pruned_nodes = n - offered
    stats.elapsed_sec = time.perf_counter() - start
    stats.edges_scanned = counter.edges_scanned
    stats.nodes_visited = counter.nodes_visited
    stats.balls_expanded = counter.balls_expanded
    stats.extra["gamma"] = effective_gamma
    stats.extra["distributed_nodes"] = float(distributed.size)
    stats.extra["rest_bound"] = rest_bound
    stats.extra["exact_shortcut"] = float(exact_shortcut)
    return TopKResult(entries=acc.entries(), stats=stats)


# ---------------------------------------------------------------------------
# Base + weighted kernels
# ---------------------------------------------------------------------------
def segment_starts(np, owners):
    """``(present_owners, start_positions)`` of a *sorted* owner array.

    The batched ball kernels emit owners sorted ascending, so the segment
    boundaries are a single O(m) inequality scan — no ``np.unique``
    (which would re-sort the array it is called on).
    """
    keep = np.empty(owners.size, dtype=bool)
    keep[0] = True
    np.not_equal(owners[1:], owners[:-1], out=keep[1:])
    starts = np.flatnonzero(keep)
    return owners[starts], starts


def aggregate_ball_segments(np, kind: AggregateKind, owners, member_scores, count: int):
    """Per-owner aggregate of sorted ``(owner, score)`` pairs, one array op.

    ``owners`` must be sorted ascending (the order every batched ball
    kernel emits).  SUM/AVG reduce with ``np.bincount``; MAX/MIN reduce
    each owner's contiguous segment with ``ufunc.reduceat``.  Owners with
    no pairs — empty balls, possible only with ``include_self=False`` on
    isolated nodes or ``hops=0`` — get 0.0, the library's empty-ball value
    for every aggregate (see :func:`repro.aggregates.functions.finalize_sum`
    and ``evaluate_scores``).  COUNT callers fold scores to the 0/1
    indicator first and pass SUM.
    """
    if kind is AggregateKind.MAX or kind is AggregateKind.MIN:
        values = np.zeros(count, dtype=np.float64)
        if member_scores.size:
            present, starts = segment_starts(np, owners)
            ufunc = np.maximum if kind is AggregateKind.MAX else np.minimum
            values[present] = ufunc.reduceat(member_scores, starts)
        return values
    sums = np.bincount(owners, weights=member_scores, minlength=count)
    if kind is AggregateKind.AVG:
        sizes = np.bincount(owners, minlength=count)
        return np.divide(
            sums, sizes, out=np.zeros(count, dtype=np.float64), where=sizes > 0
        )
    return sums


def fused_ball_values(np, node_scores, avg_rows, owners, members, count: int):
    """``(queries x count)`` ball values of one expanded block, every query at once.

    ``node_scores`` is the node-major ``(num_nodes x queries)`` score
    matrix, so gathering a block's members is one ``take`` of contiguous
    rows and a single ``np.add.reduceat`` over the sorted owner segments
    sums every query's balls.  ``avg_rows`` flags the AVG queries, which
    divide by the ball size; empty balls get 0.0 whatever the aggregate, as
    in :func:`aggregate_ball_segments`.
    """
    values = np.zeros((node_scores.shape[1], count), dtype=np.float64)
    if members.size:
        present, starts = segment_starts(np, owners)
        values[:, present] = np.add.reduceat(
            node_scores.take(members, axis=0), starts, axis=0
        ).T
    if avg_rows.any():
        sizes = np.maximum(np.bincount(owners, minlength=count), 1)
        values[avg_rows] /= sizes
    return values


def _offer_block(np, acc: TopKAccumulator, centers, values) -> None:
    """Offer a block's exact values in center order, threshold-gated.

    Once the accumulator is full only strictly-greater values can enter
    (Algorithm 1's ``F(u) > topklbound``), so offers at or below the
    block-start threshold are pre-filtered in one vectorized compare — the
    Python-loop offers then touch only plausible entries.  Skipped offers
    would have been rejected anyway (the threshold never decreases), so
    entries and tie behavior are identical to offering everything.
    """
    if acc.is_full:
        live = np.nonzero(values > acc.threshold)[0]
    else:
        live = np.arange(values.size)
    offer = acc.offer
    for j in live.tolist():
        offer(int(centers[j]), float(values[j]))


def base_topk_numpy(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    *,
    node_order: Optional[Sequence[int]] = None,
    csr: Optional[CSRGraph] = None,
    block_size: Optional[int] = None,
) -> TopKResult:
    """Base (exhaustive forward processing) over CSR flat arrays.

    Mirrors :func:`repro.core.base.base_topk` argument-for-argument and
    supports *every* aggregate kind: SUM/AVG/COUNT reduce ball blocks with
    ``np.bincount``, MAX/MIN with ``ufunc.reduceat`` over the sorted
    ``(owner, member)`` segments.  Candidate blocks are expanded with one
    multi-source BFS each; the accumulator sees exactly the values the
    Python loop would offer, in the same order.
    """
    import numpy as np

    kind = spec.aggregate
    scores_arr = np.asarray(scores, dtype=np.float64)
    eff_kind = kind
    if kind is AggregateKind.COUNT:
        scores_arr = np.where(scores_arr > 0.0, 1.0, 0.0)
        eff_kind = AggregateKind.SUM

    start = time.perf_counter()
    if csr is None:
        csr = to_csr(graph, use_numpy=True)
    n = graph.num_nodes
    order = np.asarray(
        node_order if node_order is not None else graph.nodes(), dtype=np.int64
    )
    block_size = resolve_block_size(block_size, n, int(csr.num_arcs))
    include_self = spec.include_self
    acc = TopKAccumulator(spec.k)
    edges_scanned = 0
    nodes_visited = 0
    for lo in range(0, int(order.size), block_size):
        check_deadline()
        centers = order[lo : lo + block_size]
        owners, members, edges = batched_hop_balls(
            csr, centers, spec.hops, include_self=include_self
        )
        count = int(centers.size)
        edges_scanned += edges
        nodes_visited += int(members.size) + (0 if include_self else count)
        values = aggregate_ball_segments(
            np, eff_kind, owners, scores_arr[members], count
        )
        _offer_block(np, acc, centers, values)
    stats = QueryStats(
        algorithm="base",
        aggregate=kind.value,
        backend="numpy",
        hops=spec.hops,
        k=spec.k,
        elapsed_sec=time.perf_counter() - start,
        nodes_evaluated=int(order.size),
        edges_scanned=edges_scanned,
        nodes_visited=nodes_visited,
        balls_expanded=int(order.size),
    )
    stats.extra["block_size"] = float(block_size)
    return TopKResult(entries=acc.entries(), stats=stats)


def _check_weighted_spec(spec: QuerySpec) -> None:
    if spec.aggregate is not AggregateKind.SUM:
        raise InvalidParameterError(
            "weighted aggregation is defined for SUM (footnote 1), not "
            f"{spec.aggregate.value}"
        )


def weighted_base_topk_numpy(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    profile=None,
    *,
    csr: Optional[CSRGraph] = None,
    block_size: Optional[int] = None,
) -> TopKResult:
    """Naive weighted scan over CSR flat arrays.

    Mirrors :func:`repro.core.weighted.weighted_base_topk`: each candidate
    block expands with one distance-labeled multi-source BFS
    (:func:`~repro.graph.csr.batched_hop_balls_with_distances`) and the
    weighted sums reduce as ``bincount(owners, w[dist] * f[member])``.
    """
    import numpy as np

    from repro.aggregates.weighted import inverse_distance, precompute_weights

    _check_weighted_spec(spec)
    if profile is None:
        profile = inverse_distance
    weights = np.asarray(
        precompute_weights(profile, spec.hops), dtype=np.float64
    )
    scores_arr = np.asarray(scores, dtype=np.float64)

    start = time.perf_counter()
    if csr is None:
        csr = to_csr(graph, use_numpy=True)
    n = graph.num_nodes
    block_size = resolve_block_size(block_size, n, int(csr.num_arcs))
    include_self = spec.include_self
    acc = TopKAccumulator(spec.k)
    edges_scanned = 0
    nodes_visited = 0
    for lo in range(0, n, block_size):
        check_deadline()
        centers = np.arange(lo, min(lo + block_size, n), dtype=np.int64)
        owners, members, dists, edges = batched_hop_balls_with_distances(
            csr, centers, spec.hops, include_self=include_self
        )
        count = int(centers.size)
        edges_scanned += edges
        nodes_visited += int(members.size) + (0 if include_self else count)
        values = np.bincount(
            owners, weights=weights[dists] * scores_arr[members], minlength=count
        )
        _offer_block(np, acc, centers, values)
    stats = QueryStats(
        algorithm="weighted-base",
        aggregate="sum",
        backend="numpy",
        hops=spec.hops,
        k=spec.k,
        elapsed_sec=time.perf_counter() - start,
        nodes_evaluated=n,
        edges_scanned=edges_scanned,
        nodes_visited=nodes_visited,
        balls_expanded=n,
    )
    stats.extra["block_size"] = float(block_size)
    return TopKResult(entries=acc.entries(), stats=stats)


def _verify_weighted_chunk(
    np,
    csr: CSRGraph,
    chunk,
    hops: int,
    include_self: bool,
    weights,
    scores_arr,
    shared_cache: Optional[CSRDistanceBallCache],
    counter: TraversalCounter,
):
    """Exact weighted sums for one verification block.

    Session-cached candidates are summed from their cached ``(members,
    dists)`` slices; the rest are expanded with one batched distance BFS,
    reduced with ``bincount``, and deposited back into the shared cache so
    the next query's verification gets them for free.  Both paths add
    contributions sequentially over the sorted members, so a warm hit
    returns the bit-identical value of its cold miss.  Only actual
    expansions are charged to ``counter`` (the cache-hits-are-free
    convention of :class:`~repro.graph.csr.CSRBallCache`).
    """
    count = int(chunk.size)
    values = np.zeros(count, dtype=np.float64)
    if shared_cache is not None and len(shared_cache):
        miss_mask = np.ones(count, dtype=bool)
        for j, node in enumerate(chunk.tolist()):
            entry = shared_cache.get(node)
            if entry is None:
                continue
            miss_mask[j] = False
            members, dists = entry
            if members.size:
                contrib = weights[dists] * scores_arr[members]
                values[j] = contrib.cumsum()[-1]
        miss_positions = np.nonzero(miss_mask)[0]
        miss_nodes = chunk[miss_positions]
    else:
        miss_positions = None
        miss_nodes = chunk
    if miss_nodes.size:
        owners, members, dists, edges = batched_hop_balls_with_distances(
            csr, miss_nodes, hops, include_self=include_self
        )
        counter.edges_scanned += edges
        counter.nodes_visited += int(members.size) + (
            0 if include_self else int(miss_nodes.size)
        )
        counter.balls_expanded += int(miss_nodes.size)
        sums = np.bincount(
            owners,
            weights=weights[dists] * scores_arr[members],
            minlength=int(miss_nodes.size),
        )
        if miss_positions is None:
            values = sums
        else:
            values[miss_positions] = sums
        if shared_cache is not None:
            ids = np.arange(int(miss_nodes.size))
            lo = np.searchsorted(owners, ids, side="left")
            hi = np.searchsorted(owners, ids, side="right")
            for j, node in enumerate(miss_nodes.tolist()):
                shared_cache.put(node, members[lo[j] : hi[j]], dists[lo[j] : hi[j]])
    return values


def weighted_backward_topk_numpy(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    profile=None,
    *,
    gamma: Union[float, str] = "auto",
    distribution_fraction: float = 0.1,
    sizes: Optional[NeighborhoodSizeIndex] = None,
    csr: Optional[CSRGraph] = None,
    rev_csr: Optional[CSRGraph] = None,
    dist_ball_cache: Optional[CSRDistanceBallCache] = None,
) -> TopKResult:
    """LONA-Backward with distance weights, over CSR flat arrays.

    Mirrors :func:`repro.core.weighted.weighted_backward_topk` (same
    adapted Eq. 3 soundness argument): the distribution phase deposits
    ``w(d) * f(u)`` with distance-labeled batched expansions, the bound of
    every node is one array expression, and verification expands distance
    balls through ``dist_ball_cache`` when a session supplies one (matched
    on the ``(csr, hops, include_self)`` triple, like the unweighted
    backward's ``ball_cache``).
    """
    import numpy as np

    from repro.aggregates.weighted import inverse_distance, precompute_weights
    from repro.core.backward import resolve_gamma

    _check_weighted_spec(spec)
    if profile is None:
        profile = inverse_distance
    weights = np.asarray(
        precompute_weights(profile, spec.hops), dtype=np.float64
    )
    w_max = float(weights[1:].max()) if weights.size > 1 else 0.0
    scores_arr = np.asarray(scores, dtype=np.float64)

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
    include_self = spec.include_self
    stats = QueryStats(
        algorithm="weighted-backward",
        aggregate="sum",
        backend="numpy",
        hops=spec.hops,
        k=spec.k,
        index_build_sec=build_sec,
    )
    if csr is None:
        csr = to_csr(graph, use_numpy=True)

    # Phase 1: weighted partial distribution, descending score order.
    nonzero_ids = np.nonzero(scores_arr > 0.0)[0]
    nonzero_scores = scores_arr[nonzero_ids]
    desc = np.lexsort((nonzero_ids, -nonzero_scores))
    ordered_ids = nonzero_ids[desc]
    ordered_scores = nonzero_scores[desc]
    effective_gamma = resolve_gamma(
        gamma, ordered_scores.tolist(), distribution_fraction=distribution_fraction
    )
    cut = int(np.searchsorted(-ordered_scores, -effective_gamma, side="right"))
    distributed = ordered_ids[:cut]
    rest_bound = float(ordered_scores[cut]) if cut < ordered_scores.size else 0.0

    if not graph.directed:
        dist_csr = csr
    elif rev_csr is not None:
        dist_csr = rev_csr
    else:
        dist_csr = to_csr(graph.reversed(), use_numpy=True)
    partial = np.zeros(n, dtype=np.float64)
    covered = np.zeros(n, dtype=np.int64)
    self_distributed = np.zeros(n, dtype=bool)
    pushes = 0
    block_size = resolve_block_size(None, n, int(dist_csr.num_arcs))
    for lo in range(0, int(distributed.size), block_size):
        check_deadline()
        block = distributed[lo : lo + block_size]
        owners, members, dists, edges = batched_hop_balls_with_distances(
            dist_csr, block, spec.hops, include_self=include_self
        )
        counter.edges_scanned += edges
        counter.nodes_visited += int(members.size) + (
            0 if include_self else int(block.size)
        )
        counter.balls_expanded += int(block.size)
        ball_sizes = np.bincount(owners, minlength=block.size)
        partial += np.bincount(
            members,
            weights=np.repeat(scores_arr[block], ball_sizes) * weights[dists],
            minlength=n,
        )
        covered += np.bincount(members, minlength=n)
        pushes += int(members.size)
    stats.distribution_pushes = pushes
    if include_self:
        self_distributed[distributed] = True

    # Phase 2: adapted Eq. 3 bound for every node, one array expression.
    upper = np.asarray(sizes.upper_values(), dtype=np.int64)
    self_known = self_distributed | (not include_self)
    unknown = np.where(self_known, upper - covered, upper - covered - 1)
    extra = np.where(self_known, 0.0, weights[0] * scores_arr)
    bounds = partial + (w_max * rest_bound) * np.maximum(unknown, 0) + extra
    stats.bound_evaluations = n
    candidate_order = np.lexsort((np.arange(n), -bounds))

    # Phase 3: TA-style verification in descending bound order, *blocked*:
    # candidates are expanded a block at a time with the batched distance
    # kernel instead of one numpy-flavored BFS per candidate (whose call
    # overhead would exceed the python loop it replaces).  The block is cut
    # at the block-start threshold; a candidate overtaken by the threshold
    # mid-block is over-verified but its offer is rejected (strictly-greater
    # acceptance), so entries are identical — only work counters differ,
    # exactly like the forward kernel's block over-evaluation.
    exact_shortcut = rest_bound == 0.0
    shared_cache = (
        dist_ball_cache
        if (
            dist_ball_cache is not None
            and dist_ball_cache.csr is csr
            and dist_ball_cache.hops == spec.hops
            and dist_ball_cache.include_self == include_self
        )
        else None
    )
    acc = TopKAccumulator(spec.k)
    offered = 0
    position = 0
    block_size = resolve_block_size(None, n, int(csr.num_arcs))
    while position < n:
        check_deadline()
        chunk = candidate_order[position : position + block_size]
        position += int(chunk.size)
        if acc.is_full:
            live = bounds[chunk] > acc.threshold
            if not live.all():
                # Bounds are non-increasing along candidate_order, so the
                # survivors are a prefix; everything after is pruned.
                chunk = chunk[: int(np.argmin(live))]
                stats.early_terminated = True
        if chunk.size == 0:
            break
        if exact_shortcut:
            values = partial[chunk] + np.where(
                self_distributed[chunk] | (not include_self),
                0.0,
                weights[0] * scores_arr[chunk],
            )
        else:
            values = _verify_weighted_chunk(
                np, csr, chunk, spec.hops, include_self, weights, scores_arr,
                shared_cache, counter,
            )
            stats.nodes_evaluated += int(chunk.size)
            stats.candidates_verified += int(chunk.size)
        offer = acc.offer
        for node, value in zip(chunk.tolist(), values.tolist()):
            offer(node, value)
        offered += int(chunk.size)
        if stats.early_terminated:
            break

    stats.pruned_nodes = n - offered
    stats.elapsed_sec = time.perf_counter() - start
    stats.edges_scanned = counter.edges_scanned
    stats.nodes_visited = counter.nodes_visited
    stats.balls_expanded = counter.balls_expanded
    stats.extra["gamma"] = effective_gamma
    stats.extra["distributed_nodes"] = float(distributed.size)
    stats.extra["rest_bound"] = rest_bound
    stats.extra["exact_shortcut"] = float(exact_shortcut)
    return TopKResult(entries=acc.entries(), stats=stats)
