"""Vectorized execution — the route drivers and the numpy kernel provider.

Same algorithms, same answers, different substrate: instead of walking
adjacency lists node-by-node, every executor route — Base (all aggregate
kinds, MAX/MIN included), LONA-Forward, LONA-Backward, and the
distance-weighted base/backward variants — runs over
:class:`~repro.graph.csr.CSRGraph` flat arrays with the bound state
(``static_ub`` / ``ubound_sum`` / ``pruned`` / ``evaluated``) resident in
numpy arrays, so the Eq. 1 / Eq. 3 bound arithmetic — exactly the bulk
bound-maintenance the threshold-algorithm literature identifies as
array-shaped work — executes without per-edge Python calls.

One route table, one kernel provider
------------------------------------
The four ``*_topk_numpy`` functions are the route *drivers* of every
vectorized backend: ordering, bound state, thresholds, offers, stats.  How a
*block of balls* is evaluated arrives as the ``kernels`` argument — a
:class:`NumpyKernels` (the default; a pool worker hands in one over its own
ball index).  That argument is the seam a different provider would plug
into: it must return the same bits and charge the same work counters per
block (DESIGN.md §8), so a route, numeric-contract or stopping-rule change
stays one edit here.

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
  Its accumulation order is part of the float contract (see
  :func:`distribute_scores`).
  Verification orders only the candidates it reaches
  (:func:`descending_prefixes`), never all ``n`` bounds.
* **Exhaustive scans** (base / weighted base): candidate blocks expand with
  one multi-source BFS; SUM/AVG/COUNT reduce with ``np.bincount``, MAX/MIN
  with ``ufunc.reduceat`` over the sorted owner segments, and offers into
  the accumulator are threshold-gated so the Python loop touches only
  plausible top-k entrants.
* **Weighted variants**: distance-labeled batched expansion
  (:func:`~repro.graph.csr.batched_hop_balls_with_distances`) carries each
  member's hop distance, so footnote 1's ``w(d) * f(v)`` deposits and sums
  are one gather + one ``bincount``.
* **Verification** (backward, weighted or not): :func:`verify_blocked`, a
  block of candidates per kernel call, read through the session ball index
  like any scan block.

Block sizes adapt to the average degree (:func:`adaptive_block_size`); the
expansion dedups by sorting its keys, so no buffer scales with the node
count.  No driver converts a :class:`~repro.relevance.base.ScoreVector`: it
hands out the one read-only float64 array it owns (``folded_scores``).

Float parity: balls are aggregated in sorted-member order, one canonical
order per ball set, so nodes with identical neighborhoods get bit-identical
aggregates in every vectorized backend (as they do in the Python backend)
and tie handling agrees between them.  The parity suite asserts
entry-for-entry equality on every aggregate and both ball conventions.
"""

from __future__ import annotations

import time
from typing import Any, NamedTuple, Optional, Sequence, Union

from repro.aggregates.functions import AggregateKind
from repro.core.deadline import check_deadline
from repro.core.query import QuerySpec
from repro.core.results import QueryStats, TopKResult
from repro.core.topk import TopKAccumulator
from repro.errors import InvalidParameterError
from repro.graph.csr import (
    CSRBallIndex,
    batched_hop_balls,
    batched_hop_balls_with_distances,
    run_sizes,
    slab_positions,
)
from repro.graph.diffindex import DifferentialIndex, build_differential_index
from repro.graph.graph import Graph
from repro.graph.neighborhood import NeighborhoodSizeIndex
from repro.graph.traversal import TraversalCounter
from repro.relevance.base import ScoreVector, descending_nonzero, folded_scores

__all__ = [
    "NumpyKernels",
    "adaptive_block_size",
    "resolve_block_size",
    "base_topk_numpy",
    "forward_topk_numpy",
    "backward_topk_numpy",
    "backward_distribution_split",
    "backward_eq3_bounds",
    "backward_shortcut_values",
    "distribute_scores",
    "repair_backward_state",
    "offer_block",
    "static_upper_bounds_array",
    "verify_blocked",
    "weighted_backward_topk_numpy",
]

#: Bounds on the candidates-per-round of a multi-source BFS.  Below the
#: floor the numpy call overhead dominates; above the ceiling the rising
#: threshold is re-checked too rarely (over-evaluation in the forward
#: kernel) for no extra amortization.
_MIN_BLOCK = 4
_MAX_BLOCK = 1024

#: Candidates per numpy verification block of LONA-Backward: the TA stop is
#: tested between blocks, so a block verifies up to that many past it.  A
#: measured constant (DESIGN.md §8): 32 holds the 16k serving mixes level
#: with stopping per candidate; 1,024 verified 1,024 where ~30 suffice.
_VERIFY_BLOCK = 32

#: Target width of one BFS level's neighbor-slab gather.  Together with the
#: average degree this bounds the per-level working set so a block's
#: expansion stays cache-resident instead of thrashing on dense graphs.
_SLAB_BUDGET = 1 << 20


def adaptive_block_size(
    num_nodes: int, num_arcs: int, *, pruning: bool = False
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

    This is :meth:`NumpyKernels.block_size`'s profile.
    """
    if num_nodes <= 0:
        return _MIN_BLOCK
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
) -> int:
    """``None`` -> :func:`adaptive_block_size`; an explicit request is
    honoured as given (tests pin tiny blocks on purpose)."""
    if requested is None:
        return adaptive_block_size(num_nodes, num_arcs, pruning=pruning)
    return max(1, int(requested))


def descending_prefixes(np, keys, first: int):
    """Node ids in the order of ``np.lexsort((ids, -keys))``, a prefix at a time.

    Best key first, lowest id among equals.  Each chunk is cut from what is
    left by one ``np.partition`` — every tie at the cut included, so it is
    exactly the next stretch of the full order — and only the chunk is
    sorted.  The first holds at least ``first`` ids, each later cut is 4x
    the one before: a consumer that stops inside the first chunk never orders
    (or even splits off) the rest; one that digs to the end pays the full
    sort plus a few O(n) partitions.
    """
    neg = -keys
    ids = np.arange(neg.size, dtype=np.int64)
    want = max(int(first), 1)
    while want < neg.size:
        rest = neg > np.partition(neg, want - 1)[want - 1]
        head = ~rest
        # ids ascend within a chunk, so a stable sort leaves ties by id.
        yield ids[head][np.argsort(neg[head], kind="stable")]
        neg, ids = neg[rest], ids[rest]
        want *= 4
    yield ids[np.argsort(neg, kind="stable")]


def in_blocks(np, chunks, size: int):
    """Regroup an iterator of id chunks into blocks of exactly ``size`` ids
    (the last may be shorter), pulling the next chunk when one runs short."""
    held = np.empty(0, dtype=np.int64)
    for chunk in chunks:
        held = np.concatenate((held, chunk)) if held.size else chunk
        while held.size >= size:
            yield held[:size]
            held = held[size:]
    if held.size:
        yield held


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
    block_size: Optional[int] = None,
    kernels=None,
) -> TopKResult:
    """LONA-Forward over CSR flat arrays (see module docstring).

    Mirrors :func:`repro.core.forward.forward_topk` argument-for-argument;
    the flat arrays are the graph's own (``graph.csr()``), ``block_size``
    overrides the adaptive evaluation batching (``None`` -> the provider's
    pruning profile), ``kernels`` the block-kernel provider (``None`` ->
    :class:`NumpyKernels`).
    """
    import numpy as np

    kernels = kernels or NumpyKernels()
    kind = spec.aggregate
    if not kind.lona_supported:
        raise InvalidParameterError(
            f"LONA-Forward supports SUM/AVG/COUNT, not {kind.value}; "
            "use algorithm='base' for MAX/MIN"
        )
    csr = graph.csr()
    scores_arr, kind = folded_scores(np, scores, kind)
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
    deltas = np.asarray(diff_index.deltas)
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
        backend=kernels.name,
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
    counter = TraversalCounter()
    bound_evals = 0
    pruned_count = 0
    evaluated_count = 0  # not counter.balls_expanded: an index hit expands nothing
    neg_inf = float("-inf")
    block_size = kernels.block_size(block_size, n, int(csr.num_arcs), role="prune")

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

        # Exact forward processing of the whole block: one kernel call.
        ball_sums, ball_sizes = kernels.ball_values(
            np, csr, live, scores_arr, AggregateKind.SUM, hops, include_self,
            counter, want_sizes=is_avg,
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
        # while F_sum(u) <= topklbound (delta >= 0), so gate first.
        gate = ball_sums <= threshold
        sources = live[gate]
        if sources.size == 0:
            continue
        touched, newly = kernels.prune_step(
            np, csr, deltas, sources, ball_sums[gate], threshold, ubound_sum,
            inv_size, evaluated, pruned,
        )
        bound_evals += touched
        pruned_count += newly

    stats.nodes_evaluated = evaluated_count
    stats.pruned_nodes = pruned_count
    stats.bound_evaluations = bound_evals
    stats.elapsed_sec = time.perf_counter() - start
    stats.edges_scanned = counter.edges_scanned
    stats.nodes_visited = counter.nodes_visited
    stats.balls_expanded = counter.balls_expanded
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
    f, _ = folded_scores(np, scores_arr, kind)
    if include_self:
        bounds = np.maximum(upper - 1.0, 0.0) + f
    else:
        bounds = upper.copy()
    if kind is AggregateKind.AVG:
        lower = np.asarray(sizes.lower_values(), dtype=np.float64)
        bounds = np.minimum(1.0, bounds / np.maximum(lower, 1.0))
    return bounds


def backward_distribution_split(np, scores, scores_arr, gamma, distribution_fraction):
    """Phase-1 policy of LONA-Backward, shared by every vectorized caller.

    Returns ``(distributed, effective_gamma, rest_bound)``: the node ids to
    distribute (descending score, ties by id — the paper's distribution
    order), the resolved gamma threshold, and the highest undistributed
    score (Eq. 3's bound on every unknown).  One implementation serves the
    in-process drivers and the sharded parallel engine, so the two
    can never disagree on which nodes distribute.  The order is the score
    vector's own list when ``scores_arr`` is its array, else derived here.
    """
    from repro.core.backward import resolve_gamma

    if isinstance(scores, ScoreVector) and scores_arr is scores.array():
        ordered_ids, ordered_scores = scores.sorted_access()
    else:
        ordered_ids, ordered_scores = descending_nonzero(np, scores_arr)
    effective_gamma = resolve_gamma(
        gamma, ordered_scores.tolist(), distribution_fraction=distribution_fraction
    )
    cut = int(np.searchsorted(-ordered_scores, -effective_gamma, side="right"))
    distributed = ordered_ids[:cut]
    rest_bound = float(ordered_scores[cut]) if cut < ordered_scores.size else 0.0
    return distributed, effective_gamma, rest_bound


def distribute_scores(
    np, dist_csr, distributed, scores_arr, hops, include_self, block_size,
    counter, kernels, weights=None,
):
    """The distribution loop of LONA-Backward: ``(partial, covered, pushes)``.

    Every node of ``distributed`` pushes its score (times ``weights[dist]``
    when ``weights`` is given — footnote 1) to each member of its ball over
    ``dist_csr`` (the reversed graph when directed).  Each block's balls
    come through ``kernels``' ball index when it was built for ``dist_csr``
    (undirected: ``v in S_h(u)`` iff ``u in S_h(v)``, so the scans' runs are
    the distribution's), and only absent ones are expanded and charged to
    ``counter``.  Deposits stay in the order of ``distributed`` (block order
    preserves it, an index read returns the pairs an expansion would, and
    ``bincount`` accumulates in pair order), and each block's ``bincount``
    starts every bin from its running sum (the sums are fed in front of the
    block's deposits), so every node's partial sum is one left-to-right
    addition over its deposits in distribution order — the Python backend's
    sequence, whatever the block size.  That order is part of the float
    contract — under the exact shortcut the partials *are* the answers — in
    process and in the sharded workers alike.  Nothing else re-adds
    deposits: a write's repair (:func:`repair_backward_state`) shifts a
    0/1 vector's partial sums, which are counts, and drops a graded
    vector's state where one would move.
    """
    n = int(dist_csr.num_nodes)
    partial = np.zeros(n, dtype=np.float64)
    covered = np.zeros(n, dtype=np.int64)
    pushes = 0
    for lo in range(0, int(distributed.size), block_size):
        check_deadline()
        block = distributed[lo : lo + block_size]
        owners, members, *dists = kernels._block_pairs(
            dist_csr, block, hops, include_self, counter, labels=weights is not None
        )
        ball_sizes = run_sizes(np, owners, block.size)
        deposits = np.repeat(scores_arr[block], ball_sizes)
        if weights is not None:
            deposits = deposits * weights[dists[0]]
        covered += np.bincount(members, minlength=n)
        pushes += int(members.size)
        if lo:  # carry the running sums: ``partial += bincount`` regroups them
            members = np.concatenate((np.arange(n), members))
            deposits = np.concatenate((partial, deposits))
        partial = np.bincount(members, weights=deposits, minlength=n)
    return partial, covered, pushes


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
    rows=None,
):
    """Eq. 3 upper bound for every node, one array expression.

    The vectorized twin of :func:`repro.core.bounds.backward_sum_bound`
    (plus the AVG division), shared by the backward driver and the parallel
    engine's merged-state bounding so their pruning can never diverge.  The
    weighted route passes ``w(0) * f`` as ``scores_arr`` and ``w_max *
    rest_bound`` as ``rest_bound`` (its adapted Eq. 3).  With ``rows`` the
    node arrays hold those rows only, and the size tables are read at them:
    element-wise, so each row gets the bits the full expression gives it.
    """
    upper = _size_table(np, sizes.upper_values(), rows)
    self_known = self_distributed | (not include_self)
    unknown = np.where(self_known, upper - covered, upper - covered - 1)
    extra = np.where(self_known, 0.0, scores_arr)
    sum_bounds = partial + rest_bound * np.maximum(unknown, 0) + extra
    if is_avg:
        lower = _size_table(np, sizes.lower_values(), rows)
        return sum_bounds / np.maximum(lower, 1)
    return sum_bounds


def _size_table(np, table, rows):
    table = np.asarray(table, dtype=np.int64)
    return table if rows is None else table[rows]


def backward_shortcut_values(
    np,
    scores_arr,
    partial,
    self_distributed,
    sizes: NeighborhoodSizeIndex,
    *,
    include_self: bool,
    is_avg: bool,
    rows=None,
):
    """Exact aggregates from full distribution (``rest_bound == 0``).

    When everything non-zero was distributed, PS(v) (+ the center's own
    score where applicable) *is* the exact SUM; AVG divides by the exact
    ball size (callers guarantee ``sizes.is_exact`` before taking the
    shortcut).  Shared for the same no-divergence reason as
    :func:`backward_eq3_bounds`, with the same weighted and ``rows``
    calling conventions.
    """
    totals = partial + np.where(
        ~self_distributed & include_self, scores_arr, 0.0
    )
    if is_avg:
        size_values = _size_table(np, sizes.upper_values(), rows)
        return totals / np.maximum(size_values, 1)
    return totals


def verify_blocked(
    np, candidate_order, bounds, acc, stats, block_size, verify,
    shortcut_values=None,
) -> int:
    """Phase 3 of LONA-Backward on every in-process route:
    offers in descending bound order until the TA-style stop fires.

    ``candidate_order`` is the lazy :func:`descending_prefixes` iterator,
    advanced no further than the stop.  Under the exact shortcut Eq. 3's
    bound *is* the exact value (``shortcut_values``), so the walk would
    offer the order's first ``k`` and stop at the next: they are taken in
    one pass instead (the first chunk of the same ``(-value, id)`` order),
    and the order is never advanced.  Otherwise a candidate's ball must be
    expanded,
    and ``verify(chunk)`` returns the exact values of a ``block_size``
    block of the order per kernel call (one BFS per candidate costs more in
    call overhead than the loop it replaces).  The block is cut at the
    block-start threshold; a candidate overtaken by the threshold mid-block
    is over-verified but its offer is rejected (strictly-greater
    acceptance), so entries are identical — only work counters differ, by
    less than a block.  Returns the offers made.
    """
    if shortcut_values is not None:
        top = next(descending_prefixes(np, shortcut_values, acc.k))[: acc.k]
        for node, value in zip(top.tolist(), shortcut_values[top].tolist()):
            acc.offer(node, value)
        stats.early_terminated = top.size < shortcut_values.size
        return int(top.size)
    offered = 0
    for chunk in in_blocks(np, candidate_order, block_size):
        check_deadline()
        if acc.is_full:
            live = bounds[chunk] > acc.threshold
            if not live.all():
                # Bounds are non-increasing along candidate_order, so the
                # survivors are a prefix; everything after is pruned.
                chunk = chunk[: int(np.argmin(live))]
                stats.early_terminated = True
        if chunk.size == 0:
            break
        values = verify(chunk)
        stats.nodes_evaluated += int(chunk.size)
        stats.candidates_verified += int(chunk.size)
        offer = acc.offer
        for node, value in zip(chunk.tolist(), values.tolist()):
            offer(node, value)
        offered += int(chunk.size)
        if stats.early_terminated:
            break
    return offered


def backward_topk_numpy(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    *,
    gamma: Union[float, str] = "auto",
    distribution_fraction: float = 0.1,
    sizes: Optional[NeighborhoodSizeIndex] = None,
    kernels=None,
    memo=None,
) -> TopKResult:
    """LONA-Backward over CSR flat arrays (see module docstring).

    Mirrors :func:`repro.core.backward.backward_topk` argument-for-argument;
    the flat arrays are the graph's own (``graph.csr()``, and on directed
    graphs ``graph.rev_csr()``, whose reversed arcs distribution walks).
    ``kernels`` is the block-kernel provider (``None`` ->
    :class:`NumpyKernels`); verification blocks are read through its ball
    index.  ``memo`` is a session's
    :class:`~repro.core.context.Phase1Memo` (built for this graph view,
    hops and ball convention): a repeated read of a vector takes phases 1-2
    from it and runs only verification.
    """
    import numpy as np

    kind = spec.aggregate
    if not kind.lona_supported:
        raise InvalidParameterError(
            f"LONA-Backward supports SUM/AVG/COUNT, not {kind.value}; "
            "use algorithm='base' for MAX/MIN"
        )
    return _backward_topk(
        np, graph, scores, spec, None, gamma, distribution_fraction, sizes,
        kernels or NumpyKernels(), memo,
    )


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
    kernel emits).  SUM/AVG reduce with ``np.bincount`` (AVG's sizes are
    the owners' run lengths, :func:`~repro.graph.csr.run_sizes`); MAX/MIN reduce
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
        sizes = run_sizes(np, owners, count)
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
        sizes = np.maximum(run_sizes(np, owners, count), 1)
        values[avg_rows] /= sizes
    return values


def offer_block(np, acc: TopKAccumulator, centers, values) -> None:
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


def _scan_stats(algorithm, aggregate, spec, kernels, start, evaluated, counter, block_size):
    """Stats of an exhaustive (pruning-free) scan over ``evaluated`` centers."""
    stats = QueryStats(
        algorithm=algorithm,
        aggregate=aggregate,
        backend=kernels.name,
        hops=spec.hops,
        k=spec.k,
        elapsed_sec=time.perf_counter() - start,
        nodes_evaluated=evaluated,
        edges_scanned=counter.edges_scanned,
        nodes_visited=counter.nodes_visited,
        balls_expanded=counter.balls_expanded,
    )
    stats.extra["block_size"] = float(block_size)
    return stats


def base_topk_numpy(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    *,
    node_order: Optional[Sequence[int]] = None,
    block_size: Optional[int] = None,
    weights=None,
    kernels=None,
) -> TopKResult:
    """Base (exhaustive forward processing) over CSR flat arrays.

    Mirrors :func:`repro.core.base.base_topk` argument-for-argument and
    supports *every* aggregate kind (numpy: SUM/AVG/COUNT reduce ball
    blocks with ``np.bincount``, MAX/MIN with ``ufunc.reduceat`` over the
    sorted ``(owner, member)`` segments).  Each candidate block is one
    ``kernels.ball_values`` call; the accumulator sees exactly the values
    the Python loop would offer, in the same order.

    ``weights`` (one weight per hop distance; SUM specs) makes it footnote
    1's scan, :func:`repro.core.weighted.weighted_base_topk`'s
    mirror: each block is then one ``kernels.weighted_ball_sums`` call
    (numpy: a distance-labeled multi-source BFS reduced as
    ``bincount(owners, w[dist] * f[member])``).
    """
    import numpy as np

    kernels = kernels or NumpyKernels()
    csr = graph.csr()
    scores_arr, eff_kind = folded_scores(np, scores, spec.aggregate)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)

    start = time.perf_counter()
    if node_order is None:
        order = np.arange(graph.num_nodes, dtype=np.int64)
    else:
        order = np.asarray(node_order, dtype=np.int64)
    block_size = kernels.block_size(block_size, graph.num_nodes, int(csr.num_arcs))
    acc = TopKAccumulator(spec.k)
    counter = TraversalCounter()
    for lo in range(0, int(order.size), block_size):
        check_deadline()
        centers = order[lo : lo + block_size]
        if weights is None:
            values, _ = kernels.ball_values(
                np, csr, centers, scores_arr, eff_kind, spec.hops,
                spec.include_self, counter,
            )
        else:
            values = kernels.weighted_ball_sums(
                np, csr, centers, scores_arr, weights, spec.hops,
                spec.include_self, counter,
            )
        offer_block(np, acc, centers, values)
    stats = _scan_stats(
        "base" if weights is None else "weighted-base", spec.aggregate.value,
        spec, kernels, start, int(order.size), counter, block_size,
    )
    return TopKResult(entries=acc.entries(), stats=stats)


def _distance_weights(np, spec: QuerySpec, profile):
    """Footnote 1's per-distance weights as an array (SUM specs only)."""
    from repro.aggregates.weighted import inverse_distance, precompute_weights
    from repro.core.weighted import check_weighted_spec

    check_weighted_spec(spec)
    if profile is None:
        profile = inverse_distance
    return np.asarray(precompute_weights(profile, spec.hops), dtype=np.float64)


def weighted_backward_topk_numpy(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    profile=None,
    *,
    gamma: Union[float, str] = "auto",
    distribution_fraction: float = 0.1,
    sizes: Optional[NeighborhoodSizeIndex] = None,
    kernels=None,
) -> TopKResult:
    """LONA-Backward with distance weights, over CSR flat arrays.

    Mirrors :func:`repro.core.weighted.weighted_backward_topk` (same
    adapted Eq. 3 soundness argument): the distribution phase deposits
    ``w(d) * f(u)`` with distance-labeled batched expansions, the bound of
    every node is one array expression, and verification reads hop-labelled
    balls through the ball index of ``kernels``, when it has one.
    """
    import numpy as np

    weights = _distance_weights(np, spec, profile)
    return _backward_topk(
        np, graph, scores, spec, weights, gamma, distribution_fraction, sizes,
        kernels or NumpyKernels(),
    )


class BackwardState(NamedTuple):
    """LONA-Backward's phases 1-2, which no ``k`` changes: the distributed
    ids, the resolved gamma, Eq. 3's ``rest_bound``, the push count, every
    node's bound — the exact value under the exact shortcut — and the
    distribution's own arrays, every node's partial sum and coverage count
    (int32), from which a write's repair re-evaluates the rows it moved
    (:func:`repair_backward_state`)."""

    distributed: Any
    gamma: float
    rest_bound: float
    pushes: int
    bounds: Any
    exact: bool
    partial: Any
    covered: Any

    @property
    def nbytes(self) -> int:
        arrays = {id(a): a for a in (self.distributed, self.bounds, self.partial, self.covered)}
        return int(sum(array.nbytes for array in arrays.values()))


def _backward_state(
    np, graph, scores, scores_arr, spec, weights, gamma, distribution_fraction,
    sizes, kernels, counter,
) -> BackwardState:
    """Phases 1-2 of both LONA-Backward drivers; distribution expansions are
    charged to ``counter``."""
    is_avg = spec.aggregate is AggregateKind.AVG
    include_self = spec.include_self
    n = graph.num_nodes
    # Distribution walks the reversed arcs; an undirected graph is its own
    # reversal (``rev_csr()`` is None).
    dist_csr = graph.rev_csr() or graph.csr()

    # Phase 1: partial distribution in descending score order.
    distributed, effective_gamma, rest_bound = backward_distribution_split(
        np, scores, scores_arr, gamma, distribution_fraction
    )
    partial, covered, pushes = distribute_scores(
        np, dist_csr, distributed, scores_arr, spec.hops, include_self,
        resolve_block_size(None, n, int(dist_csr.num_arcs)), counter, kernels,
        weights,
    )
    self_distributed = np.zeros(n, dtype=bool)
    if include_self:
        self_distributed[distributed] = True

    # Phase 2: Eq. 3 upper bound for every node, one array expression.
    if weights is not None:
        self_scores = weights[0] * scores_arr
        w_max = float(weights[1:].max()) if weights.size > 1 else 0.0
        unknown_bound = w_max * rest_bound
    else:
        self_scores = scores_arr
        unknown_bound = rest_bound
    # Under the exact shortcut (nothing undistributed, exact AVG sizes) the
    # bound *is* the exact value, bit for bit: Eq. 3 adds ``0.0 * unknown``
    # and divides by a lower size equal to the upper one.  One array serves.
    exact = rest_bound == 0.0 and (not is_avg or sizes.is_exact)
    if exact:
        bounds = backward_shortcut_values(
            np, self_scores, partial, self_distributed, sizes,
            include_self=include_self, is_avg=is_avg,
        )
    else:
        bounds = backward_eq3_bounds(
            np, self_scores, partial, covered, self_distributed, sizes,
            unknown_bound, include_self=include_self, is_avg=is_avg,
        )
    if exact and not is_avg:
        # Everything non-zero is distributed, so every node's own term is
        # 0.0: the shortcut's SUM values *are* the partial sums.
        partial = bounds
    covered = covered.astype(np.int32)
    # A memo hands them to racing readers.
    for array in (bounds, partial, covered):
        array.flags.writeable = False
    return BackwardState(
        distributed, effective_gamma, rest_bound, pushes, bounds, exact,
        partial, covered,
    )


def repair_backward_state(
    np, state, scores_arr, distributed, sizes, rows, nodes=None, delta=None, *,
    include_self, is_avg,
) -> BackwardState:
    """``state`` after a write that keeps its gamma and ``rest_bound``: what
    a fresh :func:`_backward_state` over the written inputs returns, byte
    for byte (undirected, unweighted reads).

    ``distributed`` is the written vector's set and ``rows`` the nodes
    whose bound the write can have moved through their size estimates or
    their own score.  ``nodes`` and ``delta``, when given, are the rows
    whose coverage count the write shifted and the shift of each.  Only a
    0/1 vector's state takes them: its every deposit is 1.0, so a partial
    sum is the coverage count itself, exact in any summation order, and
    shifts with it.  Every other row keeps its partial sum and count, and
    Eq. 3 (or the shortcut) is re-evaluated at ``rows`` and ``nodes`` of a
    copy of the bounds.
    """
    # Racing readers hold the old arrays, so a repair writes copies; where
    # the shortcut shares one array (:func:`_backward_state`), it is copied
    # once — every shifted row is among ``rows`` and re-evaluated below.
    shared = state.partial is state.bounds
    bounds = state.bounds.copy()
    partial, covered, pushes = state.partial, state.covered, state.pushes
    if nodes is not None:
        partial = bounds if shared else partial.copy()
        covered = covered.copy()
        partial[nodes] += delta
        covered[nodes] += delta
        pushes += int(delta.sum())
        rows = np.union1d(rows, nodes)
    row_scores = scores_arr[rows]
    self_distributed = (row_scores > 0.0) & (row_scores >= state.gamma) & include_self
    shape = {"include_self": include_self, "is_avg": is_avg, "rows": rows}
    if state.exact:
        values = backward_shortcut_values(
            np, row_scores, partial[rows], self_distributed, sizes, **shape
        )
    else:
        values = backward_eq3_bounds(
            np, row_scores, partial[rows], covered[rows], self_distributed, sizes,
            state.rest_bound, **shape,
        )
    bounds[rows] = values
    if shared:
        partial = bounds
    for array in (bounds, partial, covered):
        array.flags.writeable = False
    return state._replace(
        distributed=distributed, pushes=pushes, bounds=bounds, partial=partial,
        covered=covered,
    )


def _backward_topk(
    np, graph, scores, spec, weights, gamma, distribution_fraction, sizes,
    kernels, memo=None,
) -> TopKResult:
    """Both LONA-Backward drivers: ``weights is None`` is the paper's form,
    an array footnote 1's (whose Eq. 3 charges an unknown member ``w_max *
    rest_bound`` and an undistributed center ``w(0) * f``).  With a ``memo``,
    a vector's own array (SUM, AVG, binary COUNT) keeps its phases 1-2
    there, keyed by the inputs they read beyond the memo's graph view."""
    weighted = weights is not None
    scores_arr, _ = folded_scores(np, scores, spec.aggregate)
    is_avg = spec.aggregate is AggregateKind.AVG
    hops = spec.hops
    include_self = spec.include_self

    build_sec = 0.0
    if sizes is None:
        build_start = time.perf_counter()
        sizes = NeighborhoodSizeIndex.estimated(
            graph, hops, include_self=include_self
        )
        build_sec = time.perf_counter() - build_start

    start = time.perf_counter()
    csr = graph.csr()
    counter = TraversalCounter()
    n = graph.num_nodes
    stats = QueryStats(
        algorithm="weighted-backward" if weighted else "backward",
        aggregate=spec.aggregate.value,
        backend=kernels.name,
        hops=hops,
        k=spec.k,
        index_build_sec=build_sec,
    )

    state = key = None
    if memo is not None and isinstance(scores, ScoreVector) and (
        scores_arr is scores.array()
    ):
        key = (gamma, distribution_fraction, sizes)
        state = memo.get(scores, is_avg, key)
    if state is None:
        state = _backward_state(
            np, graph, scores, scores_arr, spec, weights, gamma,
            distribution_fraction, sizes, kernels, counter,
        )
        if key is not None:
            memo.put(scores, is_avg, key, state)
    stats.distribution_pushes = state.pushes
    stats.bound_evaluations = n
    # Descending bound order, sorted only as far as verification reaches.
    candidate_order = descending_prefixes(np, state.bounds, max(2 * spec.k, 64))

    # Phase 3: verification in descending bound order, TA-style stop.
    acc = TopKAccumulator(spec.k)
    if weighted:

        def verify(chunk):
            return kernels.weighted_ball_sums(
                np, csr, chunk, scores_arr, weights, hops, include_self, counter,
            )

    else:
        verify_kind = AggregateKind.AVG if is_avg else AggregateKind.SUM

        def verify(chunk):
            return kernels.ball_values(
                np, csr, chunk, scores_arr, verify_kind, hops, include_self,
                counter,
            )[0]

    offered = verify_blocked(
        np, candidate_order, state.bounds, acc, stats,
        kernels.block_size(None, n, int(csr.num_arcs), role="verify"),
        verify, state.bounds if state.exact else None,
    )

    stats.pruned_nodes = n - offered
    stats.elapsed_sec = time.perf_counter() - start
    stats.edges_scanned = counter.edges_scanned
    stats.nodes_visited = counter.nodes_visited
    stats.balls_expanded = counter.balls_expanded
    stats.extra["gamma"] = state.gamma
    stats.extra["distributed_nodes"] = float(state.distributed.size)
    stats.extra["rest_bound"] = state.rest_bound
    stats.extra["exact_shortcut"] = float(state.exact)
    return TopKResult(entries=acc.entries(), stats=stats)


# ---------------------------------------------------------------------------
# The numpy kernel provider
# ---------------------------------------------------------------------------
class NumpyKernels:
    """Block kernels of ``backend="numpy"``: sort-dedup expansion + segment reductions.

    The provider seam (DESIGN.md §8): the drivers below own every route and
    ask a provider only to *evaluate a block*.  Each primitive charges
    ``counter`` with the same ``(edges_scanned, nodes_visited,
    balls_expanded)`` a per-center BFS would and returns the values the
    Python reference computes over the sorted ball
    (``tests/test_block_kernels.py``):

    * :meth:`ball_values` — exact aggregates of a block of balls, any kind
      (COUNT arrives folded to SUM), plus the ball sizes when asked;
    * :meth:`weighted_ball_sums` — footnote 1's ``sum w(d) f(v)`` per ball;
    * :meth:`fused_ball_values` — every query of a batch over one expansion;
    * :meth:`prune_step` — Eq. 1's neighbor pass for one evaluated block;
    * :meth:`block_size` — the block profile of each loop.

    No primitive owns a loop: LONA-Backward's verification is
    :func:`verify_blocked`, a ``ball_values`` / ``weighted_ball_sums`` call
    per block.

    A provider lives as long as its query (a pool worker: its task).
    ``ball_index`` is a :class:`~repro.graph.csr.CSRBallIndex` — the
    session's when the query runs in the session's process, the worker's own
    in a pool / cluster task.  Every block of every primitive but
    :meth:`prune_step` is read through it: present balls are gathered, only
    absent ones are expanded (and charged), appended and merged back in
    block order — the pairs a full expansion returns, so the same values.
    """

    name = "numpy"

    def __init__(self, ball_index: Optional[CSRBallIndex] = None) -> None:
        self._ball_index = ball_index
        # The last block's expansion, released one block late on purpose:
        # the pair arrays are a block's last big allocations, and freeing
        # them before the next block allocates lets glibc trim the heap
        # after every block and fault it back in (16,000-node base scan:
        # 2.7k -> 16k minor faults per query, 70 -> 88 ms).
        self._held = None

    def block_size(self, requested, num_nodes: int, num_arcs: int, *, role="scan"):
        """:func:`resolve_block_size`; ``role`` names the loop: ``"scan"``,
        ``"prune"`` (forward, the pruning cap) or ``"verify"`` (blocked TA
        verification, :data:`_VERIFY_BLOCK` at most)."""
        block = resolve_block_size(requested, num_nodes, num_arcs, pruning=role == "prune")
        if role == "verify" and requested is None:
            block = min(block, _VERIFY_BLOCK)
        return block

    def _block_pairs(self, csr, centers, hops, include_self, counter, labels=False):
        """``(owners, members)`` of one block — ``(owners, members, dists)``
        with ``labels`` — through the ball index when it was built for this
        ``(csr, hops, include_self)``; whatever has to be expanded is charged
        to ``counter``."""

        def expand(block):
            kernel = batched_hop_balls_with_distances if labels else batched_hop_balls
            *pairs, edges = kernel(csr, block, hops, include_self=include_self)
            counter.charge_block(edges, pairs[1].size, int(block.size), include_self)
            return tuple(pairs)

        index = self._ball_index
        if index is not None and index.serves(csr, hops, include_self):
            pairs = index.pairs(centers, expand, labels)
        else:
            pairs = expand(centers)
        self._held = pairs
        return pairs

    def ball_values(
        self, np, csr, centers, scores, kind, hops, include_self, counter,
        *, want_sizes=False,
    ):
        """``(values, sizes)`` of the ``centers`` balls; ``sizes`` is
        ``None`` unless asked for (a pass base never needs)."""
        owners, members = self._block_pairs(csr, centers, hops, include_self, counter)
        count = int(centers.size)
        values = aggregate_ball_segments(np, kind, owners, scores[members], count)
        return values, run_sizes(np, owners, count) if want_sizes else None

    def weighted_ball_sums(
        self, np, csr, centers, scores, weights, hops, include_self, counter
    ):
        """Distance-weighted SUM of every center's ball: hop-labelled pairs
        reduced as ``bincount(owners, w[dist] * f[member])``."""
        owners, members, dists = self._block_pairs(
            csr, centers, hops, include_self, counter, labels=True
        )
        return np.bincount(
            owners, weights=weights[dists] * scores[members], minlength=int(centers.size)
        )

    def fused_ball_values(
        self, np, csr, centers, node_scores, avg_rows, hops, include_self, counter
    ):
        """``(queries x centers)`` values: one expansion, then the module's
        :func:`fused_ball_values` over the node-major score matrix."""
        owners, members = self._block_pairs(csr, centers, hops, include_self, counter)
        return fused_ball_values(
            np, node_scores, avg_rows, owners, members, int(centers.size)
        )

    def prune_step(
        self, np, csr, deltas, sources, source_sums, threshold, ubound_sum,
        inv_size, evaluated, pruned,
    ):
        """Eq. 1's ``pruneNodes`` for the evaluated ``sources`` (exact sums
        ``source_sums``): every open neighbor's running-minimum bound takes
        ``F(u) + delta(v-u)``, then touched nodes whose (AVG-scaled, when
        ``inv_size`` is given) bound cannot beat ``threshold`` are pruned.
        Updates ``ubound_sum``/``pruned`` in place; returns ``(bounds
        evaluated, nodes newly pruned)``.  Every surviving node's neighbor
        slice is gathered in one shot."""
        positions, counts = slab_positions(csr, sources)
        if positions.size == 0:
            return 0, 0
        neighbors = csr.indices[positions]
        bounds = np.repeat(source_sums, counts) + deltas[positions]
        open_mask = ~(evaluated[neighbors] | pruned[neighbors])
        targets = neighbors[open_mask]
        if targets.size == 0:
            return 0, 0
        np.minimum.at(ubound_sum, targets, bounds[open_mask])
        candidates = np.unique(targets)
        effective = ubound_sum[candidates]
        if inv_size is not None:
            effective = effective * inv_size[candidates]
        newly_pruned = candidates[effective <= threshold]
        pruned[newly_pruned] = True
        return int(targets.size), int(newly_pruned.size)
