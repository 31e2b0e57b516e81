"""Numba-jitted flat-CSR hot loops — the compiled kernel tier.

Every kernel here is the fused, loop-level form of a numpy phase in
:mod:`repro.core.vectorized`: per-center stamp-array BFS instead of the
batched sort-deduped key expansion, sequential accumulation over the
sorted ball members instead of ``bincount``/``reduceat``, and an arc-level
Eq. 1 prune loop instead of the slab gather + ``np.minimum.at``.  The
accumulation *order* is the load-bearing part: members are sorted ascending
and summed left-to-right, exactly the order ``np.bincount`` (pair order over
sorted ``(owner, member)``) and ``ufunc.reduceat`` (sequential within a
segment) use, so every aggregate is bit-identical to the numpy backend's —
ties break the same way and the parity suite can assert entry-for-entry
equality.

When numba is importable the kernels compile with ``@njit(cache=True)``
(fastmath stays off: compiled float arithmetic must be IEEE-identical to
the interpreted fallback) and the on-disk cache makes the compile cost a
once-per-machine event (see :mod:`repro.native.compile_cache`).  Without
numba the decorator is the identity and the same functions run as plain
Python over numpy arrays — semantically identical, just slow; the backend
registry only offers the tier when numba is present, or when
``REPRO_NATIVE_INTERPRETED`` is set.  That one variable means "the kernels
run as plain Python and the tier counts as available": set before this
module is imported it also skips numba where numba is installed, which is
how the parity tests exercise these exact code paths anywhere and how CI
proves the two modes cannot drift apart.

Kernels take caller-owned scratch (``stamp``/``member_buf``/... sized to
the graph) so per-block calls allocate nothing; generations are handed in
by the caller so one stamp array serves a whole query.
"""

from __future__ import annotations

import os

NUMBA_IMPORTABLE = False
_njit_error = None
if not os.environ.get("REPRO_NATIVE_INTERPRETED"):
    try:  # pragma: no cover - exercised only where numba is installed
        from numba import njit as _numba_njit

        NUMBA_IMPORTABLE = True
    except Exception as exc:  # pragma: no cover - import-time probe
        _njit_error = exc

if NUMBA_IMPORTABLE:  # pragma: no cover - compiled path
    def njit(*args, **kwargs):
        return _numba_njit(*args, **kwargs)
else:
    def njit(*args, **kwargs):
        """Identity decorator: kernels run as plain Python over numpy."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap

#: How the kernels in this process execute.
KERNEL_MODE = "compiled" if NUMBA_IMPORTABLE else "interpreted"

#: Aggregate kind codes (COUNT is folded to SUM by callers, through
#: :func:`repro.relevance.base.folded_scores`).
KIND_SUM = 0
KIND_AVG = 1
KIND_MAX = 2
KIND_MIN = 3


@njit(cache=True)
def aggregate_blocks(
    indptr,
    indices,
    scores,
    centers,
    hops,
    include_self,
    kind_code,
    stamp,
    gen0,
    member_buf,
    values_out,
    sizes_out,
):
    """Hop-ball aggregate of every center, one stamp-BFS per center.

    Fills ``values_out[i]`` / ``sizes_out[i]`` for ``centers[i]`` and
    returns ``(edges_scanned, member_pairs)`` with the numpy kernels'
    counting convention (every expanded frontier node's full degree; pairs
    after the ``include_self`` filter).  Empty balls aggregate to 0.0 for
    every kind.  ``stamp`` must be < ``gen0`` everywhere; generation
    ``gen0 + i`` marks center i's ball, so one array serves many calls.
    """
    edges = 0
    pairs = 0
    for i in range(centers.shape[0]):
        gen = gen0 + i
        center = centers[i]
        stamp[center] = gen
        member_buf[0] = center
        tail = 1
        lo = 0
        for _level in range(hops):
            hi = tail
            if lo == hi:
                break
            for fp in range(lo, hi):
                u = member_buf[fp]
                row_hi = indptr[u + 1]
                edges += row_hi - indptr[u]
                for p in range(indptr[u], row_hi):
                    v = indices[p]
                    if stamp[v] != gen:
                        stamp[v] = gen
                        member_buf[tail] = v
                        tail += 1
            if tail == hi:
                break
            lo = hi
        ball = member_buf[:tail]
        ball.sort()
        count = 0
        total = 0.0
        if kind_code <= KIND_AVG:
            for j in range(tail):
                m = ball[j]
                if include_self or m != center:
                    total += scores[m]
                    count += 1
        elif kind_code == KIND_MAX:
            for j in range(tail):
                m = ball[j]
                if include_self or m != center:
                    s = scores[m]
                    if count == 0 or s > total:
                        total = s
                    count += 1
        else:
            for j in range(tail):
                m = ball[j]
                if include_self or m != center:
                    s = scores[m]
                    if count == 0 or s < total:
                        total = s
                    count += 1
        pairs += count
        sizes_out[i] = count
        if kind_code == KIND_AVG:
            values_out[i] = total / count if count > 0 else 0.0
        else:
            values_out[i] = total
    return edges, pairs


@njit(cache=True)
def distance_aggregate_blocks(
    indptr,
    indices,
    scores,
    weights,
    centers,
    hops,
    include_self,
    stamp,
    gen0,
    member_buf,
    dist_buf,
    scaled_buf,
    values_out,
    sizes_out,
):
    """Distance-weighted SUM of every center's ball (footnote 1's form).

    Each member contributes ``weights[dist] * scores[member]`` at its exact
    BFS hop distance (first visit = minimum level).  Contributions add in
    ascending-member order via the same ``member * span + dist`` scaled
    sort the numpy kernel uses, so sums are bit-identical to
    ``np.bincount(owners, weights[dists] * scores[members])``.
    """
    edges = 0
    pairs = 0
    span = hops + 2
    for i in range(centers.shape[0]):
        gen = gen0 + i
        center = centers[i]
        stamp[center] = gen
        member_buf[0] = center
        dist_buf[0] = 0
        tail = 1
        lo = 0
        depth = 0
        for _level in range(hops):
            hi = tail
            if lo == hi:
                break
            depth += 1
            for fp in range(lo, hi):
                u = member_buf[fp]
                row_hi = indptr[u + 1]
                edges += row_hi - indptr[u]
                for p in range(indptr[u], row_hi):
                    v = indices[p]
                    if stamp[v] != gen:
                        stamp[v] = gen
                        member_buf[tail] = v
                        dist_buf[tail] = depth
                        tail += 1
            if tail == hi:
                break
            lo = hi
        for j in range(tail):
            scaled_buf[j] = member_buf[j] * span + dist_buf[j]
        packed = scaled_buf[:tail]
        packed.sort()
        total = 0.0
        count = 0
        for j in range(tail):
            m = packed[j] // span
            d = packed[j] - m * span
            if include_self or m != center:
                total += weights[d] * scores[m]
                count += 1
        pairs += count
        values_out[i] = total
        sizes_out[i] = count
    return edges, pairs


@njit(cache=True)
def batch_aggregate_blocks(
    indptr,
    indices,
    matrix,
    avg_flags,
    centers,
    hops,
    include_self,
    stamp,
    gen0,
    member_buf,
    values_out,
):
    """Fused shared scan: one BFS per center, all query rows accumulated.

    ``matrix`` is the node-major (nodes x queries) folded score matrix —
    the layout the numpy provider gathers rows from, so one matrix serves
    both; ``values_out`` is (queries x centers).  Per-cell accumulation runs
    over the sorted ball members left-to-right and AVG rows divide by
    ``max(ball_size, 1)``, matching
    :func:`repro.core.vectorized.fused_ball_values` to the last ulp (its
    2-d ``np.add.reduceat`` may re-associate a segment's additions, so
    this is the one kernel whose parity is a tolerance, not bit equality).
    """
    edges = 0
    pairs = 0
    q = matrix.shape[1]
    for i in range(centers.shape[0]):
        gen = gen0 + i
        center = centers[i]
        stamp[center] = gen
        member_buf[0] = center
        tail = 1
        lo = 0
        for _level in range(hops):
            hi = tail
            if lo == hi:
                break
            for fp in range(lo, hi):
                u = member_buf[fp]
                row_hi = indptr[u + 1]
                edges += row_hi - indptr[u]
                for p in range(indptr[u], row_hi):
                    v = indices[p]
                    if stamp[v] != gen:
                        stamp[v] = gen
                        member_buf[tail] = v
                        tail += 1
            if tail == hi:
                break
            lo = hi
        ball = member_buf[:tail]
        ball.sort()
        for qq in range(q):
            values_out[qq, i] = 0.0
        count = 0
        for j in range(tail):
            m = ball[j]
            if include_self or m != center:
                count += 1
                for qq in range(q):
                    values_out[qq, i] += matrix[m, qq]
        pairs += count
        denom = count if count > 0 else 1
        for qq in range(q):
            if avg_flags[qq]:
                values_out[qq, i] /= denom
    return edges, pairs


@njit(cache=True)
def forward_prune_block(
    indptr,
    indices,
    deltas,
    sources,
    source_sums,
    ubound_sum,
    evaluated,
    pruned,
    threshold,
    is_avg,
    inv_size,
    stamp,
    gen,
    touched_buf,
):
    """Eq. 1 differential pruning for one evaluated block, arc-level.

    For every source u with exact sum F(u), each open neighbor v's running
    minimum bound takes ``min(ubound_sum[v], F(u) + delta(v-u))``; touched
    nodes are then pruned where the effective (AVG-divided) bound cannot
    beat ``threshold``.  Pruning happens after *all* minimum updates — the
    same two-phase order as the numpy kernel's ``np.minimum.at`` +
    unique-candidates cut — so the final pruned set is identical.
    """
    bound_evals = 0
    tcount = 0
    for i in range(sources.shape[0]):
        u = sources[i]
        fu = source_sums[i]
        for p in range(indptr[u], indptr[u + 1]):
            v = indices[p]
            if evaluated[v] or pruned[v]:
                continue
            bound_evals += 1
            b = fu + deltas[p]
            if b < ubound_sum[v]:
                ubound_sum[v] = b
            if stamp[v] != gen:
                stamp[v] = gen
                touched_buf[tcount] = v
                tcount += 1
    pruned_count = 0
    for j in range(tcount):
        v = touched_buf[j]
        eff = ubound_sum[v] * inv_size[v] if is_avg else ubound_sum[v]
        if eff <= threshold:
            pruned[v] = True
            pruned_count += 1
    return bound_evals, pruned_count


#: Every jitted kernel, for warm-up and cache management.
ALL_KERNELS = (
    aggregate_blocks,
    distance_aggregate_blocks,
    batch_aggregate_blocks,
    forward_prune_block,
)
