"""Worker-process side of the parallel backend.

``worker_main`` is the entry point each pool process runs: a loop pulling
``(task_id, payload)`` messages off the task queue, dispatching to one of
the partition-aware kernels below, and pushing ``(task_id, status, result)``
back.  Workers are *warm*: shared-memory attachments (the CSR export, score
vectors, owned-node arrays, bound arrays) are cached across tasks keyed by
segment name — segment names are unique per export, so a re-export after a
graph mutation shows up as new names and the stale attachments simply age
out of the cache.  Before serving, a worker additionally checks the CSR
export's live version stamp against the version its task named, so a task
raced by a mutation is answered with ``"stale"`` (the engine refreshes and
retries) rather than with numbers from a dead graph.

Every kernel reuses the in-process numpy machinery —
:func:`repro.graph.csr.batched_hop_balls`,
:func:`repro.core.vectorized.aggregate_ball_segments`, the
threshold-gated ``_offer_block`` — over the worker's *owned* centers only,
which is what makes a shard's answer exact for its members and the merged
answer exact globally (see :mod:`repro.parallel.merge`).  When a task
carries ``"native": True`` and :mod:`repro.native.kernels` imports here,
the per-block ball evaluation runs on the stamp-BFS kernels instead —
bit-identical values (the kernels accumulate in bincount order), just
faster when compiled.  Whether to ask is the engine's decision: it offers
native only when the kernels actually compiled (interpreted kernels are a
parity-testing device and lose to numpy); the worker just honours the flag.

Results travel back one of two ways.  By default a task's entries ride
the reply pipe as pickled tuples.  A task carrying a ``"reply"``
descriptor instead writes its ``(node, value)`` rows into the named
shared-memory buffer the engine preallocated for that task slot and
replies with just the row count — the reply shrinks to a counters dict
regardless of ``k``, which is the measured pipe-byte win.
"""

from __future__ import annotations

import traceback
from typing import Dict, List

from repro.aggregates.functions import AggregateKind
from repro.core.deadline import check_deadline
from repro.core.topk import TopKAccumulator
from repro.errors import FaultInjectedError, StaleShardError
from repro.faults import fault_point
from repro.graph.csr import AttachedArray, AttachedCSR

__all__ = ["worker_main"]

#: Cached attachments per worker beyond which the oldest are unmapped.
_ATTACH_CACHE_LIMIT = 64


class _AttachmentCache:
    """Name-keyed cache of shared-memory attachments (insertion-ordered).

    Evictions never unmap immediately: the evicted attachment may back a
    numpy view the *currently running* task still reads (a wide batch can
    attach more segments than the cache limit in one task), and unmapping
    under a live view is a use-after-unmap crash.  Evicted attachments are
    retired to a side list that :meth:`flush_retired` closes between
    tasks, when no kernel is executing.
    """

    def __init__(self) -> None:
        self._arrays: Dict[str, AttachedArray] = {}
        self._csrs: Dict[str, AttachedCSR] = {}
        self._retired: List = []

    def array(self, meta: dict):
        name = meta["name"]
        hit = self._arrays.get(name)
        if hit is None:
            hit = AttachedArray.attach(meta)
            self._arrays[name] = hit
            self._evict(self._arrays)
        return hit.array

    def csr(self, meta: dict) -> AttachedCSR:
        name = meta["indptr"]["name"]
        hit = self._csrs.get(name)
        if hit is None:
            hit = AttachedCSR.attach(meta)
            self._csrs[name] = hit
            self._evict(self._csrs)
        if not hit.fresh():
            raise StaleShardError(
                f"shared CSR version {hit.version} was invalidated by the owner"
            )
        return hit

    def _evict(self, cache: dict) -> None:
        while len(cache) > _ATTACH_CACHE_LIMIT:
            oldest = next(iter(cache))
            self._retired.append(cache.pop(oldest))

    def flush_retired(self) -> None:
        """Unmap evicted attachments (call only between tasks)."""
        for attachment in self._retired:
            attachment.close()
        self._retired = []

    def close(self) -> None:
        self.flush_retired()
        for attachment in list(self._arrays.values()):
            attachment.close()
        for attachment in list(self._csrs.values()):
            attachment.close()
        self._arrays.clear()
        self._csrs.clear()


def _fold(np, scores, aggregate: str):
    """(folded scores, effective kind): COUNT folds to its 0/1 indicator."""
    kind = AggregateKind(aggregate)
    if kind is AggregateKind.COUNT:
        return np.where(scores > 0.0, 1.0, 0.0), AggregateKind.SUM
    return scores, kind


# ----------------------------------------------------------------------
# Compiled kernel tier (optional, per-task opt-in)
# ----------------------------------------------------------------------
_NATIVE_KERNELS = None  # None = unprobed, False = unavailable, module = ready


def _native_kernels():
    """The kernel module a ``"native": True`` task runs on, or ``None``
    when it cannot be imported here (the task then runs on numpy)."""
    global _NATIVE_KERNELS
    if _NATIVE_KERNELS is None:
        try:
            from repro.native import kernels
            from repro.native.compile_cache import ensure_warm

            ensure_warm()
            _NATIVE_KERNELS = kernels
        except Exception:  # pragma: no cover - partial numba installs
            _NATIVE_KERNELS = False
    return _NATIVE_KERNELS or None


_KIND_CODES = {
    AggregateKind.SUM: 0,
    AggregateKind.AVG: 1,
    AggregateKind.MAX: 2,
    AggregateKind.MIN: 3,
}


class _NativeScratch:
    """Per-worker stamp/member scratch reused across tasks (one graph size)."""

    __slots__ = ("n", "gen", "stamp", "member_buf", "dist_buf", "scaled_buf")

    def __init__(self) -> None:
        self.n = -1
        self.gen = 0
        self.stamp = None
        self.member_buf = None
        self.dist_buf = None
        self.scaled_buf = None

    def take(self, np, n: int, count: int) -> int:
        """Reserve ``count`` fresh generations; returns the first one."""
        if n != self.n:
            self.stamp = np.full(n, -1, dtype=np.int64)
            self.member_buf = np.empty(n, dtype=np.int64)
            self.dist_buf = None
            self.scaled_buf = None
            self.n = n
            self.gen = 0
        gen0 = self.gen + 1
        self.gen += count
        return gen0

    def distance_buffers(self, np, n: int):
        if self.dist_buf is None:
            self.dist_buf = np.empty(n, dtype=np.int64)
            self.scaled_buf = np.empty(n, dtype=np.int64)
        return self.dist_buf, self.scaled_buf


_SCRATCH = _NativeScratch()


def _native_eval(np, kernels, csr, chunk, folded, kind, hops, include_self, counters):
    """One block's aggregates on the jitted kernel (numpy-order identical)."""
    count = int(chunk.size)
    gen0 = _SCRATCH.take(np, int(csr.num_nodes), count)
    values = np.empty(count, dtype=np.float64)
    sizes = np.empty(count, dtype=np.int64)
    edges, pairs = kernels.aggregate_blocks(
        csr.indptr,
        csr.indices,
        folded,
        np.ascontiguousarray(chunk, dtype=np.int64),
        hops,
        include_self,
        _KIND_CODES[kind],
        _SCRATCH.stamp,
        gen0,
        _SCRATCH.member_buf,
        values,
        sizes,
    )
    counters["edges_scanned"] += int(edges)
    counters["nodes_visited"] += int(pairs) + (0 if include_self else count)
    counters["balls_expanded"] += count
    return values


def _eval_block(np, task, csr, chunk, folded, kind, counters, native):
    """Exact aggregates of one center block: jitted when offered, else numpy."""
    from repro.core.vectorized import aggregate_ball_segments

    hops = task["hops"]
    include_self = task["include_self"]
    if native is not None:
        return _native_eval(
            np, native, csr, chunk, folded, kind, hops, include_self, counters
        )
    owners, members = _expand_block(np, csr, chunk, hops, include_self, counters)
    return aggregate_ball_segments(
        np, kind, owners, folded[members], int(chunk.size)
    )


def _ship_pairs(np, cache, task, out: dict, pairs, key: str) -> dict:
    """Attach ``(node, value)`` pairs to a reply, via shared buffer if offered.

    With a usable ``"reply"`` descriptor the pairs land in the engine's
    preallocated shared segment as float64 rows and only their count
    crosses the pipe; otherwise (no buffer, stripped re-issue, or an
    overflow that should never happen for ``k``-bounded results) they ride
    the pipe as before.
    """
    reply = task.get("reply")
    if reply is None or len(pairs) > reply["capacity"]:
        out[key] = pairs
        return out
    buffer = cache.array(reply["buffer"])
    n = len(pairs)
    if n:
        buffer[:n] = np.asarray(pairs, dtype=np.float64)
    out[key + "_n"] = n
    return out


def _counters() -> Dict[str, int]:
    return {
        "edges_scanned": 0,
        "nodes_visited": 0,
        "balls_expanded": 0,
        "nodes_evaluated": 0,
    }


def _expand_block(np, csr, centers, hops: int, include_self: bool, counters):
    from repro.graph.csr import batched_hop_balls

    owners, members, edges = batched_hop_balls(
        csr, centers, hops, include_self=include_self
    )
    count = int(centers.size)
    counters["edges_scanned"] += edges
    counters["nodes_visited"] += int(members.size) + (0 if include_self else count)
    counters["balls_expanded"] += count
    return owners, members


def _scan_task(np, cache: _AttachmentCache, task: dict) -> dict:
    """Exact shard top-k over owned centers, optionally bound-pruned.

    Without ``bounds`` this is the sharded Base scan: centers ascending,
    every aggregate kind.  With ``bounds`` (per-node static upper bounds,
    the LONA-Forward static-pruning arm) centers are visited in descending
    bound order and the scan stops once no unseen owned node can beat the
    shard's k-th value — the per-shard analogue of Algorithm 1's
    threshold test.

    ``lo``/``hi`` (optional) select a slice of the owned array — the
    engine's work-stealing chunks name sub-ranges of the already-exported
    shard instead of shipping center lists per chunk.
    """
    from repro.core.vectorized import _offer_block

    attached = cache.csr(task["csr"])
    csr = attached.csr
    scores = cache.array(task["scores"])
    if task.get("centers") is not None:
        centers = np.asarray(task["centers"], dtype=np.int64)
    else:
        centers = cache.array(task["owned"])
        if "hi" in task:
            centers = centers[task.get("lo", 0) : task["hi"]]
    folded, kind = _fold(np, scores, task["aggregate"])
    block = task["block"]
    counters = _counters()
    native = _native_kernels() if task.get("native") else None
    acc = TopKAccumulator(task["k"])
    bounds_meta = task.get("bounds")
    ordered_bounds = None
    if bounds_meta is not None:
        bounds = cache.array(bounds_meta)
        order = np.lexsort((centers, -bounds[centers]))
        centers = centers[order]
        ordered_bounds = bounds[centers]
    evaluated = 0
    pruned = 0
    for lo in range(0, int(centers.size), block):
        check_deadline()  # block boundary (live under a cluster task scope)
        if (
            ordered_bounds is not None
            and acc.is_full
            and float(ordered_bounds[lo]) <= acc.threshold
        ):
            pruned = int(centers.size) - evaluated
            break
        chunk = centers[lo : lo + block]
        values = _eval_block(np, task, csr, chunk, folded, kind, counters, native)
        _offer_block(np, acc, chunk, values)
        evaluated += int(chunk.size)
    counters["nodes_evaluated"] = evaluated
    out = {
        "counters": counters,
        "evaluated": evaluated,
        "pruned": pruned,
    }
    return _ship_pairs(np, cache, task, out, acc.entries(), "entries")


def _batch_task(np, cache: _AttachmentCache, task: dict) -> dict:
    """Fused multi-query shared scan over the shard's owned centers.

    One ball expansion per node block; every query's values come out of
    :func:`repro.core.vectorized.fused_ball_values` — the same fusion as
    :func:`repro.core.batch._shared_scan_numpy`, run on one shard's slice of
    the node universe.
    """
    from repro.core.vectorized import _offer_block, fused_ball_values

    attached = cache.csr(task["csr"])
    csr = attached.csr
    centers = cache.array(task["owned"])
    columns = []
    avg_flags = []
    for meta, aggregate in task["scores_list"]:
        folded, kind = _fold(np, cache.array(meta), aggregate)
        columns.append(folded)
        avg_flags.append(kind is AggregateKind.AVG)
    node_scores = np.stack(columns, axis=1)
    avg_rows = np.asarray(avg_flags, dtype=bool)
    accumulators = [TopKAccumulator(k) for k in task["ks"]]
    hops = task["hops"]
    include_self = task["include_self"]
    block = task["block"]
    counters = _counters()
    for lo in range(0, int(centers.size), block):
        check_deadline()  # block boundary (live under a cluster task scope)
        chunk = centers[lo : lo + block]
        owners, members = _expand_block(np, csr, chunk, hops, include_self, counters)
        values = fused_ball_values(
            np, node_scores, avg_rows, owners, members, int(chunk.size)
        )
        for i, acc in enumerate(accumulators):
            _offer_block(np, acc, chunk, values[i])
    counters["nodes_evaluated"] = int(centers.size)
    return {
        "entries_list": [acc.entries() for acc in accumulators],
        "counters": counters,
    }


def _distribute_task(np, cache: _AttachmentCache, task: dict) -> dict:
    """LONA-Backward phase 1 for one shard: push owned high scores outward.

    The shard distributes exactly its owned nodes with ``f(u) >= gamma``
    over the (reversed, for directed graphs) shared CSR, accumulating the
    partial-sum and coverage-count arrays for *all* n nodes.  The engine
    sums these per-shard states — addition is order-independent on the
    count side and reassociates only the float partials (values are
    verified exactly afterwards, so bound soundness is all that matters).
    """
    attached = cache.csr(task["csr"])
    csr = attached.csr
    scores, _kind = _fold(np, cache.array(task["scores"]), task["aggregate"])
    owned = cache.array(task["owned"])
    gamma = task["gamma"]
    hops = task["hops"]
    include_self = task["include_self"]
    block = task["block"]
    n = csr.num_nodes
    mine = owned[(scores[owned] > 0.0) & (scores[owned] >= gamma)]
    partial = np.zeros(n, dtype=np.float64)
    covered = np.zeros(n, dtype=np.int64)
    counters = _counters()
    pushes = 0
    for lo in range(0, int(mine.size), block):
        check_deadline()  # block boundary (live under a cluster task scope)
        chunk = mine[lo : lo + block]
        owners, members = _expand_block(np, csr, chunk, hops, include_self, counters)
        ball_sizes = np.bincount(owners, minlength=chunk.size)
        partial += np.bincount(
            members, weights=np.repeat(scores[chunk], ball_sizes), minlength=n
        )
        covered += np.bincount(members, minlength=n)
        pushes += int(members.size)
    # Ship only the touched slice: the pipe payload then scales with the
    # distribution's actual reach, not with n (a sparse gamma cut on a
    # million-node graph touches a fraction of it).
    touched = np.nonzero(covered)[0]
    return {
        "touched": touched,
        "partial": partial[touched],
        "covered": covered[touched],
        "pushes": pushes,
        "distributed": int(mine.size),
        "counters": counters,
    }


def _verify_task(np, cache: _AttachmentCache, task: dict) -> dict:
    """Exact aggregates of an explicit candidate set (TA verification)."""
    attached = cache.csr(task["csr"])
    csr = attached.csr
    scores = cache.array(task["scores"])
    centers = np.asarray(task["centers"], dtype=np.int64)
    folded, kind = _fold(np, scores, task["aggregate"])
    block = task["block"]
    counters = _counters()
    native = _native_kernels() if task.get("native") else None
    nodes: List[int] = []
    values: List[float] = []
    for lo in range(0, int(centers.size), block):
        check_deadline()  # block boundary (live under a cluster task scope)
        chunk = centers[lo : lo + block]
        chunk_values = _eval_block(np, task, csr, chunk, folded, kind, counters, native)
        nodes.extend(int(c) for c in chunk)
        values.extend(float(v) for v in chunk_values)
    counters["nodes_evaluated"] = int(centers.size)
    return _ship_pairs(
        np, cache, task, {"counters": counters}, list(zip(nodes, values)), "pairs"
    )


def _weighted_task(np, cache: _AttachmentCache, task: dict) -> dict:
    """Distance-weighted SUM over owned centers (the paper's footnote 1).

    The decay profile arrives pre-evaluated as one weight per hop distance
    (callables do not cross process boundaries); each block expands with
    the distance-labeled kernel and reduces ``w[d] * f(member)`` per owner.
    """
    from repro.graph.csr import batched_hop_balls_with_distances

    attached = cache.csr(task["csr"])
    csr = attached.csr
    scores = cache.array(task["scores"])
    centers = cache.array(task["owned"])
    if "hi" in task:
        centers = centers[task.get("lo", 0) : task["hi"]]
    weights = np.asarray(task["weights"], dtype=np.float64)
    hops = task["hops"]
    include_self = task["include_self"]
    block = task["block"]
    counters = _counters()
    native = _native_kernels() if task.get("native") else None
    acc = TopKAccumulator(task["k"])
    from repro.core.vectorized import _offer_block

    for lo in range(0, int(centers.size), block):
        check_deadline()  # block boundary (live under a cluster task scope)
        chunk = centers[lo : lo + block]
        count = int(chunk.size)
        if native is not None:
            gen0 = _SCRATCH.take(np, int(csr.num_nodes), count)
            dist_buf, scaled_buf = _SCRATCH.distance_buffers(
                np, int(csr.num_nodes)
            )
            values = np.empty(count, dtype=np.float64)
            sizes = np.empty(count, dtype=np.int64)
            edges, pairs = native.distance_aggregate_blocks(
                csr.indptr,
                csr.indices,
                scores,
                weights,
                np.ascontiguousarray(chunk, dtype=np.int64),
                hops,
                include_self,
                _SCRATCH.stamp,
                gen0,
                _SCRATCH.member_buf,
                dist_buf,
                scaled_buf,
                values,
                sizes,
            )
            counters["edges_scanned"] += int(edges)
            counters["nodes_visited"] += int(pairs) + (
                0 if include_self else count
            )
            counters["balls_expanded"] += count
        else:
            owners, members, dists, edges = batched_hop_balls_with_distances(
                csr, chunk, hops, include_self=include_self
            )
            counters["edges_scanned"] += edges
            counters["nodes_visited"] += int(members.size) + (
                0 if include_self else count
            )
            counters["balls_expanded"] += count
            values = np.bincount(
                owners, weights=weights[dists] * scores[members], minlength=count
            )
        _offer_block(np, acc, chunk, values)
    counters["nodes_evaluated"] = int(centers.size)
    out = {
        "counters": counters,
        "evaluated": int(centers.size),
        "pruned": 0,
    }
    return _ship_pairs(np, cache, task, out, acc.entries(), "entries")


_HANDLERS = {
    "scan": _scan_task,
    "batch": _batch_task,
    "distribute": _distribute_task,
    "verify": _verify_task,
    "weighted": _weighted_task,
}


def worker_main(conn) -> None:
    """Pool-process entry point: serve tasks off the duplex pipe.

    ``conn`` is this worker's private end of a :func:`multiprocessing.Pipe`
    — it is the sole reader of tasks and sole writer of results, so no
    lock is ever shared with the parent or with sibling workers (a killed
    worker closes its own pipe and poisons nothing else).  Exits on the
    ``None`` sentinel or when the parent's end closes.
    """
    import numpy as np

    cache = _AttachmentCache()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):  # parent gone
                break
            if message is None:
                break
            task_id, payload = message
            try:
                fault_point("parallel.worker.task", kind=payload.get("kind"))
                handler = _HANDLERS[payload["kind"]]
                conn.send((task_id, "ok", handler(np, cache, payload)))
            except StaleShardError as exc:
                conn.send((task_id, "stale", str(exc)))
            except FaultInjectedError as exc:
                # Typed retryable failure, raised before the handler ran:
                # the pool re-queues the position (bounded budget).
                conn.send((task_id, "transient", str(exc)))
            except BaseException as exc:  # report, keep serving
                conn.send(
                    (
                        task_id,
                        "error",
                        f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                    )
                )
            finally:
                # Between tasks: no kernel holds views into evicted
                # segments anymore (results carry fresh arrays only).
                cache.flush_retired()
    finally:
        cache.close()
        conn.close()
