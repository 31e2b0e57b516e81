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

Every handler keeps only its attach/slice/ship plumbing and evaluates each
block through :class:`~repro.core.vectorized.NumpyKernels` — the same
primitives the in-process drivers of :mod:`repro.core.vectorized` call, plus
their threshold-gated ``offer_block`` — over the worker's *owned* centers
only, which is what makes a shard's answer exact for its members and the
merged answer exact globally (see :mod:`repro.parallel.merge`).

Results travel back one of two ways.  By default a task's entries ride
the reply pipe as pickled tuples.  A task carrying a ``"reply"``
descriptor instead writes its ``(node, value)`` rows into the named
shared-memory buffer the engine preallocated for that task slot and
replies with just the row count — the reply shrinks to a counters dict
regardless of ``k``, which is the measured pipe-byte win.
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Optional

from repro.aggregates.functions import AggregateKind
from repro.core.deadline import check_deadline
from repro.core.topk import TopKAccumulator
from repro.core.vectorized import NumpyKernels, offer_block
from repro.errors import FaultInjectedError, StaleShardError
from repro.faults import fault_point
from repro.graph.csr import AttachedArray, AttachedCSR, CSRBallIndex
from repro.graph.traversal import TraversalCounter
from repro.relevance.base import folded_scores

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
        self.index: Optional[CSRBallIndex] = None  # see :func:`_ball_index`

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
        if self._retired and self.index is not None:
            if not any(a.csr is self.index.csr for a in self._csrs.values()):
                self.index = None  # its CSR is among the retired
        for attachment in self._retired:
            attachment.close()
        self._retired = []

    def close(self) -> None:
        self.index = None
        self.flush_retired()
        for attachment in list(self._arrays.values()):
            attachment.close()
        for attachment in list(self._csrs.values()):
            attachment.close()
        self._arrays.clear()
        self._csrs.clear()


def _ball_index(cache, csr, task: dict) -> CSRBallIndex:
    """The worker's one ball index, rebuilt when ``task`` reads another view
    than it holds; ``csr`` comes from ``cache.csr()`` (stamp checked) and
    the cap from the task (``index_bytes``; every task kind that reads the
    index carries it)."""
    index = cache.index
    if index is None or not index.serves(csr, task["hops"], task["include_self"]):
        index = cache.index = CSRBallIndex(
            csr, task["hops"], include_self=task["include_self"],
            max_bytes=task["index_bytes"],
        )
    return index


def _ship_pairs(np, cache, task, out: dict, pairs) -> dict:
    """Attach ``(node, value)`` pairs to a reply, via shared buffer if offered.

    With a usable ``"reply"`` descriptor the pairs land in the engine's
    preallocated shared segment as float64 rows and only their count
    crosses the pipe; otherwise (no buffer, stripped re-issue, or an
    overflow that should never happen for ``k``-bounded results) they ride
    the pipe as before.
    """
    reply = task.get("reply")
    if reply is None or len(pairs) > reply["capacity"]:
        out["entries"] = pairs
        return out
    buffer = cache.array(reply["buffer"])
    n = len(pairs)
    if n:
        buffer[:n] = np.asarray(pairs, dtype=np.float64)
    out["entries_n"] = n
    return out


def _counters(counter: TraversalCounter, evaluated: int) -> Dict[str, int]:
    """The reply's work counters: the traversal's plus ``nodes_evaluated``."""
    return {**counter.snapshot(), "nodes_evaluated": evaluated}


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

    ``weights`` (optional) makes it footnote 1's distance-weighted SUM: the
    decay profile arrives pre-evaluated, one weight per hop distance
    (callables do not cross process boundaries).
    """
    csr = cache.csr(task["csr"]).csr
    scores = cache.array(task["scores"])
    if task.get("centers") is not None:
        centers = np.asarray(task["centers"], dtype=np.int64)
    else:
        centers = cache.array(task["owned"])
        if "hi" in task:
            centers = centers[task.get("lo", 0) : task["hi"]]
    folded, kind = folded_scores(np, scores, AggregateKind(task["aggregate"]))
    block = task["block"]
    index = _ball_index(cache, csr, task)
    kernels = NumpyKernels(index)
    counter = TraversalCounter()
    acc = TopKAccumulator(task["k"])
    weights = task.get("weights")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
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
        if weights is None:
            values, _ = kernels.ball_values(
                np, csr, chunk, folded, kind, task["hops"], task["include_self"],
                counter,
            )
        else:
            values = kernels.weighted_ball_sums(
                np, csr, chunk, folded, weights, task["hops"],
                task["include_self"], counter,
            )
        offer_block(np, acc, chunk, values)
        evaluated += int(chunk.size)
    out = {
        "counters": _counters(counter, evaluated),
        "evaluated": evaluated,
        "pruned": pruned,
        "ball_index": index.stats(),
    }
    return _ship_pairs(np, cache, task, out, acc.entries())


def _batch_task(np, cache: _AttachmentCache, task: dict) -> dict:
    """Fused multi-query shared scan over the shard's owned centers.

    One ``fused_ball_values`` call per node block — the same fusion as
    :func:`repro.core.batch._shared_scan_numpy`, run on one shard's slice of
    the node universe.  Unlike the in-process scan this loop polls at block
    boundaries: under a cluster task scope the deadline is the task budget,
    not one coalesced caller's.
    """
    csr = cache.csr(task["csr"]).csr
    centers = cache.array(task["owned"])
    columns = []
    avg_flags = []
    for meta, aggregate in task["scores_list"]:
        folded, kind = folded_scores(np, cache.array(meta), AggregateKind(aggregate))
        columns.append(folded)
        avg_flags.append(kind is AggregateKind.AVG)
    node_scores = np.stack(columns, axis=1)
    avg_rows = np.asarray(avg_flags, dtype=bool)
    accumulators = [TopKAccumulator(k) for k in task["ks"]]
    block = task["block"]
    index = _ball_index(cache, csr, task)
    kernels = NumpyKernels(index)
    counter = TraversalCounter()
    for lo in range(0, int(centers.size), block):
        check_deadline()  # block boundary (live under a cluster task scope)
        chunk = centers[lo : lo + block]
        values = kernels.fused_ball_values(
            np, csr, chunk, node_scores, avg_rows, task["hops"],
            task["include_self"], counter,
        )
        for i, acc in enumerate(accumulators):
            offer_block(np, acc, chunk, values[i])
    return {
        "entries_list": [acc.entries() for acc in accumulators],
        "counters": _counters(counter, int(centers.size)),
        "ball_index": index.stats(),
    }


_HANDLERS = {
    "scan": _scan_task,
    "batch": _batch_task,
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
