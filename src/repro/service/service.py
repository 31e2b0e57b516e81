"""The serving front door: submit queries, get handles back.

:class:`QueryService` binds one :class:`~repro.session.Network` session to
a :class:`~repro.service.scheduler.Scheduler`, a
:class:`~repro.service.cache.ResultCache`, and a readers-writer lock, and
exposes exactly one verb::

    service = net.service(workers=4)   # or QueryService(net, ServiceConfig(workers=4))
    handle = service.submit(net.query("pagerank").limit(10))
    ...
    top = handle.result(timeout=1.0)

Every submission lowers to the same frozen
:class:`~repro.core.request.QueryRequest` the synchronous paths use and
executes through ``Network._run`` — i.e. behind ``executor.execute``, the
seam the ROADMAP designates for serving strategies.  Three things happen on
the way that ``.run()`` alone never did:

* **Coalescing** (workers > 0): compatible concurrently-queued requests —
  plain density-routable shapes per
  :func:`repro.core.batch.coalescible_request` — are executed as *one*
  fused batch shared scan, so independent callers amortize node-block
  expansions.
* **Result caching**: answers are memoized under a graph-version +
  score-epoch key and served without re-execution until a mutation moves
  the version (``cached=False`` opts a submission out, which is how the
  ``.run()`` shim preserves its legacy execute-every-time semantics).
* **Isolation**: queries run under the read side of a writer-preferring
  lock; session mutations take the write side, so a mutation can never
  tear an in-flight traversal.

``workers=0`` (the default the session creates lazily) executes inline on
the submitting thread — the same lifecycle, admission, and caching with
zero threads.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Union

from repro.config import ServiceConfig
from repro.core.batch import BatchQuery, coalescible_request
from repro.core.deadline import deadline_scope
from repro.core.request import QueryRequest
from repro.core.results import QueryStats, TopKResult
from repro.errors import InvalidParameterError
from repro.service.cache import ResultCache
from repro.service.handles import QueryHandle
from repro.service.locks import ReadWriteLock
from repro.service.scheduler import Scheduler
from repro.service.stats import ServiceStats

__all__ = ["QueryService"]


class QueryService:
    """Handle-based asynchronous query execution over one session."""

    def __init__(self, network, config: ServiceConfig) -> None:
        self.config = config
        self._net = network
        self._stats = ServiceStats()
        self.cache = ResultCache()
        self._rw = ReadWriteLock()
        self._coalesce = config.coalesce and config.workers > 0
        self._scheduler = Scheduler(
            self._execute_one,
            self._execute_group,
            workers=config.workers,
            max_pending=config.max_pending,
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Worker-thread count (0 = inline execution on the caller)."""
        return self._scheduler.workers

    @property
    def closed(self) -> bool:
        """True once shut down (the session then creates a fresh service)."""
        return self._scheduler.closed

    def submit(
        self,
        query: Union[QueryRequest, object],
        *,
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
        stream: bool = False,
        cached: bool = True,
    ) -> QueryHandle:
        """Submit one query; returns its :class:`QueryHandle` immediately.

        ``query`` is a :class:`~repro.session.QueryBuilder` or an
        already-lowered :class:`QueryRequest`.  ``priority``/``deadline``
        default to the request's own fields (the builder's ``.priority()``
        / ``.deadline()``); ``deadline`` is seconds from submission after
        which a still-queued query expires.  ``stream=True`` produces
        anytime refinements on :meth:`QueryHandle.updates` (never coalesced
        or cached); ``cached=False`` bypasses the result cache both ways.

        Raises :class:`~repro.errors.ServiceOverloadedError` when admission
        control rejects the submission.
        """
        if isinstance(query, QueryRequest):
            request = query
        else:
            lower = getattr(query, "request", None)
            if lower is None:
                raise InvalidParameterError(
                    "submit() takes a QueryBuilder or a QueryRequest, "
                    f"got {type(query).__name__}"
                )
            request = lower()
        self._net.scores_of(request.score)  # unknown scores fail at submit
        if stream:
            # executor.stream validates eagerly (algorithm/knob/context
            # checks) and only then returns the generator; running it here
            # surfaces misuse at the call site instead of inside a worker.
            # The generator is discarded — the worker builds its own.
            self._net._stream(request)
        handle = QueryHandle(
            request,
            priority=request.priority if priority is None else int(priority),
            deadline=request.deadline if deadline is None else float(deadline),
            stream=stream,
            cached=cached,
        )
        now = time.monotonic()
        handle.submitted_at = now
        if handle.deadline is not None:
            if handle.deadline <= 0:
                raise InvalidParameterError(
                    f"deadline must be a positive number of seconds, "
                    f"got {handle.deadline}"
                )
            handle.deadline_at = now + float(handle.deadline)
        if self._coalesce and not stream and self._coalescible(request):
            # Requests of one *shape* (identity minus score/k) are the ones
            # a single fused shared scan can answer together — the same key
            # the replica router hashes, so routing concentrates coalesce
            # partners on one service instead of spraying them.
            handle.coalesce_key = request.shape_key()
        handle.add_done_callback(self._count_terminal)
        self._stats.incr("submitted")
        try:
            self._scheduler.submit(handle)
        except Exception:
            self._stats.incr("rejected")
            raise
        return handle

    def submit_all(
        self, queries: Iterable[Union[QueryRequest, object]], **options
    ) -> List[QueryHandle]:
        """Submit many queries (same options); returns their handles."""
        return [self.submit(query, **options) for query in queries]

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One monitoring payload: serving counters, queue gauges, caches."""
        payload = dict(self._stats.snapshot())
        payload["workers"] = self.workers
        payload["pending"] = self._scheduler.pending
        payload["inflight"] = self._scheduler.inflight
        payload["result_cache"] = self.cache.stats()
        payload["session_caches"] = self._net._ctx.cache_stats()
        # The cluster payload includes the measured communication totals and
        # the last query's per-round MessageStats twin (``last_comm``).
        for name in ("parallel", "cluster"):
            if self._net._ctx.has_engine(name):
                payload[name] = self._net._ctx.sharded_engine(name).stats()
        return payload

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every queued/in-flight query to finish."""
        return self._scheduler.drain(timeout)

    def invalidate(self, score: Optional[str] = None) -> int:
        """Evict cached results after a session mutation.

        ``score=None`` (graph mutations) drops everything; a score name
        (``update_score`` / ``add_scores``) drops only that score's
        entries, so hot answers over unrelated scores keep serving.
        """
        if score is None:
            return self.cache.clear()
        return self.cache.invalidate_score(score)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions; fail queued handles; join workers."""
        self._scheduler.shutdown(wait=wait)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QueryService workers={self.workers} "
            f"pending={self._scheduler.pending} "
            f"inflight={self._scheduler.inflight}>"
        )

    # ------------------------------------------------------------------
    # Execution (scheduler callbacks)
    # ------------------------------------------------------------------
    def _coalescible(self, request: QueryRequest) -> bool:
        net = self._net
        return coalescible_request(
            request,
            hops=net.hops,
            include_self=net.include_self,
            backend=net.backend,
        )

    def _version_token(self, score: str) -> tuple:
        net = self._net
        return (getattr(net.graph, "version", None), net._score_epoch(score))

    def _cache_key(self, request: QueryRequest) -> tuple:
        # Layout is (version token, score name, canonical key): the score
        # name sits at a fixed slot so ResultCache.invalidate_score never
        # has to parse the canonical key, and the canonical key (rather
        # than the request object) means a request decoded from the wire
        # and one lowered locally land on the same entry.  The canonical
        # key includes `pinned` — a pinned-knob variant must never be
        # served the unpinned request's cached answer in place of its
        # validation error.
        return (
            self._version_token(request.score),
            request.score,
            request.canonical_key(),
        )

    def _count_terminal(self, handle: QueryHandle) -> None:
        self._stats.incr(
            {
                "done": "completed",
                "failed": "failed",
                "cancelled": "cancelled",
                "expired": "expired",
            }[handle.state]
        )

    def _serve_cached(self, handle: QueryHandle, key: tuple) -> bool:
        """Finish ``handle`` from the result cache; False on a miss."""
        if not handle.cached:
            return False
        hit = self.cache.get(key)
        if hit is None:
            self._stats.incr("cache_misses")
            return False
        self._stats.incr("cache_hits")
        handle._finish(hit)
        return True

    def _execute_one(self, handle: QueryHandle) -> None:
        if not handle._start(time.monotonic()):
            return
        with self._rw.read():
            # The key is computed once, before execution: mutations are
            # excluded while we hold the read lock, and a result must
            # never be stored under a key minted *after* it ran (a racing
            # mutation between run and put would then serve it stale).
            key = self._cache_key(handle.request)
            try:
                if not handle.stream and self._serve_cached(handle, key):
                    return
                # The handle's absolute deadline travels into the kernels:
                # block loops call check_deadline() and abort mid-scan
                # instead of finishing an answer nobody is waiting for.
                with deadline_scope(handle.deadline_at):
                    if handle.stream:
                        result = self._run_stream(handle)
                        if result is None:  # cancelled mid-stream
                            return
                    else:
                        result = self._net._run(handle.request)
                if not handle.stream and handle.cached:
                    self.cache.put(key, result)
                handle._finish(result)
            except Exception as exc:
                handle._fail(exc)

    def _execute_group(self, handles: Sequence[QueryHandle]) -> None:
        now = time.monotonic()
        live = [h for h in handles if h._start(now)]
        if not live:
            return
        with self._rw.read():
            keys = {h: self._cache_key(h.request) for h in live}
            try:
                missing = [h for h in live if not self._serve_cached(h, keys[h])]
                if not missing:
                    return
                queries = [
                    BatchQuery(
                        scores=self._net.scores_of(h.request.score),
                        k=h.request.k,
                        aggregate=h.request.aggregate,
                    )
                    for h in missing
                ]
                # Coalescible members all carry the session backend (a pin
                # to another one never coalesces), so that is where the
                # group runs.
                results = self._net._run_batch(queries)
                if len(missing) > 1:
                    self._stats.incr("coalesced_batches")
                    self._stats.incr("coalesced_queries", len(missing))
                for handle, result in zip(missing, results):
                    result.stats.extra["coalesced_group"] = float(len(missing))
                    if handle.cached:
                        self.cache.put(keys[handle], result)
                    handle._finish(result)
            except Exception as exc:
                for handle in live:
                    if not handle.done():
                        handle._fail(exc)

    def _run_stream(self, handle: QueryHandle) -> Optional[TopKResult]:
        """Drive the anytime executor, feeding the handle's subscription."""
        from repro.errors import QueryCancelledError

        start = time.perf_counter()
        request = handle.request
        last = None
        evaluated = 0
        for update in self._net._stream(request):
            if not handle._push_update(update):
                handle._fail(QueryCancelledError("stream cancelled by consumer"))
                return None
            last = update
            evaluated = update.evaluated
        stats = QueryStats(
            algorithm="stream",
            aggregate=request.aggregate.value,
            hops=request.hops,
            k=request.k,
            elapsed_sec=time.perf_counter() - start,
            nodes_evaluated=evaluated,
        )
        entries = list(last.entries) if last is not None else []
        return TopKResult(entries=entries, stats=stats)
