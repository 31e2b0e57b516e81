"""Priority worker pool with admission control and scan coalescing.

The scheduler is deliberately ignorant of graphs and queries: it moves
:class:`~repro.service.handles.QueryHandle` objects from a bounded priority
queue onto worker threads and hands them to two callbacks supplied by the
:class:`~repro.service.QueryService` — ``execute_one(handle)`` for
individual execution and ``execute_group(handles)`` for a coalesced group.

Scheduling rules:

* **Priority.**  Higher ``handle.priority`` is dequeued first; ties are
  FIFO (a monotonic sequence number).
* **Admission control.**  At most ``max_pending`` handles may be queued;
  beyond that :meth:`submit` raises
  :class:`~repro.errors.ServiceOverloadedError` instead of buffering
  without bound.  In-flight work is bounded by the worker count.
* **Deadline sweep.**  A popped handle whose deadline passed while queued
  is expired, never executed (waiters on the handle also expire it
  themselves, whichever notices first).
* **Coalescing.**  When the popped handle carries a non-None
  ``coalesce_key``, every queued handle with the same key (up to
  :data:`COALESCE_LIMIT`) is pulled out of the queue — across priorities; they
  only ever run *earlier* — and the whole group is executed as one batch
  shared scan.  Unrelated concurrent callers thereby amortize one
  node-block expansion without ever knowing of each other.
* **Inline mode.**  ``workers=0`` runs every submission synchronously on
  the submitting thread — zero threads, same handle lifecycle.  This is
  the mode backing the plain ``.run()`` shim.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ServiceOverloadedError, ServiceShutdownError
from repro.service.handles import QueryHandle

__all__ = ["COALESCE_LIMIT", "Scheduler"]

#: Most handles one coalesced group executes as a single fused batch scan.
COALESCE_LIMIT = 64


class Scheduler:
    """Dispatch handles to workers; coalesce compatible queued requests."""

    def __init__(
        self,
        execute_one: Callable[[QueryHandle], None],
        execute_group: Callable[[Sequence[QueryHandle]], None],
        *,
        workers: int,
        max_pending: int,
        name: str = "repro-service",
    ) -> None:
        self._execute_one = execute_one
        self._execute_group = execute_group
        self.workers = workers
        self.max_pending = max_pending
        self._cond = threading.Condition()
        self._heap: List[Tuple[int, int, QueryHandle]] = []
        self._seq = itertools.count()
        self._inflight = 0
        self._shutdown = False
        self._threads: List[threading.Thread] = []
        for i in range(workers):
            thread = threading.Thread(
                target=self._worker, name=f"{name}-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; submissions are rejected."""
        with self._cond:
            return self._shutdown

    @property
    def pending(self) -> int:
        """Queued (not yet dispatched) handles."""
        with self._cond:
            return len(self._heap)

    @property
    def inflight(self) -> int:
        """Handles currently being executed by workers."""
        with self._cond:
            return self._inflight

    def submit(self, handle: QueryHandle) -> None:
        """Queue (or, inline mode, immediately execute) one handle."""
        if self.workers == 0:
            with self._cond:
                if self._shutdown:
                    raise ServiceShutdownError("service has been shut down")
                self._inflight += 1
            try:
                self._execute_one(handle)
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()
            return
        with self._cond:
            if self._shutdown:
                raise ServiceShutdownError("service has been shut down")
            if len(self._heap) >= self.max_pending:
                raise ServiceOverloadedError(
                    f"admission control: {len(self._heap)} queries already "
                    f"queued (max_pending={self.max_pending})"
                )
            heapq.heappush(self._heap, (-handle.priority, next(self._seq), handle))
            self._cond.notify()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is empty and no execution is in flight."""
        end = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._heap or self._inflight:
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; fail queued handles; optionally join workers."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            abandoned = [handle for _, _, handle in self._heap]
            self._heap.clear()
            self._cond.notify_all()
        for handle in abandoned:
            handle._fail(ServiceShutdownError("service shut down before execution"))
        if wait:
            for thread in self._threads:
                thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            group = self._next_group()
            if group is None:
                return
            try:
                if len(group) == 1:
                    self._execute_one(group[0])
                else:
                    self._execute_group(group)
            except BaseException as exc:  # the service catches per-query errors;
                # anything landing here would otherwise kill the worker silently.
                for handle in group:
                    if not handle.done():
                        handle._fail(exc)
            finally:
                with self._cond:
                    self._inflight -= len(group)
                    self._cond.notify_all()

    def _next_group(self) -> Optional[List[QueryHandle]]:
        """Block for the next dispatchable handle (plus coalesced friends)."""
        with self._cond:
            while True:
                if self._shutdown:
                    return None
                head = self._pop_live()
                if head is None:
                    self._cond.wait()
                    continue
                group = [head]
                if head.coalesce_key is not None:
                    group.extend(self._drain_key(head.coalesce_key))
                self._inflight += len(group)
                self._cond.notify_all()
                return group

    def _pop_live(self) -> Optional[QueryHandle]:
        """(Under lock.)  Pop the best queued handle that should still run."""
        now = time.monotonic()
        while self._heap:
            _, _, handle = heapq.heappop(self._heap)
            if handle._expire(now):
                continue  # deadline blown while queued
            if handle.done():
                continue  # cancelled while queued
            return handle
        return None

    def _drain_key(self, key: object) -> List[QueryHandle]:
        """(Under lock.)  Remove queued live handles sharing ``key``."""
        now = time.monotonic()
        taken: List[QueryHandle] = []
        kept: List[Tuple[int, int, QueryHandle]] = []
        for entry in self._heap:
            handle = entry[2]
            if (
                len(taken) < COALESCE_LIMIT - 1
                and handle.coalesce_key == key
                and not handle.done()
                and not handle._expire(now)
            ):
                taken.append(handle)
            else:
                kept.append(entry)
        if taken:
            heapq.heapify(kept)
            self._heap = kept
        return taken
