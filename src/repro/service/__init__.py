"""Concurrent serving surface: async query handles over one session.

The ROADMAP's north star is a system serving heavy traffic, and the paper
frames top-k aggregation as a *middleware* problem (Fagin's TA); this
package is the serving layer that turns the strictly synchronous
``Network`` facade into a concurrency-first surface:

* :class:`QueryHandle` (:mod:`repro.service.handles`) — a cancellable
  future with ``result(timeout=)`` / ``cancel()`` / ``done()``, deadline
  and priority knobs, and a streaming subscription.
* :class:`QueryService` (:mod:`repro.service.service`) — the front door:
  ``service.submit(builder_or_request)`` lowers to the same frozen
  ``QueryRequest`` every other path uses and executes it behind
  ``executor.execute``.
* the scheduler (:mod:`repro.service.scheduler`) — a priority worker pool
  with admission control that *coalesces* compatible concurrently-queued
  requests into one fused batch shared scan, so unrelated callers
  transparently amortize node-block expansions.
* the result cache (:mod:`repro.service.cache`) — graph-version-keyed, so
  repeated hot queries are served without re-execution and dynamic
  mutations can never serve a stale answer.

``Network.query(...).submit()`` and ``Network.service(workers=N)`` are the
session-side entry points; ``.run()`` is the synchronous shim
``submit().result()`` over the same machinery.
"""

from repro.service.cache import ResultCache
from repro.service.handles import HandleState, QueryHandle
from repro.service.locks import ReadWriteLock
from repro.service.scheduler import Scheduler
from repro.service.service import QueryService
from repro.service.stats import ServiceStats

__all__ = [
    "QueryService",
    "QueryHandle",
    "HandleState",
    "ResultCache",
    "Scheduler",
    "ServiceStats",
    "ReadWriteLock",
]
