"""Replica lanes + the shape-hash router.

A single :class:`~repro.service.QueryService` serializes its result cache
and coalescer behind one scheduler; under network load one lane becomes
the bottleneck and — worse — a round-robin spray across lanes *destroys*
the very locality the cache and coalescer need (two identical queries on
two lanes are two cache misses and zero coalesce partners).  ADiT's
adaptive per-peer allocation (PAPERS.md) is the motivation: send the work
where it will be cheapest.

:class:`ReplicaSet` owns N lanes, each a full ``QueryService`` (own
result cache, own coalescing scheduler, own worker threads) over the
*same* session — graph and score vectors are shared state, per-lane state
is only scheduling and memoization.  The router hashes
:meth:`~repro.core.request.QueryRequest.shape_key` — the request's
identity minus score and k, exactly the compatibility key the coalescer
groups by — so every request of one shape lands on one lane: repeated hot
queries hit that lane's cache, and concurrent compatible ones meet in its
queue and fuse into shared scans.

Over a ``Network(backend="parallel")`` session execution is offloaded to
the session's :class:`~repro.parallel.engine.ParallelEngine`: the lane's
scheduler threads only dispatch and merge while the engine's worker
*processes*, each attached to the shared-memory ``SharedCSR`` replica,
do the scans — the serving tier's multi-process execution mode.

Lanes register with the session (``Network._register_service``) so
dynamic mutations take every lane's write lock and invalidate every
lane's cache — the same freshness contract the single-service session
already guarantees.
"""

from __future__ import annotations

import zlib
from typing import List, Tuple

from repro.config import ServiceConfig
from repro.core.request import QueryRequest
from repro.service import QueryService

__all__ = ["ReplicaSet"]


def _shape_hash(request: QueryRequest) -> int:
    """Deterministic (process-independent) hash of the request's shape.

    ``hash()`` is salted per process; crc32 of the canonical shape repr is
    stable, so routing affinity is reproducible across restarts and
    testable against fixed expectations.
    """
    return zlib.crc32(repr(request.shape_key()).encode("utf-8"))


class ReplicaSet:
    """N routed replica lanes over one session."""

    def __init__(self, network, config: ServiceConfig, *, replicas: int) -> None:
        self._net = network
        self.config = config
        self._lanes: List[QueryService] = []
        try:
            for _ in range(replicas):
                lane = QueryService(network, config)
                network._register_service(lane)
                self._lanes.append(lane)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lanes)

    @property
    def lanes(self) -> Tuple[QueryService, ...]:
        return tuple(self._lanes)

    def route(self, request: QueryRequest) -> Tuple[int, QueryService]:
        """The (lane index, lane) this request's shape is affined to."""
        index = _shape_hash(request) % len(self._lanes)
        return index, self._lanes[index]

    def least_loaded(self) -> Tuple[int, QueryService]:
        """The lane with the fewest queued+inflight queries (a batch has no
        one shape whose affinity to protect)."""
        index = min(
            range(len(self._lanes)),
            key=lambda i: self._lanes[i]._scheduler.pending
            + self._lanes[i]._scheduler.inflight,
        )
        return index, self._lanes[index]

    # ------------------------------------------------------------------
    def occupancy(self) -> Tuple[int, int]:
        """(queued+inflight, capacity) across every lane — the shed load."""
        used = 0
        for lane in self._lanes:
            used += lane._scheduler.pending + lane._scheduler.inflight
        capacity = max(1, self.config.max_pending * len(self._lanes))
        return used, capacity

    def stats(self) -> dict:
        """Per-lane serving stats plus the aggregate occupancy."""
        used, capacity = self.occupancy()
        return {
            "replicas": len(self._lanes),
            "occupancy": used,
            "capacity": capacity,
            "lanes": [lane.stats() for lane in self._lanes],
        }

    def drain(self, timeout=None) -> bool:
        """Wait for every lane to go idle."""
        return all(lane.drain(timeout) for lane in self._lanes)

    def close(self) -> None:
        """Shut every lane down and detach it from the session."""
        for lane in self._lanes:
            try:
                lane.shutdown(wait=True)
            finally:
                self._net._unregister_service(lane)
        self._lanes = []
