"""The parallel backend's engine: the sharded coordinator over the pipe link.

:class:`ParallelEngine` is a
:class:`~repro.parallel.coordinator.ShardedCoordinator` — every route, the
decline rule, the refresh and the stale retry are the coordinator's — whose
workers are a persistent, spawn-started
:class:`~repro.parallel.pool.ShardWorkerPool` on this machine.  This module
holds only what the pipe link decides:

* **How data reaches a worker** — the CSR view (and its reversal), score
  vectors, owned-node arrays and static bounds are exported into POSIX
  shared memory (:class:`~repro.graph.csr.SharedCSR` /
  :class:`~repro.graph.csr.SharedArray`); a task names them by descriptor
  and workers map the same physical pages.  A retired CSR export is stamped
  stale before it is unlinked, so a worker still attached refuses it.
* **How a round is dispatched** — ``ShardWorkerPool.run``; shard scans
  arrive split into work-stealing chunks (``steals_chunks``) and are fed
  dynamically to idle workers.  Candidate replies come back through
  preallocated shared-memory reply buffers — only a row count crosses the
  pipe — except for tasks the pool re-issued after a worker death, which
  answer over the pipe (two writers must never share a buffer).
* **How traffic is accounted** — the pool's metered pipe bytes, stamped as
  ``pipe_bytes_sent`` / ``pipe_bytes_received`` / ``tasks``.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.config import DEFAULT_MIN_NODES, ParallelConfig
from repro.errors import ParallelError
from repro.graph.csr import SharedArray, SharedCSR
from repro.parallel.coordinator import ShardedCoordinator
from repro.parallel.pool import ShardWorkerPool

__all__ = ["DEFAULT_MIN_NODES", "ParallelEngine"]


def _release(export) -> None:
    """Free one export; a CSR is stamped stale first, so a worker still
    attached to it refuses to serve from it."""
    if isinstance(export, SharedCSR):
        export.mark_stale()
    export.unlink()
    export.close()


def _close_resources(resources: dict) -> None:
    """Finalizer target: release pool + shared memory without reviving self."""
    pool = resources.get("pool")
    if pool is not None:
        try:
            pool.close()
        except Exception:  # pragma: no cover - interpreter-shutdown races
            pass
    for export in resources.get("exports", []):
        try:
            _release(export)
        except Exception:  # pragma: no cover
            pass
    resources["pool"] = None
    resources["exports"] = []


class ParallelEngine(ShardedCoordinator):
    """Process-parallel execution over one graph context (see module doc)."""

    backend = "parallel"
    closed_error = ParallelError
    steals_chunks = True

    # The routes are the coordinator's.  They are bound on this class as
    # well so per-link instrumentation (bench/trace.py wraps
    # ``ParallelEngine.execute_scan``) finds them here and wraps this link only.
    execute_scan = ShardedCoordinator.execute_scan
    execute_backward = ShardedCoordinator.execute_backward
    run_batch = ShardedCoordinator.run_batch

    def __init__(self, ctx, config: ParallelConfig) -> None:
        workers = config.workers or os.cpu_count() or 1
        super().__init__(
            ctx,
            {"pool": None, "exports": []},
            _close_resources,
            workers=workers,
            shards=workers,
            min_nodes=config.min_nodes,
        )
        # Per-task-slot shared reply buffers (float64 (capacity, 2) rows of
        # [node, value]); rotated — never reused — after any round that
        # respawned a worker or raised, because a straggler holding the old
        # mapping could still write it.
        self._reply_buffers: List[SharedArray] = []
        self._reply_capacity = 0
        self._reply_dirty = False

    def _pool(self) -> ShardWorkerPool:
        pool = self._resources["pool"]
        if pool is None:
            pool = ShardWorkerPool(self.workers)
            self._resources["pool"] = pool
        return pool

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def _export_csr(self, csr, version: int, label: str) -> SharedCSR:
        export = SharedCSR.export(csr, version=version)
        self._resources["exports"].append(export)
        return export

    def _export_array(self, array, label: str) -> SharedArray:
        export = SharedArray.create(array)
        self._resources["exports"].append(export)
        return export

    def _drop(self, exports: list) -> None:
        for export in exports:
            try:
                self._resources["exports"].remove(export)
            except ValueError:  # pragma: no cover - double release
                pass
            _release(export)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _reply_metas(self, count: int, rows: int) -> List[dict]:
        """Reply-buffer descriptors for a round of ``count`` tasks.

        Buffers are preallocated once and reused round after round; they
        only grow (capacity highwater) and are rotated to fresh segments
        when ``_reply_dirty`` says a straggler from a respawned or failed
        round might still hold a writable mapping of the old ones.
        Unlinking a possibly-still-mapped segment is safe: POSIX keeps the
        pages alive until the last map closes, and nobody reads retired
        buffers.
        """
        import numpy as np

        rows = max(int(rows), 1)
        if (
            self._reply_dirty
            or rows > self._reply_capacity
            or count > len(self._reply_buffers)
        ):
            needed = max(count, len(self._reply_buffers))
            capacity = max(rows, self._reply_capacity)
            self._drop(self._reply_buffers)
            self._reply_buffers = [
                self._export_array(np.zeros((capacity, 2), dtype=np.float64), "reply")
                for _ in range(needed)
            ]
            self._reply_capacity = capacity
            self._reply_dirty = False
        return [
            {"buffer": buffer.meta(), "capacity": self._reply_capacity}
            for buffer in self._reply_buffers[:count]
        ]

    def _dispatch(self, specs: List[dict], *, rows: Optional[int], steal: bool):
        """One pool round.  Any abnormal outcome — stale export, worker
        respawn, error, timeout — marks the reply buffers dirty: a task of
        the broken round may still be running somewhere with a writable
        mapping, so the next round must not reuse those segments."""
        tasks = [spec["task"] for spec in specs]
        if rows is not None:
            for task, reply in zip(tasks, self._reply_metas(len(tasks), rows)):
                task["reply"] = reply
        pool = self._pool()
        try:
            results = pool.run(
                tasks, dynamic=steal, homes=[spec["shard"] for spec in specs]
            )
        except BaseException:
            self._reply_dirty = True
            raise
        if pool.last_run_respawned:
            self._reply_dirty = True
        return [self._reply(result, slot) for slot, result in enumerate(results)]

    def _reply(self, result: dict, slot: int) -> Tuple[dict, dict]:
        """One task's result as ``(header, arrays)``.

        Candidate pairs sit in the task slot's reply buffer (the result
        carries their count) or, for a task re-issued after a worker death,
        in the pipe payload itself; both forms can appear within one round.
        Everything else the workers return is already keyed like a reply.
        """
        for key in ("entries", "pairs"):
            if key in result:
                return result, {"entries": result[key]}
            if key + "_n" in result:
                rows = self._reply_buffers[slot].array[: int(result[key + "_n"])]
                # Node ids are exact in float64 up to 2**53.
                return result, {
                    "entries": [(int(node), float(value)) for node, value in rows]
                }
        return result, result

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def _traffic_snapshot(self) -> Tuple[int, int]:
        pool = self._pool()
        return pool.bytes_sent, pool.bytes_received

    def _stamp_traffic(self, stats, traffic) -> None:
        sent, received = self._traffic_snapshot()
        stats.extra["tasks"] = float(traffic.tasks)
        stats.extra["pipe_bytes_sent"] = float(sent - traffic.before[0])
        stats.extra["pipe_bytes_received"] = float(received - traffic.before[1])

    def stats(self) -> dict:
        """Monitoring snapshot: pool, shard, and export gauges."""
        with self._lock:
            pool = self._resources["pool"]
            out = super().stats()
            out.update(
                pool_started=bool(pool is not None and pool.started),
                alive_workers=0 if pool is None else pool.alive_workers,
                respawns=0 if pool is None else pool.respawns,
                shards=None if self._plan is None else self._plan.sizes(),
                reply_buffers=len(self._reply_buffers),
                pipe_bytes_sent=0 if pool is None else pool.bytes_sent,
                pipe_bytes_received=0 if pool is None else pool.bytes_received,
            )
            return out
