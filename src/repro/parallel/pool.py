"""Persistent worker-process pool for the parallel backend.

A :class:`ShardWorkerPool` owns ``workers`` spawned processes running
:func:`repro.parallel.worker.worker_main`.  Design points:

* **Spawn, not fork.**  The serving layer runs worker *threads* holding
  locks; forking such a process is a documented deadlock trap.  The spawn
  start method gives every worker a clean interpreter — the startup cost
  is real and is exactly the fixed-cost term the planner and the engine's
  decline rule account for.  Workers are spawned lazily on first dispatch
  and stay warm (shared-memory attachments cached) until :meth:`close`.
* **One duplex pipe per worker, no shared queues.**  ``multiprocessing``
  queues serialize readers and writers through shared locks, and a worker
  killed *while holding one* — blocked in ``get`` (readers hold the read
  lock while waiting) or mid-``put`` in its feeder thread — takes the lock
  to its grave and deadlocks every sibling.  A ``Pipe`` per worker has a
  single writer and a single reader per direction, so worker death can
  poison nothing but its own channel, which the collector observes
  directly as EOF.  The parent multiplexes with
  :func:`multiprocessing.connection.wait`.
* **Crash recovery.**  Tasks are pure functions of shared state, so they
  are safe to re-issue.  If a worker dies mid-round (killed, OOM, bug),
  the collector sees its pipe close, replaces the dead process in its slot
  (survivors keep theirs, and their shards), and re-issues every task still
  outstanding under a fresh id; duplicate late results are ignored.  A
  re-issued task additionally has its shared reply-buffer descriptor
  stripped (``"reply": None``): the original issue may still be running on
  a straggler that writes the buffer, and answering the re-issue over the
  pipe is what guarantees the two writers can never interleave in shared
  memory.  A round that cannot finish within ``DEFAULT_TIMEOUT`` raises
  :class:`~repro.errors.ParallelError` instead of hanging.
* **Metered, explicitly framed IPC.**  The parent pickles task messages
  itself and moves raw frames with ``send_bytes``/``recv_bytes`` (the
  worker's plain ``Connection.send``/``recv`` speaks the same wire
  format), so every byte crossing a pipe is counted in ``bytes_sent`` /
  ``bytes_received``.  The counters are what the shared-reply-buffer
  optimization is benchmarked against.
* **Two dispatch modes, both home-first.**  Every task has a home slot,
  the worker that holds its balls (the worker's ball index,
  :mod:`repro.parallel.worker`): its shard's, or for a scan chunk the one
  the coordinator spreads it to.  The default deals each task to its
  home up front.  ``run(tasks, dynamic=True)`` keeps one task in flight per
  worker: an idle worker takes the first backlog task homed on it and
  steals another worker's only when it has none, so a chunk lands where its
  balls are and a slow worker's tail still drains onto idle siblings.
* **One round at a time.**  ``run()`` is serialized by a lock: concurrent
  queries queue here rather than interleaving result streams.  (The
  serving scheduler already provides cross-query concurrency; the pool's
  job is to spread *one* query's shards across cores.)
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import FaultInjectedError, ParallelError, StaleShardError
from repro.faults import fault_point

__all__ = ["ShardWorkerPool"]

#: Per-round timeout (seconds) of the pool and of the cluster transport;
#: generous — it only bounds hangs, a request's own ``deadline`` is tighter.
DEFAULT_TIMEOUT = 120.0


class _Worker:
    """One spawned process plus the parent end of its duplex pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


class ShardWorkerPool:
    """A fixed-size pool of warm, spawn-started worker processes."""

    def __init__(
        self,
        workers: int,
        *,
        name: str = "repro-shard",
    ) -> None:
        if workers < 1:
            raise ParallelError(f"workers must be >= 1, got {workers}")
        import multiprocessing

        self.workers = workers
        self.name = name
        self._mp = multiprocessing.get_context("spawn")
        self._members: List[_Worker] = []
        self._task_ids = itertools.count()
        self._spawned = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self.respawns = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.last_run_bytes_sent = 0
        self.last_run_bytes_received = 0
        self.last_run_respawned = False

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether worker processes exist (they spawn on first dispatch)."""
        return bool(self._members)

    @property
    def alive_workers(self) -> int:
        """Currently running worker processes."""
        return sum(1 for m in self._members if m.process.is_alive())

    def _spawn_one(self) -> _Worker:
        from repro.parallel.worker import worker_main

        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=worker_main,
            args=(child_conn,),
            name=f"{self.name}-worker-{next(self._spawned)}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the child's copy is the only live one now
        return _Worker(process, parent_conn)

    def ensure_started(self) -> None:
        """Spawn (or respawn) processes until ``workers`` are alive."""
        with self._lock:
            self._ensure_started_locked()

    def _ensure_started_locked(self) -> None:
        if self._closed:
            raise ParallelError("worker pool has been closed")
        # A replacement takes the dead worker's slot: survivors keep theirs,
        # so every task keeps its home worker (and that worker's ball index).
        for slot, member in enumerate(self._members):
            if not member.process.is_alive():
                member.conn.close()
                self._members[slot] = self._spawn_one()
                self.respawns += 1
        while len(self._members) < self.workers:
            self._members.append(self._spawn_one())

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: List[dict],
        *,
        dynamic: bool = False,
        homes: Optional[Sequence[int]] = None,
    ) -> List[dict]:
        """Execute ``tasks`` across the pool; results in input order, each
        naming the slot of the worker that answered it (``"worker"``).

        ``homes[i]`` is the worker slot (modulo the pool size) task ``i``
        belongs on — its shard's; by default its position.  The default
        deals every task to its home up front; ``dynamic=True`` keeps one
        task in flight per worker and feeds an idle worker the next task of
        its own, or, when it has none, another worker's (work-stealing).
        Raises :class:`~repro.errors.StaleShardError` if any worker refused
        a task over an invalidated shared-memory export (the engine
        refreshes its exports and retries), and
        :class:`~repro.errors.ParallelError` on worker failure that
        re-spawning cannot cure or on timeout.
        """
        if not tasks:
            return []
        with self._lock:
            self._ensure_started_locked()
            self.last_run_respawned = False
            sent_before = self.bytes_sent
            received_before = self.bytes_received
            try:
                return self._run_locked(
                    tasks, dynamic, range(len(tasks)) if homes is None else homes
                )
            finally:
                self.last_run_bytes_sent = self.bytes_sent - sent_before
                self.last_run_bytes_received = (
                    self.bytes_received - received_before
                )

    def _issue(
        self,
        slot: int,
        tasks: List[dict],
        position: int,
        pending: Dict[int, int],
        stripped: Set[int],
    ) -> None:
        """Send ``tasks[position]`` to worker ``slot`` under a fresh id.

        The parent pickles the frame itself so the pipe traffic is
        countable.  A send that finds the worker's pipe already broken is
        skipped — the collector's death branch re-issues whatever never
        got out.  Positions in ``stripped`` were in flight when a worker
        died: an earlier issue may still be writing the shared reply
        buffer on a straggler, so the re-issue answers over the pipe.
        """
        task_id = next(self._task_ids)
        pending[task_id] = position
        task = tasks[position]
        if position in stripped and task.get("reply") is not None:
            task = dict(task)
            task["reply"] = None
        frame = pickle.dumps((task_id, task), protocol=pickle.HIGHEST_PROTOCOL)
        member = self._members[slot % len(self._members)]
        try:
            fault_point(
                "parallel.pipe.send",
                worker=slot % len(self._members),
                position=position,
            )
        except FaultInjectedError:
            # An injected transient send hiccup; the send below is its
            # retransmission (a swallowed frame would stall the round, so
            # the hook may delay or crash but never silently drop).
            pass
        try:
            member.conn.send_bytes(frame)
            self.bytes_sent += len(frame)
        except (BrokenPipeError, OSError):
            pass  # collector notices the death and re-dispatches

    def _run_locked(
        self, tasks: List[dict], dynamic: bool, homes: Sequence[int]
    ) -> List[dict]:
        from multiprocessing.connection import wait

        results: List[Optional[dict]] = [None] * len(tasks)
        pending: Dict[int, int] = {}
        stripped: Set[int] = set()
        backlog: List[int] = []

        def feed(slot: int) -> None:
            """Hand idle worker ``slot`` the first backlog task homed on it;
            with none of its own, the first of anyone's (a steal)."""
            mine = (p for p in backlog if homes[p] % len(self._members) == slot)
            position = next(mine, backlog[0])
            backlog.remove(position)
            self._issue(slot, tasks, position, pending, stripped)

        if dynamic and len(tasks) > len(self._members):
            # One task in flight per worker, the rest fed on completion: a
            # chunk runs where its balls are, and a slow worker's tail
            # still drains onto whichever worker runs out of its own.
            backlog.extend(range(len(tasks)))
            for slot in range(len(self._members)):
                if backlog:
                    feed(slot)
        else:
            for position in range(len(tasks)):
                self._issue(homes[position], tasks, position, pending, stripped)
        deadline = time.monotonic() + DEFAULT_TIMEOUT
        respawn_budget = 2 * self.workers
        # Bounded tolerance for typed transient task failures (today only
        # injected faults reply "transient"): re-issue, but a worker set
        # that only ever fails must still surface as a ParallelError.
        transient_budget = 3 * len(tasks) + 4
        while pending or backlog:
            slot_of = {
                id(m.conn): slot for slot, m in enumerate(self._members)
            }
            ready = wait([m.conn for m in self._members], timeout=0.25)
            if time.monotonic() > deadline:
                raise ParallelError(
                    f"parallel round timed out after {DEFAULT_TIMEOUT:.0f}s "
                    f"({len(pending) + len(backlog)} of {len(tasks)} "
                    "tasks outstanding)"
                )
            dead = False
            for conn in ready:
                try:
                    fault_point(
                        "parallel.reply.recv", worker=slot_of.get(id(conn))
                    )
                    frame = conn.recv_bytes()
                except FaultInjectedError:
                    # Injected lost-reply: fall into the death branch so
                    # outstanding work is re-issued; the reply still in
                    # the pipe drains later as a dropped duplicate.
                    dead = True
                    continue
                except (EOFError, OSError):
                    dead = True  # this member's pipe closed under us
                    continue
                self.bytes_received += len(frame)
                task_id, status, payload = pickle.loads(frame)
                position = pending.pop(task_id, None)
                if position is not None:
                    if status == "stale":
                        raise StaleShardError(str(payload))
                    if status == "transient":
                        # Typed retryable failure: the task never ran, so
                        # its reply buffer is untouched — re-queue as-is.
                        transient_budget -= 1
                        if transient_budget < 0:
                            raise ParallelError(
                                "parallel round exhausted its transient-"
                                f"failure budget: {payload}"
                            )
                        backlog.append(position)
                    elif status == "error":
                        raise ParallelError(f"shard worker failed: {payload}")
                    else:
                        payload["worker"] = slot_of[id(conn)]
                        results[position] = payload
                # Any reply (even a duplicate from a re-issued round) means
                # this worker is idle — feed it the next backlog task.
                if backlog:
                    feed(slot_of[id(conn)])
            if not pending and not backlog:
                break
            if dead or self.alive_workers < len(self._members):
                # A worker died; its pipe died with it, so we cannot know
                # which of our tasks it swallowed.  Replace it and re-issue
                # everything still outstanding under fresh ids (stale
                # duplicates are dropped above).  Bounded: workers dying as
                # fast as they spawn (e.g. a __main__ that cannot be
                # re-imported under spawn) must surface as an error, not an
                # infinite respawn loop.
                respawn_budget -= max(
                    len(self._members) - self.alive_workers, 1
                )
                if respawn_budget < 0:
                    raise ParallelError(
                        "shard workers keep dying at startup; if this "
                        "process has no importable __main__ (interactive "
                        "stdin), the spawn start method cannot run "
                        "worker processes"
                    )
                self._ensure_started_locked()
                self.last_run_respawned = True
                outstanding = sorted(pending.values())
                stripped.update(outstanding)
                pending.clear()
                # Re-prime: the swallowed tasks first (they block the
                # round), then the untouched backlog, fed on completion.
                backlog[:0] = outstanding
                for slot in range(len(self._members)):
                    if backlog:
                        feed(slot)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def close(self, *, join_timeout: float = 5.0) -> None:
        """Stop every worker (sentinel first, terminate stragglers)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for member in self._members:
                try:
                    member.conn.send(None)
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
            for member in self._members:
                member.process.join(timeout=join_timeout)
            for member in self._members:
                if member.process.is_alive():  # pragma: no cover - stuck worker
                    member.process.terminate()
                    member.process.join(timeout=1.0)
                member.conn.close()
            self._members = []

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
