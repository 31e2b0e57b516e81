"""Worker-process side of the cluster backend.

A cluster worker is an asyncio stream server speaking the frame protocol of
:mod:`repro.cluster.frames`.  It holds a **store** — named arrays and CSR
views the coordinator shipped with ``put`` frames — and answers ``task``
frames by running the *same* partition-aware kernels as the in-process
parallel backend: task payloads are exactly the
:data:`repro.parallel.worker._HANDLERS` task dicts, with shared-memory
attachment metas replaced by ``{"store": name}`` references into the
worker-held store.  That reuse is what keeps cluster answers entry-for-entry
identical to the local backends: there is no second copy of any kernel.

What is new here is the **ship policy**.  Entry-producing tasks carry a
``ship`` spec — the coordinator's current k-th bound θ and this peer's
adaptive candidate quota — and the worker prunes its exact shard top-k
*before* serializing: entries strictly below θ are dropped (``>= θ`` ships,
so rank-k ties keep their node-id resolution), and beyond the quota the
remainder is parked in a resume cache with its best value reported as
``rest_bound``.  The coordinator resumes only the peers whose rest bound
can still beat the merged threshold, so bytes-on-wire track the candidates
that can actually matter rather than ``num_shards * k``.

Run one with ``python -m repro.cli cluster-worker --listen host:port``; the
process prints ``listening on <host>:<port>`` once bound (port 0 picks a
free port) so spawners can discover the address.
"""

from __future__ import annotations

import time
import traceback
from collections import OrderedDict
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.cluster.frames import encode_frame, read_frame_async
from repro.core.deadline import deadline_scope
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    FaultInjectedError,
    StaleShardError,
)
from repro.faults import fault_point
from repro.graph.csr import CSRGraph

__all__ = ["ClusterWorker", "cluster_worker_main", "parse_listen"]

#: Parked remainders kept per worker (oldest dropped beyond this; a lost
#: remainder is answered with ``resume_lost`` and the coordinator re-runs
#: the original task instead).
_RESUME_CACHE_LIMIT = 64

_NEG_INF = float("-inf")


class _MissingStoreError(KeyError):
    """A task referenced a store this worker does not hold (yet)."""

    def __init__(self, names: List[str]) -> None:
        super().__init__(", ".join(names))
        self.names = names


class _CSRHolder:
    """A stored CSR view plus its graph-version stamp.

    The duck-type :data:`repro.parallel.worker._HANDLERS` expects from
    ``cache.csr(meta)``: an object exposing ``.csr``.  Freshness here is a
    version-stamp equality check against the version the task named —
    the cluster analogue of the shared-memory live stamp.
    """

    __slots__ = ("csr", "version")

    def __init__(self, csr: CSRGraph, version: int) -> None:
        self.csr = csr
        self.version = version


class _StoreCache:
    """Name-keyed store satisfying the parallel worker's cache duck-type."""

    def __init__(self) -> None:
        self._arrays: Dict[str, object] = {}
        self._csrs: Dict[str, _CSRHolder] = {}
        #: This worker's one ball index (``parallel.worker._ball_index``).
        self.index = None

    def put_array(self, name: str, arr) -> None:
        self._arrays[name] = arr

    def put_csr(self, name: str, holder: _CSRHolder) -> None:
        self._csrs[name] = holder

    def delete(self, names) -> None:
        for name in names:
            self._arrays.pop(name, None)
            dropped = self._csrs.pop(name, None)
            if dropped and self.index and self.index.csr is dropped.csr:
                self.index = None

    def names(self) -> List[str]:
        return sorted(list(self._arrays) + list(self._csrs))

    def array(self, meta: dict):
        name = meta["store"]
        try:
            return self._arrays[name]
        except KeyError:
            raise _MissingStoreError([name]) from None

    def csr(self, meta: dict) -> _CSRHolder:
        name = meta["store"]
        holder = self._csrs.get(name)
        if holder is None:
            raise _MissingStoreError([name])
        expected = meta.get("version")
        if expected is not None and holder.version != expected:
            raise StaleShardError(
                f"store {name!r} holds graph version {holder.version}, "
                f"task expects {expected}"
            )
        return holder


def _missing_stores_of(task: dict, cache: _StoreCache) -> List[str]:
    """Every store name the task references but the cache lacks."""
    missing = []

    def check(meta) -> None:
        if isinstance(meta, dict) and "store" in meta:
            name = meta["store"]
            if name not in cache._arrays and name not in cache._csrs:
                missing.append(name)

    for value in task.values():
        check(value)
        if isinstance(value, list):  # the batch route's scores_list
            for item in value:
                if isinstance(item, (list, tuple)) and item:
                    check(item[0])
    return missing


def _ship_entries(
    entries: List[Tuple[int, float]], ship: dict
) -> Tuple[List[Tuple[int, float]], List[Tuple[int, float]], float]:
    """Apply the θ/quota ship policy to one exact shard top-k list.

    Returns ``(shipped, remainder, rest_bound)``.  Entries with
    ``value >= θ`` survive the prune (ties at the final τ must ship so the
    merged accumulator can resolve them by node id); ``quota`` then splits
    survivors into the shipped prefix and the parked remainder, whose best
    value is the ``rest_bound`` the coordinator's resume loop tests.
    Entries are already sorted best-first, so prefix/suffix is exact.
    """
    if ship.get("mode", "threshold") == "all":
        return list(entries), [], _NEG_INF
    theta = float(ship.get("theta", _NEG_INF))
    kept = [pair for pair in entries if pair[1] >= theta]
    quota = ship.get("quota")
    if quota is None or int(quota) >= len(kept):
        return kept, [], _NEG_INF
    quota = int(quota)
    shipped, remainder = kept[:quota], kept[quota:]
    rest_bound = remainder[0][1] if remainder else _NEG_INF
    return shipped, remainder, rest_bound


def _entries_arrays(np, entries: List[Tuple[int, float]]) -> Dict[str, object]:
    nodes = np.asarray([pair[0] for pair in entries], dtype=np.int64)
    values = np.asarray([pair[1] for pair in entries], dtype=np.float64)
    return {"nodes": nodes, "values": values}


class ClusterWorker:
    """One worker's state: the store, the resume cache, message counters."""

    def __init__(self, ident: int = -1) -> None:
        import numpy as np

        self.np = np
        #: Spawner-assigned identity; fault plans match on it (``peer``
        #: labels) so a schedule can target one specific worker.
        self.ident = ident
        self.stores = _StoreCache()
        self.resume: "OrderedDict[str, List[Tuple[int, float]]]" = OrderedDict()
        self.counters = {
            "frames_received": 0,
            "frames_sent": 0,
            "bytes_received": 0,
            "bytes_sent": 0,
            "tasks": 0,
            "puts": 0,
            "candidates_total": 0,
            "candidates_shipped": 0,
        }
        self._shutdown = False

    # ------------------------------------------------------------------
    # Message handling (transport-independent, unit-testable)
    # ------------------------------------------------------------------
    def handle(
        self, header: dict, arrays: Dict[str, object]
    ) -> Optional[Tuple[dict, Dict[str, object]]]:
        """Process one frame; returns the reply frame or None (no reply)."""
        kind = header.get("type")
        if kind == "put":
            self._handle_put(header, arrays)
            return None
        if kind == "task":
            return self._handle_task(header, arrays)
        if kind == "hello":
            return {"type": "hello", "stores": self.stores.names()}, {}
        if kind == "stats":
            return {"type": "stats", "counters": dict(self.counters)}, {}
        if kind == "shutdown":
            self._shutdown = True
            return None
        return {"type": "error", "message": f"unknown frame type {kind!r}"}, {}

    def _handle_put(self, header: dict, arrays: Dict[str, object]) -> None:
        name = header["store"]
        self.counters["puts"] += 1
        store_kind = header.get("kind", "array")
        if store_kind == "del":
            self.stores.delete(header.get("stores") or [name])
        elif store_kind == "csr":
            csr = CSRGraph(
                indptr=arrays["indptr"],
                indices=arrays["indices"],
                weights=arrays.get("weights"),
                directed=bool(header.get("directed", False)),
            )
            self.stores.put_csr(
                name, _CSRHolder(csr, int(header.get("version", 0)))
            )
        else:
            self.stores.put_array(name, arrays["data"])

    def _handle_task(
        self, header: dict, arrays: Dict[str, object]
    ) -> Tuple[dict, Dict[str, object]]:
        from repro.parallel.worker import _HANDLERS

        task_id = header.get("task_id")
        ship = header.get("ship") or {}
        reply: dict = {"type": "result", "task_id": task_id}
        out_arrays: Dict[str, object] = {}
        self.counters["tasks"] += 1
        # The coordinator ships its *remaining* deadline budget in seconds
        # (absolute timestamps do not cross machines); the task runs under
        # a local deadline scope so the shared kernels' block-boundary
        # check_deadline() polls observe it (repro-check RC001).
        budget = header.get("deadline")
        scope = (
            deadline_scope(time.monotonic() + float(budget))
            if budget is not None
            else nullcontext()
        )
        try:
            with scope:
                task = header.get("task") or {}
                fault_point(
                    "cluster.worker.task",
                    peer=self.ident,
                    kind=task.get("kind"),
                )
                if task.get("kind") == "resume":
                    payload, out_arrays = self._run_resume(task, ship)
                else:
                    if "centers" in arrays:
                        task = dict(task, centers=arrays["centers"])
                    missing = _missing_stores_of(task, self.stores)
                    if missing:
                        raise _MissingStoreError(missing)
                    result = _HANDLERS[task["kind"]](self.np, self.stores, task)
                    payload, out_arrays = self._package(
                        task, result, ship, task_id
                    )
            reply["status"] = "ok"
            reply.update(payload)
        except DeadlineExceededError as exc:
            reply["status"] = "deadline"
            reply["error"] = exc.to_wire()
            out_arrays = {}
        except _MissingStoreError as exc:
            reply["status"] = "missing"
            reply["stores"] = exc.names
            out_arrays = {}
        except StaleShardError as exc:
            reply["status"] = "stale"
            reply["message"] = str(exc)
            out_arrays = {}
        except _ResumeLostError:
            reply["status"] = "resume_lost"
            out_arrays = {}
        except FaultInjectedError as exc:
            # An injected transient: typed as retryable, so the
            # coordinator re-issues (bounded) instead of failing the query.
            reply["status"] = "transient"
            reply["message"] = str(exc)
            out_arrays = {}
        except BaseException as exc:  # report, keep serving
            reply["status"] = "error"
            reply["message"] = f"{type(exc).__name__}: {exc}"
            reply["traceback"] = traceback.format_exc()
            out_arrays = {}
        return reply, out_arrays

    # ------------------------------------------------------------------
    def _park(self, key: str, remainder: List[Tuple[int, float]]) -> None:
        if not remainder:
            self.resume.pop(key, None)
            return
        self.resume[key] = remainder
        self.resume.move_to_end(key)
        while len(self.resume) > _RESUME_CACHE_LIMIT:
            self.resume.popitem(last=False)

    def _ship(
        self, entries: List[Tuple[int, float]], ship: dict, resume_key: str
    ) -> Tuple[dict, Dict[str, object]]:
        shipped, remainder, rest_bound = _ship_entries(entries, ship)
        self._park(resume_key, remainder)
        self.counters["candidates_total"] += len(entries)
        self.counters["candidates_shipped"] += len(shipped)
        payload = {
            "rest_bound": rest_bound,
            "resume": resume_key if remainder else None,
            "candidates_total": len(entries),
            "candidates_shipped": len(shipped),
        }
        return payload, _entries_arrays(self.np, shipped)

    def _run_resume(
        self, task: dict, ship: dict
    ) -> Tuple[dict, Dict[str, object]]:
        key = task.get("resume")
        remainder = self.resume.pop(key, None)
        if remainder is None:
            raise _ResumeLostError(key)
        payload, arrays = self._ship(remainder, ship, key)
        # The resumed total re-counts the parked entries; report only the
        # newly shipped ones as candidates so the coordinator's totals stay
        # one-count-per-candidate.
        payload["candidates_total"] = 0
        self.counters["candidates_total"] -= len(remainder)
        payload["counters"] = {
            "edges_scanned": 0,
            "nodes_visited": 0,
            "balls_expanded": 0,
            "nodes_evaluated": 0,
        }
        payload["evaluated"] = 0
        payload["pruned"] = 0
        return payload, arrays

    def _package(
        self, task: dict, result: dict, ship: dict, task_id: str
    ) -> Tuple[dict, Dict[str, object]]:
        """Shape one handler result into a reply (ship policy applied)."""
        kind = task["kind"]
        if kind == "scan":
            payload, arrays = self._ship(result["entries"], ship, task_id)
            payload["counters"] = result["counters"]
            payload["evaluated"] = result["evaluated"]
            payload["pruned"] = result["pruned"]
            payload["ball_index"] = result["ball_index"]
            return payload, arrays
        if kind == "batch":
            arrays = {}
            for i, entries in enumerate(result["entries_list"]):
                per = _entries_arrays(self.np, entries)
                arrays[f"nodes_{i}"] = per["nodes"]
                arrays[f"values_{i}"] = per["values"]
                self.counters["candidates_total"] += len(entries)
                self.counters["candidates_shipped"] += len(entries)
            payload = {
                "counters": result["counters"],
                "num_queries": len(result["entries_list"]),
                "ball_index": result["ball_index"],
            }
            return payload, arrays
        raise ValueError(f"unhandled task kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Asyncio serving
    # ------------------------------------------------------------------
    async def serve_client(self, reader, writer) -> None:
        """Serve one coordinator connection until EOF or shutdown."""
        try:
            while not self._shutdown:
                try:
                    header, arrays, nbytes = await read_frame_async(reader)
                except ConnectionError:
                    break
                except ClusterError:
                    # Undecodable frame (truncated/corrupted on the wire):
                    # drop the connection — resynchronizing mid-stream is
                    # impossible — and let the coordinator's kill/re-issue
                    # machinery recover.
                    break
                self.counters["frames_received"] += 1
                self.counters["bytes_received"] += nbytes
                reply = self.handle(header, arrays)
                if reply is not None:
                    reply_header, reply_arrays = reply
                    frame = encode_frame(reply_header, reply_arrays)
                    writer.write(frame)
                    await writer.drain()
                    self.counters["frames_sent"] += 1
                    self.counters["bytes_sent"] += len(frame)
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown races
                pass


class _ResumeLostError(Exception):
    """A resume request named a remainder this worker no longer holds."""


def parse_listen(listen: str) -> Tuple[str, int]:
    """Split a ``host:port`` listen spec (port may be 0 for auto-pick)."""
    host, _, port = listen.rpartition(":")
    if not host or not port.isdigit():
        from repro.errors import InvalidParameterError

        raise InvalidParameterError(
            f"listen address must be host:port, got {listen!r}"
        )
    return host, int(port)


def cluster_worker_main(listen: str = "127.0.0.1:0", ident: int = -1) -> None:
    """Entry point of the ``cluster-worker`` CLI command.

    Binds, prints ``listening on <host>:<port>`` (flushed, so a spawning
    coordinator can parse the chosen port), then serves until a
    ``shutdown`` frame arrives.  ``ident`` is the spawner-assigned peer
    identity; fault plans use it to target a specific worker.
    """
    import asyncio

    host, port = parse_listen(listen)
    worker = ClusterWorker(ident)

    async def main() -> None:
        server = await asyncio.start_server(worker.serve_client, host, port)
        bound = server.sockets[0].getsockname()
        print(f"listening on {bound[0]}:{bound[1]}", flush=True)
        async with server:
            while not worker._shutdown:
                await asyncio.sleep(0.05)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
