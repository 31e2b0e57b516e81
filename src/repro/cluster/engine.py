"""The cluster backend's engine: the sharded coordinator over the socket link.

:class:`ClusterEngine` is a
:class:`~repro.parallel.coordinator.ShardedCoordinator` — every route, the
decline rule, the refresh and the stale retry are the coordinator's, which
is what keeps answers entry-for-entry identical to the local backends —
whose workers are remote ``cluster-worker`` processes driven through a
:class:`~repro.cluster.transport.ClusterTransport`.  This module holds only
what the socket link decides:

* **How data reaches a worker** — a **store registry**: every export is a
  named ``put`` payload (``csr#1``, ``owned0#3``, ``scores#5``...) that the
  transport ships lazily to each peer and re-ships on a worker's
  ``missing`` answer; a task names stores by ``{"store": name}`` (the CSR
  with the graph version it was built from, which the worker checks).  A
  graph mutation retires only the graph-derived stores — the delta
  re-export — while score stores stay valid on every peer.
* **How a round is dispatched** — ``ClusterTransport.run`` with, per task, a
  peer hint (``shard % workers``), the ``ship`` spec (``ship_policy``:
  ``"threshold"`` = θ-shipping + ADiT-style adaptive quotas with resume,
  ``"all"`` = the naive ship-everything reference), the stores and frame
  arrays it needs, and the ``fallback`` full task of a ``resume``.
* **How traffic is accounted** — the transport's byte totals around the
  query plus the rounds and candidate counts the coordinator logged,
  published as ``comm_rounds`` / ``bytes_*`` / ``candidates_*`` in
  ``stats.extra`` and kept as ``last_comm`` — the numbers the cluster bench
  compares against :func:`repro.cluster.comm.comm_forecast`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.transport import ClusterTransport
from repro.errors import ClusterError, InvalidParameterError
from repro.parallel.coordinator import DEFAULT_MIN_NODES, ShardedCoordinator

__all__ = ["DEFAULT_MIN_NODES", "ClusterEngine"]

#: Wire bytes per shipped candidate entry (int64 node + float64 value).
ENTRY_BYTES = 16


def _close_transport(resources: dict) -> None:
    """Finalizer target: close the peer set without reviving the engine."""
    transport = resources.get("transport")
    if transport is not None:
        try:
            transport.close()
        except Exception:  # pragma: no cover - interpreter-shutdown races
            pass
    resources["transport"] = None


class _Store:
    """A named entry of the store registry; ``meta()`` is what tasks embed."""

    __slots__ = ("name", "version")

    def __init__(self, name: str, version: Optional[int] = None) -> None:
        self.name = name
        self.version = version

    def meta(self) -> dict:
        if self.version is None:
            return {"store": self.name}
        return {"store": self.name, "version": self.version}


def _store_names(task: dict) -> List[str]:
    """Every store a worker task references (batch score lists included)."""
    metas = list(task.values())
    metas.extend(item[0] for item in task.get("scores_list", ()))
    return [m["store"] for m in metas if isinstance(m, dict) and "store" in m]


def _pairs(arrays: dict, suffix: str = "") -> List[Tuple[int, float]]:
    nodes = arrays.get("nodes" + suffix)
    if nodes is None:
        return []
    return list(zip(nodes.tolist(), arrays["values" + suffix].tolist()))


class ClusterEngine(ShardedCoordinator):
    """Socket-cluster execution over one graph context (see module doc)."""

    backend = "cluster"
    closed_error = ClusterError

    # The routes are the coordinator's.  They are bound on this class as
    # well so per-link instrumentation (bench/trace.py wraps
    # ``ClusterEngine.execute_scan``) finds them here and wraps this link only.
    execute_scan = ShardedCoordinator.execute_scan
    execute_backward = ShardedCoordinator.execute_backward
    run_batch = ShardedCoordinator.run_batch

    def __init__(
        self,
        ctx,
        *,
        workers=2,
        shards: Optional[int] = None,
        min_nodes: int = DEFAULT_MIN_NODES,
        seed: int = 2010,
        timeout: float = 120.0,
        connect_timeout: float = 10.0,
        io_timeout: float = 30.0,
        hedge: bool = True,
        ship_policy: str = "threshold",
    ) -> None:
        if ship_policy not in ("threshold", "all"):
            raise InvalidParameterError(
                f"ship_policy must be 'threshold' or 'all', got {ship_policy!r}"
            )
        transport = ClusterTransport(
            workers,
            timeout=timeout,
            connect_timeout=connect_timeout,
            io_timeout=io_timeout,
            hedge=hedge,
        )
        if transport.num_peers < 1:
            raise InvalidParameterError("cluster needs at least one worker")
        if shards is None:
            shards = transport.num_peers
        if int(shards) < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards}")
        super().__init__(
            ctx,
            {"transport": transport},
            _close_transport,
            workers=transport.num_peers,
            shards=shards,
            min_nodes=min_nodes,
            seed=seed,
        )
        self.ship_policy = ship_policy
        # name -> ("put" header, arrays): everything shippable to a peer.
        self._payloads: Dict[str, Tuple[dict, dict]] = {}
        self._store_serial = 0
        #: Measured communication of the most recent cluster-run query.
        self.last_comm: Optional[Dict[str, float]] = None

    def _transport(self) -> ClusterTransport:
        transport = self._resources["transport"]
        if transport is None:
            raise ClusterError("cluster engine has been closed")
        return transport

    def close(self) -> None:
        """Shut every peer down and forget the store registry."""
        with self._lock:
            super().close()
            self._payloads.clear()

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def _register(self, label: str, header: dict, arrays: dict, version=None) -> _Store:
        self._store_serial += 1
        name = f"{label}#{self._store_serial}"
        self._payloads[name] = (dict(header, type="put", store=name), arrays)
        return _Store(name, version)

    def _export_csr(self, csr, version: int, label: str) -> _Store:
        arrays = {"indptr": csr.indptr, "indices": csr.indices}
        if csr.weights is not None:
            arrays["weights"] = csr.weights
        header = {"kind": "csr", "version": version, "directed": bool(csr.directed)}
        return self._register(label, header, arrays, version)

    def _export_array(self, array, label: str) -> _Store:
        return self._register(label, {"kind": "array"}, {"data": array})

    def _drop(self, exports: list) -> None:
        if not exports:
            return
        names = [store.name for store in exports]
        for name in names:
            self._payloads.pop(name, None)
        self._transport().drop_stores(names)

    def _store_payload(self, name: str) -> Tuple[dict, dict]:
        payload = self._payloads.get(name)
        if payload is None:
            raise ClusterError(f"store {name!r} is no longer exported")
        return payload

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, specs: List[dict], *, rows: Optional[int], steal: bool):
        wire = []
        for spec in specs:
            # Stores and frame arrays are those of the *full* task, so a
            # resume whose remainder is lost can fall back to re-running it
            # on any peer.
            full = spec["fallback"] or spec["task"]
            arrays = None
            if full.get("centers") is not None:
                arrays = {"centers": full["centers"]}
                full = dict(full, centers=None)
            resume = spec["fallback"] is not None
            wire.append(
                {
                    "peer": spec["shard"] % self.workers,
                    "task": spec["task"] if resume else full,
                    "ship": spec["ship"],
                    "stores": _store_names(full),
                    "arrays": arrays,
                    "fallback": full if resume else None,
                }
            )
        replies = self._transport().run(wire, self._store_payload)
        return [self._reply(header, arrays) for header, arrays in replies]

    @staticmethod
    def _reply(header: dict, arrays: dict) -> Tuple[dict, dict]:
        """Candidate frames (``nodes``/``values`` arrays) as pair lists."""
        if "num_queries" in header:
            return header, {
                "entries_list": [
                    _pairs(arrays, f"_{i}") for i in range(header["num_queries"])
                ]
            }
        if "candidates_shipped" in header:
            return header, {"entries": _pairs(arrays)}
        return header, arrays

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def _traffic_snapshot(self) -> Dict[str, int]:
        return self._transport().totals()

    def _stamp_traffic(self, stats, traffic) -> None:
        after = self._traffic_snapshot()
        self.last_comm = {
            "comm_rounds": float(traffic.rounds),
            "bytes_sent": float(after["bytes_sent"] - traffic.before["bytes_sent"]),
            "bytes_received": float(
                after["bytes_received"] - traffic.before["bytes_received"]
            ),
            "candidates_shipped": float(traffic.shipped),
            "candidates_pruned": float(max(0, traffic.total - traffic.shipped)),
            "shipped_candidate_bytes": float(traffic.shipped * ENTRY_BYTES),
        }
        stats.extra.update(self.last_comm)

    # ------------------------------------------------------------------
    def worker_stats(self) -> List[dict]:
        """Per-peer message counters (a ``stats`` round trip to each)."""
        with self._lock:
            transport = self._resources["transport"]
            out: List[dict] = []
            if transport is None or not transport.started:
                return out
            health = {
                board["peer"]: board
                for board in transport.health_snapshot()
            }
            for peer in transport.peers:
                entry = {"peer": peer.address, "alive": bool(peer.alive)}
                board = health.get(peer.ident)
                if board is not None:
                    entry["health"] = {
                        k: board[k]
                        for k in ("state", "failures", "successes", "trips")
                    }
                if peer.alive:
                    try:
                        header, _ = peer.request({"type": "stats"})
                        entry.update(header.get("counters") or {})
                    except ConnectionError:
                        entry["alive"] = False
                out.append(entry)
            return out

    def stats(self) -> dict:
        """Monitoring snapshot: peers, shards, stores, measured comm."""
        with self._lock:
            transport = self._resources["transport"]
            started = bool(transport is not None and transport.started)
            out = super().stats()
            out.update(
                shards=self.shards,
                ship_policy=self.ship_policy,
                started=started,
                alive_peers=transport.alive_peers if started else 0,
                health=transport.health_snapshot() if started else [],
                stores=len(self._payloads),
                comm=transport.totals()
                if started
                else {
                    "bytes_sent": 0,
                    "bytes_received": 0,
                    "frames_sent": 0,
                    "frames_received": 0,
                },
                last_comm=dict(self.last_comm) if self.last_comm else None,
            )
            for gauge in ("respawns", "hedges", "hedge_wins", "transients", "revivals"):
                out[gauge] = getattr(transport, gauge) if transport is not None else 0
            return out
