"""The asyncio HTTP front door over one session.

Stdlib-only by design (the CI matrix runs without numpy, and the container
adds no dependencies): a hand-rolled HTTP/1.1 loop over
``asyncio.start_server`` — request line, headers, ``Content-Length`` body,
JSON in, JSON out, keep-alive.  The event loop only parses, routes, and
awaits; every query executes on the replica lanes' scheduler threads (or
worker processes), bridged back with ``loop.call_soon_threadsafe`` via the
handle's done callback — the server never blocks its loop on a scan.

Routes (all under ``/v1/``, the :data:`~repro.serving.protocol.PROTOCOL_VERSION`):

====================================  ==========================================
``GET  /v1/health``                   liveness + session shape (hops, scores)
``GET  /v1/stats``                    serving, admission, per-lane stats
``GET  /v1/scores``                   registered score names
``POST /v1/query``                    submit one request and wait for its answer
``POST /v1/submit``                   submit; returns a ``query_id`` immediately
``GET  /v1/result/<id>``              poll/wait one submitted query's answer
``POST /v1/cancel/<id>``              cancel a submitted query
``GET  /v1/updates/<id>``             long-poll a streaming query's refinements
``POST /v1/batch``                    many (score, k, aggregate) queries at once
====================================  ==========================================

A distance-weighted query is a ``query`` / ``submit`` / ``batch`` whose
request carries ``weights``: it is admitted on that request, routed to its
shape's lane and counted in the occupancy the shed rule reads, like any
other.

Error responses are ``{"error": {"code": ..., "message": ..., ...}}`` with
the status from :func:`~repro.serving.protocol.status_for`; the client
rehydrates the exact exception class via
:func:`repro.errors.error_from_wire`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.config import (
    ClusterConfig,
    ParallelConfig,
    ServiceConfig,
    _FrozenConfig,
)
from repro.core.executor import choose_algorithm
from repro.core.request import QueryRequest
from repro.errors import (
    FaultInjectedError,
    InvalidParameterError,
    ProtocolError,
    ReproError,
    ServiceOverloadedError,
)
from repro.faults import active_plan, fault_point
from repro.serving.admission import AdmissionController
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    encode_error,
    encode_result,
    encode_update,
    status_for,
)
from repro.serving.replicas import ReplicaSet

__all__ = ["ServerConfig", "QueryServer"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Seconds between wakeups while a long-poll waits for stream updates.
_POLL_INTERVAL = 0.02

#: Remembered ``idempotency_key`` -> submit response pairs.  Bounds the
#: dedup journal; old keys age out FIFO (a client retry storm is seconds
#: long, not thousands of distinct submissions long).
_IDEMPOTENCY_LIMIT = 4096


@dataclass(frozen=True)
class ServerConfig(_FrozenConfig):
    """Everything one :class:`QueryServer` needs, as one frozen object.

    Accepts nested ``service`` / ``parallel`` / ``cluster`` sections as
    config objects *or* plain mappings (so a JSON config file round-trips
    through :meth:`from_file`); unknown keys are rejected at every level.
    ``port=0`` binds an ephemeral port (the bound address is on
    ``QueryServer.address`` after ``start()``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    replicas: int = 2
    service: object = None  # ServiceConfig | mapping | None
    parallel: object = None  # ParallelConfig | mapping | None
    cluster: object = None  # ClusterConfig | mapping | None
    quota: Optional[int] = None
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None
    shed_watermark: float = 0.75
    cost_limit: Optional[float] = None
    max_handles: int = 1024
    max_body: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        service = self.service
        if service is None:
            # One scheduler thread per lane: coalescing and async handles
            # need a worker; heavier pools are an explicit choice.
            service = ServiceConfig(workers=1)
        elif not isinstance(service, ServiceConfig):
            service = ServiceConfig.coerce(service)
        object.__setattr__(self, "service", service)
        parallel = self.parallel
        if parallel is not None and not isinstance(parallel, ParallelConfig):
            parallel = ParallelConfig.coerce(parallel)
        object.__setattr__(self, "parallel", parallel)
        cluster = self.cluster
        if cluster is not None and not isinstance(cluster, ClusterConfig):
            cluster = ClusterConfig.coerce(cluster)
        object.__setattr__(self, "cluster", cluster)
        self._coerce("port", int, 0)
        if self.port > 65535:
            raise InvalidParameterError(
                f"port must be <= 65535, got {self.port}"
            )
        for name in ("replicas", "max_handles", "max_body"):
            self._coerce(name, int, 1)
        if self.quota is not None:
            self._coerce("quota", int, 0)  # 0 admits nobody
        self._coerce("shed_watermark", float, 0.0)
        if self.shed_watermark >= 1.0:
            raise InvalidParameterError(
                f"shed_watermark must be < 1, got {self.shed_watermark}"
            )

    @classmethod
    def from_file(cls, path: object) -> "ServerConfig":
        """Parse a JSON config file (same schema as :meth:`from_options`)."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise ProtocolError(
                    f"config file {path} is not valid JSON: {exc}"
                ) from None
        if not isinstance(payload, Mapping):
            raise ProtocolError(
                f"config file {path} must hold a JSON object"
            )
        return cls.from_options(payload)


class _Entry:
    """Server-side record of one submitted query."""

    __slots__ = (
        "id", "handle", "replica", "updates", "lock", "delivered", "pumped"
    )

    def __init__(self, query_id: str, handle, replica: int) -> None:
        self.id = query_id
        self.handle = handle
        self.replica = replica
        self.updates: List[dict] = []
        self.lock = threading.Lock()
        self.delivered = False
        # Set once the pump thread has flushed the *last* update into the
        # buffer — ``handle.done()`` alone races the pump's final append.
        self.pumped = threading.Event()


class QueryServer:
    """Serve one :class:`~repro.session.Network` over HTTP.

    Usage::

        server = QueryServer(net, ServerConfig(replicas=4, port=8642))
        server.start()                      # background event-loop thread
        print(server.address)               # ("127.0.0.1", 8642)
        ...
        server.close()

    The server owns its replica lanes (closed with it) but *not* the
    session — callers may keep querying ``net`` locally, and mutations
    through the session invalidate the lanes' caches like any other
    service's.
    """

    def __init__(self, network, config: object = None, **options: object) -> None:
        cfg = ServerConfig.coerce(config, options)
        self.config = cfg
        self._net = network
        if cfg.parallel is not None:
            network.parallel(cfg.parallel)
        if cfg.cluster is not None:
            network.cluster(cfg.cluster)
        self.replicas = ReplicaSet(
            network, cfg.service, replicas=cfg.replicas
        )
        self.admission = AdmissionController(
            cost_of=self._cost_of,
            load_of=self._load,
            rate=cfg.tenant_rate,
            burst=cfg.tenant_burst,
            quota=cfg.quota,
            shed_watermark=cfg.shed_watermark,
            cost_limit=cfg.cost_limit,
        )
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._entries_lock = threading.Lock()
        self._idempotency: "OrderedDict[str, dict]" = OrderedDict()
        self._idempotency_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._cost_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._cost_lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._counters_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryServer":
        """Bind and serve on a dedicated event-loop thread; returns self."""
        if self._loop is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._bind(), self._loop)
        try:
            self.address = future.result(timeout=30)
        except BaseException:
            self.close()
            raise
        return self

    async def _bind(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return (host, port)

    @property
    def url(self) -> str:
        """``http://host:port`` of the bound server (after ``start()``)."""
        if self.address is None:
            raise ReproError("server is not started")
        return f"http://{self.address[0]}:{self.address[1]}"

    def close(self) -> None:
        """Stop accepting connections, drain lanes, release everything."""
        loop, self._loop = self._loop, None
        if loop is not None:
            if self._server is not None:
                async def _shutdown(server=self._server):
                    server.close()
                    await server.wait_closed()
                    # Idle keep-alive connections hold parked handler tasks;
                    # cancel them so the loop stops clean.
                    for task in asyncio.all_tasks():
                        if task is not asyncio.current_task():
                            task.cancel()

                try:
                    asyncio.run_coroutine_threadsafe(_shutdown(), loop).result(
                        timeout=10
                    )
                except Exception:
                    pass
                self._server = None
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10)
                self._thread = None
            loop.close()
        self.address = None
        self.replicas.close()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shedding inputs
    # ------------------------------------------------------------------
    def _load(self) -> float:
        used, capacity = self.replicas.occupancy()
        return used / capacity

    def _cost_of(self, request: QueryRequest) -> float:
        """Planner cost (amortized ball expansions) of the route one request
        will run on its own backend, that backend's fixed cost included once.

        The route is the request's pin, the executor's ``auto`` policy, or
        the plan's choice for ``planned``.  Memoized per (score, canonical
        key, graph/score version, index built): under load the same hot shapes arrive
        repeatedly and the planner's scan statistics are not free.  A
        request the planner cannot cost (e.g. ``algorithm="view"``) admits
        at cost 0 — execution will produce the real error with the right
        code.
        """
        indexed = self._net._ctx.diff_index is not None  # ``auto`` reads it
        version = (
            getattr(self._net.graph, "version", None),
            self._net._score_epoch(request.score),
            indexed,
        )
        key = (request.score, request.canonical_key())
        with self._cost_lock:
            hit = self._cost_cache.get(key)
            if hit is not None and hit[0] == version:
                self._cost_cache.move_to_end(key)
                return hit[1]
        try:
            # Distance weights change what a ball sums to, not which balls
            # a route expands: a weighted request costs its unweighted twin.
            request = request.replace(weights=None)
            plan = self._net._plan(request)
            algorithm = request.algorithm
            if algorithm == "planned":
                algorithm = plan.chosen
            elif algorithm == "auto":
                algorithm = choose_algorithm(
                    self._net.scores_of(request.score),
                    request.spec(),
                    index_available=indexed,
                )
            cost = plan.estimate_for(algorithm).total_amortized()
        except ReproError:
            cost = 0.0
        with self._cost_lock:
            self._cost_cache[key] = (version, cost)
            while len(self._cost_cache) > 512:
                self._cost_cache.popitem(last=False)
        return cost

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        try:
            # Connection-scope fault hook: refuse/crash/delay one accepted
            # connection before any request is read (a delay here blocks
            # the loop — injected latency is server-wide, as intended).
            fault_point("serving.connection")
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, _ = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    break
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0") or "0")
                if length > self.config.max_body:
                    await self._respond(
                        writer,
                        413,
                        encode_error(
                            ProtocolError(
                                f"body of {length} bytes exceeds the "
                                f"{self.config.max_body} byte limit"
                            )
                        ),
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._dispatch(
                    method.upper(), target, headers, body
                )
                await self._respond(writer, status, payload)
                if headers.get("connection", "").lower() == "close":
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
            FaultInjectedError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _respond(self, writer, status: int, payload: dict) -> None:
        blob = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + blob)
        await writer.drain()

    def _bump(self, route: str) -> None:
        with self._counters_lock:
            self._counters[route] = self._counters.get(route, 0) + 1

    async def _dispatch(
        self, method: str, target: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, dict]:
        parts = urlsplit(target)
        path = parts.path.rstrip("/")
        query = {
            k: v[-1] for k, v in parse_qs(parts.query).items()
        }
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except ValueError as exc:
            err = ProtocolError(f"request body is not valid JSON: {exc}")
            return status_for(err), encode_error(err)
        if not isinstance(payload, dict):
            err = ProtocolError("request body must be a JSON object")
            return status_for(err), encode_error(err)
        tenant = str(
            headers.get("x-repro-tenant") or payload.get("tenant") or "default"
        )
        try:
            route = (method, path)
            if route == ("GET", "/v1/health"):
                return 200, self._health()
            if route == ("GET", "/v1/stats"):
                return 200, self.stats()
            if route == ("GET", "/v1/scores"):
                return 200, {"scores": list(self._net.score_names())}
            if route == ("POST", "/v1/query"):
                self._bump("query")
                return await self._route_query(payload, tenant)
            if route == ("POST", "/v1/submit"):
                self._bump("submit")
                return await self._route_submit(payload, tenant)
            if path.startswith("/v1/result/") and method == "GET":
                self._bump("result")
                return await self._route_result(path[len("/v1/result/"):], query)
            if path.startswith("/v1/cancel/") and method == "POST":
                self._bump("cancel")
                return self._route_cancel(path[len("/v1/cancel/"):])
            if path.startswith("/v1/updates/") and method == "GET":
                self._bump("updates")
                return await self._route_updates(
                    path[len("/v1/updates/"):], query
                )
            if route == ("POST", "/v1/batch"):
                self._bump("batch")
                return await self._route_batch(payload, tenant)
            err = ProtocolError(f"no route {method} {path or '/'}")
            return 404, encode_error(err)
        except Exception as exc:  # typed wire errors for everything
            self._bump("errors")
            return status_for(exc), encode_error(exc)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        graph = self._net.graph
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "replicas": len(self.replicas),
            "hops": self._net.hops,
            "include_self": self._net.include_self,
            "backend": self._net.backend,
            "graph": {
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
            },
            "scores": list(self._net.score_names()),
        }

    def stats(self) -> dict:
        """The monitoring payload ``GET /v1/stats`` serves."""
        used, capacity = self.replicas.occupancy()
        with self._counters_lock:
            counters = dict(self._counters)
        with self._entries_lock:
            open_handles = len(self._entries)
        with self._idempotency_lock:
            idempotency_keys = len(self._idempotency)
        payload = {
            "requests": counters,
            "load": used / capacity,
            "open_handles": open_handles,
            "idempotency_keys": idempotency_keys,
            "admission": self.admission.stats(),
            "replicas": self.replicas.stats(),
        }
        plan = active_plan()
        if plan is not None:
            payload["faults"] = plan.stats()
        return payload

    def _admit_and_submit(
        self, payload: dict, tenant: str, *, stream: bool
    ) -> Tuple[int, object]:
        """Shared admission + routing + submission for query/submit."""
        request = QueryRequest.from_dict(payload.get("request"))
        cached = bool(payload.get("cached", True))
        release = self.admission.admit(request, tenant)
        try:
            index, lane = self.replicas.route(request)
            handle = lane.submit(request, stream=stream, cached=cached)
        except BaseException:
            release()
            raise
        handle.add_done_callback(lambda _h: release())
        self._bump(f"lane_{index}")
        return index, handle

    async def _route_query(self, payload: dict, tenant: str) -> Tuple[int, dict]:
        index, handle = self._admit_and_submit(payload, tenant, stream=False)
        await self._await_handle(handle)
        result = handle.result(timeout=0)  # raises the typed terminal error
        return 200, {"result": encode_result(result), "replica": index}

    async def _route_submit(self, payload: dict, tenant: str) -> Tuple[int, dict]:
        stream = bool(payload.get("stream", False))
        idem = payload.get("idempotency_key")
        if idem is not None and not isinstance(idem, str):
            raise ProtocolError("'idempotency_key' must be a string")
        if idem:
            # Exactly-once across client retries: a key seen before means
            # the earlier attempt's 202 was lost in flight, not that the
            # work should run again.  The journal check and the insert
            # below run without an intervening await, so two racing
            # retries of the same key cannot both submit.
            with self._idempotency_lock:
                hit = self._idempotency.get(idem)
            if hit is not None:
                self._bump("idempotent_hits")
                return 202, dict(hit, deduplicated=True)
        self._evict_entries()
        index, handle = self._admit_and_submit(payload, tenant, stream=stream)
        entry = _Entry(f"q{next(self._ids)}", handle, index)
        with self._entries_lock:
            self._entries[entry.id] = entry
        response = {"query_id": entry.id, "replica": index, "stream": stream}
        if idem:
            with self._idempotency_lock:
                self._idempotency[idem] = dict(response)
                while len(self._idempotency) > _IDEMPOTENCY_LIMIT:
                    self._idempotency.popitem(last=False)
        if stream:
            pump = threading.Thread(
                target=self._pump_updates, args=(entry,), daemon=True
            )
            pump.start()
        return 202, response

    def _evict_entries(self) -> None:
        """Bound the handle table: delivered entries go first, then any
        terminal ones; refuse new submissions only when every open handle
        is still live."""
        with self._entries_lock:
            if len(self._entries) < self.config.max_handles:
                return
            for key in [
                k for k, e in self._entries.items() if e.delivered
            ] or [
                k for k, e in self._entries.items() if e.handle.done()
            ]:
                del self._entries[key]
            if len(self._entries) >= self.config.max_handles:
                raise ServiceOverloadedError(
                    f"{len(self._entries)} queries are already open on this "
                    "server; fetch or cancel some before submitting more",
                    retry_after=0.1,
                )

    def _entry(self, query_id: str) -> _Entry:
        with self._entries_lock:
            entry = self._entries.get(query_id)
        if entry is None:
            raise ProtocolError(f"unknown query id {query_id!r}")
        return entry

    async def _route_result(
        self, query_id: str, query: Dict[str, str]
    ) -> Tuple[int, dict]:
        entry = self._entry(query_id)
        timeout = float(query.get("timeout", "0") or "0")
        if not entry.handle.done() and timeout > 0:
            await self._await_handle(entry.handle, timeout=timeout)
        if not entry.handle.done():
            return 202, {"pending": True, "state": entry.handle.state}
        entry.delivered = True
        with self._entries_lock:
            self._entries.pop(query_id, None)
        result = entry.handle.result(timeout=0)  # raises typed error
        return 200, {"result": encode_result(result), "replica": entry.replica}

    def _route_cancel(self, query_id: str) -> Tuple[int, dict]:
        entry = self._entry(query_id)
        cancelled = entry.handle.cancel()
        return 200, {"cancelled": cancelled, "state": entry.handle.state}

    def _pump_updates(self, entry: _Entry) -> None:
        """Drain a streaming handle's refinements into the entry buffer.

        Runs on its own thread (the handle's ``updates()`` iterator
        blocks); terminal errors are left on the handle, where the updates
        route reports them after the buffer drains.
        """
        try:
            for update in entry.handle.updates():
                with entry.lock:
                    entry.updates.append(encode_update(update))
        except Exception:
            pass
        finally:
            entry.pumped.set()

    async def _route_updates(
        self, query_id: str, query: Dict[str, str]
    ) -> Tuple[int, dict]:
        entry = self._entry(query_id)
        cursor = int(query.get("cursor", "0") or "0")
        timeout = float(query.get("timeout", "0") or "0")
        if not entry.handle.stream:
            raise ProtocolError(
                f"query {query_id!r} was not submitted with stream=true"
            )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            with entry.lock:
                fresh = entry.updates[cursor:]
                total = len(entry.updates)
            finished = entry.pumped.is_set() and cursor + len(fresh) == total
            if fresh or finished or loop.time() >= deadline:
                break
            await asyncio.sleep(_POLL_INTERVAL)
        payload: dict = {
            "updates": fresh,
            "cursor": cursor + len(fresh),
            "done": False,
        }
        if entry.pumped.is_set() and cursor + len(fresh) == total:
            payload["done"] = True
            entry.delivered = True
            error = entry.handle.exception(timeout=0)
            if error is not None:
                payload.update(encode_error(error))
            with self._entries_lock:
                self._entries.pop(query_id, None)
        return 200, payload

    async def _route_batch(self, payload: dict, tenant: str) -> Tuple[int, dict]:
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise ProtocolError("'queries' must be a non-empty list")
        requests = [QueryRequest.from_dict(q) for q in queries]
        # One admission decision for the whole batch, priced at its most
        # expensive member — a batch must not dodge the shed policy by
        # bundling.
        release = self.admission.admit(
            max(requests, key=self._cost_of), tenant
        )
        try:
            index, lane = self.replicas.least_loaded()
            handles = lane.submit_all(requests)
        except BaseException:
            release()
            raise
        self._bump(f"lane_{index}")
        try:
            await asyncio.gather(
                *(self._await_handle(h) for h in handles)
            )
        finally:
            release()
        results = [encode_result(h.result(timeout=0)) for h in handles]
        return 200, {"results": results, "replica": index}

    # ------------------------------------------------------------------
    async def _await_handle(self, handle, timeout: Optional[float] = None) -> None:
        """Await a scheduler-thread handle without blocking the loop."""
        if handle.done():
            return
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()

        def _on_done(_h) -> None:
            def _resolve() -> None:
                if not future.done():
                    future.set_result(None)

            try:
                loop.call_soon_threadsafe(_resolve)
            except RuntimeError:  # loop already closing
                pass

        handle.add_done_callback(_on_done)
        try:
            await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            pass
