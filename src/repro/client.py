"""The wire-native client: a remote session that feels like a local one.

:class:`RemoteNetwork` speaks the :mod:`repro.serving` protocol over plain
:mod:`http.client` (stdlib only) and mirrors the local
:class:`~repro.session.Network` query surface — the same fluent builder
refinements, the same terminal verbs, the same ``TopKResult`` /
``StreamUpdate`` / typed-exception types — so code written against a local
session ports to a remote one by changing the constructor::

    net = repro.RemoteNetwork("http://127.0.0.1:8642")
    result = net.query("relevance").limit(10).algorithm("backward").run()
    result = net.topk("relevance", 10)                    # one-shot
    handle = net.query("relevance").limit(5).submit()     # RemoteHandle
    for update in net.query("relevance").limit(3).stream():
        ...

Parity is structural, not best-effort: requests are lowered to the *same*
:class:`~repro.core.request.QueryRequest` a local builder produces (the
client validates before the bytes leave), results decode through the same
:mod:`repro.serving.protocol` functions the server encodes with, and error
payloads rehydrate the exact exception class via
:func:`repro.errors.error_from_wire` — a remote
``DeadlineExceededError`` *is* a ``DeadlineExceededError``.

Session-shaped defaults (hops, ball convention, backend) are learned from
``GET /v1/health`` on first use, so an unrefined remote query lowers to the
identical request an unrefined local one would.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import uuid
from dataclasses import dataclass
from types import MethodType
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlencode, urlsplit

from repro.core.request import DEFAULT_SCORE, QueryRequest
from repro.core.results import StreamUpdate, TopKResult
from repro.errors import (
    InvalidParameterError,
    ProtocolError,
    QueryCancelledError,
    ReproError,
    error_from_wire,
)
from repro.serving.protocol import decode_result, decode_update
from repro.session import _refinement_methods

__all__ = ["RemoteNetwork", "RemoteQueryBuilder", "RemoteHandle", "RetryPolicy"]

#: Seconds of server-side wait requested per long-poll round trip.
_POLL_CHUNK = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`RemoteNetwork` retries transient failures.

    A call is retried only when it failed with a connection-level error
    (``OSError`` / ``http.client`` breakage) or a decoded
    :class:`~repro.errors.ReproError` whose ``retryable`` flag is true —
    the server's own judgment of whether a retry can help, carried over
    the wire.  The wait before attempt ``i`` is exponential
    (``base_delay * multiplier**i`` capped at ``max_delay``), raised to
    any server-provided ``retry_after`` hint, then stretched by up to
    ``jitter`` of itself so synchronized clients do not retry in phase.
    ``max_delay`` doubles as the policy's patience: a ``retry_after``
    hint beyond it is futile to wait out, so the error is raised instead
    of slept on.

    ``attempts`` counts total tries, so ``attempts=1`` disables retries;
    construct with ``jitter=0.0`` for deterministic timing in tests.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise InvalidParameterError(
                f"retry attempts must be >= 1, got {self.attempts}"
            )
        for name in ("base_delay", "max_delay", "multiplier", "jitter"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(
                    f"retry {name} must be >= 0, got {getattr(self, name)}"
                )

    def delay_for(
        self,
        attempt: int,
        retry_after: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (0-based)."""
        backoff = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        delay = max(backoff, float(retry_after or 0.0))
        if self.jitter > 0.0 and rng is not None:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class RemoteQueryBuilder:
    """Immutable fluent builder over the wire (mirror of ``QueryBuilder``).

    Every refinement returns a *new* builder; terminals (:meth:`run`,
    :meth:`submit`, :meth:`stream`, :meth:`request`) lower to a validated
    :class:`~repro.core.request.QueryRequest` with the field-pin mask set,
    exactly as the local builder does.  The refinements *are* the local
    builder's methods, run on this builder (same call shapes, same
    coercions); only :meth:`where` has a body of its own, since a
    predicate cannot cross the wire.
    """

    __slots__ = ("_net", "_score", "_fields", "_set")

    def __init__(
        self,
        net: "RemoteNetwork",
        score: str,
        fields: Optional[Dict[str, object]] = None,
        set_names: Tuple[str, ...] = (),
    ) -> None:
        self._net = net
        self._score = score
        self._fields = dict(fields or {})
        self._set = set_names

    def _with(self, **changes: object) -> "RemoteQueryBuilder":
        fields = dict(self._fields)
        fields.update(changes)
        set_names = self._set + tuple(n for n in changes if n not in self._set)
        return RemoteQueryBuilder(self._net, self._score, fields, set_names)

    # -- refinements ---------------------------------------------------
    def where(self, candidates) -> "RemoteQueryBuilder":
        """Restrict the competition to these node ids.

        Remote builders only accept iterables of node ids — a predicate
        callable cannot cross the wire.
        """
        if callable(candidates):
            raise InvalidParameterError(
                "remote where(...) needs an iterable of node ids; "
                "predicates cannot be serialized"
            )
        selected = tuple(int(u) for u in candidates)
        previous = self._fields.get("candidates")
        if previous is not None:
            selected = tuple(sorted(set(previous) & set(selected)))
        return self._with(candidates=selected)

    def __getattr__(self, name: str):
        refinements = _refinement_methods()
        if name in refinements:
            return MethodType(refinements[name], self)
        raise AttributeError(
            f"unknown query refinement {name!r}; expected one of "
            f"{sorted(refinements)}"
        )

    # -- terminals -----------------------------------------------------
    def request(self) -> QueryRequest:
        """Lower to the validated request this builder describes."""
        defaults = self._net._session_defaults()
        fields = dict(self._fields)
        pinned = frozenset(self._set)
        for name, value in defaults.items():
            fields.setdefault(name, value)
        fields.setdefault("k", 10)
        return QueryRequest(score=self._score, pinned=pinned, **fields)

    def run(self, *, cached: bool = True) -> TopKResult:
        """Execute remotely and wait for the answer."""
        payload = self._net._call(
            "POST",
            "/v1/query",
            {"request": self.request().to_dict(), "cached": cached},
        )
        return decode_result(payload.get("result"))

    def submit(self, *, cached: bool = True) -> "RemoteHandle":
        """Submit without waiting; poll the returned handle."""
        return self._net._submit(self.request(), stream=False, cached=cached)

    def stream(self) -> Iterator[StreamUpdate]:
        """Subscribe to progressive refinements (server-side streaming)."""
        return self._net._submit(
            self.request(), stream=True, cached=False
        ).updates()


class RemoteHandle:
    """Client-side view of a query submitted via ``POST /v1/submit``.

    Mirrors the local :class:`~repro.service.handles.QueryHandle` verbs:
    :meth:`result`, :meth:`done`, :meth:`cancel`, :meth:`updates`.  The
    terminal answer (or typed error) is cached on first fetch — the server
    forgets a query once its outcome is delivered.
    """

    def __init__(self, net: "RemoteNetwork", query_id: str, *, stream: bool) -> None:
        self._net = net
        self.query_id = query_id
        self.stream = stream
        self.state = "pending"
        self._result: Optional[TopKResult] = None
        self._error: Optional[BaseException] = None
        self._terminal = False

    def _poll_once(self, wait: float) -> bool:
        """One ``GET /v1/result`` round trip; True when terminal."""
        if self._terminal:
            return True
        query = {"timeout": f"{max(0.0, wait):.3f}"} if wait else None
        try:
            payload = self._net._call(
                "GET", f"/v1/result/{self.query_id}", query=query
            )
        except ReproError as exc:
            self._error = exc
            self._terminal = True
            self.state = "failed"
            return True
        if payload.get("pending"):
            self.state = str(payload.get("state", "pending"))
            return False
        self._result = decode_result(payload.get("result"))
        self._terminal = True
        self.state = "done"
        return True

    def done(self) -> bool:
        """True once the query reached a terminal state (non-blocking)."""
        return self._poll_once(0.0)

    def result(self, timeout: Optional[float] = None) -> TopKResult:
        """Block (long-polling) for the answer; raises the typed error."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._terminal:
            if deadline is None:
                wait = _POLL_CHUNK
            else:
                wait = min(_POLL_CHUNK, deadline - time.monotonic())
                if wait <= 0 and not self._poll_once(0.0):
                    raise TimeoutError(
                        f"query {self.query_id} still {self.state} "
                        f"after {timeout} seconds"
                    )
            self._poll_once(wait)
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The terminal error (None on success); blocks like :meth:`result`."""
        try:
            self.result(timeout)
        except TimeoutError:
            raise
        except BaseException as exc:
            return exc
        return None

    def cancel(self) -> bool:
        """Ask the server to cancel; True when no result will be produced."""
        if self._terminal:
            return self._error is not None and isinstance(
                self._error, QueryCancelledError
            )
        payload = self._net._call("POST", f"/v1/cancel/{self.query_id}")
        self.state = str(payload.get("state", self.state))
        return bool(payload.get("cancelled"))

    def updates(self, timeout: Optional[float] = None) -> Iterator[StreamUpdate]:
        """Yield streaming refinements via ``GET /v1/updates`` long-polls."""
        if not self.stream:
            raise QueryCancelledError(
                "handle was not submitted with stream=True"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        cursor = 0
        while True:
            wait = _POLL_CHUNK
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait < 0:
                    raise TimeoutError(
                        f"stream {self.query_id} produced no update in time"
                    )
            payload = self._net._call(
                "GET",
                f"/v1/updates/{self.query_id}",
                query={"cursor": str(cursor), "timeout": f"{max(wait, 0.0):.3f}"},
            )
            for raw in payload.get("updates", ()):
                yield decode_update(raw)
            cursor = int(payload.get("cursor", cursor))
            if payload.get("done"):
                self._terminal = True
                error = payload.get("error")
                if error is not None:
                    self._error = error_from_wire(error)
                    self.state = "failed"
                    raise self._error
                self.state = "done"
                return


class RemoteNetwork:
    """A :class:`~repro.session.Network`-shaped client for a query server.

    Parameters
    ----------
    url:
        ``http://host:port`` of a running :class:`repro.serving.QueryServer`.
    tenant:
        Optional tenant name sent as ``X-Repro-Tenant`` on every request —
        the unit of the server's quota and rate-limit accounting.
    timeout:
        Socket timeout per HTTP round trip (long-polls add their own wait).
    retry:
        A :class:`RetryPolicy` governing transient-failure retries, or
        ``None`` to fail fast on the first error.  The default retries
        connection breakage and ``retryable`` wire errors three times
        with jittered exponential backoff; submissions carry an
        idempotency key so a retried ``/v1/submit`` can never run the
        same query twice.
    """

    def __init__(
        self,
        url: str,
        *,
        tenant: Optional[str] = None,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = RetryPolicy(),
    ) -> None:
        parts = urlsplit(url if "//" in url else f"//{url}", scheme="http")
        if parts.scheme != "http" or not parts.hostname:
            raise InvalidParameterError(
                f"expected an http://host:port server url, got {url!r}"
            )
        self._host = parts.hostname
        self._port = parts.port or 80
        self._timeout = float(timeout)
        self.tenant = tenant
        self.retry = retry
        self._rng = random.Random()  # jitter only; never affects results
        self._conn: Optional[http.client.HTTPConnection] = None
        self._conn_lock = threading.Lock()
        self._defaults: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        *,
        query: Optional[Dict[str, str]] = None,
    ) -> dict:
        """One logical call: round trips with transient-failure retries.

        Retries (per :class:`RetryPolicy`) only on connection-level
        failures and wire errors the server marked ``retryable`` —
        honoring any ``retry_after`` hint the error carried.  A hint
        beyond the policy's ``max_delay`` means no in-budget retry can
        succeed (the server said "not before then"), so the typed error
        surfaces immediately instead of blocking the caller.  Every route
        this client retries is safe to repeat: queries are pure reads and
        ``/v1/submit`` bodies carry an idempotency key.
        """
        policy = self.retry
        attempt = 0
        while True:
            retry_after: Optional[float] = None
            try:
                return self._call_once(method, path, body, query=query)
            except ReproError as exc:
                exhausted = policy is None or attempt + 1 >= policy.attempts
                if exhausted or not getattr(exc, "retryable", False):
                    raise
                retry_after = getattr(exc, "retry_after", None)
                if retry_after is not None and (
                    float(retry_after) > policy.max_delay
                ):
                    raise
            except (OSError, http.client.HTTPException):
                if policy is None or attempt + 1 >= policy.attempts:
                    raise
            time.sleep(policy.delay_for(attempt, retry_after, self._rng))
            attempt += 1

    def _call_once(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        *,
        query: Optional[Dict[str, str]] = None,
    ) -> dict:
        """One JSON round trip; raises the rehydrated typed error."""
        target = path if not query else f"{path}?{urlencode(query)}"
        blob = json.dumps(body).encode("utf-8") if body is not None else b""
        headers = {"Content-Type": "application/json"}
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        with self._conn_lock:
            for attempt in (1, 2):
                if self._conn is None:
                    self._conn = http.client.HTTPConnection(
                        self._host, self._port, timeout=self._timeout
                    )
                try:
                    self._conn.request(method, target, blob, headers)
                    response = self._conn.getresponse()
                    raw = response.read()
                    status = response.status
                    break
                except (OSError, http.client.HTTPException):
                    # Stale keep-alive (server restarted, idle close):
                    # reconnect once before giving up.
                    self._close_conn()
                    if attempt == 2:
                        raise
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError as exc:
            raise ProtocolError(
                f"server sent a non-JSON response (HTTP {status}): {exc}"
            ) from None
        if isinstance(payload, dict) and "error" in payload:
            raise error_from_wire(payload["error"])
        if status >= 400:
            raise ProtocolError(f"HTTP {status} without an error payload")
        if not isinstance(payload, dict):
            raise ProtocolError("server response must be a JSON object")
        return payload

    def _close_conn(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:
                pass
            self._conn = None

    def close(self) -> None:
        """Drop the keep-alive connection (the client is restartable)."""
        with self._conn_lock:
            self._close_conn()

    def __enter__(self) -> "RemoteNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """``GET /v1/health`` — liveness plus the session's shape."""
        payload = self._call("GET", "/v1/health")
        self._defaults = {
            "hops": int(payload["hops"]),
            "include_self": bool(payload["include_self"]),
            "backend": str(payload["backend"]),
        }
        return payload

    def stats(self) -> dict:
        """``GET /v1/stats`` — serving, admission, and per-lane stats."""
        return self._call("GET", "/v1/stats")

    def score_names(self) -> Tuple[str, ...]:
        """Registered score names on the server's session."""
        return tuple(self._call("GET", "/v1/scores")["scores"])

    @property
    def hops(self) -> int:
        """The server session's radius (``Network.hops``'s twin)."""
        return int(self._session_defaults()["hops"])

    def _session_defaults(self) -> Dict[str, object]:
        """Server-session defaults (hops/ball/backend), fetched once, so an
        unrefined remote query lowers identically to an unrefined local one."""
        if self._defaults is None:
            self.health()
        assert self._defaults is not None
        return dict(self._defaults)

    # ------------------------------------------------------------------
    # Queries (the Network-parity surface)
    # ------------------------------------------------------------------
    def query(self, score: str = DEFAULT_SCORE) -> RemoteQueryBuilder:
        """Start a fluent query against a named server-side score vector."""
        return RemoteQueryBuilder(self, score)

    def topk(
        self,
        score: str,
        k: int,
        aggregate: object = "sum",
        **builder_options: object,
    ) -> TopKResult:
        """One-shot convenience mirroring ``Network.topk``:
        ``query(score).limit(k)....run()`` over the wire."""
        builder = self.query(score).limit(k).aggregate(aggregate)
        for name, value in builder_options.items():
            builder = getattr(builder, name)(value)
        return builder.run()

    def run(self, request: Union[QueryRequest, dict], *, cached: bool = True) -> TopKResult:
        """Execute one already-lowered request (or its ``to_dict`` payload)."""
        if isinstance(request, QueryRequest):
            payload = request.to_dict()
        elif isinstance(request, dict):
            payload = QueryRequest.from_dict(request).to_dict()
        else:
            raise InvalidParameterError(
                f"expected a QueryRequest or payload dict, got {type(request).__name__}"
            )
        out = self._call("POST", "/v1/query", {"request": payload, "cached": cached})
        return decode_result(out.get("result"))

    def _submit(
        self, request: QueryRequest, *, stream: bool, cached: bool
    ) -> RemoteHandle:
        # The key is minted once per logical submission, *outside* the
        # retry loop: a retried request replays the same key and the
        # server's dedup journal answers with the original query id
        # instead of executing the query a second time.
        payload = self._call(
            "POST",
            "/v1/submit",
            {
                "request": request.to_dict(),
                "stream": stream,
                "cached": cached,
                "idempotency_key": uuid.uuid4().hex,
            },
        )
        query_id = payload.get("query_id")
        if not isinstance(query_id, str):
            raise ProtocolError(f"malformed submit response: {payload!r}")
        return RemoteHandle(self, query_id, stream=stream)

    def submit(
        self,
        request: QueryRequest,
        *,
        stream: bool = False,
        cached: bool = True,
    ) -> RemoteHandle:
        """Submit a lowered request; returns a pollable :class:`RemoteHandle`."""
        return self._submit(request, stream=stream, cached=cached)

    def batch(
        self,
        queries: Sequence[Union[RemoteQueryBuilder, QueryRequest, Tuple[str, int], Tuple[str, int, str]]],
    ) -> List[TopKResult]:
        """Answer many queries in one round trip (one result each, in order).

        Accepts remote builders, lowered requests, or ``(score, k[,
        aggregate])`` tuples.  Server-side the batch lands on one replica
        lane so compatible queries coalesce into shared scans.
        """
        payload: List[dict] = []
        for i, item in enumerate(queries):
            if isinstance(item, RemoteQueryBuilder):
                payload.append(item.request().to_dict())
            elif isinstance(item, QueryRequest):
                payload.append(item.to_dict())
            elif isinstance(item, tuple) and len(item) in (2, 3):
                score, k = str(item[0]), int(item[1])
                aggregate = str(item[2]) if len(item) == 3 else "sum"
                defaults = self._session_defaults()
                payload.append(
                    QueryRequest(
                        k=k, score=score, aggregate=aggregate, **defaults
                    ).to_dict()
                )
            else:
                raise InvalidParameterError(
                    f"batch item {i} must be a builder, request, or "
                    f"(score, k[, aggregate]) tuple, got {type(item).__name__}"
                )
        out = self._call("POST", "/v1/batch", {"queries": payload})
        return [decode_result(raw) for raw in out.get("results", ())]

    def topk_weighted(
        self,
        score: str,
        k: int,
        profile=None,
        algorithm: str = "backward",
        **options: object,
    ) -> TopKResult:
        """Distance-weighted top-k (the paper's footnote 1), remotely:
        ``query(score).limit(k).weighted(profile).algorithm(algorithm)``
        plus ``options`` as :meth:`topk` takes them."""
        return self.topk(
            score, k, weighted=profile, algorithm=algorithm, **options
        )
