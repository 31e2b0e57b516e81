"""The versioned JSON wire schema shared by server and client.

One canonical serialization exists for each wire object, and both ends of
the connection use *this module* to produce and consume it — parity between
:class:`repro.client.RemoteNetwork` and local ``Network.run()`` is a
round-trip property of these functions, not a convention.

* Requests ride :meth:`repro.core.request.QueryRequest.to_dict` /
  ``from_dict`` (they carry their own ``schema_version``).  Everything a
  query can ask is a field of it — distance weights included — so the
  query routes take one payload shape and no route is per query kind.
* Results and stream updates are encoded here (entries as ``[node,
  value]`` pairs, stats as a flat field dict with extras kept separate so
  the decode is lossless).
* Errors ride :meth:`repro.errors.ReproError.to_wire` /
  :func:`repro.errors.error_from_wire` — the stable string codes are the
  protocol; :func:`status_for` maps them onto HTTP status codes.

Non-finite floats: stream updates legitimately carry ``-inf`` bounds
(:class:`~repro.core.results.StreamUpdate`).  Python's :mod:`json` emits
and parses ``-Infinity`` by default, and both peers are this library, so
the protocol deliberately allows it rather than inventing a sentinel.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Type

from repro.core.results import QueryStats, StreamUpdate, TopKResult
from repro.core.topk import shared_entries
from repro.errors import (
    DeadlineExceededError,
    DistributedError,
    FaultInjectedError,
    GraphError,
    InvalidParameterError,
    ProtocolError,
    QueryCancelledError,
    QueryError,
    QuotaExceededError,
    RateLimitedError,
    RelationalError,
    RelevanceError,
    ReproError,
    ServiceOverloadedError,
    ServiceShutdownError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "encode_result",
    "decode_result",
    "encode_update",
    "decode_update",
    "encode_error",
    "status_for",
]

#: Version of the serving wire protocol (URL prefix ``/v1/...``).  Bumps
#: only on incompatible changes; additive fields ride the tolerant decoders.
PROTOCOL_VERSION = 1

_STATS_FIELDS = tuple(f.name for f in fields(QueryStats) if f.name != "extra")
_UPDATE_FIELDS = tuple(f.name for f in fields(StreamUpdate) if f.name != "entries")


def encode_result(result: TopKResult) -> dict:
    """``TopKResult`` -> JSON-safe payload (lossless round-trip)."""
    stats = {name: getattr(result.stats, name) for name in _STATS_FIELDS}
    stats["extra"] = dict(result.stats.extra)
    return {
        "entries": [[int(node), float(value)] for node, value in result.entries],
        "stats": stats,
    }


def decode_result(payload: object) -> TopKResult:
    """Inverse of :func:`encode_result`; tolerant of unknown stats fields."""
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ProtocolError(f"malformed result payload: {payload!r}")
    raw_stats = payload.get("stats") or {}
    if not isinstance(raw_stats, dict):
        raise ProtocolError("result 'stats' must be an object")
    stats = QueryStats(
        **{k: raw_stats[k] for k in _STATS_FIELDS if k in raw_stats}
    )
    extra = raw_stats.get("extra")
    if isinstance(extra, dict):
        # extras are heterogeneous JSON scalars (gamma=0.4, ordering="ubound")
        stats.extra = {str(k): v for k, v in extra.items()}
    try:
        # Held like an in-process result's entries: shared pairs.
        entries = shared_entries(payload["entries"])
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed result entries: {exc}") from None
    return TopKResult(entries=entries, stats=stats)


def encode_update(update: StreamUpdate) -> dict:
    """``StreamUpdate`` -> JSON-safe payload."""
    payload = {name: getattr(update, name) for name in _UPDATE_FIELDS}
    payload["entries"] = [
        [int(node), float(value)] for node, value in update.entries
    ]
    return payload


def decode_update(payload: object) -> StreamUpdate:
    """Inverse of :func:`encode_update`."""
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ProtocolError(f"malformed stream update: {payload!r}")
    try:
        entries = tuple(
            (int(node), float(value)) for node, value in payload["entries"]
        )
        return StreamUpdate(
            entries=entries,
            **{k: payload[k] for k in _UPDATE_FIELDS if k in payload},
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed stream update: {exc}") from None


def encode_error(error: BaseException) -> dict:
    """Any exception -> ``{"error": {...}}`` wire envelope.

    Library errors carry their stable code and extras; foreign exceptions
    degrade to the base ``repro_error`` code with their message, so a
    server bug never produces an unparseable response.
    """
    if isinstance(error, ReproError):
        return {"error": error.to_wire()}
    return {
        "error": {
            "code": ReproError.code,
            "message": f"{type(error).__name__}: {error}",
        }
    }


#: Most-derived-first HTTP status mapping for the error taxonomy.  429 for
#: every admission rejection (clients retry with backoff), 400 for caller
#: mistakes, 404 for missing domain objects, 504 for blown deadlines,
#: 409 for cancellations, 503 for shutdown, 500 otherwise.
_STATUS_BY_CLASS = (
    (RateLimitedError, 429),
    (QuotaExceededError, 429),
    (ServiceOverloadedError, 429),
    (DeadlineExceededError, 504),
    (QueryCancelledError, 409),
    (ServiceShutdownError, 503),
    (ProtocolError, 400),
    (InvalidParameterError, 400),
    (GraphError, 404),
    (QueryError, 400),
    # Caller handed the library something malformed: client errors.
    (RelevanceError, 400),
    (RelationalError, 400),
    # A shard plan that cannot be built is a server-side fault; a 500
    # here is deliberate, not the fallback (repro-check RC004).
    (DistributedError, 500),
    # An injected fault surfacing all the way out is a retryable 503 —
    # chaos runs exercise exactly the path real transient outages take.
    (FaultInjectedError, 503),
)  # type: tuple


def status_for(error: BaseException) -> int:
    """The HTTP status code a response carrying ``error`` should use."""
    for cls, status in _STATUS_BY_CLASS:
        if isinstance(error, cls):
            return status
    return 500


#: Reverse view used by tests: status -> representative error classes.
STATUS_BY_CLASS: Dict[Type[BaseException], int] = dict(_STATUS_BY_CLASS)
