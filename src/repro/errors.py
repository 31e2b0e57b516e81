"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except ReproError`` clause while letting programming errors (``TypeError``
from misuse of the Python API itself, ``KeyboardInterrupt``, ...) propagate.

Wire contract
-------------
The serving tier (:mod:`repro.serving`) moves errors between processes and
machines, so every public exception carries a **stable string code**
(``ReproError.code``, e.g. ``"service_overloaded"``) and round-trips
through :meth:`ReproError.to_wire` / :func:`error_from_wire`::

    payload = exc.to_wire()          # {"code": ..., "message": ..., ...}
    again = error_from_wire(payload) # same class, same message, same extras

Codes are part of the public protocol: renaming one is a wire-breaking
change.  Unknown codes decode to plain :class:`ReproError` (forward
compatibility with newer servers), and extra payload fields such as
``retry_after`` survive the round-trip as attributes.

Every payload also carries ``retryable`` — the *server's* verdict on
whether the identical request may safely be retried (overload, rate
limits, transient cluster failures: yes; invalid parameters, missing
nodes: no).  Client-side retry loops (:class:`repro.client.RetryPolicy`)
must consult the decoded attribute rather than guess from the class, so
the authority stays on the serving side of the wire.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "GraphBuildError",
    "QueryError",
    "InvalidParameterError",
    "IndexNotBuiltError",
    "BackendUnavailableError",
    "ServiceError",
    "ServiceOverloadedError",
    "QuotaExceededError",
    "RateLimitedError",
    "QueryCancelledError",
    "DeadlineExceededError",
    "ServiceShutdownError",
    "ProtocolError",
    "RelevanceError",
    "RelationalError",
    "SchemaError",
    "PlanError",
    "DistributedError",
    "PartitionError",
    "ParallelError",
    "StaleShardError",
    "ClusterError",
    "FaultInjectedError",
    "ERROR_CODES",
    "error_from_wire",
]

#: Stable code -> exception class registry (filled by ``__init_subclass__``).
ERROR_CODES: Dict[str, Type["ReproError"]] = {}

#: Wire payload keys that are structural, not instance attributes.
_WIRE_STRUCTURAL = ("code", "message")


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Class attribute ``code`` is the stable wire identifier; subclasses
    override it and are automatically registered in :data:`ERROR_CODES`.
    ``retryable`` marks errors whose identical request may safely be
    retried after a backoff; it rides in every wire payload.
    """

    code: str = "repro_error"
    retryable: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # First registration wins nothing — codes must be unique; a subclass
        # that does not declare its own code inherits (and must not shadow)
        # its parent's registration.
        if "code" in cls.__dict__:
            existing = ERROR_CODES.get(cls.code)
            if existing is not None and existing is not cls:
                raise TypeError(
                    f"duplicate error code {cls.code!r}: "
                    f"{existing.__name__} vs {cls.__name__}"
                )
            ERROR_CODES[cls.code] = cls

    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """One JSON-safe payload: stable code, message, public extras.

        Extras are the instance attributes set by the constructor (e.g.
        :class:`NodeNotFoundError`'s ``node``, an overload error's
        ``retry_after``) whose values are JSON scalars; they come back as
        attributes on the decoded instance.
        """
        payload: dict = {
            "code": self.code,
            "message": str(self),
            "retryable": bool(self.retryable),
        }
        for name, value in vars(self).items():
            if name.startswith("_") or name in _WIRE_STRUCTURAL:
                continue
            if isinstance(value, (str, int, float, bool)) or value is None:
                payload[name] = value
        return payload


ERROR_CODES[ReproError.code] = ReproError


def error_from_wire(payload: dict) -> ReproError:
    """Decode a :meth:`ReproError.to_wire` payload back into an instance.

    The decoded error is the registered class for ``payload["code"]``
    (plain :class:`ReproError` for unknown codes, so newer servers degrade
    gracefully) with the original message and any extra payload fields
    attached as attributes.  Constructors with mandatory domain arguments
    (e.g. :class:`NodeNotFoundError`) are bypassed — the instance is
    rebuilt structurally, exactly as pickling would.
    """
    if not isinstance(payload, dict) or "code" not in payload:
        raise ProtocolError(f"malformed error payload: {payload!r}")
    cls = ERROR_CODES.get(str(payload["code"]), ReproError)
    err = cls.__new__(cls)
    Exception.__init__(err, str(payload.get("message", "")))
    for name, value in payload.items():
        if name not in _WIRE_STRUCTURAL and isinstance(name, str):
            try:
                setattr(err, name, value)
            except AttributeError:  # pragma: no cover - slotted subclass
                pass
    return err


class GraphError(ReproError):
    """Base class for graph-storage and traversal errors."""

    code = "graph_error"


class NodeNotFoundError(GraphError, KeyError):
    """A node id was not present in the graph."""

    code = "node_not_found"

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; keep it human-readable.
        return self.args[0] if self.args else ""


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was not present in the graph."""

    code = "edge_not_found"

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class GraphBuildError(GraphError, ValueError):
    """Raised when a graph cannot be constructed from the given input."""

    code = "graph_build_error"


class QueryError(ReproError):
    """Base class for query-processing errors."""

    code = "query_error"


class InvalidParameterError(QueryError, ValueError):
    """A query or algorithm parameter is out of its valid domain."""

    code = "invalid_parameter"


class IndexNotBuiltError(QueryError, RuntimeError):
    """An algorithm required a precomputed index that was not supplied."""

    code = "index_not_built"


class BackendUnavailableError(QueryError, RuntimeError):
    """An execution backend was requested whose dependency is missing."""

    code = "backend_unavailable"


class ServiceError(QueryError):
    """Base class for the concurrent serving layer (:mod:`repro.service`)."""

    code = "service_error"


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a submission.

    Raised when the queue bound is reached, and by the network front door's
    cost-based load shedder (:mod:`repro.serving.admission`).  ``retry_after``
    — seconds after which the caller should retry — travels over the wire;
    ``estimated_cost`` / ``cost_limit`` document a shedding decision.
    """

    code = "service_overloaded"
    retryable = True

    def __init__(
        self,
        message: str,
        *,
        retry_after: Optional[float] = None,
        estimated_cost: Optional[float] = None,
        cost_limit: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.estimated_cost = estimated_cost
        self.cost_limit = cost_limit


class QuotaExceededError(ServiceOverloadedError):
    """A tenant exceeded its concurrent-query quota."""

    code = "quota_exceeded"


class RateLimitedError(ServiceOverloadedError):
    """A tenant's token bucket ran dry (requests per second bound)."""

    code = "rate_limited"


class QueryCancelledError(ServiceError):
    """The result of a cancelled query handle was requested."""

    code = "query_cancelled"


class DeadlineExceededError(ServiceError, TimeoutError):
    """A query passed its deadline — while queued, or cooperatively
    observed mid-execution by a backend kernel (see :mod:`repro.core.deadline`)."""

    code = "deadline_exceeded"


class ServiceShutdownError(ServiceError, RuntimeError):
    """A submission was made to a service that has been shut down."""

    code = "service_shutdown"


class ProtocolError(ServiceError, ValueError):
    """A wire payload violated the serving protocol (bad schema/field)."""

    code = "protocol_error"


class RelevanceError(ReproError, ValueError):
    """A relevance function produced or was given invalid scores."""

    code = "relevance_error"


class RelationalError(ReproError):
    """Base class for the mini relational engine."""

    code = "relational_error"


class SchemaError(RelationalError, ValueError):
    """A table schema was violated (unknown column, arity mismatch, ...)."""

    code = "schema_error"


class PlanError(RelationalError, ValueError):
    """A logical or physical plan could not be constructed or executed."""

    code = "plan_error"


class DistributedError(ReproError):
    """Base class for partitioned-execution faults (see :class:`PartitionError`)."""

    code = "distributed_error"


class PartitionError(DistributedError, ValueError):
    """A graph partitioning was invalid or inconsistent."""

    code = "partition_error"


class ParallelError(QueryError, RuntimeError):
    """The process-parallel backend failed (worker death, IPC timeout, ...)."""

    code = "parallel_error"


class StaleShardError(ParallelError):
    """A worker refused a task naming a shared-memory version that moved.

    Retryable: the engine re-snapshots its stores and re-runs the round;
    a remote caller seeing one merely raced a mutation.
    """

    code = "stale_shard"
    retryable = True


class ClusterError(QueryError, RuntimeError):
    """The socket-transport cluster backend failed (peer death, protocol
    violation, round timeout with no healthy peer left to re-issue to).

    Retryable: peer failures are transient by design — the transport
    respawns/readmits workers between rounds, so an identical request may
    well succeed.
    """

    code = "cluster_error"
    retryable = True


class FaultInjectedError(ReproError, RuntimeError):
    """A deterministic ``transient_error`` fault fired (:mod:`repro.faults`).

    Only fault plans raise this; production code never does.  It is
    retryable by construction — the injection machinery models exactly the
    class of failure a retry is supposed to absorb, and the resilience
    layers (pool/transport re-issue, client backoff) are expected to make
    it invisible to callers.
    """

    code = "fault_injected"
    retryable = True
