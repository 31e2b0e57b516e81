"""The lowered query: everything one execution needs, validated once.

:class:`QueryRequest` is the superset of :class:`~repro.core.query.QuerySpec`
that the fluent :class:`~repro.session.QueryBuilder` lowers to.  Where
``QuerySpec`` pins down Definition 3's parameters (k, aggregate, hops,
ball convention, backend), the request additionally carries everything the
old loose-kwarg engine surfaces accepted:

* ``algorithm`` — ``"auto"`` / ``"planned"`` / ``"base"`` / ``"forward"`` /
  ``"backward"`` / ``"relational"`` / ``"view"``.
* ``score`` — the *name* of the session score vector to aggregate
  (sessions hold many named vectors; standalone callers use the default).
* ``candidates`` — an optional node-set filter: only these nodes compete
  for the top-k (the builder's ``.where(...)``, resolved to a sorted tuple).
* ``gamma`` / ``distribution_fraction`` / ``exact_sizes`` — the
  LONA-Backward policy knobs.
* ``ordering`` / ``seed`` — the LONA-Forward queue-order knobs.
* ``weights`` — footnote 1's distance weights, tabulated: ``weights[d]`` in
  [0, 1] multiplies a score ``d`` hops from the center (``hops + 1``
  entries; the builder's ``.weighted(profile)``).  Defined for SUM on the
  ``base`` / ``backward`` routes (``auto`` resolves to ``backward``).
* ``priority`` / ``deadline`` — serving metadata consumed by the async
  scheduler (:mod:`repro.service`): higher priority is dequeued first, and
  a request still queued ``deadline`` seconds after submission expires
  instead of executing.  Both are execution *metadata*: they are excluded
  from equality and hashing, so two requests asking the same question are
  one cache key regardless of how urgently each was asked.
* ``pinned`` — the set-fields mask: which fields the builder set
  *explicitly* (also compare-excluded).  The executor uses it to reject a
  knob pinned to its default value on an algorithm that cannot honor it,
  exactly like a non-default pin; requests constructed directly (mask
  empty) keep the old value-based rejection only.

Requests are frozen (hashable except for the candidate tuple contents,
which are themselves immutable), so builders can share and replay them, and
the executor can treat them as values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import FrozenSet, Iterable, Optional, Tuple, Union

from repro.aggregates.functions import AggregateKind, coerce_aggregate
from repro.core.backends import BACKENDS
from repro.core.ordering import ORDERINGS
from repro.core.query import QuerySpec
from repro.errors import InvalidParameterError, ProtocolError

__all__ = [
    "QueryRequest",
    "REQUEST_ALGORITHMS",
    "DEFAULT_SCORE",
    "REQUEST_SCHEMA_VERSION",
]

#: Version stamp of the canonical :meth:`QueryRequest.to_dict` schema.  Bump
#: when a peer that ignores a field would answer a different question —
#: adding a field it may ignore is compatible (the decoder tolerates unknown
#: keys).  2: ``weights`` (a v1 peer would answer the unweighted query);
#: v1 payloads still decode.
REQUEST_SCHEMA_VERSION = 2

#: The request fields carried by the canonical serialization, in canonical
#: order.  ``priority`` / ``deadline`` / ``pinned`` are serving *metadata*:
#: serialized (the wire needs them) but excluded from the identity key,
#: mirroring the dataclass's compare-excluded fields.
_CANONICAL_FIELDS = (
    "k",
    "aggregate",
    "hops",
    "include_self",
    "backend",
    "score",
    "algorithm",
    "candidates",
    "gamma",
    "distribution_fraction",
    "exact_sizes",
    "ordering",
    "seed",
    "weights",
)
_METADATA_FIELDS = ("priority", "deadline", "pinned")

#: Algorithms a request may name.  ``"auto"`` and ``"planned"`` resolve at
#: execution time; ``"relational"`` routes to the RDBMS-style baseline;
#: ``"view"`` answers from a session's maintained aggregate view.
REQUEST_ALGORITHMS = (
    "auto",
    "planned",
    "base",
    "forward",
    "backward",
    "relational",
    "view",
)

#: Score name used when the caller does not manage named vectors.
DEFAULT_SCORE = "default"


@dataclass(frozen=True)
class QueryRequest:
    """A fully lowered top-k neighborhood aggregation request."""

    k: int
    aggregate: AggregateKind = AggregateKind.SUM
    hops: int = 2
    include_self: bool = True
    backend: str = "auto"
    score: str = DEFAULT_SCORE
    algorithm: str = "auto"
    candidates: Optional[Tuple[int, ...]] = None
    gamma: Union[str, float] = "auto"
    distribution_fraction: float = 0.1
    exact_sizes: bool = False
    ordering: str = "ubound"
    seed: Optional[int] = field(default=None)
    weights: Optional[Tuple[float, ...]] = None
    priority: int = field(default=0, compare=False)
    deadline: Optional[float] = field(default=None, compare=False)
    pinned: FrozenSet[str] = field(default=frozenset(), compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "aggregate", coerce_aggregate(self.aggregate))
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        if self.hops < 0:
            raise InvalidParameterError(f"hops must be >= 0, got {self.hops}")
        if self.backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.algorithm not in REQUEST_ALGORITHMS:
            raise InvalidParameterError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {REQUEST_ALGORITHMS}"
            )
        if self.ordering not in ORDERINGS:
            raise InvalidParameterError(
                f"unknown ordering {self.ordering!r}; "
                f"expected one of {tuple(ORDERINGS)}"
            )
        if not isinstance(self.gamma, str):
            gamma = float(self.gamma)
            if not 0.0 <= gamma <= 1.0:
                raise InvalidParameterError(
                    f"gamma must be in [0, 1] or 'auto', got {gamma}"
                )
            object.__setattr__(self, "gamma", gamma)
        elif self.gamma != "auto":
            raise InvalidParameterError(
                f"gamma must be a float in [0, 1] or 'auto', got {self.gamma!r}"
            )
        if not 0.0 < self.distribution_fraction <= 1.0:
            raise InvalidParameterError(
                "distribution_fraction must be in (0, 1], "
                f"got {self.distribution_fraction}"
            )
        if self.candidates is not None:
            object.__setattr__(
                self, "candidates", normalize_candidates(self.candidates)
            )
        if self.weights is not None:
            object.__setattr__(self, "weights", self._checked_weights())
        object.__setattr__(self, "priority", int(self.priority))
        if self.deadline is not None:
            deadline = float(self.deadline)
            if deadline <= 0.0:
                raise InvalidParameterError(
                    f"deadline must be a positive number of seconds, got {deadline}"
                )
            object.__setattr__(self, "deadline", deadline)
        pinned = frozenset(str(name) for name in self.pinned)
        known = {f.name for f in fields(self)}
        unknown = pinned - known
        if unknown:
            raise InvalidParameterError(
                f"pinned names {sorted(unknown)} are not request fields"
            )
        object.__setattr__(self, "pinned", pinned)

    def _checked_weights(self) -> Tuple[float, ...]:
        """The weight table as floats, or why this request cannot carry one."""
        try:
            weights = tuple(float(w) for w in self.weights)  # type: ignore[union-attr]
        except (TypeError, ValueError):
            raise InvalidParameterError(
                "weights must be a sequence of numbers, one per hop distance"
            ) from None
        if len(weights) != self.hops + 1:
            raise InvalidParameterError(
                f"weights must tabulate distances 0..{self.hops} "
                f"({self.hops + 1} entries), got {len(weights)}"
            )
        if not all(0.0 <= w <= 1.0 for w in weights):
            raise InvalidParameterError(
                f"weights must be in [0, 1] for the pruning bounds to stay "
                f"sound, got {list(weights)}"
            )
        if self.aggregate is not AggregateKind.SUM:
            raise InvalidParameterError(
                "weighted aggregation is defined for SUM (footnote 1), not "
                f"{self.aggregate.value}"
            )
        if self.algorithm not in ("auto", "base", "backward"):
            raise InvalidParameterError(
                "weighted queries support algorithm 'base' or 'backward', "
                f"got {self.algorithm!r}"
            )
        if self.candidates is not None:
            raise InvalidParameterError(
                "weighted queries cannot be combined with .where(...)"
            )
        return weights

    # ------------------------------------------------------------------
    def spec(self) -> QuerySpec:
        """The plain :class:`QuerySpec` every algorithm kernel consumes."""
        return QuerySpec(
            k=self.k,
            aggregate=self.aggregate,
            hops=self.hops,
            include_self=self.include_self,
            backend=self.backend,
        )

    def replace(self, **changes: object) -> "QueryRequest":
        """A copy of this request with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def is_pinned(self, name: str) -> bool:
        """Whether the builder set ``name`` explicitly (even to its default)."""
        return name in self.pinned

    # ------------------------------------------------------------------
    # Canonical serialization (one schema for the wire, the result cache,
    # the coalescer, and the replica router)
    # ------------------------------------------------------------------
    def to_dict(self, *, metadata: bool = True) -> dict:
        """The canonical JSON-safe serialization of this request.

        Carries ``schema_version`` (:data:`REQUEST_SCHEMA_VERSION`) so wire
        peers can negotiate; ``metadata=False`` drops the serving metadata
        (priority/deadline/pinned) for identity-only uses.  Round-trips
        exactly through :meth:`from_dict`.
        """
        payload: dict = {"schema_version": REQUEST_SCHEMA_VERSION}
        for name in _CANONICAL_FIELDS:
            value = getattr(self, name)
            if name == "aggregate":
                value = value.value
            elif name in ("candidates", "weights") and value is not None:
                value = list(value)
            payload[name] = value
        if metadata:
            payload["priority"] = self.priority
            payload["deadline"] = self.deadline
            payload["pinned"] = sorted(self.pinned)
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> "QueryRequest":
        """Decode a :meth:`to_dict` payload (validating as the builder would).

        Tolerant by design: unknown keys are ignored (a newer peer may add
        fields), missing fields take their defaults, and unknown *pinned*
        names are dropped (they can only name fields this version does not
        have).  Only an unrecognized ``schema_version`` is rejected — that
        means the fields themselves may have changed meaning.
        """
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"request payload must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version", REQUEST_SCHEMA_VERSION)
        if not isinstance(version, int) or version < 1:
            raise ProtocolError(f"bad request schema_version: {version!r}")
        if version > REQUEST_SCHEMA_VERSION:
            raise ProtocolError(
                f"request schema_version {version} is newer than this "
                f"library understands ({REQUEST_SCHEMA_VERSION})"
            )
        kwargs: dict = {}
        for name in _CANONICAL_FIELDS + _METADATA_FIELDS:
            if name not in payload or payload[name] is None:
                continue
            value = payload[name]
            if name in ("candidates", "weights"):
                value = tuple(value)
            elif name == "pinned":
                known = {f.name for f in fields(cls)}
                value = frozenset(str(p) for p in value) & known
            kwargs[name] = value
        if "k" not in kwargs:
            raise ProtocolError("request payload is missing 'k'")
        try:
            return cls(**kwargs)
        except InvalidParameterError:
            raise
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed request payload: {exc}") from None

    def canonical_key(self) -> tuple:
        """A stable hashable identity key derived from :meth:`to_dict`.

        Two requests asking the same question — regardless of priority or
        deadline — share one key; the set-fields mask *does* participate
        because it changes validation semantics (a pinned-knob variant must
        never be served the unpinned request's answer in place of its
        validation error).  This is the one key the result cache, the
        coalescer, and the replica router all derive from.
        """
        ident = self.to_dict(metadata=False)
        return (
            ident["schema_version"],
            tuple(
                tuple(v) if isinstance(v, list) else v
                for v in (ident[name] for name in _CANONICAL_FIELDS)
            ),
            tuple(sorted(self.pinned)),
        )

    def shape_key(self) -> tuple:
        """The *shape* of this request: its identity minus score and k.

        Requests of one shape are answerable by one fused shared scan and
        hit the same session caches, so the serving tier routes by shape —
        the replica router hashes this key, and the scheduler uses it as
        the coalesce key, concentrating cache and coalescer hits on one
        replica instead of spraying them round-robin.
        """
        plain = self.replace(
            score=DEFAULT_SCORE, k=1, aggregate=AggregateKind.SUM, pinned=frozenset()
        )
        return plain.canonical_key()

    def describe(self) -> str:
        """Human-readable one-liner for logs and reports."""
        out = self.spec().describe()
        parts = [f"score={self.score!r}", f"algorithm={self.algorithm}"]
        if self.candidates is not None:
            parts.append(f"candidates={len(self.candidates)}")
        if self.weights is not None:
            parts.append(f"weights={list(self.weights)}")
        return f"{out} ({', '.join(parts)})"


def normalize_candidates(candidates: Iterable[int]) -> Tuple[int, ...]:
    """Sorted, deduplicated, type-checked candidate tuple."""
    try:
        nodes = sorted({int(u) for u in candidates})
    except (TypeError, ValueError):
        raise InvalidParameterError(
            "candidates must be an iterable of node ids"
        ) from None
    if any(u < 0 for u in nodes):
        raise InvalidParameterError("candidate node ids must be >= 0")
    return tuple(nodes)
