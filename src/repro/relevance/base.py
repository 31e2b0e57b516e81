"""Relevance-function core types.

Definition 1 of the paper: a relevance function ``f : V -> [0, 1]`` assigns
each node a query-specific score; 0 means irrelevant, 1 fully relevant.  The
library separates the *function* (how scores are produced — P1 in the paper's
problem decomposition) from the *score vector* (the materialized per-node
values every aggregation algorithm consumes).

:class:`ScoreVector` is the materialized form.  It validates the [0, 1]
range once at construction, after which algorithms can trust it, and it
precomputes the two things LONA-Backward needs: the set of non-zero nodes and
their descending-score order.  It also owns the one float64 array the
vectorized backends gather from (:meth:`ScoreVector.array`: built on first
use, never per query — the rule ``Graph.csr()`` follows for the flat arrays).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Iterator, List, Protocol, Sequence, Tuple

from repro.aggregates.functions import AggregateKind
from repro.errors import RelevanceError
from repro.graph.graph import Graph

__all__ = [
    "ScoreVector",
    "RelevanceFunction",
    "materialize_scores",
    "uniform_scores",
    "indicator_scores",
]

#: Serialises the first :meth:`ScoreVector.array` build: racing first readers
#: (serving lanes) convert a vector once.  Module-wide, as for ``Graph.csr``.
_ARRAY_BUILD_LOCK = threading.Lock()


class ScoreVector:
    """Immutable per-node relevance scores in ``[0, 1]``.

    Supports ``scores[node]``, ``len``, and iteration.  Construction
    validates every value; all downstream bound math relies on the
    ``0 <= f(v) <= 1`` invariant (the "all unknown scores are at most 1"
    arguments behind Eq. 1, and "at most the last distributed score" behind
    Eq. 3).
    """

    # Weak-referenceable: a session's LONA-Backward memo dies with its vector.
    __slots__ = (
        "_values", "_nonzero", "_nonbinary", "_array", "_sorted", "__weakref__"
    )

    def __init__(self, values: Iterable[float]) -> None:
        vals = [float(v) for v in values]
        for i, v in enumerate(vals):
            if not 0.0 <= v <= 1.0:
                raise _out_of_range(i, v)
        self._values: List[float] = vals
        self._nonzero: Tuple[int, ...] = tuple(
            i for i, v in enumerate(vals) if v > 0.0
        )
        # A count, not a flag, so one-slot writes keep it without a scan.
        self._nonbinary = sum(1 for v in vals if v not in (0.0, 1.0))
        self._array = self._sorted = None  # built on first use (numpy)

    def with_value(self, node: int, value: float) -> "ScoreVector":
        """The successor vector with ``f(node) = value``: the one value is
        validated, the list and (if built) the array are copied — memcpy, no
        numpy import — and set in that slot, ``nonzero_nodes`` takes one
        bisect.  This vector is untouched: a reader holding it keeps its
        snapshot."""
        if not 0 <= node < len(self._values):
            raise RelevanceError(f"node {node} not in the score vector")
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise _out_of_range(node, value)
        old = self._values[node]
        succ = ScoreVector.__new__(ScoreVector)
        succ._values = values = list(self._values)
        values[node] = value
        nonzero = self._nonzero
        if (old > 0.0) != (value > 0.0):
            at = bisect_left(nonzero, node)
            if value > 0.0:
                nonzero = nonzero[:at] + (node,) + nonzero[at:]
            else:
                nonzero = nonzero[:at] + nonzero[at + 1 :]
        succ._nonzero = nonzero
        binary = (0.0, 1.0)
        succ._nonbinary = self._nonbinary - (old not in binary) + (value not in binary)
        succ._array = succ._sorted = None
        if self._array is not None:
            arr = self._array.copy()
            arr[node] = value
            arr.flags.writeable = False
            succ._array = arr
        return succ

    def __getitem__(self, node: int) -> float:
        return self._values[node]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ScoreVector n={len(self._values)} nonzero={len(self._nonzero)}"
            f"{' binary' if self.is_binary else ''}>"
        )

    @property
    def is_binary(self) -> bool:
        """True when every score is exactly 0 or 1."""
        return self._nonbinary == 0

    @property
    def nonzero_nodes(self) -> Tuple[int, ...]:
        """Nodes with strictly positive score, ascending id order."""
        return self._nonzero

    @property
    def density(self) -> float:
        """Fraction of nodes with non-zero score."""
        if not self._values:
            return 0.0
        return len(self._nonzero) / len(self._values)

    def total(self) -> float:
        """Sum of all scores."""
        return sum(self._values)

    def descending_nonzero(self) -> List[int]:
        """Non-zero nodes sorted by score descending (ties by id).

        This is exactly the distribution order LONA-Backward requires:
        "we distribute nodes according to their scores in a descending
        order" (Sec. IV).
        """
        return sorted(self._nonzero, key=lambda u: (-self._values[u], u))

    def values(self) -> List[float]:
        """A fresh list copy of the raw values."""
        return list(self._values)

    def array(self) -> Any:
        """The values as one float64 array (numpy required): converted on
        first request, at most once, and shared by every vectorized consumer
        across queries, lanes and threads — hence read-only; a consumer that
        writes copies.  The python backend never calls this."""
        if self._array is None:
            with _ARRAY_BUILD_LOCK:
                if self._array is None:
                    import numpy as np

                    arr = np.array(self._values, dtype=np.float64)
                    arr.flags.writeable = False
                    self._array = arr
        return self._array

    def sorted_access(self) -> Tuple[Any, Any]:
        """``(ids, scores)`` of the non-zero nodes, best score first, ties by
        id — the sorted-access list LONA-Backward distributes from — as two
        read-only arrays built once (a racing duplicate build is identical)."""
        if self._sorted is None:
            import numpy as np

            self._sorted = descending_nonzero(np, self.array())
        return self._sorted

    def check_graph(self, graph: Graph) -> None:
        """Raise unless this vector covers exactly ``graph``'s nodes."""
        if len(self._values) != graph.num_nodes:
            raise RelevanceError(
                f"score vector has {len(self._values)} entries, "
                f"graph has {graph.num_nodes} nodes"
            )


def _out_of_range(node: int, value: float) -> RelevanceError:
    return RelevanceError(f"relevance score out of range at node {node}: {value}")


def descending_nonzero(np: Any, scores_arr: Any) -> Tuple[Any, Any]:
    """``(ids, scores)`` of the positive entries of a float array, in the
    paper's distribution order (descending score, ties by id); read-only."""
    ids = np.flatnonzero(scores_arr > 0.0)
    # ids ascend, so a stable sort by score leaves ties by id.
    ids = ids[np.argsort(-scores_arr[ids], kind="stable")]
    scores = scores_arr[ids]
    ids.flags.writeable = scores.flags.writeable = False
    return ids, scores


def folded_scores(np: Any, scores: Sequence[float], kind=None) -> Tuple[Any, Any]:
    """``(float64 array, effective kind)`` as the block kernels take them.

    A :class:`ScoreVector` hands out its own array (never converted per
    query), any other sequence is converted here; COUNT becomes SUM over
    the 0/1 indicator, which a binary vector's array already is.
    """
    owner = isinstance(scores, ScoreVector)
    arr = scores.array() if owner else np.asarray(scores, dtype=np.float64)
    if kind is AggregateKind.COUNT:
        if not (owner and scores.is_binary):
            arr = np.where(arr > 0.0, 1.0, 0.0)
        kind = AggregateKind.SUM
    return arr, kind


class RelevanceFunction(Protocol):
    """Anything that materializes a :class:`ScoreVector` for a graph.

    Implementations must be deterministic given their constructor arguments
    (all randomness comes from an explicit seed) so experiments are exactly
    reproducible.
    """

    def scores(self, graph: Graph) -> ScoreVector:
        """Produce the per-node scores for ``graph``."""
        ...  # pragma: no cover - protocol


def materialize_scores(graph: Graph, relevance: object) -> ScoreVector:
    """Coerce a relevance function / sequence / vector into a ScoreVector."""
    if isinstance(relevance, ScoreVector):
        vector = relevance
    elif hasattr(relevance, "scores"):
        vector = relevance.scores(graph)  # type: ignore[attr-defined]
        if not isinstance(vector, ScoreVector):
            vector = ScoreVector(vector)
    else:
        vector = ScoreVector(relevance)  # type: ignore[arg-type]
    vector.check_graph(graph)
    return vector


def uniform_scores(graph: Graph, value: float) -> ScoreVector:
    """Every node gets ``value`` (useful for COUNT-style queries and tests)."""
    if not 0.0 <= value <= 1.0:
        raise RelevanceError(f"value must be in [0, 1], got {value}")
    return ScoreVector([value] * graph.num_nodes)


def indicator_scores(graph: Graph, relevant: Sequence[int]) -> ScoreVector:
    """1.0 on ``relevant`` nodes, 0.0 elsewhere (the paper's 1/0 case)."""
    values = [0.0] * graph.num_nodes
    for node in relevant:
        if not (0 <= node < graph.num_nodes):
            raise RelevanceError(f"relevant node {node} not in graph")
        values[node] = 1.0
    return ScoreVector(values)
