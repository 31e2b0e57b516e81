"""TopKEngine: the legacy per-score engine, now a shim over the executor.

.. deprecated::
    :class:`TopKEngine` remains fully functional but is superseded by the
    :class:`~repro.session.Network` session facade::

        from repro import Network

        net = Network(graph, hops=2)
        net.add_scores("relevance", relevance)
        result = net.query("relevance").limit(10).aggregate("sum").run()

    The session owns one set of shared caches for *all* score vectors and
    exposes batch, streaming, relational, and dynamic execution through the
    same builder.  Constructing a ``TopKEngine`` directly emits a
    :class:`DeprecationWarning`; results are guaranteed identical (the shim
    lowers to the same :mod:`repro.core.executor` the session uses).

Automatic algorithm choice (``algorithm="auto"``):

* sparse scores (density <= ``auto_density_threshold``) -> **backward**:
  partial distribution touches only the non-zero nodes, so sparsity is its
  whole advantage — and it needs no index.
* otherwise, **forward** when a differential index is already built (its
  offline cost is sunk), else **base** for MAX/MIN and one-off dense queries
  where building the index would dominate.
"""

from __future__ import annotations

import warnings
from typing import Optional, Union

from repro.aggregates.functions import AggregateKind, coerce_aggregate
from repro.core import executor
from repro.core.backends import resolve_backend
from repro.core.context import GraphContext
from repro.core.planner import ExecutionPlan, QueryPlanner
from repro.core.query import QuerySpec
from repro.core.request import QueryRequest
from repro.core.results import TopKResult
from repro.errors import InvalidParameterError
from repro.graph.diffindex import DifferentialIndex
from repro.graph.graph import Graph
from repro.graph.neighborhood import NeighborhoodSizeIndex
from repro.relevance.base import ScoreVector

__all__ = ["TopKEngine", "topk_sum", "topk_avg", "materialize_scores"]

ALGORITHMS = ("auto", "planned", "base", "forward", "backward")


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


class TopKEngine:
    """Query engine for top-k neighborhood aggregation over one graph.

    Deprecated in favor of :class:`repro.session.Network` (see the module
    docstring); kept working, entry-for-entry identical, as a thin shim.

    Parameters
    ----------
    graph:
        The network.
    relevance:
        Either a materialized :class:`ScoreVector` / sequence of floats, or
        a relevance function object exposing ``scores(graph)``.
    hops:
        Neighborhood radius ``h`` shared by this engine's queries
        (the paper benchmarks h=2, "much harder than 1-hop ... more popular
        than 3+ hop").
    include_self:
        Ball convention (see DESIGN.md Sec. 1).
    auto_density_threshold:
        Score density below which ``algorithm="auto"`` picks backward.
    backend:
        Execution backend for this engine's queries: ``"auto"`` (default,
        vectorized when numpy is importable), ``"python"``, or ``"numpy"``.
        Individual queries may override via ``topk(..., backend=...)``.
    """

    def __init__(
        self,
        graph: Graph,
        relevance: object,
        *,
        hops: int = 2,
        include_self: bool = True,
        auto_density_threshold: float = 0.2,
        backend: str = "auto",
    ) -> None:
        warnings.warn(
            "TopKEngine is deprecated; use repro.Network — "
            "net = Network(graph, hops=...); net.add_scores(name, relevance); "
            "net.query(name).limit(k).run()",
            DeprecationWarning,
            stacklevel=2,
        )
        self.graph = graph
        self.hops = hops
        self.include_self = include_self
        self.auto_density_threshold = auto_density_threshold
        self.backend = backend
        resolve_backend(backend)  # fail fast on unknown/unavailable backends
        self.scores = materialize_scores(graph, relevance)
        self._ctx = GraphContext(graph, hops=hops, include_self=include_self)
        self._planner: Optional[QueryPlanner] = None

    # ------------------------------------------------------------------
    # Index lifecycle (delegated to the shared GraphContext)
    # ------------------------------------------------------------------
    def build_indexes(self) -> float:
        """Build (or reuse) the differential + exact size indexes.

        Returns the build time in seconds (0.0 when already built).
        """
        return self._ctx.build_indexes()

    @property
    def last_index_build_sec(self) -> float:
        """Offline build time of the most recent index construction."""
        return self._ctx.last_index_build_sec

    @property
    def diff_index(self) -> Optional[DifferentialIndex]:
        """The differential index, if built."""
        return self._ctx.diff_index

    def save_index(self, path: object) -> None:
        """Persist the differential index (building it first if needed)."""
        self._ctx.save_index(path)

    def load_index(self, path: object) -> None:
        """Load a persisted differential index for this engine's graph."""
        self._ctx.load_index(path)

    def csr_view(self):
        """The graph's numpy CSR view (built once, by the graph)."""
        return self._ctx.csr()

    def size_index(self, *, exact: bool = False) -> NeighborhoodSizeIndex:
        """An ``N(v)`` index: exact when requested/available, else estimated."""
        return self._ctx.size_index(exact=exact)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def planner(self) -> QueryPlanner:
        """The (lazily built) cost-based planner for this engine's setup."""
        index_available = self._ctx.diff_index is not None
        if self._planner is None or (
            self._planner.index_available != index_available
        ):
            self._planner = QueryPlanner(
                self.graph,
                self.scores.values(),
                hops=self.hops,
                include_self=self.include_self,
                index_available=index_available,
                backend=self.backend,
            )
        return self._planner

    def explain(
        self,
        k: int,
        aggregate: Union[str, AggregateKind] = "sum",
        *,
        amortize_index: bool = True,
    ) -> ExecutionPlan:
        """Cost estimates and the planner's choice, without executing."""
        return self.planner().plan(
            self.spec(k, aggregate), amortize_index=amortize_index
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spec(
        self,
        k: int,
        aggregate: Union[str, AggregateKind] = "sum",
        *,
        backend: Optional[str] = None,
    ) -> QuerySpec:
        """Build a :class:`QuerySpec` bound to this engine's h, ball, backend."""
        return QuerySpec(
            k=k,
            aggregate=coerce_aggregate(aggregate),
            hops=self.hops,
            include_self=self.include_self,
            backend=backend if backend is not None else self.backend,
        )

    def topk(
        self,
        k: int,
        aggregate: Union[str, AggregateKind] = "sum",
        algorithm: str = "auto",
        **options: object,
    ) -> TopKResult:
        """Answer a top-k query.

        ``options`` are forwarded to the chosen algorithm (e.g. ``gamma`` or
        ``distribution_fraction`` for backward, ``ordering`` for forward,
        ``exact_sizes=True`` to force the exact N index in backward).
        ``backend="python"|"numpy"|"auto"`` overrides the engine's backend
        for this query alone.
        """
        if algorithm not in ALGORITHMS:
            raise InvalidParameterError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        backend = options.pop("backend", None)
        aggregate = coerce_aggregate(aggregate)
        spec_backend = backend if backend is not None else self.backend
        # Resolve auto/planned *first*, then reject options the concrete
        # algorithm cannot use — a typo'd or inapplicable knob must raise,
        # not silently do nothing.
        if algorithm == "auto":
            algorithm = executor.choose_algorithm(
                self.scores,
                self.spec(k, aggregate, backend=spec_backend),  # type: ignore[arg-type]
                index_available=self._ctx.diff_index is not None,
                auto_density_threshold=self.auto_density_threshold,
            )
        elif algorithm == "planned":
            algorithm = self.explain(k, aggregate).chosen
        allowed = {
            "base": (),
            "forward": ("ordering", "seed"),
            "backward": ("gamma", "distribution_fraction", "exact_sizes"),
        }[algorithm]
        self._reject_unknown(
            {k_: v for k_, v in options.items() if k_ not in allowed}
        )
        fraction = options.get("distribution_fraction", 0.1)
        request = QueryRequest(
            k=k,
            aggregate=aggregate,
            hops=self.hops,
            include_self=self.include_self,
            backend=spec_backend,  # type: ignore[arg-type]
            algorithm=algorithm,
            gamma=options.get("gamma", "auto"),  # type: ignore[arg-type]
            distribution_fraction=float(fraction),  # type: ignore[arg-type]
            exact_sizes=bool(options.get("exact_sizes", False)),
            ordering=str(options.get("ordering", "ubound")),
            seed=options.get("seed"),  # type: ignore[arg-type]
        )
        return executor.execute(
            self._ctx,
            self.scores,
            request,
            auto_density_threshold=self.auto_density_threshold,
        )

    def topk_weighted(
        self,
        k: int,
        profile=None,
        algorithm: str = "backward",
        **options: object,
    ) -> TopKResult:
        """Distance-weighted top-k SUM (the paper's footnote 1).

        ``profile`` maps hop distance to a weight in [0, 1]
        (default: inverse distance).  ``algorithm`` is ``"base"`` or
        ``"backward"``.
        """
        return executor.execute_weighted(
            self._ctx,
            self.scores,
            self.spec(k, AggregateKind.SUM),
            profile,
            algorithm,
            options,
        )

    @staticmethod
    def _reject_unknown(options: dict) -> None:
        if options:
            raise InvalidParameterError(
                f"unknown query options: {sorted(options)}"
            )


def topk_sum(
    graph: Graph,
    relevance: object,
    k: int,
    *,
    hops: int = 2,
    algorithm: str = "auto",
) -> TopKResult:
    """One-shot convenience: top-k SUM query (via the session facade)."""
    from repro.session import Network

    net = Network(graph, hops=hops)
    net.add_scores("default", relevance)
    return net.query("default").limit(k).aggregate("sum").algorithm(algorithm).run()


def topk_avg(
    graph: Graph,
    relevance: object,
    k: int,
    *,
    hops: int = 2,
    algorithm: str = "auto",
) -> TopKResult:
    """One-shot convenience: top-k AVG query (via the session facade)."""
    from repro.session import Network

    net = Network(graph, hops=hops)
    net.add_scores("default", relevance)
    return net.query("default").limit(k).aggregate("avg").algorithm(algorithm).run()
