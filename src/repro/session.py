"""One front door: the ``Network`` session and its fluent query builder.

The paper frames LONA as a *query system* — offline indexes, a planner, and
interchangeable algorithms.  :class:`Network` is that system's session
object: it owns the graph, any number of *named* score vectors, and all the
shared caches (differential index, neighborhood-size index, CSR views), and
exposes every execution mode through one immutable builder::

    from repro import Network

    net = Network(graph, hops=2)
    net.add_scores("pagerank", pagerank_vector)
    net.add_scores("spam", BinaryRelevance(0.02, seed=7))

    # single query, fluent and declarative
    top = (
        net.query("pagerank")
        .aggregate("avg")
        .where(lambda v: v % 2 == 0)   # or an explicit node set
        .limit(10)
        .backend("numpy")
        .run()
    )

    # anytime consumption: monotonically refining top-k states
    for update in net.query("spam").limit(5).stream():
        if update.bound < alert_threshold:
            break

    # cost-based plan without executing
    print(net.query("pagerank").limit(10).explain().explain())

    # the paper's footnote 1: scores weighted by hop distance
    near = net.query("pagerank").limit(10).weighted(exponential_decay(0.5)).run()

    # heavy workloads: one shared scan for many queries
    batch = net.batch([
        net.query("pagerank").limit(10),
        net.query("spam").limit(5).aggregate("count"),
    ])

    # dynamic graphs: maintained views repaired through the session
    net.maintain("spam")
    net.add_edge(3, 9)
    live = net.query("spam").limit(5).algorithm("view").run()

    # concurrent serving: async handles over a coalescing scheduler
    net.service(workers=4)
    handle = net.query("pagerank").limit(10).submit(priority=5, deadline=1.0)
    top = handle.result(timeout=2.0)

Builders are immutable — every method returns a new builder — so partial
queries can be shared, parameterized, and replayed.  ``run()`` lowers the
builder to a frozen :class:`~repro.core.request.QueryRequest` and dispatches
through the single executor in :mod:`repro.core.executor`; ``stream()``,
``explain()`` and :meth:`Network.batch` fan the same request out to the
incremental, planning, and shared-scan paths.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, nullcontext
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.aggregates.functions import AggregateKind, coerce_aggregate
from repro.aggregates.weighted import inverse_distance, precompute_weights
from repro.core import executor
from repro.core.backends import resolve_backend
from repro.core.batch import BatchQuery, BatchResult, coalescible_request
from repro.core.context import GraphContext
from repro.core.planner import ExecutionPlan, QueryPlanner
from repro.core.query import QuerySpec
from repro.core.request import DEFAULT_SCORE, QueryRequest, normalize_candidates
from repro.core.results import QueryStats, StreamUpdate, TopKResult
from repro.core.topk import TopKAccumulator
from repro.errors import InvalidParameterError
from repro.graph.diffindex import DifferentialIndex
from repro.graph.graph import Graph
from repro.relevance.base import ScoreVector, materialize_scores

__all__ = ["Network", "QueryBuilder"]

#: Builder fields that ``_with`` may set (mirrors QueryRequest's surface).
_BUILDER_FIELDS = (
    "k",
    "aggregate",
    "algorithm",
    "backend",
    "candidates",
    "gamma",
    "distribution_fraction",
    "exact_sizes",
    "ordering",
    "seed",
    "weights",
    "priority",
    "deadline",
)


class QueryBuilder:
    """Immutable fluent builder for one top-k query over a session.

    Obtained from :meth:`Network.query`; every refinement method returns a
    *new* builder, so intermediate shapes are safely shareable.  Terminal
    methods: :meth:`run` (exact answer), :meth:`stream` (anytime
    refinements), :meth:`explain` (cost-based plan), :meth:`request`
    (the lowered frozen :class:`~repro.core.request.QueryRequest`).
    """

    __slots__ = ("_net", "_score", "_fields")

    def __init__(
        self, net: "Network", score: str, fields: Optional[dict] = None
    ) -> None:
        self._net = net
        self._score = score
        self._fields: dict = dict(fields) if fields else {}

    def _with(self, **changes: object) -> "QueryBuilder":
        for name in changes:
            if name not in _BUILDER_FIELDS:  # pragma: no cover - internal
                raise InvalidParameterError(f"unknown builder field {name!r}")
        merged = dict(self._fields)
        merged.update(changes)
        return QueryBuilder(self._net, self._score, merged)

    # -- refinements ---------------------------------------------------
    def limit(self, k: int) -> "QueryBuilder":
        """How many nodes to return (the paper's ``k``)."""
        return self._with(k=int(k))

    def k(self, k: int) -> "QueryBuilder":
        """Alias of :meth:`limit`."""
        return self.limit(k)

    def hops(self, hops: int) -> "QueryBuilder":
        """Neighborhood radius ``h``.

        Must match the session's radius — the shared indexes are built for
        one ``h``; sessions with a different radius are cheap to create.
        """
        if hops != self._net.hops:
            raise InvalidParameterError(
                f"session built for hops={self._net.hops}; create a "
                f"Network(graph, hops={hops}) for a different radius"
            )
        return self._with()

    def aggregate(
        self, aggregate: Union[str, AggregateKind]
    ) -> "QueryBuilder":
        """SUM / AVG (the paper's two), or COUNT / MAX / MIN extensions."""
        return self._with(aggregate=coerce_aggregate(aggregate))

    def where(
        self,
        predicate_or_nodes: Union[Callable[[int], bool], Iterable[int]],
    ) -> "QueryBuilder":
        """Restrict the competitors to a node set or predicate over nodes.

        Accepts either an iterable of node ids or a callable
        ``predicate(node) -> bool`` evaluated over the graph's nodes.
        Successive ``where`` calls intersect.
        """
        if callable(predicate_or_nodes):
            selected = tuple(
                u for u in self._net.graph.nodes() if predicate_or_nodes(u)
            )
        else:
            selected = normalize_candidates(predicate_or_nodes)
            for u in selected:
                if u >= self._net.graph.num_nodes:
                    raise InvalidParameterError(
                        f"candidate node {u} not in graph "
                        f"(num_nodes={self._net.graph.num_nodes})"
                    )
        previous = self._fields.get("candidates")
        if previous is not None:
            selected = tuple(sorted(set(previous) & set(selected)))
        return self._with(candidates=selected)

    def algorithm(self, algorithm: str) -> "QueryBuilder":
        """Pin the algorithm (``auto``/``planned``/``base``/``forward``/
        ``backward``/``relational``/``view``)."""
        return self._with(algorithm=str(algorithm))

    def backend(self, backend: str) -> "QueryBuilder":
        """Pin the execution backend (``auto``/``python``/``numpy``/
        ``parallel``/``cluster``).  ``auto`` is ``numpy`` when numpy
        imports, else ``python``."""
        return self._with(backend=str(backend))

    def gamma(self, gamma: Union[str, float]) -> "QueryBuilder":
        """LONA-Backward distribution threshold (``"auto"`` or [0, 1])."""
        return self._with(gamma=gamma)

    def distribution_fraction(self, fraction: float) -> "QueryBuilder":
        """LONA-Backward auto-gamma fraction (see the paper's Sec. IV)."""
        return self._with(distribution_fraction=float(fraction))

    def exact_sizes(self, exact: bool = True) -> "QueryBuilder":
        """Force the exact ``N(v)`` index in LONA-Backward."""
        return self._with(exact_sizes=bool(exact))

    def ordering(self, ordering: str) -> "QueryBuilder":
        """LONA-Forward queue order (see :mod:`repro.core.ordering`)."""
        return self._with(ordering=str(ordering))

    def seed(self, seed: int) -> "QueryBuilder":
        """Seed for the ``"random"`` ordering."""
        return self._with(seed=int(seed))

    def weighted(self, profile=None) -> "QueryBuilder":
        """Weight each score by hop distance (the paper's footnote 1).

        ``profile`` maps a distance to a weight in [0, 1] (default: inverse
        distance); it is tabulated here, once, for the session's radius.
        SUM only, on ``base`` or ``backward`` (the default).
        """
        return self._with(
            weights=tuple(precompute_weights(profile or inverse_distance, self._net.hops))
        )

    def priority(self, priority: int) -> "QueryBuilder":
        """Scheduler priority (higher is dequeued first; default 0)."""
        return self._with(priority=int(priority))

    def deadline(self, seconds: float) -> "QueryBuilder":
        """Queueing deadline: expire if not started ``seconds`` after submit."""
        return self._with(deadline=float(seconds))

    # -- lowering & terminals ------------------------------------------
    @property
    def score(self) -> str:
        """The session score name this builder aggregates."""
        return self._score

    def request(self) -> QueryRequest:
        """Lower to the frozen :class:`QueryRequest` the executor consumes."""
        if "k" not in self._fields:
            raise InvalidParameterError(
                "no result size set; call .limit(k) before running"
            )
        return QueryRequest(
            score=self._score,
            hops=self._net.hops,
            include_self=self._net.include_self,
            backend=self._fields.get("backend", self._net.backend),  # type: ignore[arg-type]
            # The set-fields mask: exactly what this builder pinned, so the
            # executor can reject default-valued knob pins too.
            pinned=frozenset(self._fields),
            **{
                name: self._fields[name]
                for name in _BUILDER_FIELDS
                if name != "backend" and name in self._fields
            },
        )

    def spec(self) -> QuerySpec:
        """The plain :class:`QuerySpec` view of this builder."""
        return self.request().spec()

    def run(self) -> TopKResult:
        """Execute and return the exact :class:`TopKResult`.

        A trivial ``submit().result()`` shim over the serving layer —
        result caching is bypassed so every ``.run()`` executes (legacy
        semantics: repeated runs observe warming session caches in their
        stats).  On a session without a started worker pool the submission
        executes inline on this thread.
        """
        return self._net.service().submit(self.request(), cached=False).result()

    def submit(
        self,
        *,
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
        stream: bool = False,
        cached: bool = True,
    ):
        """Submit asynchronously; returns a :class:`~repro.service.QueryHandle`.

        The handle offers ``result(timeout=)`` / ``cancel()`` / ``done()``
        and, with ``stream=True``, the ``updates()`` subscription.
        ``priority``/``deadline`` default to this builder's ``.priority()``
        / ``.deadline()`` settings.  Submissions go through the session's
        :class:`~repro.service.QueryService` (start a concurrent pool with
        ``net.service(workers=...)``), where compatible queued queries are
        coalesced into shared scans and hot answers are served from the
        version-keyed result cache (``cached=False`` opts out).
        """
        return self._net.service().submit(
            self.request(),
            priority=priority,
            deadline=deadline,
            stream=stream,
            cached=cached,
        )

    def stream(self) -> Iterator[StreamUpdate]:
        """Execute incrementally: monotonically refining top-k states.

        Yields :class:`~repro.core.results.StreamUpdate` objects whose
        snapshots converge to :meth:`run`'s answer; safe to abandon at any
        point (anytime semantics).
        """
        return self._net._stream(self.request())

    def explain(self, *, amortize_index: bool = True) -> ExecutionPlan:
        """The cost-based plan for this query, without executing."""
        return self._net._plan(self.request(), amortize_index=amortize_index)


#: Builder methods that terminate (or merely inspect) a query rather than
#: refine it, plus the ones ``Network.topk`` surfaces as positional
#: parameters.  Everything else on the builder surface is a refinement.
_BUILDER_TERMINALS = frozenset(
    {"run", "submit", "stream", "explain", "request", "spec"}
)
_TOPK_POSITIONAL = frozenset({"limit", "k", "aggregate", "hops"})


def _refinement_methods() -> Dict[str, Callable]:
    """Every refinement on the :class:`QueryBuilder` surface, by name: each
    public callable that is not a terminal.  The remote builder runs these
    same functions (:class:`repro.client.RemoteQueryBuilder`)."""
    return {
        name: member
        for name, member in vars(QueryBuilder).items()
        if not name.startswith("_")
        and callable(member)
        and name not in _BUILDER_TERMINALS
    }


def _builder_refinements() -> frozenset:
    """``Network.topk``'s option whitelist, derived from the builder surface.

    Every refinement not covered by ``topk``'s positional parameters is one
    ``topk(..., name=value)`` forwards as ``builder.name(value)``.  Deriving
    the set keeps the one-shot surface in lockstep with the fluent one — a
    new builder refinement needs no hand-kept whitelist edit.
    """
    return frozenset(_refinement_methods()) - _TOPK_POSITIONAL


class Network:
    """A query session over one graph: named scores, shared caches, one API.

    Parameters
    ----------
    graph:
        The network — an immutable :class:`~repro.graph.graph.Graph` or a
        :class:`~repro.dynamic.graph.DynamicGraph` (mutations then flow
        through :meth:`add_edge` / :meth:`remove_edge` /
        :meth:`update_score`, which repair any maintained views and
        invalidate stale caches automatically).
    hops / include_self:
        The session's neighborhood definition; all indexes are built for it.
    backend:
        Default execution backend for queries (builders may override).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        hops: int = 2,
        include_self: bool = True,
        backend: str = "auto",
    ) -> None:
        resolve_backend(backend)  # fail fast on unknown/unavailable backends
        self.graph = graph
        self.hops = hops
        self.include_self = include_self
        self.backend = backend
        self._ctx = GraphContext(graph, hops=hops, include_self=include_self)
        self._scores: Dict[str, ScoreVector] = {}
        self._planners: Dict[str, Tuple[QueryPlanner, bool, object]] = {}
        self._views: Dict[str, object] = {}
        # Serving state: the lazily created QueryService, a per-name epoch
        # counter (bumped whenever a named vector changes, so the service's
        # result cache can key on score identity), and a lock guarding the
        # session-level dicts against concurrent worker threads.
        self._service = None
        self._service_config = None  # Optional[ServiceConfig]
        # Auxiliary services (the serving tier's replica lanes): each is a
        # full QueryService with its own cache/scheduler over *this*
        # session, registered here so mutations exclude their readers and
        # invalidation reaches their caches too.
        self._aux_services: List[object] = []
        self._score_epochs: Dict[str, int] = {}
        self._lock = threading.RLock()

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        *,
        num_nodes: Optional[int] = None,
        directed: bool = False,
        **options: object,
    ) -> "Network":
        """Convenience constructor from an edge list."""
        graph = Graph.from_edges(
            edges, num_nodes=num_nodes, directed=directed
        )
        return cls(graph, **options)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Network nodes={self.graph.num_nodes} "
            f"edges={self.graph.num_edges} hops={self.hops} "
            f"scores={sorted(self._scores)}>"
        )

    # ------------------------------------------------------------------
    # Named score vectors
    # ------------------------------------------------------------------
    def add_scores(self, name: str, relevance: object) -> "Network":
        """Register (or replace) a named score vector; chainable.

        ``relevance`` may be a :class:`ScoreVector`, any sequence of floats,
        or a relevance-function object exposing ``scores(graph)``.
        Replacing a score that has a maintained view rebuilds the view on
        the new vector, so ``algorithm("view")`` never serves stale sums.
        """
        if not name:
            raise InvalidParameterError("score name must be non-empty")
        vector = materialize_scores(self.graph, relevance)
        # Exclusive with in-flight queries: replacing the vector (and
        # rebuilding its maintained view) mid-query would let a worker see
        # half-swapped state or cache a pre-swap answer under the new epoch.
        with self._write_guard():
            with self._lock:
                self._scores[name] = vector
                self._planners.pop(name, None)
                self._score_epochs[name] = self._score_epochs.get(name, 0) + 1
            if name in self._views:
                del self._views[name]
                self.maintain(name)
        self._invalidate_service_cache(name)
        return self

    def score_names(self) -> Tuple[str, ...]:
        """Registered score names, sorted."""
        return tuple(sorted(self._scores))

    def scores_of(self, name: str = DEFAULT_SCORE) -> ScoreVector:
        """The materialized vector behind a registered name."""
        try:
            return self._scores[name]
        except KeyError:
            known = ", ".join(sorted(self._scores)) or "(none registered)"
            raise InvalidParameterError(
                f"unknown score {name!r}; registered: {known}"
            ) from None

    # ------------------------------------------------------------------
    # Serving (the async, concurrent surface)
    # ------------------------------------------------------------------
    def service(self, config: object = None, **options: object):
        """The session's :class:`~repro.service.QueryService` (front door
        for :meth:`QueryBuilder.submit` and the ``.run()`` shim).

        With no arguments, returns the existing service — creating a
        zero-thread *inline* one on first use, so plain synchronous
        sessions never spawn threads.  Pass configuration to start (or
        reconfigure) a concurrent pool::

            service = net.service(ServiceConfig(workers=4, max_pending=256))
            service = net.service(workers=4, max_pending=256)   # kwargs shim
            handles = [net.query(s).limit(10).submit() for s in names]

        ``config`` is a frozen :class:`~repro.config.ServiceConfig` (or a
        plain mapping, e.g. a parsed JSON section); bare keyword options
        remain supported and normalize to the same object.  Unknown option
        names are rejected up front with the valid names.  Reconfiguring
        with a *different* config shuts the previous service down (draining
        in-flight queries) and replaces it; an equal config is idempotent.
        Where queries execute is the session's (or a builder's) backend,
        not a service setting: over ``Network(graph, backend="parallel")``
        the same scheduler threads front the worker processes (see
        :meth:`parallel`).
        """
        from repro.config import ServiceConfig
        from repro.service import QueryService

        explicit = config is not None or bool(options)
        cfg = ServiceConfig.coerce(config, options) if explicit else None
        with self._lock:
            if (
                self._service is not None
                and not self._service.closed
                and (cfg is None or cfg == self._service_config)
            ):
                return self._service
            previous = self._service
        # The previous service stays installed while its workers drain, so
        # a concurrent mutation's _write_guard keeps excluding against the
        # in-flight readers (self._service never transits through None).
        if previous is not None:
            previous.shutdown(wait=True)
        created = QueryService(self, cfg)
        with self._lock:
            if self._service is previous:
                self._service = created
                self._service_config = created.config
                return created
            current = self._service
        # Lost a (rare) creation race; discard ours, use the winner's.
        created.shutdown(wait=False)
        return current

    def _score_epoch(self, score: str) -> int:
        """Monotonic per-name version of a score vector (cache keying)."""
        with self._lock:
            return self._score_epochs.get(score, 0)

    def _invalidate_service_cache(self, score: Optional[str] = None) -> None:
        """Evict served answers: everything, or only one score's entries.

        Graph mutations pass ``None`` (every cached answer is stale);
        score mutations pass the score name so unrelated scores keep their
        hot entries (their epochs did not move, so those answers are still
        exactly right).
        """
        for service in self._services():
            service.invalidate(score)

    def _services(self) -> List[object]:
        """Every live service over this session: the default + replica lanes."""
        with self._lock:
            services = [self._service] if self._service is not None else []
            services.extend(s for s in self._aux_services if not s.closed)
        return services

    def _register_service(self, service) -> None:
        """Attach a replica-lane service (the serving tier's lanes)."""
        with self._lock:
            self._aux_services.append(service)

    def _unregister_service(self, service) -> None:
        with self._lock:
            try:
                self._aux_services.remove(service)
            except ValueError:
                pass

    def _write_guard(self):
        """Exclusive section for mutations: waits out in-flight queries.

        Takes the write side of *every* live service's readers-writer lock
        (replica lanes included), in registration order — every writer
        acquires in the same order, so two concurrent mutations cannot
        deadlock against each other.
        """
        services = self._services()
        if not services:
            return nullcontext()
        stack = ExitStack()
        for service in services:
            stack.enter_context(service._rw.write())
        return stack

    # ------------------------------------------------------------------
    # Multi-core execution (the "parallel" backend)
    # ------------------------------------------------------------------
    def parallel(self, config: object = None, **options: object):
        """The session's process-parallel engine (configure or inspect).

        Queries opt in per request (``.backend("parallel")``, CLI
        ``--backend parallel``) or session-wide
        (``Network(graph, backend="parallel")``); the engine — worker pool,
        shared-memory CSR/score exports, shard plan — is created lazily on
        first parallel execution with ``os.cpu_count()`` workers.  Call
        this with configuration to set it up front::

            net.parallel(ParallelConfig(workers=4))   # pool size
            net.parallel(workers=4, min_nodes=0)      # kwargs shim

        ``config`` is a frozen :class:`~repro.config.ParallelConfig` (or a
        plain mapping); bare keyword options normalize to the same object
        and unknown names are rejected with the valid ones.  Reconfiguring
        closes the previous engine first.  Graphs smaller than
        ``min_nodes`` (default
        :data:`~repro.parallel.engine.DEFAULT_MIN_NODES`) decline and run
        on the in-process numpy backend — same entries either way.
        """
        from repro.config import ParallelConfig

        if config is None and not options:
            return self._ctx.sharded_engine("parallel")
        cfg = ParallelConfig.coerce(config, options)
        return self._ctx.sharded_engine("parallel", **cfg.to_engine_kwargs())

    # ------------------------------------------------------------------
    # Multi-machine execution (the "cluster" backend)
    # ------------------------------------------------------------------
    def cluster(self, config: object = None, **options: object):
        """The session's socket-cluster engine (configure or inspect).

        Queries opt in per request (``.backend("cluster")``, CLI
        ``--backend cluster``) or session-wide
        (``Network(graph, backend="cluster")``).  ``workers`` is a count of
        locally spawned ``cluster-worker`` processes or a list of
        ``host:port`` addresses of workers already running elsewhere::

            net.cluster(ClusterConfig(workers=4))            # spawn 4 local
            net.cluster(workers=["10.0.0.2:7070",
                                 "10.0.0.3:7070"])           # connect remote

        ``config`` is a frozen :class:`~repro.config.ClusterConfig` (or a
        plain mapping); bare keyword options normalize to the same object
        and unknown names are rejected with the valid ones.  Configuring
        the engine spawns/connects nothing — the transport starts on the
        first accepted cluster query.  Graphs smaller than ``min_nodes``
        decline and run on the in-process numpy backend — same entries
        either way.  Reconfiguring closes the previous engine (and its
        workers/connections) first.
        """
        from repro.config import ClusterConfig

        if config is None and not options:
            return self._ctx.sharded_engine("cluster")
        cfg = ClusterConfig.coerce(config, options)
        return self._ctx.sharded_engine("cluster", **cfg.to_engine_kwargs())

    def close(self) -> None:
        """Release out-of-process resources: serving threads, worker
        processes, shared-memory segments.  Idempotent; the session remains
        usable afterwards (a later query lazily rebuilds what it needs)."""
        with self._lock:
            service = self._service
            self._service = None
            self._service_config = None
            aux = list(self._aux_services)
            self._aux_services.clear()
        if service is not None:
            service.shutdown(wait=True)
        for lane in aux:
            lane.shutdown(wait=True)
        self._ctx.close()

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------
    def query(self, score: str = DEFAULT_SCORE) -> QueryBuilder:
        """Start a fluent query over one named score vector."""
        self.scores_of(score)  # validate early, not at run()
        return QueryBuilder(self, score)

    def topk(
        self,
        score: str,
        k: int,
        aggregate: Union[str, AggregateKind] = "sum",
        **builder_options: object,
    ) -> TopKResult:
        """One-shot convenience: ``query(score).limit(k)....run()``.

        ``builder_options`` accepts exactly the builder's refinement
        methods (``algorithm`` / ``backend`` / ``where`` / ...), derived
        from the :class:`QueryBuilder` surface — a refinement added to the
        builder is automatically accepted here.
        """
        builder = self.query(score).limit(k).aggregate(aggregate)
        refinements = _builder_refinements()
        for name, value in builder_options.items():
            if name not in refinements:
                raise InvalidParameterError(
                    f"unknown query option {name!r}; "
                    f"expected one of {sorted(refinements)}"
                )
            builder = getattr(builder, name)(value)
        return builder.run()

    def topk_weighted(
        self,
        score: str,
        k: int,
        profile=None,
        algorithm: str = "backward",
        **options: object,
    ) -> TopKResult:
        """Distance-weighted top-k SUM (the paper's footnote 1), one shot:
        ``query(score).limit(k).weighted(profile).algorithm(algorithm)``
        plus ``options`` as :meth:`topk` takes them.

        ``profile`` maps hop distance to a weight in [0, 1] (default:
        inverse distance); ``algorithm`` is ``"base"`` or ``"backward"``.
        """
        return self.topk(
            score, k, weighted=profile, algorithm=algorithm, **options
        )

    def batch(
        self,
        queries: Sequence[Union[QueryBuilder, BatchQuery, Tuple[object, int]]],
    ) -> BatchResult:
        """Answer many queries with shared-scan routing (one result each).

        Accepts :class:`QueryBuilder` objects from this session (their
        score/k/aggregate are extracted), raw
        :class:`~repro.core.batch.BatchQuery` items, or ``(scores, k[,
        aggregate])`` tuples.  Dense queries share one scan; sparse ones
        run as LONA-Backward, each exactly as if issued alone
        (:func:`repro.core.executor.execute_batch`, over this session's
        caches).  The returned :class:`BatchResult` carries
        workload-level :class:`~repro.core.results.QueryStats` whose
        counters sum the per-query work (shared scans counted once).
        """
        normalized: List[Union[BatchQuery, Tuple[object, int]]] = []
        for i, item in enumerate(queries):
            if isinstance(item, QueryBuilder):
                request = item.request()
                # A group routes by score density and runs on the session
                # backend; a builder pin it cannot honor must be rejected,
                # not silently dropped — the scheduler's predicate, so the
                # two "may this join a shared scan?" checks cannot drift.
                if not coalescible_request(
                    request,
                    hops=self.hops,
                    include_self=self.include_self,
                    backend=self.backend,
                ):
                    raise InvalidParameterError(
                        f"batch entry {i}: shared-scan batching routes by "
                        "score density on the session backend; builder pins "
                        "(algorithm/backend/where/gamma/ordering/...) and "
                        "MAX/MIN aggregates are not supported — run this "
                        "query individually"
                    )
                normalized.append(
                    BatchQuery(
                        scores=self.scores_of(request.score),
                        k=request.k,
                        aggregate=request.aggregate,
                    )
                )
            else:
                normalized.append(item)  # type: ignore[arg-type]
        return self._run_batch(normalized)

    def _run_batch(
        self,
        queries: Sequence[Union[BatchQuery, Tuple[object, int]]],
        backend: Optional[str] = None,
    ) -> BatchResult:
        """One group through the executor, over the session caches
        (``backend`` overrides the session default)."""
        return BatchResult(
            executor.execute_batch(
                self._ctx, queries, backend=backend or self.backend
            )
        )

    # ------------------------------------------------------------------
    # Execution plumbing (builders land here)
    # ------------------------------------------------------------------
    def _run(self, request: QueryRequest) -> TopKResult:
        scores = self.scores_of(request.score)
        if request.algorithm == "view":
            return self._run_view(request)
        return executor.execute(
            self._ctx,
            scores,
            request,
            planner=self._planner_for(request)
            if request.algorithm == "planned"
            else None,
        )

    def _stream(self, request: QueryRequest) -> Iterator[StreamUpdate]:
        return executor.stream(self._ctx, self.scores_of(request.score), request)

    def _plan(
        self, request: QueryRequest, *, amortize_index: bool = True
    ) -> ExecutionPlan:
        return executor.plan(
            self._ctx,
            self.scores_of(request.score),
            request,
            amortize_index=amortize_index,
            planner=self._planner_for(request),
        )

    def _planner_for(self, request: QueryRequest) -> Optional[QueryPlanner]:
        """The session planner, unless the request pins another backend.

        The cached planner is built on the session backend, and the cost
        model is backend-sensitive (vectorized routes are discounted): a
        builder that pins a different backend gets ``None`` so the executor
        builds a planner on the *request's* backend — the configuration
        ``.run()`` / ``.explain()`` will actually execute.
        """
        if request.backend != self.backend:
            return None
        return self._planner(request.score)

    def _planner(self, score: str) -> QueryPlanner:
        """Per-score planner, cached until the index state or graph moves."""
        index_available = self._ctx.diff_index is not None
        version = getattr(self.graph, "version", None)
        with self._lock:
            cached = self._planners.get(score)
            if cached is not None:
                planner, avail, ver = cached
                if avail == index_available and ver == version:
                    return planner
        planner = QueryPlanner(
            self.graph,
            self.scores_of(score).values(),
            hops=self.hops,
            include_self=self.include_self,
            index_available=index_available,
            backend=self.backend,
            size_estimates=self._ctx.estimated_sizes().upper_values(),
        )
        with self._lock:
            self._planners[score] = (planner, index_available, version)
        return planner

    # ------------------------------------------------------------------
    # Index lifecycle (shared across every score and execution mode)
    # ------------------------------------------------------------------
    def build_indexes(self) -> float:
        """Build (or reuse) the differential + exact size indexes."""
        return self._ctx.build_indexes()

    @property
    def diff_index(self) -> Optional[DifferentialIndex]:
        """The shared differential index, if built."""
        return self._ctx.diff_index

    def save_index(self, path: object) -> None:
        """Persist the differential index (building it first if needed)."""
        self._ctx.save_index(path)

    def load_index(self, path: object) -> None:
        """Load a persisted differential index for this session's graph."""
        self._ctx.load_index(path)

    # ------------------------------------------------------------------
    # Dynamic graphs: maintained views + mutations through the session
    # ------------------------------------------------------------------
    def maintain(self, score: str = DEFAULT_SCORE):
        """Create (or return) a maintained aggregate view for one score.

        Requires the session graph to be a
        :class:`~repro.dynamic.graph.DynamicGraph`.  The view answers
        ``algorithm("view")`` queries from its ``(F_sum, N)`` tables —
        arrays and one sort on the session's vectorized backend, lists and
        O(n log k) offers on ``"python"`` — and is repaired incrementally
        by :meth:`add_edge` / :meth:`remove_edge` / :meth:`update_score`.
        """
        from repro.dynamic.graph import DynamicGraph
        from repro.dynamic.maintenance import MaintainedAggregateView

        if not isinstance(self.graph, DynamicGraph):
            raise InvalidParameterError(
                "maintained views require a DynamicGraph session; build the "
                "Network over DynamicGraph.from_graph(graph)"
            )
        if score not in self._views:
            vector = self.scores_of(score)
            self._views[score] = MaintainedAggregateView(
                self.graph,
                vector,
                hops=self.hops,
                include_self=self.include_self,
                backend=self.backend,
            )
        return self._views[score]

    def view(self, score: str = DEFAULT_SCORE):
        """The maintained view for ``score`` (raises if never maintained)."""
        try:
            return self._views[score]
        except KeyError:
            raise InvalidParameterError(
                f"no maintained view for score {score!r}; call "
                f"net.maintain({score!r}) first"
            ) from None

    def _run_view(self, request: QueryRequest) -> TopKResult:
        from repro.core.executor import _reject_inapplicable_knobs

        _reject_inapplicable_knobs(request, "view")
        view = self.view(request.score)
        view.check_in_sync()  # never serve a stale view, filtered or not
        if request.candidates is None:
            return view.topk(request.k, request.aggregate)
        # Candidate-filtered view read: O(|candidates| log k) arithmetic.
        import time as _time

        start = _time.perf_counter()
        acc = TopKAccumulator(request.k)
        for u in request.candidates:
            acc.offer(u, view.value(u, request.aggregate))
        stats = QueryStats(
            algorithm="maintained-view",
            aggregate=request.aggregate.value,
            hops=self.hops,
            k=request.k,
            elapsed_sec=_time.perf_counter() - start,
        )
        stats.extra["candidates"] = float(len(request.candidates))
        return TopKResult(entries=acc.entries(), stats=stats)

    def _require_dynamic(self):
        from repro.dynamic.graph import DynamicGraph

        if not isinstance(self.graph, DynamicGraph):
            raise InvalidParameterError(
                "graph mutations require a DynamicGraph session"
            )
        return self.graph

    def add_edge(self, u: int, v: int) -> int:
        """Insert an edge; repairs every maintained view and forgets what the
        edge can have changed (:meth:`GraphContext.edge_write`).

        Returns the number of view entries repaired (0 with no views).
        """
        graph = self._require_dynamic()
        with self._write_guard():
            repaired = self._edge_write(u, v, graph.add_edge, "repair_after_insert")
        self._invalidate_service_cache()
        return repaired

    def remove_edge(self, u: int, v: int) -> int:
        """Delete an edge; repairs every maintained view and forgets what the
        edge can have changed (:meth:`GraphContext.edge_write`)."""
        graph = self._require_dynamic()
        with self._write_guard():
            repaired = self._edge_write(u, v, graph.remove_edge, "repair_after_delete")
        self._invalidate_service_cache()
        return repaired

    def _edge_write(self, u: int, v: int, write, repair: str) -> int:
        """One edge write (write guard held): every maintained view repairs
        the reach the context computed and forgot (``h - 1`` hops)."""
        # Fail BEFORE mutating if any view already missed an outside
        # mutation — repairing such a view would bake the stale state in.
        for view in self._views.values():
            view.check_in_sync()
        reach = self._ctx.edge_write(u, v, lambda: write(u, v))
        return sum(getattr(view, repair)(u, v, reach) for view in self._views.values())

    def update_score(self, score: str, node: int, value: float) -> int:
        """Update one node's score in a named vector (repairing its view).

        Costs what it changes: the successor vector is the old one patched
        in one slot (:meth:`ScoreVector.with_value`), a maintained view
        shifts the sums of the node's reverse ball by the delta, and the
        old vector's LONA-Backward phases 1-2 carry to the new one when the
        write keeps its distribution cut: a 0/1 vector's partial sums shift
        by ±1 over the node's ball, a graded vector's slot is kept only when
        no partial sum moved (:meth:`GraphContext.score_write`).
        """
        # Validate BEFORE touching any state: a bad node id or value must
        # not half-apply to a maintained view.
        if not 0 <= node < self.graph.num_nodes:
            raise InvalidParameterError(
                f"node {node} not in graph (num_nodes={self.graph.num_nodes})"
            )
        with self._write_guard():
            current = self.scores_of(score)
            replacement = current.with_value(node, value)
            self._ctx.score_write(current, replacement, node)
            view = self._views.get(score)
            affected = 0 if view is None else view.update_score(node, value)
            with self._lock:
                self._scores[score] = replacement
                self._planners.pop(score, None)
                self._score_epochs[score] = self._score_epochs.get(score, 0) + 1
        self._invalidate_service_cache(score)
        return affected
