"""Shared per-graph execution caches, extracted from the engine.

Every execution path over one graph wants the same offline artifacts: the
differential index (LONA-Forward), the neighborhood-size index
(LONA-Backward), and — for the vectorized backends — the session's one
ball structure, the node-keyed ball index that scans, LONA-Backward's
verification and weighted reads fill and read back.  :class:`GraphContext`
owns them once, so a :class:`~repro.session.Network` session, its query
service and its sharded engines share a single cache.  The flat CSR arrays are *not* a context artifact: every
:class:`~repro.graph.graph.Graph` owns its own (built once when immutable,
patched when dynamic), and :meth:`GraphContext.csr` only revalidates and
asks it.  LONA-Backward's k-independent phases 1-2 are derived state too:
:class:`Phase1Memo` keeps them per live score vector.

The context is *version-aware*: when the underlying graph is a
:class:`~repro.dynamic.graph.DynamicGraph`, every accessor revalidates
against ``graph.version`` and drops stale artifacts automatically, so a
session over a mutating graph never serves answers from a dead index.
A session's own edge writes go through :meth:`GraphContext.edge_write`
instead, which drops only what one arc can have changed: the ball index
forgets the balls within ``h - 1`` hops of an endpoint and is kept, the
degree-based size bounds are patched in the rows the write moved, and the
graph's patched CSR views were never dropped (DESIGN.md §2, "Dynamic
integration").  The differential index is dropped and read off the kept
ball index at the next forward read.

It is also *thread-safe*: every accessor builds (or revalidates) its
artifact under one re-entrant lock, so the concurrent serving layer
(:mod:`repro.service`) can run parallel queries over one context without
double-building or observing half-built caches.  The ball index carries
its own lock and takes half of the session's ball budget
(:data:`DEFAULT_BALL_CACHE_BYTES` unless overridden), the other half going
to a sharded engine's workers; it never evicts, so a long-lived session
over a ~1M-node graph holds a fixed footprint.  :meth:`cache_stats`
reports it.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any, Callable, Dict, Optional

from repro.core.backends import numpy_available
from repro.graph.csr import edge_write_reach
from repro.graph.diffindex import DifferentialIndex, build_differential_index
from repro.graph.graph import Graph
from repro.graph.neighborhood import NeighborhoodSizeIndex

__all__ = ["GraphContext", "Phase1Memo", "DEFAULT_BALL_CACHE_BYTES"]

#: Default session ball budget.  Half of it caps the in-process ball index
#: (32 MiB: the whole 16,000-node bench closure, pairs and hop labels, or
#: about 72 % of the 100,000-node one), the other half is split over a
#: sharded engine's workers' own indexes; ``ball_cache_bytes=None`` lifts
#: both caps.
DEFAULT_BALL_CACHE_BYTES = 64 * 1024 * 1024


class Phase1Memo:
    """LONA-Backward's k-independent state (phases 1-2), per score vector.

    One slot per live :class:`~repro.relevance.base.ScoreVector` (a weak
    key: the slot dies with its vector) and aggregate family (``False`` for
    SUM and binary COUNT, whose folded arrays are one array; ``True`` for
    AVG).  A slot holds the last ``key`` read with it — gamma,
    ``distribution_fraction`` and the size index — and the driver's state,
    which has an ``nbytes``.  So the memo holds at most one state per live
    vector and family.  The graph view, hops and ``include_self`` are the
    owning context's: it swaps in a :meth:`successor` when the graph moves,
    so a read that started before the move stores into a memo nobody reads.
    """

    __slots__ = ("_slots", "_lock", "_counts")

    def __init__(
        self, lock: Optional[Any] = None, counts: Optional[list] = None
    ) -> None:
        self._slots: Any = weakref.WeakKeyDictionary()
        self._lock = lock if lock is not None else threading.Lock()
        self._counts = counts if counts is not None else [0, 0]  # hits, misses

    def successor(self) -> "Phase1Memo":
        """An empty memo that keeps counting where this one stopped."""
        return Phase1Memo(self._lock, self._counts)

    def get(self, scores: object, family: bool, key: tuple) -> Optional[Any]:
        """The state stored for ``(scores, family)`` under ``key``, or None."""
        with self._lock:
            held = self._slots.get(scores, {}).get(family)
            hit = held is not None and held[0] == key
            self._counts[0 if hit else 1] += 1
            return held[1] if hit else None

    def put(self, scores: object, family: bool, key: tuple, state: Any) -> None:
        """Keep ``state`` as the one entry of ``(scores, family)``."""
        with self._lock:
            self._slots.setdefault(scores, {})[family] = (key, state)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            states = [s for slot in self._slots.values() for _, s in slot.values()]
            hits, misses = self._counts
        return {
            "entries": len(states),
            "bytes": sum(state.nbytes for state in states),
            "hits": hits,
            "misses": misses,
        }


class GraphContext:
    """Lazily built, shared caches for one ``(graph, hops, include_self)``.

    Owns: the differential index, the exact/estimated neighborhood-size
    indexes, the ball index (:meth:`ball_index`), LONA-Backward's phase-1
    memo (:meth:`phase1_memo`) and the sharded engines.
    It does not own the (reversed) CSR views the vectorized backends
    consume — those belong to the graph, and :meth:`csr` / :meth:`rev_csr`
    hand out the graph's.  All artifacts build on first use and are reused
    until :meth:`invalidate` (called automatically when the graph's version
    counter moves), or patched by :meth:`edge_write` (a session's edge write).
    Accessors are safe to call from concurrent query threads.
    """

    __slots__ = (
        "graph",
        "hops",
        "include_self",
        "ball_cache_bytes",
        "_diff_index",
        "_estimated_sizes",
        "_ball_index",
        "_phase1",
        "_engines",
        "_engine_options",
        "_graph_version",
        "_lock",
    )

    def __init__(
        self,
        graph: Graph,
        *,
        hops: int = 2,
        include_self: bool = True,
        ball_cache_bytes: Optional[int] = DEFAULT_BALL_CACHE_BYTES,
    ) -> None:
        self.graph = graph
        self.hops = hops
        self.include_self = include_self
        self.ball_cache_bytes = ball_cache_bytes
        self._diff_index: Optional[DifferentialIndex] = None
        self._estimated_sizes: Optional[NeighborhoodSizeIndex] = None
        self._ball_index = None
        self._phase1 = Phase1Memo()
        self._engines: Dict[str, object] = {}
        self._engine_options: Dict[str, dict] = {}
        self._graph_version = getattr(graph, "version", None)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Staleness
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached artifact (after a graph mutation).

        The parallel engine is deliberately *not* called here: its
        ``_refresh`` revalidates exports against ``graph.version`` at every
        query (stamping the old export stale and rebuilding), exactly like
        the accessors below rebuild their artifacts — and calling into the
        engine under this lock would invert the engine-lock -> ctx-lock
        order every parallel query takes (ABBA deadlock).
        """
        with self._lock:
            self._diff_index = None
            self._estimated_sizes = None
            self._ball_index = None
            self._phase1 = self._phase1.successor()
            self._graph_version = getattr(self.graph, "version", None)

    def edge_write(self, u: int, v: int, write: Callable[[], None]) -> Optional[Any]:
        """Run ``write`` — the graph's insert or delete of edge ``(u, v)`` —
        and drop what it can have changed, keeping the rest.

        The differential index and the phase-1 memo go; the next forward
        read rebuilds the index off the ball index, which keeps every ball
        the write cannot have moved.
        The ball index stays: it forgets only the balls of the nodes within
        ``hops - 1`` hops of an endpoint
        (:func:`~repro.graph.csr.edge_write_reach`), and rebinds to the
        patched CSR.  That reach is returned (``None`` when no index was
        kept), so the session's maintained views repair the same nodes.
        The estimated sizes are patched row by row
        (:meth:`~repro.graph.neighborhood.NeighborhoodSizeIndex.patched_from_csr`).
        A context that was already stale before the write (a mutation it
        did not see, such as a node added through a maintained view) gets a
        full :meth:`invalidate`.
        """
        with self._lock:
            graph = self.graph
            index = sizes = None
            if numpy_available() and getattr(graph, "version", None) == self._graph_version:
                index, sizes = self._ball_index, self._estimated_sizes
            if index is not None and not index.serves(graph.csr(), self.hops, self.include_self):
                index = None
            if index is None and sizes is None:
                write()
                self.invalidate()
                return None
            old_csr = graph.csr()
            write()
            csr = graph.csr()
            self._diff_index = None
            self._phase1 = self._phase1.successor()
            self._ball_index = index
            reach = None
            if index is not None:
                # A directed ball is an out-ball: who can reach u is read
                # off the reverse view.
                view = graph.rev_csr() if graph.directed else csr
                reach = edge_write_reach(view, u, v, self.hops)
                index.forget(reach, csr)
            if sizes is not None:
                self._estimated_sizes = sizes.patched_from_csr(old_csr, csr, u, v)
            self._graph_version = graph.version
            return reach

    def check_fresh(self) -> None:
        """Invalidate automatically when the graph's version moved."""
        with self._lock:
            if getattr(self.graph, "version", None) != self._graph_version:
                self.invalidate()

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    @property
    def diff_index(self) -> Optional[DifferentialIndex]:
        """The differential index, if built (and still fresh)."""
        with self._lock:
            self.check_fresh()
            return self._diff_index

    def build_indexes(self) -> float:
        """Build (or reuse) the differential + exact size indexes.

        Returns the build time in seconds (0.0 when already built) — the
        offline step of LONA-Forward, reported separately from query time
        exactly as the paper excludes index construction from runtimes.
        With numpy every ball is read through :meth:`ball_index`.
        """
        with self._lock:
            self.check_fresh()
            if self._diff_index is not None:
                return 0.0
            start = time.perf_counter()
            self._diff_index = build_differential_index(
                self.graph, self.hops, include_self=self.include_self,
                ball_index=self.ball_index() if numpy_available() else None,
            )
            return time.perf_counter() - start

    def size_index(self, *, exact: bool = False) -> NeighborhoodSizeIndex:
        """An ``N(v)`` index: exact when requested/available, else estimated."""
        with self._lock:
            self.check_fresh()
            if exact:
                self.build_indexes()
            if self._diff_index is not None:
                return self._diff_index.sizes
            return self.estimated_sizes()

    def estimated_sizes(self) -> NeighborhoodSizeIndex:
        """The degree-based ``N_ub`` / ``N_lb`` table, one per graph version.

        Always the *estimate*, also once an exact index is built: the
        planner's statistics are defined on it.  With numpy importable it
        is computed from :meth:`csr` (building that view if nobody has yet)
        and holds int64 arrays; otherwise the adjacency-list reference
        runs.  Same integers either way.
        """
        with self._lock:
            self.check_fresh()
            if self._estimated_sizes is None:
                if numpy_available():
                    self._estimated_sizes = NeighborhoodSizeIndex.estimated_from_csr(
                        self.csr(), self.hops, include_self=self.include_self
                    )
                else:
                    self._estimated_sizes = NeighborhoodSizeIndex.estimated(
                        self.graph, self.hops, include_self=self.include_self
                    )
            return self._estimated_sizes

    def save_index(self, path: object) -> None:
        """Persist the differential index (building it first if needed)."""
        from repro.graph.index_io import save_differential_index

        with self._lock:
            self.build_indexes()
            assert self._diff_index is not None
            save_differential_index(self._diff_index, self.graph, path)  # type: ignore[arg-type]

    def load_index(self, path: object) -> None:
        """Load a persisted differential index for this context's graph.

        Raises :class:`~repro.errors.IndexNotBuiltError` if the file does
        not match the graph (wrong graph, mutated graph, wrong format).
        """
        from repro.graph.index_io import load_differential_index

        with self._lock:
            self.check_fresh()
            index = load_differential_index(self.graph, path)  # type: ignore[arg-type]
            index.check_compatible(self.graph, self.hops, self.include_self)
            self._diff_index = index

    # ------------------------------------------------------------------
    # CSR views (vectorized backends; owned by the graph)
    # ------------------------------------------------------------------
    def csr(self):
        """The graph's numpy CSR view, after the staleness check (so the
        version-stamped artifacts built over it are dropped first)."""
        self.check_fresh()
        return self.graph.csr()

    def rev_csr(self):
        """The graph's reversed numpy CSR view (``None`` when undirected,
        whose reversal is itself), obtained like :meth:`csr`."""
        self.check_fresh()
        return self.graph.rev_csr()

    # ------------------------------------------------------------------
    # The session's ball index (numpy backend)
    # ------------------------------------------------------------------
    def ball_index(self):
        """Session-scoped :class:`~repro.graph.csr.CSRBallIndex` over :meth:`csr`.

        The h-hop balls depend on the graph and ``(hops, include_self)``,
        never on the scores, so every in-process read (base, the fused
        batch, forward, ``.where`` filters, streams, LONA-Backward's
        verification, and on an undirected graph its distribution, weighted
        or not) keeps the balls it expands and every later read takes them
        back instead of re-deriving them.  Capped at half the context's ball
        budget — the half a sharded engine splits over its workers' own
        indexes.  A session edge write keeps it and forgets only the balls it
        can have changed (:meth:`edge_write`); every other version move drops
        it with the other artifacts (:meth:`invalidate`), so dynamic graphs
        never serve stale balls.
        """
        with self._lock:
            self.check_fresh()
            if self._ball_index is None:
                from repro.graph.csr import CSRBallIndex

                budget = self.ball_cache_bytes
                self._ball_index = CSRBallIndex(
                    self.csr(),
                    self.hops,
                    include_self=self.include_self,
                    max_bytes=None if budget is None else budget // 2,
                )
            return self._ball_index

    def phase1_memo(self) -> Phase1Memo:
        """The :class:`Phase1Memo` of the current graph version: LONA-Backward
        reads of one vector share phases 1-2 across ``k``, SUM and binary
        COUNT, and lanes.  Dropped with the other artifacts by
        :meth:`invalidate` and by :meth:`edge_write`."""
        with self._lock:
            self.check_fresh()
            return self._phase1

    # ------------------------------------------------------------------
    # Sharded engines (the "parallel" and "cluster" backends)
    # ------------------------------------------------------------------
    def sharded_engine(self, concrete: str, **options):
        """The session-scoped engine behind a sharded backend name:
        ``"parallel"`` -> :class:`~repro.parallel.engine.ParallelEngine`,
        ``"cluster"`` -> :class:`~repro.cluster.engine.ClusterEngine`.

        Created lazily on first use (creating one spawns or connects
        nothing — workers start on the first query it accepts); passing
        options reconfigures — the previous engine (pool, exports, peers)
        is closed and a new one built, so ``workers=...`` changes take
        effect deterministically.  With no options, repeated calls return
        the same engine; if the engine was released (:meth:`close`), it is
        rebuilt with the last *remembered* options, so an explicit
        ``net.parallel(...)`` / ``net.cluster(...)`` configuration survives
        a close/reopen cycle.

        The previous engine is closed *outside* this context's lock: a
        sharded query holds the engine lock while reading ctx artifacts
        (engine lock -> ctx lock), so closing under the ctx lock would
        invert the order and deadlock.
        """
        if concrete == "parallel":
            from repro.parallel.engine import ParallelEngine as engine_class
        else:
            from repro.cluster.engine import ClusterEngine as engine_class

        while True:
            with self._lock:
                current = self._engines.get(concrete)
                previous = current if options else None
                if previous is None:
                    if current is None or current.closed:
                        create = options or self._engine_options.get(concrete, {})
                        current = self._engines[concrete] = engine_class(
                            self, **create
                        )
                        if options:
                            self._engine_options[concrete] = dict(options)
                    return current
                self._engines[concrete] = None
            previous.close()

    def engine_configured(self, concrete: str) -> bool:
        """Whether the session explicitly configured that sharded engine."""
        with self._lock:
            return bool(self._engine_options.get(concrete))

    def has_engine(self, concrete: str) -> bool:
        """Whether that sharded engine exists (without creating one)."""
        with self._lock:
            engine = self._engines.get(concrete)
            return engine is not None and not engine.closed

    def close(self) -> None:
        """Release out-of-process resources (worker pool, shared memory,
        cluster peers), the session's ball arrays and its phase-1 memo.

        Exists so ``Network.close`` (and tests) can deterministically free
        the sharded engines instead of waiting for garbage collection, and
        so a caller that closes one session and opens another never holds
        two sessions' ball indexes at once.  The context stays
        usable: they rebuild lazily.  Engines are closed outside the ctx
        lock for the same lock-ordering reason as :meth:`sharded_engine`.
        """
        with self._lock:
            engines = list(self._engines.values())
            self._engines.clear()
            self._ball_index = None
            self._phase1 = self._phase1.successor()
        for engine in engines:
            if engine is not None:
                engine.close()

    def cache_stats(self) -> Dict[str, Optional[dict]]:
        """``{"ball_cache": ..., "phase1": ...}``: the ball index's counters
        (None = unbuilt) and the phase-1 memo's entries, bytes, hits and
        misses."""
        with self._lock:
            index, memo = self._ball_index, self._phase1
            return {
                "ball_cache": None if index is None else index.stats(),
                "phase1": memo.stats(),
            }
