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
ball index at the next forward read.  The phase-1 memo's states are
repaired where the write moved them, as they are after a session's score
write (:meth:`GraphContext.score_write`).

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
#: (32 MiB at 2 bytes a pair: the whole 16,000-node bench closure with hop
#: labels, and the whole 100,000-node one, 22.96 MB), the other half is
#: split over a sharded engine's workers' own indexes (16 MiB each for two
#: workers: the balls of a parallel worker's home chunks of the
#: 100,000-node graph, about 11.4 MB);
#: ``ball_cache_bytes=None`` lifts both caps.
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
    A write carries a slot over when it can repair it (:meth:`successor`
    with a ``repair``, :meth:`carry`) and drops it otherwise; ``stats()``
    counts both.
    """

    __slots__ = ("_slots", "_lock", "_counts")

    def __init__(
        self, lock: Optional[Any] = None, counts: Optional[list] = None
    ) -> None:
        self._slots: Any = weakref.WeakKeyDictionary()
        self._lock = lock if lock is not None else threading.Lock()
        # hits, misses, repaired, dropped
        self._counts = counts if counts is not None else [0, 0, 0, 0]

    def successor(self, repair: Optional[Callable] = None) -> "Phase1Memo":
        """The memo of the next graph version, counting where this one
        stopped.  It holds the ``(key, state)`` that ``repair(scores,
        family, key, state)`` returns for a slot of this one; a slot it
        returns None for, and every slot without a ``repair``, is dropped."""
        with self._lock:
            held = [
                (scores, family, key, state)
                for scores, slot in list(self._slots.items())
                for family, (key, state) in slot.items()
            ]
        successor = Phase1Memo(self._lock, self._counts)
        kept = successor._slots
        for scores, family, key, state in held:
            carried = None if repair is None else repair(scores, family, key, state)
            if carried is not None:
                kept.setdefault(scores, {})[family] = carried
        self._tally(sum(len(slot) for slot in kept.values()), len(held))
        return successor

    def carry(self, old: object, new: object, repair: Optional[Callable]) -> None:
        """Give ``new`` — the vector a score write made of ``old`` — the
        state that ``repair(family, key, state)`` returns for each slot of
        ``old``, under the same key; the rest are dropped (``old``'s own
        slots die with it)."""
        with self._lock:
            held = list(self._slots.get(old, {}).items())
        carried = {}
        for family, (key, state) in held:
            state = None if repair is None else repair(family, key, state)
            if state is not None:
                carried[family] = (key, state)
        with self._lock:
            if carried:
                self._slots.setdefault(new, {}).update(carried)
        self._tally(len(carried), len(held))

    def _tally(self, repaired: int, held: int) -> None:
        with self._lock:
            self._counts[2] += repaired
            self._counts[3] += held - repaired

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
            hits, misses, repaired, dropped = self._counts
        return {
            "entries": len(states),
            "bytes": sum(state.nbytes for state in states),
            "hits": hits,
            "misses": misses,
            "repaired": repaired,
            "dropped": dropped,
        }


class GraphContext:
    """Lazily built, shared caches for one ``(graph, hops, include_self)``.

    Owns: the differential index, the exact/estimated neighborhood-size
    indexes, the ball index (:meth:`ball_index`), LONA-Backward's phase-1
    memo (:meth:`phase1_memo`) and the sharded engines.
    It does not own the (reversed) CSR views the vectorized backends
    consume — those belong to the graph, and :meth:`csr` hands out the
    graph's.  All artifacts build on first use and are reused
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
        "_engine_configs",
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
        self._engine_configs: Dict[str, object] = {}
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

        The differential index goes; the next forward read rebuilds it off
        the ball index, which keeps every ball the write cannot have moved.
        The ball index stays: it forgets only the balls of the nodes within
        ``hops - 1`` hops of an endpoint
        (:func:`~repro.graph.csr.edge_write_reach`), and rebinds to the
        patched CSR.  That reach is returned (``None`` when no index was
        kept), so the session's maintained views repair the same nodes.
        The estimated sizes are patched row by row
        (:meth:`~repro.graph.neighborhood.NeighborhoodSizeIndex.patched_from_csr`).
        The phase-1 memo's slots keyed to them are repaired — bounds at the
        rows whose estimates moved, coverage counts (and a 0/1 vector's
        partial sums, which are those counts) shifted at the rows a
        distributed ball in the reach gained or lost — and re-keyed to the
        patched sizes (:meth:`_edge_repair`); the others are dropped.
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
            self._phase1 = self._phase1.successor(self._edge_repair(reach, sizes, old_csr))
            self._graph_version = graph.version
            return reach

    def _edge_repair(self, reach, old_sizes, old_csr) -> Optional[Callable]:
        """The phase-1 memo's repair for one edge write (lock held), or None
        when no slot can be kept.

        Gamma, the distributed set and ``rest_bound`` read only the scores.
        The patch moved the estimated sizes of some rows: their bounds are
        re-evaluated.  A coverage moves only where a distributed ball
        changed — for a distributed node in ``reach`` — so each row shifts
        by the number of those crossed balls that hold it over the written
        graph minus the number that held it before: one ``bincount`` of
        each side's members.  On a 0/1 vector the partial sums are those
        counts and shift with them
        (:func:`~repro.core.vectorized.repair_backward_state`); a graded
        vector's slot whose distributed ball the write crosses is dropped.
        A slot keyed to the pre-write estimate ``old_sizes`` is re-keyed to
        the patched one.  Dropped as well: every slot on a directed graph
        (distribution walks the reverse view, which the index does not
        hold) and a slot keyed to the exact sizes (they went with the
        differential index).
        """
        if reach is None or old_sizes is None or self.graph.directed:
            return None
        import numpy as np

        from repro.core.vectorized import repair_backward_state
        from repro.graph.csr import batched_hop_balls

        sizes, csr = self._estimated_sizes, self.graph.csr()
        n, hops, include_self = csr.num_nodes, self.hops, self.include_self
        moved = np.flatnonzero(
            (sizes.upper_values() != old_sizes.upper_values())
            | (sizes.lower_values() != old_sizes.lower_values())
        )
        crossing = np.zeros(n, dtype=bool)
        crossing[reach] = True
        shifts: Dict[bytes, Any] = {}  # one old/new expansion per crossed set

        def shift(crossed):
            """``(nodes, delta)``: the rows the ``crossed`` balls gained or
            lost and the change of each one's count."""
            old, new = (
                batched_hop_balls(view, crossed, hops, include_self=include_self)[1]
                for view in (old_csr, csr)
            )
            delta = np.bincount(new, minlength=n) - np.bincount(old, minlength=n)
            nodes = np.flatnonzero(delta)
            return nodes, delta[nodes]

        def repair(scores, family, key, state):
            gamma, fraction, keyed = key
            if keyed is not old_sizes:
                return None
            distributed = state.distributed
            crossed = distributed[crossing[distributed]]
            # The shortcut's SUM values read no size.
            rows = moved if family or not state.exact else moved[:0]
            nodes = delta = None
            if crossed.size:
                if not scores.is_binary:
                    return None
                held = crossed.tobytes()
                if held not in shifts:
                    shifts[held] = shift(crossed)
                nodes, delta = shifts[held]
            if rows.size or nodes is not None:
                state = repair_backward_state(
                    np, state, scores.array(), distributed, sizes, rows, nodes, delta,
                    include_self=include_self, is_avg=family,
                )
            return (gamma, fraction, sizes), state

        return repair

    def score_write(self, old: Any, new: Any, node: int) -> None:
        """Carry the phase-1 memo's slots of ``old`` to ``new``, the vector a
        session's score write made of it by setting ``node``.

        A slot moves when ``new`` resolves its key to the same gamma and
        ``rest_bound`` and distributes the same nodes but for ``node``.  Then
        ``node``'s own bound is re-evaluated.  When the write moved the
        score ``node`` deposits — it entered or left the distributed set, or
        a distributed score changed — the partial sums of its ball's rows
        (on an undirected graph, the rows whose balls hold it) moved: on a
        0/1 vector, before and after, that is a ±1 shift of their counts
        (:func:`~repro.core.vectorized.repair_backward_state`), over the one
        ball read through the ball index.  Otherwise, or on a directed
        graph, the slot is dropped.
        """
        with self._lock:
            self.check_fresh()
            memo = self._phase1
            repair = None if self.graph.directed else self._score_repair(old, new, node)
            memo.carry(old, new, repair)

    def _score_repair(self, old: Any, new: Any, node: int) -> Callable:
        """The per-slot repair of :meth:`score_write` (lock held); the
        written node's ball is read once for the slots that shift it."""
        binary = old.is_binary and new.is_binary
        ball: list = []

        def repair(family, key, state):
            import numpy as np

            from repro.core.vectorized import (
                backward_distribution_split,
                repair_backward_state,
            )
            from repro.graph.csr import batched_hop_balls

            gamma, fraction, sizes = key
            scores_arr = new.array()
            distributed, effective_gamma, rest_bound = backward_distribution_split(
                np, new, scores_arr, gamma, fraction
            )
            old_distributed = state.distributed
            if (
                effective_gamma != state.gamma
                or rest_bound != state.rest_bound
                or not np.array_equal(
                    distributed[distributed != node],
                    old_distributed[old_distributed != node],
                )
            ):
                return None
            before = old[node] if (old_distributed == node).any() else 0.0
            after = new[node] if (distributed == node).any() else 0.0
            rows, nodes, delta = np.array([node]), None, None
            if before != after:
                if not binary:
                    return None
                if not ball:
                    csr, hops, include_self = self.csr(), self.hops, self.include_self
                    ball.append(self.ball_index().pairs(
                        rows,
                        lambda absent: batched_hop_balls(
                            csr, absent, hops, include_self=include_self
                        )[:2],
                    )[1])
                nodes = ball[0]
                delta = np.full(nodes.size, int(after - before))
            return repair_backward_state(
                np, state, scores_arr, distributed, sizes, rows, nodes, delta,
                include_self=self.include_self, is_avg=family,
            )

        return repair

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
        :meth:`invalidate`; an edge or score write repairs or drops each
        slot (:meth:`edge_write`, :meth:`score_write`)."""
        with self._lock:
            self.check_fresh()
            return self._phase1

    # ------------------------------------------------------------------
    # Sharded engines (the "parallel" and "cluster" backends)
    # ------------------------------------------------------------------
    def sharded_engine(self, concrete: str, config=None):
        """The session-scoped engine behind a sharded backend name:
        ``"parallel"`` -> :class:`~repro.parallel.engine.ParallelEngine`,
        ``"cluster"`` -> :class:`~repro.cluster.engine.ClusterEngine`.

        Created lazily on first use (creating one spawns or connects
        nothing — workers start on the first query it accepts); passing a
        config (:class:`~repro.config.ParallelConfig` /
        :class:`~repro.config.ClusterConfig`) reconfigures — the previous
        engine (pool, exports, peers) is closed and a new one built, so
        ``workers=...`` changes take effect deterministically.  With no
        config, repeated calls return the same engine; if the engine was
        released (:meth:`close`), it is rebuilt with the last *remembered*
        config, so an explicit ``net.parallel(...)`` / ``net.cluster(...)``
        configuration survives a close/reopen cycle.

        The previous engine is closed *outside* this context's lock: a
        sharded query holds the engine lock while reading ctx artifacts
        (engine lock -> ctx lock), so closing under the ctx lock would
        invert the order and deadlock.
        """
        if concrete == "parallel":
            from repro.config import ParallelConfig as config_class
            from repro.parallel.engine import ParallelEngine as engine_class
        else:
            from repro.cluster.engine import ClusterEngine as engine_class
            from repro.config import ClusterConfig as config_class

        while True:
            with self._lock:
                current = self._engines.get(concrete)
                previous = current if config is not None else None
                if previous is None:
                    if current is None or current.closed:
                        current = self._engines[concrete] = engine_class(
                            self,
                            config
                            or self._engine_configs.get(concrete)
                            or config_class(),
                        )
                        if config is not None:
                            self._engine_configs[concrete] = config
                    return current
                self._engines[concrete] = None
            previous.close()

    def engine_configured(self, concrete: str) -> bool:
        """Whether the session explicitly configured that sharded engine."""
        with self._lock:
            return concrete in self._engine_configs

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
        (None = unbuilt) and the phase-1 memo's entries, bytes, hits,
        misses, and the slots writes repaired or dropped."""
        with self._lock:
            index, memo = self._ball_index, self._phase1
            return {
                "ball_cache": None if index is None else index.stats(),
                "phase1": memo.stats(),
            }
