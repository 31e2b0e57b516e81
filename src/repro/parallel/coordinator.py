"""The sharded coordinator: one round protocol, written once, over two links.

A :class:`ShardedCoordinator` lives on a
:class:`~repro.core.context.GraphContext` and answers queries by fanning
partition-aware tasks (the :data:`repro.parallel.worker._HANDLERS` task
dicts) out to workers that each own one shard of the node universe, then
merging the per-shard candidates exactly
(:func:`~repro.parallel.merge.merge_shard_entries`).  Everything that is a
property of the *protocol* is decided here:

* **Lifecycle and version-stamped refresh** — the shard plan
  (:mod:`repro.parallel.shards`), the CSR view, its reversal and the
  per-shard owned arrays are exported for one ``graph.version``; a mutation
  moves the version and the next query retires exactly the graph-derived
  exports (static bounds included: they fold in the size index) while score
  exports, keyed by score identity, survive.
* **Identity-keyed score/bound LRUs with deferred drops** — an eviction
  that fires while a round's tasks are being built is only released after
  the round returns, because earlier tasks of the same round may already
  name the evicted export.
* **The decline rule** — graphs (or candidate sets) too small to amortize a
  round's fixed cost run in-process; so does the backward exact-shortcut
  regime, whose answers are order-sensitive partial sums.
* **The stale-retry round** — a worker that finds its export invalidated
  answers ``stale``; the round re-exports and runs once more.
* **The three routes** — the sharded scan (Base, bound-pruned Forward,
  distance-weighted Base), the Backward pipeline (distribution -> merged
  Eq. 3 bounds -> TA verification rounds against owning shards, frontier
  verification included) and the fused batch scan — including the
  θ/quota/resume candidate-collection loop.

What is a property of the *link* is a hook the two engines override
(:class:`~repro.parallel.engine.ParallelEngine`: pipes + shared memory;
:class:`~repro.cluster.engine.ClusterEngine`: sockets + named stores):
how an array or CSR reaches a worker (``_export_array`` / ``_export_csr`` /
``_drop``), how a round is dispatched (``_dispatch``, which returns one
``(header, arrays)`` reply per task with candidate lists under
``arrays["entries"]``), and how traffic is accounted (``_traffic_snapshot``
/ ``_stamp_traffic``).  Two facts a link declares rather than a user
chooses: ``steals_chunks`` (shard scans are split into owned-array slices
fed to idle workers) and ``ship_policy`` (workers prune candidates below
the coordinator's θ and park what exceeds their quota, to be resumed only
while it can still matter).

Every ``execute*`` method returns ``None`` when the coordinator declines
and the caller falls back to the in-process numpy backend.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.aggregates.functions import AggregateKind
from repro.core.deadline import check_deadline
from repro.core.results import QueryStats, TopKResult
from repro.core.topk import TopKAccumulator
from repro.errors import InvalidParameterError, ReproError, StaleShardError
from repro.parallel.merge import merge_counters, merge_shard_entries
from repro.parallel.shards import ShardPlan, build_shard_plan
from repro.relevance.base import folded_scores

__all__ = ["ShardedCoordinator"]

#: Resident score-vector exports kept per coordinator (LRU beyond this).
_SCORE_EXPORT_LIMIT = 16

#: Resident static-bound exports kept per coordinator (LRU beyond this).
_BOUND_EXPORT_LIMIT = 8

#: Candidates verified per TA round of the sharded backward pipeline.
_VERIFY_ROUND = 256

#: Max work-stealing chunks per shard scan.  A few pieces per shard is
#: enough for idle workers to absorb a skewed partition's tail; many more
#: would multiply per-task fixed cost for no extra overlap.
_STEAL_CHUNKS = 4

_NEG_INF = float("-inf")

#: Ship spec of rounds whose replies are not candidate lists to prune.
_SHIP_ALL = {"mode": "all"}


def _spec(shard: int, task: dict, ship: dict = _SHIP_ALL, fallback=None) -> dict:
    """One task of a round: owning shard, worker payload, ship spec, and
    (for a ``resume``) the full task to re-run if the remainder is lost."""
    return {"shard": shard, "task": task, "ship": ship, "fallback": fallback}


def _chunked(task: dict, owned_size: int, block: int) -> List[dict]:
    """Split one shard scan into owned-array slices for work-stealing.

    Chunks are ``lo``/``hi`` ranges of the already-exported owned array
    (nothing extra crosses the link).  A shard only splits when each piece
    still covers at least one kernel block — chunking a small shard would
    just multiply fixed task cost.
    """
    size = int(owned_size)
    pieces = min(_STEAL_CHUNKS, max(1, size // max(int(block), 1)))
    if pieces <= 1:
        return [task]
    bounds = [size * p // pieces for p in range(pieces + 1)]
    return [
        {**task, "lo": bounds[p], "hi": bounds[p + 1]}
        for p in range(pieces)
        if bounds[p + 1] > bounds[p]
    ]


def _theta_seed(np, folded, centers, kind: AggregateKind, spec) -> float:
    """A sound initial k-th bound from self scores, when one exists.

    With ``include_self`` every h-hop ball contains its center, so
    ``F(v) >= f(v)`` whenever self contribution cannot be diluted: SUM over
    nonnegative scores, COUNT (the folded indicator is nonnegative by
    construction), and MAX unconditionally.  The k-th largest self score
    *among the competitors* (``centers`` under ``.where(...)``, else every
    node) then lower-bounds the final k-th aggregate and workers may prune
    below it from round one.
    """
    if not spec.include_self:
        return _NEG_INF
    if kind is AggregateKind.SUM:
        if float(folded.min()) < 0.0:
            return _NEG_INF
    elif kind not in (AggregateKind.COUNT, AggregateKind.MAX):
        return _NEG_INF
    pool = folded if centers is None else folded[centers]
    k, n = int(spec.k), int(pool.size)
    if k < 1 or n < k:
        return _NEG_INF
    return float(np.partition(pool, n - k)[n - k])


class _Traffic:
    """One query's round log: the link's counters when it began, and what
    the rounds since carried (filled in by ``_run_round``)."""

    __slots__ = ("before", "rounds", "tasks", "shipped", "total")

    def __init__(self, before) -> None:
        self.before = before
        self.rounds = 0
        self.tasks = 0
        self.shipped = 0
        self.total = 0


class ShardedCoordinator:
    """The round protocol over one graph context (see module doc)."""

    #: ``stats.backend`` of every answer (set by the link).
    backend = ""
    #: Raised when a closed coordinator is asked to run (set by the link).
    closed_error = ReproError
    #: Whether shard scans are split into chunks idle workers can steal.
    steals_chunks = False
    #: ``"threshold"`` / ``"all"`` on a link whose workers apply a ship
    #: policy to candidate replies; ``None`` where replies are not shipped.
    ship_policy: Optional[str] = None

    def __init__(
        self,
        ctx,
        resources: dict,
        release: Callable[[dict], None],
        *,
        workers: int,
        shards: int,
        min_nodes: int,
    ) -> None:
        self.ctx = ctx
        self.workers = int(workers)
        self.shards = int(shards)
        self.min_nodes = int(min_nodes)
        self._lock = threading.RLock()
        self._closed = False
        # All out-of-process state lives in one dict so a weakref finalizer
        # can release it even if the session forgets close().
        self._resources = resources
        self._finalizer = weakref.finalize(self, release, resources)
        self._plan: Optional[ShardPlan] = None
        self._export_version: Optional[int] = None
        self._csr = None
        self._rev = None
        self._owned: list = []
        # key -> (pinned scores object, export): the strong reference keeps
        # the id() in the key unique for as long as the export lives.
        self._score_exports: "OrderedDict[int, Tuple[object, object]]" = OrderedDict()
        self._bound_exports: "OrderedDict[Tuple, Tuple[object, object]]" = OrderedDict()
        self._deferred_drops: list = []
        # worker slot -> the ``CSRBallIndex.stats()`` of that worker's
        # latest reply that carried them (scan, batch and verify tasks).
        self._worker_indexes: Dict[int, dict] = {}
        self.queries_served = 0
        self.declined = 0
        self.stale_retries = 0

    # ------------------------------------------------------------------
    # Link hooks
    # ------------------------------------------------------------------
    def _export_csr(self, csr, version: int, label: str):
        """Make a CSR view reachable by workers; returns an export whose
        ``meta()`` is the descriptor tasks embed."""
        raise NotImplementedError

    def _export_array(self, array, label: str):
        """Same as :meth:`_export_csr` for one flat array."""
        raise NotImplementedError

    def _drop(self, exports: list) -> None:
        """Release exports no task will name again."""
        raise NotImplementedError

    def _dispatch(self, specs: List[dict], *, rows: Optional[int], steal: bool):
        """Run one round of :func:`_spec` tasks; one ``(header, arrays)``
        reply per task, in order.  ``rows`` bounds the candidate pairs a
        reply can carry (``None``: the replies are not candidate lists)."""
        raise NotImplementedError

    def _traffic_snapshot(self):
        """The link's byte counters now (kept in :class:`_Traffic`)."""
        raise NotImplementedError

    def _stamp_traffic(self, stats: QueryStats, traffic: _Traffic) -> None:
        """Record the query's measured traffic in ``stats.extra``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle / exports
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the workers and everything exported to them."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._plan = self._csr = self._rev = None
            self._owned = []
            self._score_exports.clear()
            self._bound_exports.clear()
            self._deferred_drops = []
            self._finalizer()

    def _retire_graph_exports(self) -> None:
        """Drop what was derived from the graph; score exports survive."""
        stale = [e for e in (self._csr, self._rev, *self._owned) if e is not None]
        stale.extend(export for _vec, export in self._bound_exports.values())
        self._csr = self._rev = None
        self._owned = []
        self._bound_exports.clear()
        self._plan = None
        self._export_version = None
        self._drop(stale)

    def _refresh(self) -> None:
        """(Re)build the shard plan and exports for the current graph version."""
        if self._closed:
            raise self.closed_error(f"{self.backend} engine has been closed")
        version = int(getattr(self.ctx.graph, "version", 0) or 0)
        if self._plan is not None and self._export_version == version:
            return
        self._retire_graph_exports()
        self._csr = self._export_csr(self.ctx.csr(), version, "csr")
        rev = self.ctx.rev_csr()
        if rev is not None:
            self._rev = self._export_csr(rev, version, "rev")
        self._plan = build_shard_plan(self.ctx.graph, self.shards)
        self._owned = [
            self._export_array(owned, f"owned{shard}")
            for shard, owned in enumerate(self._plan.owned)
        ]
        self._export_version = version

    def _lru_meta(self, cache, key, scores, limit: int, label: str, build) -> dict:
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            return hit[1].meta()
        export = self._export_array(build(), label)
        cache[key] = (scores, export)
        while len(cache) > limit:
            _, (_vec, dropped) = cache.popitem(last=False)
            # Earlier tasks of the round being built may already name the
            # evicted export; _run_round releases it once the round is back.
            self._deferred_drops.append(dropped)
        return export.meta()

    def _score_meta(self, scores) -> dict:
        """Export (or reuse) a score vector's values; key is object identity.

        The session replaces a :class:`~repro.relevance.base.ScoreVector`
        wholesale on any score mutation, so identity equality is exactly
        value equality here.  Raw values are exported — per-aggregate
        folding (COUNT's 0/1 indicator) happens worker-side.
        """
        import numpy as np

        return self._lru_meta(
            self._score_exports,
            id(scores),
            scores,
            _SCORE_EXPORT_LIMIT,
            "scores",
            lambda: folded_scores(np, scores)[0],
        )

    def _bounds_meta(self, scores, kind: AggregateKind, include_self: bool) -> dict:
        """Export per-node static upper bounds for the pruned forward scan.

        The formulas live in one place —
        :func:`repro.core.vectorized.static_upper_bounds_array` — shared
        with every in-process consumer so a sharded scan can never prune on
        a drifted bound.
        """
        import numpy as np

        from repro.core.vectorized import static_upper_bounds_array

        return self._lru_meta(
            self._bound_exports,
            (id(scores), kind.value, include_self),
            scores,
            _BOUND_EXPORT_LIMIT,
            "bounds",
            lambda: static_upper_bounds_array(
                np, scores, self.ctx.size_index(), kind, include_self
            ),
        )

    def _block_size(self, queries: int = 1) -> int:
        from repro.core.vectorized import resolve_block_size

        csr = self.ctx.csr()
        block = resolve_block_size(None, self.ctx.graph.num_nodes, int(csr.num_arcs))
        if queries > 1:
            block = max(4, block // queries)
        return int(block)

    def _index_bytes(self) -> Optional[int]:
        """Each worker's ball-index cap: together the workers may hold what
        the session's own index may (``GraphContext.ball_index``)."""
        budget = self.ctx.ball_cache_bytes
        return None if budget is None else budget // 2 // self.workers

    # ------------------------------------------------------------------
    # Round plumbing
    # ------------------------------------------------------------------
    def _declines(self, *, force: bool = False, work_items: Optional[int] = None) -> bool:
        """Whether this query should run in-process instead.

        ``work_items`` is the number of centers actually evaluated (the
        candidate-set size for filtered scans); it defaults to the whole
        graph.  The fixed round cost amortizes over evaluated centers, not
        graph size, so a three-candidate ``.where()`` on a million-node
        graph must decline.  The check never starts a worker; a decline is
        counted in ``self.declined``.
        """
        if force:
            return False
        size = self.ctx.graph.num_nodes if work_items is None else work_items
        if self.workers >= 2 and size >= self.min_nodes:
            return False
        self.declined += 1
        return True

    def _run_round(
        self,
        build_specs: Callable[[], List[dict]],
        traffic: _Traffic,
        *,
        rows: Optional[int] = None,
        steal: bool = False,
    ) -> List[Tuple[dict, dict]]:
        """Build tasks against fresh exports and run them, retrying once if
        a worker reports the exports went stale under us (a graph mutation
        racing the round)."""
        for attempt in (0, 1):
            check_deadline()  # before committing a full round of worker IPC
            self._refresh()
            specs = build_specs()
            try:
                replies = self._dispatch(specs, rows=rows, steal=steal)
            except StaleShardError:
                self.stale_retries += 1
                self._retire_graph_exports()
                if attempt:
                    raise
                continue
            finally:
                # No task of this round is in flight anymore.
                deferred, self._deferred_drops = self._deferred_drops, []
                self._drop(deferred)
            traffic.rounds += 1
            traffic.tasks += len(replies)
            for header, _arrays in replies:
                traffic.shipped += int(header.get("candidates_shipped", 0))
                traffic.total += int(header.get("candidates_total", 0))
            # Replies come in task order, not in the order a worker ran its
            # tasks; within a round a worker's index only grows, so its
            # latest snapshot is the one with the most lookups.
            snapshots = [(h["worker"], h["ball_index"]) for h, _ in replies if "ball_index" in h]
            for worker, stats in sorted(snapshots, key=lambda p: p[1]["hits"] + p[1]["misses"]):
                self._worker_indexes[worker] = stats
            return replies
        raise AssertionError("unreachable")  # pragma: no cover

    def _open_query(self) -> _Traffic:
        """Fresh exports and a traffic log for one accepted query."""
        self._refresh()
        return _Traffic(self._traffic_snapshot())

    def _new_stats(
        self, algorithm: str, aggregate: str, hops: int, k: int, elapsed: float
    ) -> QueryStats:
        stats = QueryStats(
            algorithm=algorithm,
            aggregate=aggregate,
            backend=self.backend,
            hops=hops,
            k=k,
            elapsed_sec=elapsed,
        )
        assert self._plan is not None
        stats.extra["shards"] = float(self._plan.num_shards)
        stats.extra["workers"] = float(self.workers)
        return stats

    def _ship_seed(
        self, np, scores, kind: AggregateKind, seed_spec=None, centers=None
    ) -> Tuple[float, Optional[List[float]]]:
        """``(θ₀, per-shard score-mass shares)`` for round one.

        Only a link that applies the threshold ship policy gets a seed and
        ADiT-style adaptive quotas (each shard's first-round quota follows
        its share of the clipped score mass instead of a uniform ``k``);
        otherwise ``(-inf, None)``.  ``seed_spec`` is omitted where no sound
        self-score seed exists (arbitrary decay profiles): θ still tightens
        to the merged k-th value on resume rounds.
        """
        if self.ship_policy != "threshold":
            return _NEG_INF, None
        assert self._plan is not None
        folded, _ = folded_scores(np, scores, kind)
        mass = [
            float(np.clip(folded[owned], 0.0, None).sum())
            for owned in self._plan.owned
        ]
        total = sum(mass)
        shares = [m / total for m in mass] if total > 0.0 else [1.0] * len(mass)
        if seed_spec is None:
            return _NEG_INF, shares
        return _theta_seed(np, folded, centers, kind, seed_spec), shares

    def _collect_topk(
        self,
        k: int,
        make_task: Callable[[int], dict],
        theta: float,
        shares: Optional[List[float]],
        traffic: _Traffic,
        *,
        steal: bool = False,
    ) -> Tuple[List[Tuple[int, float]], List[dict]]:
        """Round-1 fan-out plus the resume loop; returns (entries, headers).

        ``make_task(shard)`` builds the shard's full worker task against the
        current exports (it is re-invoked on a stale retry and as the
        ``fallback`` of a resume).  Every task carries the current k-th
        bound θ — workers of a shipping link drop candidates strictly below
        it (``>= θ`` ships so rank-k ties keep node-id resolution) and park
        what exceeds their quota with its best value as ``rest_bound``.  A
        parked remainder is resumed only while it could still beat the
        merged k-th value, so quotas never cost exactness.  Candidates are
        kept as per-task ``node -> value`` dicts so a re-issued or resumed
        task's overlap de-duplicates, then merged like every sharded route.
        """
        mode = self.ship_policy

        def build_first() -> List[dict]:
            assert self._plan is not None
            specs = []
            for shard in range(self._plan.num_shards):
                task = make_task(shard)
                quota = (
                    None
                    if shares is None
                    else max(1, min(k, int(math.ceil(shares[shard] * k))))
                )
                ship = {"theta": float(theta), "quota": quota, "mode": mode}
                pieces = (
                    _chunked(task, self._plan.owned[shard].size, task["block"])
                    if steal
                    else [task]
                )
                specs.extend(_spec(shard, piece, ship) for piece in pieces)
            if steal:
                # Heavy chunks first: the dynamic dispatcher then hands a
                # skewed shard's tail to whichever worker idles first.
                specs.sort(
                    key=lambda s: s["task"].get("hi", 0) - s["task"].get("lo", 0),
                    reverse=True,
                )
            return specs

        def build_resume() -> List[dict]:
            ship = {"theta": float(theta), "quota": None, "mode": mode}
            return [
                _spec(
                    spec["shard"],
                    {"kind": "resume", "resume": parked[slot][0]},
                    ship,
                    fallback=spec["task"],
                )
                for slot, spec in enumerate(build_first())
                if slot in pending
            ]

        replies = self._run_round(build_first, traffic, rows=k, steal=steal)
        pending: Sequence[int] = range(len(replies))
        candidates: List[Dict[int, float]] = [dict() for _ in replies]
        # slot -> (resume key, rest bound) while a remainder is parked.
        parked: List[Optional[Tuple[str, float]]] = [None] * len(replies)
        headers: List[dict] = []
        while True:
            for slot, (header, arrays) in zip(pending, replies):
                candidates[slot].update(arrays["entries"])
                headers.append(header)
                key = header.get("resume")
                parked[slot] = (
                    (key, float(header.get("rest_bound", _NEG_INF))) if key else None
                )
            entries = merge_shard_entries((c.items() for c in candidates), k)
            full = len(entries) >= k
            tau = entries[-1][1] if full else _NEG_INF
            pending = [
                slot
                for slot, park in enumerate(parked)
                if park is not None and (not full or park[1] >= tau)
            ]
            if not pending:
                return entries, headers
            theta = max(theta, tau)
            replies = self._run_round(build_resume, traffic, rows=k)

    def _finish_scan(
        self, algorithm: str, spec, start: float, entries, headers, traffic
    ) -> TopKResult:
        stats = self._new_stats(
            algorithm,
            spec.aggregate.value,
            spec.hops,
            spec.k,
            time.perf_counter() - start,
        )
        merge_counters(stats, (h["counters"] for h in headers))
        stats.pruned_nodes = sum(h.get("pruned", 0) for h in headers)
        self._stamp_traffic(stats, traffic)
        self.queries_served += 1
        return TopKResult(entries=entries, stats=stats)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def execute_scan(
        self,
        scores,
        spec,
        algorithm: str,
        *,
        candidates: Optional[Sequence[int]] = None,
        weights: Optional[Sequence[float]] = None,
        force: bool = False,
    ) -> Optional[TopKResult]:
        """Sharded Base (``algorithm="base"``) or bound-pruned Forward scan.

        ``candidates`` restricts the competitors (the ``.where(...)``
        filtered scan): each shard evaluates the intersection of the
        candidate set with its owned nodes.  ``weights`` (one per hop
        distance, SUM specs, ``"base"``) makes it footnote 1's
        distance-weighted scan, reported as ``"weighted-base"``.
        """
        import numpy as np

        if algorithm == "forward" and not spec.aggregate.lona_supported:
            # Mirror the in-process front door: forward + MAX/MIN must
            # raise the same InvalidParameterError on every backend, so
            # decline and let forward_topk deliver the canonical error
            # (the static bounds below are SUM-shaped and would otherwise
            # silently "succeed" here).
            return None
        with self._lock:
            if self._declines(
                force=force,
                work_items=None if candidates is None else len(candidates),
            ):
                return None
            start = time.perf_counter()
            traffic = self._open_query()
            block = self._block_size()
            centers = (
                None
                if candidates is None
                else np.asarray(sorted(candidates), dtype=np.int64)
            )
            # No sound self-score seed exists under arbitrary weights.
            theta, shares = self._ship_seed(
                np, scores, spec.aggregate, spec if weights is None else None,
                centers,
            )
            if weights is not None:
                algorithm = "weighted-base"
                weights = [float(w) for w in weights]

            def make_task(shard: int) -> dict:
                assert self._plan is not None
                mine = None
                if centers is not None:
                    parts = self._plan.partition.as_array()
                    mine = centers[parts[centers] == shard]
                return {
                    "kind": "scan",
                    "csr": self._csr.meta(),
                    "scores": self._score_meta(scores),
                    "owned": self._owned[shard].meta(),
                    "centers": mine,
                    "aggregate": spec.aggregate.value,
                    "weights": weights,
                    "hops": int(spec.hops),
                    "include_self": bool(spec.include_self),
                    "k": int(spec.k),
                    "block": block,
                    "index_bytes": self._index_bytes(),
                    "bounds": (
                        self._bounds_meta(scores, spec.aggregate, spec.include_self)
                        if algorithm == "forward"
                        else None
                    ),
                }

            entries, headers = self._collect_topk(
                int(spec.k),
                make_task,
                theta,
                shares,
                traffic,
                steal=self.steals_chunks and centers is None,
            )
            result = self._finish_scan(
                algorithm, spec, start, entries, headers, traffic
            )
            if centers is not None:
                result.stats.extra["candidates"] = float(centers.size)
            return result

    def execute_backward(
        self,
        scores,
        spec,
        *,
        gamma="auto",
        distribution_fraction: float = 0.1,
        exact_sizes: bool = False,
        force: bool = False,
    ) -> Optional[TopKResult]:
        """Sharded LONA-Backward: distribution by owning shards, merged
        Eq. 3 bounds, TA-style verification rounds against owning shards."""
        import numpy as np

        from repro.core.vectorized import (
            backward_distribution_split,
            backward_eq3_bounds,
            descending_prefixes,
            in_blocks,
        )

        kind = spec.aggregate
        if not kind.lona_supported:
            raise InvalidParameterError(
                f"LONA-Backward supports SUM/AVG/COUNT, not {kind.value}; "
                "use algorithm='base' for MAX/MIN"
            )
        with self._lock:
            if self._declines(force=force):
                return None
            start = time.perf_counter()
            n = self.ctx.graph.num_nodes
            scores_arr, _ = folded_scores(np, scores, kind)
            is_avg = kind is AggregateKind.AVG
            include_self = bool(spec.include_self)
            sizes = self.ctx.size_index(exact=exact_sizes)

            # Same distribution policy as the in-process kernel (shared
            # helper): workers then select their owned subset of the same
            # f(u) >= gamma set.
            _distributed, effective_gamma, rest_bound = backward_distribution_split(
                np, scores, scores_arr, gamma, distribution_fraction
            )
            if rest_bound == 0.0 and (not is_avg or sizes.is_exact):
                # Full distribution -> the exact-shortcut regime, where the
                # in-process kernel's *answers* are the partial sums built
                # in one sequential descending-score deposit order.
                # Summing per-shard partials reassociates those float
                # additions, so the sharded values could differ in the
                # last ulp and flip rank-k ties — and the regime is
                # distribution-only (no verification BFS at all), the one
                # backward shape with nothing left to parallelize.  Run it
                # in-process for bit-identical entries.
                self.declined += 1
                return None
            traffic = self._open_query()
            block = self._block_size()

            # --- Phase 1: owned high scores pushed outward, per shard ---
            def build_distribute() -> List[dict]:
                assert self._plan is not None
                dist = self._rev if self._rev is not None else self._csr
                task = {
                    "kind": "distribute",
                    "csr": dist.meta(),
                    "scores": self._score_meta(scores),
                    "aggregate": kind.value,
                    "gamma": float(effective_gamma),
                    "hops": int(spec.hops),
                    "include_self": include_self,
                    "block": block,
                    "index_bytes": self._index_bytes(),
                }
                return [
                    _spec(shard, dict(task, owned=self._owned[shard].meta()))
                    for shard in range(self._plan.num_shards)
                ]

            replies = self._run_round(build_distribute, traffic)
            partial = np.zeros(n, dtype=np.float64)
            covered = np.zeros(n, dtype=np.int64)
            pushes = 0
            distributed_count = 0
            # Shard-order summation on every link, so the reassociated float
            # partials (bounds only — values are verified exactly) agree.
            for header, arrays in replies:
                # Touched indices are unique per shard (np.nonzero output),
                # so plain fancy-index addition is safe and cheaper.
                touched = arrays["touched"]
                partial[touched] += arrays["partial"]
                covered[touched] += arrays["covered"]
                pushes += int(header["pushes"])
                distributed_count += int(header["distributed"])

            stats = self._new_stats("backward", kind.value, spec.hops, spec.k, 0.0)
            merge_counters(stats, (header["counters"] for header, _ in replies))
            stats.distribution_pushes = pushes

            # --- Phase 2: Eq. 3 bounds over the merged state (the shared
            # helper — literally the numpy backend's math) ------------------
            self_distributed = np.zeros(n, dtype=bool)
            if include_self:
                self_distributed = (scores_arr > 0.0) & (
                    scores_arr >= effective_gamma
                )
            bounds = backward_eq3_bounds(
                np,
                scores_arr,
                partial,
                covered,
                self_distributed,
                sizes,
                rest_bound,
                include_self=include_self,
                is_avg=is_avg,
            )
            stats.bound_evaluations = n

            # --- Phase 3: TA rounds against owning shards -----------------
            # (The exact-shortcut regime declined above, so every offered
            # value comes from exact verification — which accumulates ball
            # members in the same ascending order as the in-process
            # kernels, keeping values bit-identical.)  A round is the next
            # _VERIFY_ROUND candidates of the descending bound order, which
            # is sorted only as far as the rounds reach.
            acc = TopKAccumulator(spec.k)
            offered = 0
            verify_rounds = 0
            order = descending_prefixes(np, bounds, max(2 * spec.k, 64))
            for candidates in in_blocks(np, order, _VERIFY_ROUND):
                # Frontier: the round's candidates still above the current
                # threshold, verified by their owning shards.
                frontier = candidates
                if acc.is_full:
                    frontier = frontier[bounds[frontier] > acc.threshold]
                if frontier.size == 0:
                    stats.early_terminated = True
                    break
                theta = acc.threshold if acc.is_full else _NEG_INF
                exact = self._verify_frontier(
                    scores, spec, frontier, block, stats, theta, traffic
                )
                verify_rounds += 1
                stats.candidates_verified += int(frontier.size)
                for node, bound in zip(candidates.tolist(), bounds[candidates].tolist()):
                    if acc.is_full and bound <= acc.threshold:
                        stats.early_terminated = True
                        break
                    # A θ-pruned candidate is absent from ``exact``: its
                    # value was below the threshold at round start, so the
                    # skipped offer could never have been accepted.
                    if node in exact:
                        acc.offer(node, exact[node])
                        offered += 1
                if stats.early_terminated:
                    break
            stats.pruned_nodes = n - offered
            stats.extra["gamma"] = float(effective_gamma)
            stats.extra["distributed_nodes"] = float(distributed_count)
            stats.extra["rest_bound"] = float(rest_bound)
            stats.extra["exact_shortcut"] = 0.0  # shortcut shapes declined
            stats.extra["verify_rounds"] = float(verify_rounds)
            self._stamp_traffic(stats, traffic)
            stats.elapsed_sec = time.perf_counter() - start
            self.queries_served += 1
            return TopKResult(entries=acc.entries(), stats=stats)

    def _verify_frontier(
        self,
        scores,
        spec,
        frontier,
        block: int,
        stats: QueryStats,
        theta: float,
        traffic: _Traffic,
    ) -> Dict[int, float]:
        """Exact values of ``frontier`` candidates, from their owning shards.

        θ is the accumulator's current k-th value: a shipping link's
        workers return only pairs with value >= θ.
        """
        ship = {"theta": float(theta), "mode": self.ship_policy}

        def build() -> List[dict]:
            assert self._plan is not None
            parts = self._plan.partition.as_array()
            task = {
                "kind": "verify",
                "csr": self._csr.meta(),
                "scores": self._score_meta(scores),
                "aggregate": spec.aggregate.value,
                "hops": int(spec.hops),
                "include_self": bool(spec.include_self),
                "block": block,
                "index_bytes": self._index_bytes(),
            }
            specs = []
            for shard in range(self._plan.num_shards):
                mine = frontier[parts[frontier] == shard]
                if mine.size:
                    specs.append(_spec(shard, dict(task, centers=mine), ship))
            return specs

        exact: Dict[int, float] = {}
        replies = self._run_round(build, traffic, rows=int(frontier.size))
        for header, arrays in replies:
            check_deadline()  # merge boundary: one poll per shard reply
            merge_counters(stats, [header["counters"]])
            exact.update(arrays["entries"])
        return exact

    def run_batch(
        self, batch: Sequence, *, hops: int, include_self: bool, force: bool = False
    ) -> Optional[List[TopKResult]]:
        """Fused multi-query shared scan, one sub-scan per shard.

        ``batch`` is a sequence of :class:`~repro.core.batch.BatchQuery`
        (sum-convertible aggregates).  Each shard expands its owned node
        blocks once and scores every query against them; per-query shard
        top-k lists are merged like any other sharded scan.  Replies carry
        each query's full shard top-k (no θ: the merged threshold of one
        query says nothing about another's).
        """
        with self._lock:
            if not batch or self._declines(force=force):
                return None
            start = time.perf_counter()
            traffic = self._open_query()
            block = self._block_size(queries=len(batch))

            def build() -> List[dict]:
                assert self._plan is not None
                task = {
                    "kind": "batch",
                    "csr": self._csr.meta(),
                    "scores_list": [
                        [self._score_meta(entry.scores), entry.aggregate.value]
                        for entry in batch
                    ],
                    "ks": [int(entry.k) for entry in batch],
                    "hops": int(hops),
                    "include_self": bool(include_self),
                    "block": block,
                    "index_bytes": self._index_bytes(),
                }
                return [
                    _spec(shard, dict(task, owned=self._owned[shard].meta()))
                    for shard in range(self._plan.num_shards)
                ]

            replies = self._run_round(build, traffic)
            elapsed = time.perf_counter() - start
            outputs: List[TopKResult] = []
            for i, entry in enumerate(batch):
                check_deadline()  # merge boundary: one poll per batch entry
                entries = merge_shard_entries(
                    (arrays["entries_list"][i] for _header, arrays in replies),
                    entry.k,
                )
                stats = self._new_stats(
                    "batch-base", entry.aggregate.value, hops, entry.k, elapsed
                )
                merge_counters(stats, (header["counters"] for header, _ in replies))
                # Whole-batch traversal is attributed to every member, with
                # the batch size recorded so reports divide fairly — the
                # same convention as the in-process shared scan.
                stats.nodes_evaluated = self.ctx.graph.num_nodes
                stats.extra["batch_size"] = float(len(batch))
                self._stamp_traffic(stats, traffic)
                outputs.append(TopKResult(entries=entries, stats=stats))
            self.queries_served += 1
            return outputs

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Monitoring snapshot; the links add their worker and traffic gauges."""
        return {
            "workers": self.workers,
            "min_nodes": self.min_nodes,
            "closed": self._closed,
            "queries_served": self.queries_served,
            "declined": self.declined,
            "stale_retries": self.stale_retries,
            "score_exports": len(self._score_exports),
            "export_version": self._export_version,
            "ball_index": dict(self._worker_indexes),
        }
