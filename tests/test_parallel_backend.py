"""Process-parallel backend: the pipe link's lifecycle and resilience.

Route parity against numpy — every route the sharded coordinator covers,
on both links — lives in ``tests/test_sharded_routes.py``.  This module
pins what only the pipe link has: shared-memory export/attach round-trips,
version-stamp invalidation after dynamic mutations, deferred unlink of
LRU-evicted exports, unlink on ``Network.close``, worker-crash recovery,
work-stealing chunk arithmetic, and the shared-memory reply buffers (with
their pipe fallback after a respawn).

The graphs here are far below the engine's production ``min_nodes`` floor,
so every fixture forces the process path with ``min_nodes=0``.
"""

from __future__ import annotations

import json
import os
import random
import zlib

import pytest

from repro.core.backends import BACKENDS
from repro.core.request import QueryRequest
from repro.errors import InvalidParameterError, ParallelError
from repro.faults import ENV_VAR
from repro.graph.csr import (
    AttachedArray,
    AttachedCSR,
    SharedArray,
    SharedCSR,
    to_csr,
)
from repro.graph.graph import Graph
from repro.parallel.coordinator import _chunked
from repro.parallel.merge import merge_shard_entries
from repro.parallel.pool import ShardWorkerPool
from repro.parallel.shards import build_shard_plan
from repro.session import Network
from tests.conftest import random_graph, random_scores

np = pytest.importorskip("numpy")

#: Worker-process count for the test pools; the CI sharded-smoke job
#: raises it to 4 on multi-core runners.
WORKERS = int(os.environ.get("REPRO_PARALLEL_TEST_WORKERS", "2"))


def _entries(result):
    return [(node, round(value, 9)) for node, value in result.entries]


def _dense_scores(n, seed):
    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]


@pytest.fixture(scope="module")
def parallel_net():
    g = random_graph(400, 0.015, seed=42)
    net = Network(g, hops=2)
    net.add_scores("dense", _dense_scores(400, 1))
    net.parallel(workers=WORKERS, min_nodes=0)
    yield net
    net.close()


class TestBackendRegistration:
    def test_parallel_is_a_backend(self):
        assert "parallel" in BACKENDS

    def test_request_accepts_parallel(self):
        request = QueryRequest(k=3, backend="parallel")
        assert request.spec().backend == "parallel"


class TestRouteEdges:
    def test_weighted_with_tuned_gamma_stays_in_process(self, parallel_net):
        # The sharded weighted route is an exact scan; a tuned distribution
        # knob must reach the kernel that honors it.
        from repro.core import executor

        request = QueryRequest(
            k=6, backend="parallel", algorithm="backward", gamma=0.5,
            weights=(1.0, 1.0, 0.5),  # inverse distance at hops=2
        )
        result = executor.execute(
            parallel_net._ctx, parallel_net.scores_of("dense"), request
        )
        assert result.stats.backend == "numpy"

    def test_batch_wider_than_score_export_lru(self, parallel_net):
        # Regression, two layers: (1) a fused batch with more distinct
        # score vectors than the engine's score-export LRU evicted — and
        # unlinked — segments that earlier tasks of the *same* round still
        # referenced (round crashed with ParallelError); (2) wider than the
        # *worker's* attachment cache, eviction unmapped buffers under the
        # running kernel's live numpy views (worker segfault).  Engine
        # evictions defer their unlink until the round returns; worker
        # evictions defer their unmap until between tasks.
        from repro.core.batch import BatchQuery
        from repro.parallel.coordinator import _SCORE_EXPORT_LIMIT
        from repro.parallel.worker import _ATTACH_CACHE_LIMIT
        from repro.relevance.base import ScoreVector

        width = max(_SCORE_EXPORT_LIMIT, _ATTACH_CACHE_LIMIT) + 4
        vectors = [
            ScoreVector(_dense_scores(400, 100 + i)) for i in range(width)
        ]
        queries = [BatchQuery(scores=v, k=3) for v in vectors]
        par = parallel_net._run_batch(queries, backend="parallel")
        ref = parallel_net._run_batch(queries, backend="numpy")
        assert len(par) == width
        for p, r in zip(par, ref):
            assert _entries(p) == _entries(r)


class TestSharedMemoryLifecycle:
    def test_shared_array_roundtrip(self):
        source = np.asarray([3, 1, 4, 1, 5], dtype=np.int64)
        export = SharedArray.create(source)
        try:
            view = AttachedArray.attach(export.meta())
            assert view.array.tolist() == source.tolist()
            view.close()
        finally:
            export.unlink()
            export.close()

    def test_shared_array_empty(self):
        export = SharedArray.create(np.empty(0, dtype=np.float64))
        try:
            view = AttachedArray.attach(export.meta())
            assert view.array.size == 0
            view.close()
        finally:
            export.unlink()
            export.close()

    def test_shared_csr_roundtrip_and_stamp(self):
        g = random_graph(60, 0.05, seed=3)
        csr = to_csr(g, use_numpy=True)
        export = SharedCSR.export(csr, version=7)
        try:
            attached = AttachedCSR.attach(export.meta())
            assert attached.version == 7
            assert attached.fresh()
            assert attached.csr.num_nodes == csr.num_nodes
            assert attached.csr.indices.tolist() == csr.indices.tolist()
            export.mark_stale()
            assert not attached.fresh()
            attached.close()
        finally:
            export.unlink()
            export.close()

    def test_close_unlinks_segments(self):
        g = random_graph(150, 0.03, seed=8)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(150, 4))
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        net.query("s").limit(3).backend("parallel").run()
        meta = engine._csr.meta()
        net.close()
        assert engine.closed
        with pytest.raises(FileNotFoundError):
            AttachedCSR.attach(meta)

    def test_version_stamp_invalidation_after_add_edge(self):
        from repro.dynamic.graph import DynamicGraph

        g = DynamicGraph.from_graph(random_graph(200, 0.02, seed=12))
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(200, 5))
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        try:
            first = net.query("s").limit(5).backend("parallel").run()
            # Attach to the live export the way a worker does; the mapping
            # stays valid across the owner's unlink.
            attached = AttachedCSR.attach(engine._csr.meta())
            assert attached.fresh()
            old_version = engine.stats()["export_version"]
            net.add_edge(0, 199)
            par = net.query("s").limit(5).backend("parallel").run()
            # The engine noticed the version move on the next query and
            # stamped the old export stale (before unlinking), so a worker
            # still attached to it refuses to serve from it.
            assert not attached.fresh()
            attached.close()
            ref = net.query("s").limit(5).backend("numpy").run()
            assert _entries(par) == _entries(ref)
            assert engine.stats()["export_version"] != old_version
            assert first.entries  # sanity: pre-mutation answer existed
        finally:
            net.close()

    def test_score_export_refreshes_after_update_score(self):
        from repro.dynamic.graph import DynamicGraph

        g = DynamicGraph.from_graph(random_graph(200, 0.02, seed=13))
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(200, 6))
        net.parallel(workers=WORKERS, min_nodes=0)
        try:
            probe = lambda: (  # noqa: E731 - F(7) includes f(7) itself
                net.query("s").limit(1).where([7]).backend("parallel").run()
            )
            before = probe()
            net.update_score("s", 7, 1.0)
            par = net.query("s").limit(5).backend("parallel").run()
            ref = net.query("s").limit(5).backend("numpy").run()
            assert _entries(par) == _entries(ref)
            # The mutated score actually flowed into the workers' view:
            # node 7's own aggregate includes f(7), which just changed.
            after = probe()
            assert _entries(after) != _entries(before)
        finally:
            net.close()


class TestResilience:
    def test_worker_crash_recovers(self, parallel_net):
        engine = parallel_net.parallel()
        parallel_net.query("dense").limit(3).backend("parallel").run()
        pool = engine._resources["pool"]
        assert pool is not None and pool.started
        # Kill one worker out from under the pool; the next round must
        # respawn and still answer exactly.
        victim = pool._members[0].process
        victim.terminate()
        victim.join(timeout=5)
        par = parallel_net.query("dense").limit(3).backend("parallel").run()
        ref = parallel_net.query("dense").limit(3).backend("numpy").run()
        assert _entries(par) == _entries(ref)
        assert pool.alive_workers == WORKERS

    def test_pool_rejects_bad_sizes(self):
        with pytest.raises(ParallelError):
            ShardWorkerPool(0)

    def test_closed_pool_rejects_work(self):
        pool = ShardWorkerPool(1)
        pool.close()
        with pytest.raises(ParallelError):
            pool.run([{"kind": "scan"}])

    def test_queries_and_invalidation_do_not_deadlock(self):
        # Regression: parallel queries take engine-lock -> ctx-lock;
        # context invalidation/close must never take ctx-lock -> engine-lock
        # (ABBA).  Hammer both sides concurrently and require completion.
        import threading

        g = random_graph(200, 0.03, seed=22)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(200, 14))
        net.parallel(workers=WORKERS, min_nodes=0)
        errors = []

        def query_loop():
            try:
                for _ in range(10):
                    net.query("s").limit(3).backend("parallel").run()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        thread = threading.Thread(target=query_loop, daemon=True)
        thread.start()
        try:
            for _ in range(50):
                net._ctx.invalidate()
            thread.join(timeout=60)
            assert not thread.is_alive(), "query/invalidate deadlocked"
            assert not errors, errors
        finally:
            net.close()

    def test_engine_close_is_idempotent(self):
        g = random_graph(80, 0.04, seed=21)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(80, 7))
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        net.close()
        net.close()
        assert engine.closed


class TestDeclineRule:
    def test_planner_charges_parallel_fixed_cost(self):
        from repro.core.planner import BACKEND_FIXED_COSTS, QueryPlanner
        from repro.core.query import QuerySpec

        g = random_graph(120, 0.03, seed=32)
        scores = _dense_scores(120, 10)
        par = QueryPlanner(g, scores, hops=2, backend="parallel").plan(
            QuerySpec(k=5)
        )
        ref = QueryPlanner(g, scores, hops=2, backend="numpy").plan(
            QuerySpec(k=5)
        )
        fixed = BACKEND_FIXED_COSTS["parallel"]
        assert fixed > 0
        assert par.estimate_for("base").fixed_cost == fixed
        assert ref.estimate_for("base").fixed_cost == 0.0
        # Backward runs in process on every backend: priced as numpy does.
        assert par.estimate_for("backward") == ref.estimate_for("backward")
        # On a tiny graph the fixed cost dominates: every parallel estimate
        # is costlier than its numpy twin, which is exactly why the engine
        # declines such graphs at runtime.
        assert (
            par.estimate_for("base").total_amortized()
            > ref.estimate_for("base").total_amortized()
        )
        assert "sharded multi-process" in par.explain()


class TestServiceProcessMode:
    def test_service_runs_queries_on_parallel_backend(self):
        g = random_graph(300, 0.02, seed=40)
        net = Network(g, hops=2, backend="parallel")
        net.add_scores("a", _dense_scores(300, 11))
        net.add_scores("b", _dense_scores(300, 12))
        net.parallel(workers=WORKERS, min_nodes=0)
        try:
            net.service(workers=2)
            handles = [
                net.query(s).limit(5).submit(cached=False)
                for s in ("a", "b", "a", "b")
            ]
            results = [h.result(timeout=120) for h in handles]
            backends = {r.stats.backend for r in results}
            assert backends <= {"parallel"}
            refs = [
                net.query(s).limit(5).backend("numpy").run()
                for s in ("a", "b", "a", "b")
            ]
            for got, ref in zip(results, refs):
                assert _entries(got) == _entries(ref)
        finally:
            net.close()

    def test_coalesced_group_is_one_sharded_batch(self):
        """A group runs where its members were lowered to — the session
        backend — with no rewrite in the service: one ``run_batch`` round."""
        from repro.parallel.engine import ParallelEngine
        from tests.test_service import hold_worker

        g = random_graph(300, 0.02, seed=42)
        net = Network(g, hops=2, backend="parallel")
        net.add_scores("a", _dense_scores(300, 14))
        net.add_scores("b", _dense_scores(300, 15))
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        groups, run_batch = [], ParallelEngine.run_batch
        engine.run_batch = lambda batch, **kw: (
            groups.append(len(batch)), run_batch(engine, batch, **kw)
        )[1]
        try:
            service = net.service(workers=1)
            release, blocker = hold_worker(net)
            handles = [
                net.query(s).limit(5).submit(cached=False)
                for s in ("a", "b", "a", "b")
            ]
            release.set()
            blocker.result(timeout=120)
            results = [h.result(timeout=120) for h in handles]
            assert groups == [4] and service.stats()["coalesced_batches"] == 1
            assert {r.stats.backend for r in results} == {"parallel"}
            assert {r.stats.algorithm for r in results} == {"batch-base"}
            for got, score in zip(results, "abab"):
                ref = net.query(score).limit(5).backend("numpy").run()
                assert _entries(got) == _entries(ref)
        finally:
            net.close()

    def test_pinned_backend_survives_process_mode(self):
        g = random_graph(300, 0.02, seed=41)
        net = Network(g, hops=2, backend="parallel")
        net.add_scores("a", _dense_scores(300, 13))
        net.parallel(workers=WORKERS, min_nodes=0)
        try:
            net.service(workers=2)
            result = (
                net.query("a").limit(5).backend("numpy")
                .submit(cached=False).result(timeout=120)
            )
            assert result.stats.backend == "numpy"
        finally:
            net.close()


class TestShardPlanAndMerge:
    def test_shard_plan_covers_every_node_once(self):
        g = random_graph(200, 0.03, seed=50)
        plan = build_shard_plan(g, 3)
        seen = np.concatenate(plan.owned)
        assert sorted(seen.tolist()) == list(range(200))
        assert plan.num_shards == 3
        assert sum(plan.sizes()) == 200

    def test_shard_plan_validates(self):
        g = random_graph(20, 0.1, seed=51)
        with pytest.raises(InvalidParameterError):
            build_shard_plan(g, 0)
        with pytest.raises(TypeError):  # the choice is gone, not defaulted
            build_shard_plan(g, 2, partitioner="bfs")

    @pytest.mark.parametrize(
        "directed, shards, crc",
        [
            (False, 2, 2175075153),
            (False, 4, 3557374592),
            (True, 2, 2131128009),
            (True, 4, 228890517),
        ],
    )
    def test_shard_plan_is_the_parents(self, directed, shards, crc):
        """crc32 of the assignment (one byte per node), recorded at the
        commit before ``bfs_partition`` moved here: moved code must build
        identical shards."""
        from repro.graph.generators import citation_dag, powerlaw_cluster

        if directed:
            g = citation_dag(600, 4, seed=19)
        else:
            g = powerlaw_cluster(600, 3, 0.4, seed=19)
        assert g.directed is directed
        plan = build_shard_plan(g, shards)
        assert zlib.crc32(bytes(plan.partition.assignment)) == crc

    def test_merge_resolves_ties_by_node_id(self):
        merged = merge_shard_entries(
            [[(5, 1.0), (9, 0.5)], [(2, 1.0), (7, 0.5)]], 3
        )
        assert merged == [(2, 1.0), (5, 1.0), (7, 0.5)]

    def test_partition_members_index_cached(self):
        from repro.parallel.shards import Partition

        partition = Partition([0, 1, 0, 1, 0], 2)
        first = partition.members(0)
        assert first == [0, 2, 4]
        assert partition.members(0) is first  # served from the index
        assert partition.members(1) == [1, 3]
        arr = partition.as_array()
        assert arr is not None and arr.tolist() == [0, 1, 0, 1, 0]
        assert partition.as_array() is arr


def _scored_net(graph, scores, backend):
    net = Network(graph, hops=2, backend=backend)
    net.add_scores("s", scores)
    return net


class TestWorkStealing:
    def test_chunked_partitions_exactly(self):
        task = {"type": "scan", "shard": 0}
        pieces = _chunked(task, 1000, 100)
        assert len(pieces) > 1
        assert pieces[0]["lo"] == 0 and pieces[-1]["hi"] == 1000
        for left, right in zip(pieces, pieces[1:]):
            assert left["hi"] == right["lo"]  # no gaps, no overlap
        assert all(p["hi"] > p["lo"] for p in pieces)

    def test_chunked_never_splits_below_a_block(self):
        task = {"type": "scan", "shard": 0}
        assert _chunked(task, 150, 100) == [task]
        assert _chunked(dict(task), 0, 100) == [task]

    def test_chunk_count_is_bounded(self):
        pieces = _chunked({"shard": 1}, 10**6, 10)
        assert len(pieces) <= 4

    @staticmethod
    def _skewed_graph(n=5000):
        """A hub-heavy graph: one shard gets most of the work.  Each shard
        must own >= 2 kernel blocks (1024) to split."""
        rng = random.Random(29)
        edges = {(u, u + 1) for u in range(n - 1)}
        for _ in range(3 * n):
            u, v = rng.randrange(120), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return Graph.from_edges(sorted(edges), num_nodes=n)

    def test_every_worker_is_home_to_chunks_of_every_shard(self, monkeypatch):
        # However lopsided the partition, each worker is home to as many
        # chunks of each shard (give or take one): the chunks stay balanced
        # without a steal, and each one runs, and keeps its balls, on the
        # same worker every scan.
        n = 5000
        g = self._skewed_graph(n)
        scores = random_scores(n, seed=31)
        ref = _scored_net(g, scores, "numpy").topk("s", 12)
        net = _scored_net(g, scores, "parallel")
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        rounds = []
        dispatch = engine._dispatch

        def spy(specs, **kwargs):
            rounds.append([(spec["shard"], spec["home"] % WORKERS) for spec in specs])
            return dispatch(specs, **kwargs)

        monkeypatch.setattr(engine, "_dispatch", spy)
        try:
            assert net.topk("s", 12).entries == ref.entries
            [homes] = rounds
            slots = {}
            for shard, slot in homes:
                slots.setdefault(shard, []).append(slot)
            assert len(homes) > len(slots)  # the scan was chunked
            for found in slots.values():
                counts = [found.count(slot) for slot in range(WORKERS)]
                assert max(counts) - min(counts) <= 1
        finally:
            net.close()

    def test_skewed_graph_answers_match_numpy(self):
        # Stealing must not change the entries, only the task count.
        n = 5000
        g = self._skewed_graph(n)
        scores = random_scores(n, seed=31)
        ref = _scored_net(g, scores, "numpy").topk("s", 12)

        net = _scored_net(g, scores, "parallel")
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        try:
            res = net.topk("s", 12)
            assert res.entries == ref.entries
            # Scans were split into more tasks than shards.
            assert res.stats.extra["tasks"] > len(engine.stats()["shards"])
        finally:
            net.close()

    def test_index_stats_are_filed_under_the_worker_that_ran_the_task(
        self, monkeypatch
    ):
        # Worker 0's replacement is slowed down, so the others run their own
        # chunks and then steal shard 0's.  A reply's index stats belong to
        # the worker that sent it, not to the shard its chunk came from:
        # filed by slot, the workers' indexes together hold each ball the
        # cold scan expanded exactly once.
        n = 5000
        g = self._skewed_graph(n)
        net = _scored_net(g, random_scores(n, seed=31), "parallel")
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        try:
            pool = engine._pool()
            pool.ensure_started()
            plan = {"rules": [{"point": "parallel.worker.task", "kind": "delay", "delay": 0.4}]}
            monkeypatch.setenv(ENV_VAR, json.dumps(plan))
            pool._members[0].process.terminate()
            pool._members[0].process.join(timeout=10)
            pool.ensure_started()
            monkeypatch.delenv(ENV_VAR)
            res = net.topk("s", 12)
            owned = [int(size) for size in engine.stats()["shards"]]
            stats = engine.stats()["ball_index"]
            assert sorted(stats) == list(range(WORKERS))
            assert any(stats[slot]["covered"] > owned[slot] for slot in stats)
            assert res.stats.balls_expanded == n
            assert sum(entry["covered"] for entry in stats.values()) == n
            assert sum(entry["misses"] for entry in stats.values()) == n
        finally:
            net.close()


class TestReplyBuffers:
    def test_respawn_falls_back_to_pipe_replies(self):
        # Killing a worker mid-life forces the reissue path: reissued
        # tasks are stripped of their reply buffers (two writers must
        # never share a slot) and the engine rotates segments afterwards.
        g = random_graph(300, 0.02, seed=43)
        scores = random_scores(300, seed=47)
        ref = _scored_net(g, scores, "numpy").topk("s", 10)

        net = _scored_net(g, scores, "parallel")
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        try:
            assert net.topk("s", 10).entries == ref.entries
            pool = engine._resources["pool"]
            pool._members[0].process.terminate()
            pool._members[0].process.join()
            assert net.topk("s", 10).entries == ref.entries
            assert pool.respawns >= 1
            # The next healthy round still matches.
            assert net.topk("s", 10).entries == ref.entries
        finally:
            net.close()

    def test_stats_surface_the_new_gauges(self):
        g = random_graph(200, 0.03, seed=53)
        net = _scored_net(g, random_scores(200, seed=59), "parallel")
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        try:
            res = net.topk("s", 8)
            stats = engine.stats()
            for key in ("reply_buffers", "pipe_bytes_sent", "pipe_bytes_received"):
                assert key in stats
            assert res.stats.extra["pipe_bytes_sent"] > 0
            assert res.stats.extra["pipe_bytes_received"] > 0
        finally:
            net.close()


class TestWorkerKernels:
    def test_workers_answer_every_route_as_numpy(self):
        # Each worker builds its own NumpyKernels over its ball index; the
        # scan and weighted rounds must match in-process numpy, and backward
        # (declined, run in process) must too.
        g = random_graph(300, 0.02, seed=67)
        scores = random_scores(300, seed=71)
        ref = _scored_net(g, scores, "numpy")
        net = _scored_net(g, scores, "parallel")
        net.parallel(workers=WORKERS, min_nodes=0)
        try:
            assert net.topk("s", 9).entries == ref.topk("s", 9).entries
            assert (
                net.topk_weighted("s", 9).entries
                == ref.topk_weighted("s", 9).entries
            )
            b = net.query("s").limit(9).algorithm("backward").run()
            rb = ref.query("s").limit(9).algorithm("backward").run()
            assert b.entries == rb.entries
            assert b.stats.extra["kernel"] == "numpy"
        finally:
            net.close()
