"""The workers' ball indexes: a repeated sharded read takes balls back too.

Every pool / cluster worker keeps one node-keyed
:class:`~repro.graph.csr.CSRBallIndex` over the CSR it is attached to, fills
it from the blocks its scan and batch tasks expand and reads present
balls back — the arrays its expansion returned, into the same reduction — so
a warm sharded answer must equal a cold one and the in-process numpy one
*exactly*.  Scores are arbitrary (non-dyadic) floats and every comparison is
``==`` on entries.  Covered, on both links: every base aggregate, the fused
batch (filled in one block size, singles read in another), the bound-pruned
forward scan and the weighted scan over hops 1-3 and both ball conventions;
the work counters of a second scan; a directed LONA-Backward, which runs in
the session's process and leaves the workers' indexes alone; the budget
split over 2 and 4 workers;
70 ``DynamicGraph`` writes (past the worker's attachment limit) with the
index both on the newest CSR and left behind on a retired one; a killed
worker (the survivor keeps its slot and its hits); a stolen chunk.  A
module-wide guard — the benchmark's — checks that no child process or
``/dev/shm`` segment survives, and every pool worker must exit with code 0
(reading an index's CSR after its mapping is gone is a segmentation fault).
"""

from __future__ import annotations

import json
import os
import random

import pytest
from bench.common import LeakGuard

from repro import Network
from repro.core.base import base_topk
from repro.core.batch import batch_base_topk
from repro.core.query import QuerySpec
from repro.dynamic.graph import DynamicGraph
from repro.faults import ENV_VAR
from repro.graph.graph import Graph

np = pytest.importorskip("numpy")

#: Pool size of the pipe link; the CI sharded-smoke job raises it to 4.
WORKERS = int(os.environ.get("REPRO_PARALLEL_TEST_WORKERS", "2"))
LINKS = ("parallel", "cluster")
AGGREGATES = ("sum", "avg", "count", "max", "min")
VIEWS = [(hops, include_self) for hops in (1, 2, 3) for include_self in (True, False)]
N = 2600
SMALL = 600
#: Scan block the tests pin on both links, so a 1,300-node shard splits into
#: stealable chunks and a tight cap still holds whole blocks (the adaptive
#: block is 1,024 on sparse graphs).
BLOCK = 64


@pytest.fixture(scope="module", autouse=True)
def nothing_survives_the_module():
    guard = LeakGuard()
    yield
    assert guard.problems() == []


def _edges(n: int, seed: int):
    """About three edges a node; the last 20 nodes touch none."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 3 * n:
        u, v = rng.randrange(n - 20), rng.randrange(n - 20)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _scores(n: int, seed: int):
    """Arbitrary (non-dyadic) floats, four in ten zero."""
    rng = random.Random(seed)
    return [rng.random() if rng.random() < 0.6 else 0.0 for _ in range(n)]


def _sparse(n: int, seed: int):
    rng = random.Random(seed)
    return [rng.random() if rng.random() < 0.03 else 0.0 for _ in range(n)]


class _Session:
    """A numpy-default session with both links configured; ``close()``
    requires every pool worker to have exited cleanly."""

    def __init__(self, graph, hops=2, include_self=True, workers=None,
                 links=LINKS, budget="default", vectors=1):
        self.net = Network(graph, hops=hops, include_self=include_self, backend="numpy")
        if budget != "default":
            self.net._ctx.ball_cache_bytes = budget
        for i in range(vectors):
            self.net.add_scores(f"s{i}", _scores(graph.num_nodes, seed=40 + i))
        self.net.add_scores("sparse", _sparse(graph.num_nodes, seed=90))
        self.engines = {
            link: getattr(self.net, link)(
                workers=workers or (WORKERS if link == "parallel" else 2), min_nodes=0
            )
            for link in links
        }
        for engine in self.engines.values():
            engine._block_size = lambda: BLOCK

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pool = None
        if "parallel" in self.engines:
            pool = self.engines["parallel"]._resources["pool"]
        processes = [] if pool is None else [m.process for m in pool._members]
        self.net.close()
        for process in processes:
            assert process.exitcode == 0, process

    def index_stats(self, link):
        return self.engines[link].stats()["ball_index"]


def _bits(entries):
    """Entries with each value as its raw bytes (``==`` on floats would let
    ``-0.0`` pass for ``0.0``)."""
    return [(node, np.float64(value).tobytes()) for node, value in entries]


def _spec(net, k, aggregate):
    return QuerySpec(k, aggregate, net.hops, net.include_self, "numpy")


# ---------------------------------------------------------------------------
# Warm == cold == in-process numpy
# ---------------------------------------------------------------------------
class TestWarmEqualsColdEqualsNumpy:
    @pytest.mark.parametrize("hops,include_self", VIEWS)
    def test_every_scan_shape_on_both_links(self, hops, include_self):
        graph = Graph.from_edges(_edges(N, 3), num_nodes=N)
        with _Session(graph, hops, include_self, vectors=6) as session:
            net = session.net
            scores = net.scores_of("s0")
            members = [
                (f"s{i}", 10 + i, ("sum", "avg", "count")[i % 3]) for i in range(6)
            ]
            batch_ref = batch_base_topk(
                graph, [(net.scores_of(s), k, a) for s, k, a in members],
                hops=hops, include_self=include_self, backend="numpy",
            )
            weighted_ref = net.query("s0").algorithm("base").weighted().limit(9).run()
            for link in LINKS:
                # The fused batch fills first, in blocks a sixth the size of
                # the singles' that then read.
                for _ in range(2):
                    got = net._run_batch(
                        [(net.scores_of(s), k, a) for s, k, a in members], backend=link
                    )
                    assert [r.stats.backend for r in got] == [link] * 6
                    assert [r.entries for r in got] == [r.entries for r in batch_ref]
                for aggregate in AGGREGATES:
                    query = (
                        net.query("s0").algorithm("base").aggregate(aggregate)
                        .limit(25).backend(link)
                    )
                    ref = base_topk(graph, scores, _spec(net, 25, aggregate))
                    cold, warm = query.run(), query.run()
                    assert cold.stats.backend == warm.stats.backend == link
                    assert cold.entries == warm.entries == ref.entries, (link, aggregate)
                for aggregate in ("sum", "avg"):
                    query = (
                        net.query("s0").algorithm("forward").aggregate(aggregate)
                        .limit(15).backend(link)
                    )
                    ref = base_topk(graph, scores, _spec(net, 15, aggregate))
                    cold, warm = query.run(), query.run()
                    assert cold.stats.backend == link
                    assert cold.entries == warm.entries == ref.entries, (link, aggregate)
                    assert warm.stats.pruned_nodes == cold.stats.pruned_nodes
                weighted = (
                    net.query("s0").algorithm("base").weighted().limit(9).backend(link)
                )
                assert weighted.run().entries == weighted_ref.entries
                assert weighted.run().entries == weighted_ref.entries
                # Per worker slot, that worker's latest index stats.
                stats = session.index_stats(link)
                assert sorted(stats) == list(range(session.engines[link].workers))
                assert all(s["served"] > 0 < s["covered"] for s in stats.values())


# ---------------------------------------------------------------------------
# Counters, stats and the budget split
# ---------------------------------------------------------------------------
class TestAccounting:
    @pytest.mark.parametrize("link", LINKS)
    def test_second_scan_charges_less_traversal_same_evaluations(self, link):
        graph = Graph.from_edges(_edges(N, 3), num_nodes=N)
        with _Session(graph, links=(link,)) as session:
            query = session.net.query("s0").algorithm("base").limit(10).backend(link)
            first, second = query.run(), query.run()
            assert second.stats.edges_scanned < first.stats.edges_scanned
            assert second.stats.balls_expanded < first.stats.balls_expanded
            assert second.stats.nodes_evaluated == first.stats.nodes_evaluated == N
            assert second.entries == first.entries
            # nodes_evaluated - balls_expanded is the per-query hit count.
            assert first.stats.balls_expanded == N
            batch = [(session.net.scores_of("s0"), 5, "sum")] * 2
            session.net._run_batch(batch, backend=link)
            again = session.net._run_batch(batch, backend=link)
            assert again[0].stats.edges_scanned == 0  # fixed halves: all hits
            stats = session.index_stats(link)
            assert sorted(stats) == list(range(len(stats)))
            for entry in stats.values():
                assert set(entry) == {
                    "covered", "pairs", "runs", "bytes", "max_bytes", "served", "appended",
                    "hits", "misses",
                }
            # No stats.extra key was added for any of this.
            assert not any("index" in key for key in second.stats.extra)

    @pytest.mark.parametrize("link", LINKS)
    def test_a_directed_backward_leaves_the_forward_index_alone(self, link):
        rng = random.Random(7)
        arcs = {(rng.randrange(N - 20), rng.randrange(N - 20)) for _ in range(3 * N)}
        graph = Graph.from_edges(
            sorted((u, v) for u, v in arcs if u != v), num_nodes=N, directed=True
        )
        with _Session(graph, links=(link,)) as session:
            net = session.net
            scan = net.query("s0").algorithm("base").limit(10).backend(link)
            backward = net.query("s0").algorithm("backward").limit(20)
            cold = scan.run()
            want = backward.backend("numpy").run()
            before = session.index_stats(link)
            runs = [backward.backend(link).run() for _ in range(2)]
            assert all(_bits(run.entries) == _bits(want.entries) for run in runs)
            # LONA-Backward runs in the session's process: no worker task
            # reads, fills or rebuilds the forward index the scan filled ...
            assert all(run.stats.backend == "numpy" for run in runs)
            assert session.index_stats(link) == before
            # ... so a scan after it reads its balls back.  How many is up to
            # stealing: a stolen chunk misses on the worker that steals it.
            again = scan.run()
            assert again.entries == cold.entries
            assert again.stats.balls_expanded < cold.stats.balls_expanded == N

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("link", LINKS)
    def test_workers_together_stay_inside_the_session_cap(self, link, workers):
        graph = Graph.from_edges(_edges(N, 3), num_nodes=N)
        budget = 240_000  # the closure is ~360 kB at 2 bytes a pair: the cap binds
        with _Session(graph, workers=workers, links=(link,), budget=budget) as session:
            net = session.net
            query = net.query("s0").algorithm("base").limit(10).backend(link)
            ref = base_topk(graph, net.scores_of("s0"), _spec(net, 10, "sum"))
            runs = [query.run() for _ in range(3)]
            assert all(run.entries == ref.entries for run in runs)
            stats = session.index_stats(link)
            assert len(stats) == workers
            assert all(s["max_bytes"] == budget // 2 // workers for s in stats.values())
            assert all(0 < s["bytes"] <= s["max_bytes"] for s in stats.values())
            assert sum(s["bytes"] for s in stats.values()) <= budget // 2
            assert 0 < runs[2].stats.edges_scanned < runs[0].stats.edges_scanned
            # The session's own index keeps its half, in process.
            net.query("s0").algorithm("base").limit(10).run()
            own = net._ctx.cache_stats()["ball_cache"]
            assert own["max_bytes"] == budget // 2 and own["bytes"] <= budget // 2

    def test_unbounded_session_means_unbounded_workers(self):
        graph = Graph.from_edges(_edges(SMALL, 3), num_nodes=SMALL)
        with _Session(graph, links=("parallel",), budget=None) as session:
            query = session.net.query("s0").algorithm("base").limit(5).backend("parallel")
            cold = query.run()
            assert query.run().stats.edges_scanned < cold.stats.edges_scanned
            stats = session.index_stats("parallel")
            assert all(s["max_bytes"] is None for s in stats.values())


# ---------------------------------------------------------------------------
# Writes: the index never outlives the mapping it reads
# ---------------------------------------------------------------------------
class TestDynamicWrites:
    @pytest.mark.parametrize("link", LINKS)
    def test_seventy_writes_requery_equal_numpy_and_close_cleanly(self, link):
        edges = _edges(SMALL, 3)
        dyn = DynamicGraph.from_edges(edges, num_nodes=SMALL)
        rng = random.Random(5)
        with _Session(dyn, links=(link,)) as session:
            net = session.net
            scan = net.query("s0").algorithm("base").aggregate("avg").limit(12)
            probe = (
                net.query("sparse").algorithm("base").limit(6)
                .where(range(0, SMALL, 9))
            )
            scan.backend(link).run()
            added = []
            for step in range(70):  # past the worker's _ATTACH_CACHE_LIMIT
                if step % 3 == 2 and added:
                    net.remove_edge(*added.pop())
                else:
                    u, v = rng.randrange(SMALL), rng.randrange(SMALL)
                    if u == v or dyn.has_edge(u, v):
                        u, v = SMALL - 1 - step, step  # an isolated node joins
                    net.add_edge(u, v)
                    added.append((u, v))
                # Steps 20-69 attach fifty CSRs through the filtered scan's
                # tasks alone, which rebuild each worker's index on every new
                # mapping while the attachment cache retires the old ones (an
                # index left behind on a retired mapping is
                # test_the_index_goes_before_the_attachment_it_reads's case).
                if step < 20 or step == 69:
                    got = scan.backend(link).run()
                    assert got.stats.backend == link
                    assert got.entries == scan.backend("numpy").run().entries, step
                    assert scan.backend(link).run().entries == got.entries
                got = probe.backend(link).run()
                assert got.stats.backend == link
                assert got.entries == probe.backend("numpy").run().entries, step
            stats = session.engines[link].stats()
            assert stats["stale_retries"] == 0 and stats["respawns"] == 0

    def test_the_index_goes_before_the_attachment_it_reads(self):
        from repro.graph.csr import CSRBallIndex, SharedCSR
        from repro.parallel import worker

        csr = Graph.from_edges(_edges(SMALL, 3), num_nodes=SMALL).csr()
        exports = [
            SharedCSR.export(csr, version=v) for v in range(worker._ATTACH_CACHE_LIMIT + 1)
        ]
        cache = worker._AttachmentCache()
        try:
            task = {"hops": 2, "include_self": True, "index_bytes": 50_000}
            first = cache.csr(exports[0].meta()).csr
            index = worker._ball_index(cache, first, task)
            assert index.max_bytes == 50_000 and index.serves(first, 2, True)
            assert worker._ball_index(cache, first, task) is index
            for export in exports[1:-1]:
                cache.csr(export.meta())
            cache.flush_retired()
            assert cache.index is index  # exactly at the limit: still cached
            newest = cache.csr(exports[-1].meta()).csr  # retires the first
            assert cache.index is index  # a running task may still read it
            cache.flush_retired()
            assert cache.index is None
            replaced = worker._ball_index(cache, newest, dict(task, hops=1))
            assert replaced is not index and replaced.serves(newest, 1, True)
            assert isinstance(replaced, CSRBallIndex)
        finally:
            cache.close()
            assert cache.index is None
            for export in exports:
                export.mark_stale()
                export.unlink()
                export.close()


# ---------------------------------------------------------------------------
# Worker death and stealing
# ---------------------------------------------------------------------------
class TestRecovery:
    def test_killed_pool_worker_is_replaced_in_its_slot(self):
        graph = Graph.from_edges(_edges(N, 3), num_nodes=N)
        with _Session(graph, links=("parallel",)) as session:
            net = session.net
            # One task per shard, dealt to its home: no chunk is stolen, so
            # the indexes below are exactly the shards'.
            session.engines["parallel"]._block_size = lambda: 4096
            query = net.query("s0").algorithm("base").limit(10).backend("parallel")
            ref = base_topk(graph, net.scores_of("s0"), _spec(net, 10, "sum"))
            assert query.run().entries == query.run().entries == ref.entries
            before = session.index_stats("parallel")
            pool = session.engines["parallel"]._resources["pool"]
            survivors = [m.process.pid for m in pool._members[1:]]
            victim = pool._members[0].process
            victim.terminate()
            victim.join(timeout=10)
            refill = query.run()
            assert refill.entries == ref.entries
            assert pool.respawns == 1 and pool.alive_workers == WORKERS
            assert [m.process.pid for m in pool._members[1:]] == survivors
            assert pool._members[0].process.pid != victim.pid
            after = session.index_stats("parallel")
            for shard in range(1, WORKERS):  # the survivors kept their balls
                assert after[shard]["appended"] == before[shard]["appended"]
                assert after[shard]["served"] > before[shard]["served"]
            assert after[0]["served"] == 0 and after[0]["covered"] == before[0]["covered"]
            assert refill.stats.balls_expanded == before[0]["covered"]
            warm = query.run()
            assert warm.entries == ref.entries and warm.stats.edges_scanned == 0

    def test_killed_cluster_worker_refills_and_answers_identically(self):
        graph = Graph.from_edges(_edges(N, 3), num_nodes=N)
        with _Session(graph, links=("cluster",)) as session:
            net = session.net
            query = net.query("s0").algorithm("base").aggregate("avg").limit(10)
            ref = base_topk(graph, net.scores_of("s0"), _spec(net, 10, "avg"))
            assert query.backend("cluster").run().entries == ref.entries
            assert query.backend("cluster").run().stats.edges_scanned == 0
            transport = session.engines["cluster"]._resources["transport"]
            victim = transport.peers[0]
            victim.proc.terminate()
            victim.proc.wait(timeout=10)
            refill = query.backend("cluster").run()
            assert refill.entries == ref.entries
            assert transport.respawns == 1 and transport.alive_peers == 2
            assert 0 < refill.stats.balls_expanded < N  # the dead peer's half
            warm = query.backend("cluster").run()
            assert warm.entries == ref.entries and warm.stats.edges_scanned == 0

    def test_a_stolen_chunk_is_answered_identically(self, monkeypatch):
        graph = Graph.from_edges(_edges(N, 3), num_nodes=N)
        with _Session(graph, workers=2, links=("parallel",)) as session:
            net = session.net
            engine = session.engines["parallel"]
            query = net.query("s0").algorithm("base").aggregate("avg").limit(10)
            ref = base_topk(graph, net.scores_of("s0"), _spec(net, 10, "avg"))
            assert query.backend("parallel").run().entries == ref.entries
            # Worker 0's replacement inherits a plan that delays each of its
            # tasks; worker 1 finishes its own chunks and steals the rest.
            plan = {"rules": [{"point": "parallel.worker.task", "kind": "delay", "delay": 0.4}]}
            monkeypatch.setenv(ENV_VAR, json.dumps(plan))
            pool = engine._resources["pool"]
            pool._members[0].process.terminate()
            pool._members[0].process.join(timeout=10)
            pool.ensure_started()
            monkeypatch.delenv(ENV_VAR)
            owned = [int(size) for size in engine.stats()["shards"]]
            stolen = query.backend("parallel").run()
            assert stolen.entries == ref.entries
            assert stolen.stats.extra["tasks"] > 2  # chunks, not one task a shard
            # Worker 1 holds balls of shard 0 now; the stolen chunks' replies
            # carried its index, filed under its own slot.
            assert engine.stats()["ball_index"][1]["covered"] > max(owned)
            again = query.backend("parallel").run()
            assert again.entries == ref.entries
            assert again.stats.edges_scanned < stolen.stats.edges_scanned
