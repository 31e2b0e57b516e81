"""Exhaustive scans on the process's block pool against the serial loop.

``base_topk_numpy`` shares the blocks of a multi-block scan between the
calling thread and the pool's helpers and offers them, merges their
counters and keeps their ball-index fills on the calling thread in block
order.  Every case here runs the same scan twice, once on the pool and
once with the module's pool accessor returning no pool (the serial loop),
and compares what must not move: entries by ``float.hex`` on non-dyadic
scores, the three traversal counters, and a capped index's contents.  The
rest races the pool: a deadline or a kernel error mid-scan leaves no block
running, a stalled block holds back no other, two sessions scan at once, a
forked child starts its own pool.  The fused batch stays
serial and reads each block's pairs once; its bits on raw floats are pinned.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Network
from repro.aggregates.weighted import inverse_distance, precompute_weights
from repro.core.batch import BatchQuery, batch_base_topk
from repro.core.deadline import deadline_scope
from repro.core.query import QuerySpec
from repro.errors import DeadlineExceededError
from repro.graph.graph import Graph
from repro.relevance.base import ScoreVector

np = pytest.importorskip("numpy")

from repro.core import vectorized  # noqa: E402
from repro.core.vectorized import NumpyKernels, base_topk_numpy  # noqa: E402
from repro.graph.csr import CSRBallIndex  # noqa: E402

N = 1200
K = 25
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "3"))
AGGREGATES = ("sum", "avg", "max", "min", "count")


def _graph(n: int = N, seed: int = 5) -> Graph:
    """About three edges a node, undirected; the last 10 nodes touch none."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 3 * n:
        u, v = rng.randrange(n - 10), rng.randrange(n - 10)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(sorted(edges), num_nodes=n)


def _scores(n: int = N, seed: int = 7):
    """Raw floats, some repeated, so sums depend on their order."""
    rng = np.random.default_rng(seed)
    values = rng.random(n) * 0.37
    values[rng.integers(0, n, n // 4)] = 0.1
    return values.tolist()


@pytest.fixture(scope="module")
def graph():
    return _graph()


@pytest.fixture
def pooled(monkeypatch):
    """The process's pool; on a one-CPU host a private one-helper one, so
    the pooled path runs wherever the suite does."""
    pool = vectorized._block_pool()
    if pool is None:
        executor = ThreadPoolExecutor(1, thread_name_prefix="test-block")
        pool = vectorized._BlockPool(os.getpid(), executor, 1)
        monkeypatch.setattr(vectorized, "_block_pool", lambda: pool)
        yield pool
        executor.shutdown(wait=True)
    else:
        yield pool


def _serial(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(vectorized, "_block_pool", lambda: None)
        return run()


def _hex(result):
    return [(node, float(value).hex()) for node, value in result.entries]


def _counters(result):
    stats = result.stats
    return stats.edges_scanned, stats.nodes_visited, stats.balls_expanded


def _scan(graph, scores, spec, *, block=None, index=None, **kwargs):
    return base_topk_numpy(
        graph, scores, spec, block_size=block, kernels=NumpyKernels(index), **kwargs
    )


def _assert_same(pooled_run, serial_run):
    assert _hex(pooled_run) == _hex(serial_run)
    assert _counters(pooled_run) == _counters(serial_run)


# ---------------------------------------------------------------------------
# Pooled == serial: bits and counters
# ---------------------------------------------------------------------------
class TestPooledEqualsSerial:
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_every_aggregate(self, graph, pooled, monkeypatch, aggregate, block):
        scores = _scores()
        spec = QuerySpec(K, aggregate, 2, True, "numpy")
        for make_index in (lambda: None, lambda: CSRBallIndex(graph.csr(), 2)):
            index, twin = make_index(), make_index()
            cold = _scan(graph, scores, spec, block=block, index=index)
            serial = _serial(
                monkeypatch, lambda: _scan(graph, scores, spec, block=block, index=twin)
            )
            _assert_same(cold, serial)
            if index is not None:
                assert index.stats() == twin.stats()
                warm = _scan(graph, scores, spec, block=block, index=index)
                assert _hex(warm) == _hex(cold)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_weighted_base(self, graph, pooled, monkeypatch, block):
        scores = _scores(seed=8)
        spec = QuerySpec(K, "sum", 2, True, "numpy")
        weights = precompute_weights(inverse_distance, 2)
        index, twin = CSRBallIndex(graph.csr(), 2), CSRBallIndex(graph.csr(), 2)
        # Half the balls stored bare first, so the weighted scan both labels
        # present balls in place and appends absent ones with labels.
        half = np.arange(0, N // 2, dtype=np.int64)
        for ix in (index, twin):
            _scan(graph, scores, spec, index=ix, node_order=half)
        run = _scan(graph, scores, spec, block=block, index=index, weights=weights)
        serial = _serial(
            monkeypatch,
            lambda: _scan(graph, scores, spec, block=block, index=twin, weights=weights),
        )
        _assert_same(run, serial)
        assert index.stats() == twin.stats()

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_where_filter(self, graph, pooled, monkeypatch, block):
        spec = QuerySpec(K, "avg", 2, True, "numpy")
        order = [u for u in range(N) if u % 3 != 1]
        run = _scan(graph, _scores(), spec, block=block, node_order=order)
        serial = _serial(
            monkeypatch, lambda: _scan(graph, _scores(), spec, block=block, node_order=order)
        )
        _assert_same(run, serial)
        assert {node for node, _ in run.entries} <= set(order)

    def test_a_session_where_query(self, graph, pooled, monkeypatch):
        def run():
            net = Network(graph, hops=2, backend="numpy")
            net.add_scores("s", _scores())
            return net.query("s").algorithm("base").where(lambda u: u % 5 != 0).limit(K).run()

        _assert_same(run(), _serial(monkeypatch, run))


# ---------------------------------------------------------------------------
# Fills kept in block order: a capped index holds the serial scan's balls
# ---------------------------------------------------------------------------
class TestOrderedFills:
    def test_a_cap_that_closes_mid_scan_keeps_the_serial_balls(
        self, graph, pooled, monkeypatch
    ):
        spec = QuerySpec(K, "sum", 2, True, "numpy")
        scores = _scores()
        closure = CSRBallIndex(graph.csr(), 2)
        _scan(graph, scores, spec, index=closure)
        cap = closure.stats()["bytes"] // 3
        twin = CSRBallIndex(graph.csr(), 2, max_bytes=cap)
        serial = _serial(monkeypatch, lambda: _scan(graph, scores, spec, block=7, index=twin))
        assert 0 < twin.stats()["covered"] < N
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # blocks finish out of order more often
        try:
            for _ in range(20):
                index = CSRBallIndex(graph.csr(), 2, max_bytes=cap)
                run = _scan(graph, scores, spec, block=7, index=index)
                _assert_same(run, serial)
                assert index.stats() == twin.stats()
                assert np.array_equal(index._start, twin._start)
        finally:
            sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# Errors mid-scan, sharing, fork
# ---------------------------------------------------------------------------
class _SlowKernels(NumpyKernels):
    """Counts blocks as they run; sleeps in each; may fail on one."""

    def __init__(self, fail_at=None):
        super().__init__()
        self.lock = threading.Lock()
        self.running = self.started = self.most = 0
        self.fail_at = fail_at

    def ball_values(self, *args, **kwargs):
        with self.lock:
            self.started += 1
            self.running += 1
            self.most = max(self.most, self.running)
            number = self.started
        try:
            time.sleep(0.01)
            if number == self.fail_at:
                raise RuntimeError("kernel failed")
            return super().ball_values(*args, **kwargs)
        finally:
            with self.lock:
                self.running -= 1


class _StallKernels(NumpyKernels):
    """The first block taken waits (up to 30 s) until every other block of
    the scan has run."""

    def __init__(self, blocks):
        super().__init__()
        self.lock = threading.Lock()
        self.blocks = blocks
        self.started = self.done = 0
        self.rest_done = threading.Event()

    def ball_values(self, *args, **kwargs):
        with self.lock:
            self.started += 1
            first = self.started == 1
        if first:
            self.rest_done.wait(timeout=30)
            return super().ball_values(*args, **kwargs)
        values = super().ball_values(*args, **kwargs)
        with self.lock:
            self.done += 1
            if self.done == self.blocks - 1:
                self.rest_done.set()
        return values


class TestPoolLifecycle:
    def _slow_scan(self, graph, kernels):
        spec = QuerySpec(K, "sum", 2, True, "numpy")
        return base_topk_numpy(graph, _scores(), spec, block_size=4, kernels=kernels)

    def test_a_stalled_block_holds_back_no_other(self, graph, pooled, monkeypatch):
        """The first block taken waits until every other block has run: the
        other thread takes them all from the shared counter, and the offers
        still follow block order."""
        kernels = _StallKernels(blocks=N // 40)
        spec = QuerySpec(K, "sum", 2, True, "numpy")
        run = base_topk_numpy(graph, _scores(), spec, block_size=40, kernels=kernels)
        assert kernels.rest_done.is_set()
        serial = _serial(monkeypatch, lambda: _scan(graph, _scores(), spec, block=40))
        _assert_same(run, serial)

    def test_a_deadline_mid_scan_leaves_no_block_running(self, graph, pooled):
        kernels = _SlowKernels()
        with pytest.raises(DeadlineExceededError):
            with deadline_scope(time.monotonic() + 0.1):
                self._slow_scan(graph, kernels)
        assert kernels.running == 0
        assert 0 < kernels.started < N // 4  # the rest were never taken
        assert kernels.most >= 2  # blocks did run side by side
        started = kernels.started
        time.sleep(0.05)
        assert kernels.started == started

    def test_a_kernel_error_leaves_no_block_running(self, graph, pooled):
        kernels = _SlowKernels(fail_at=5)
        with pytest.raises(RuntimeError, match="kernel failed"):
            self._slow_scan(graph, kernels)
        started = kernels.started
        assert kernels.running == 0 and started < N // 4
        time.sleep(0.05)
        assert kernels.started == started

    def test_two_sessions_scan_at_once(self, graph, pooled, monkeypatch):
        other = _graph(seed=9)
        shapes = [("s", "sum"), ("s", "max"), ("s", "avg")]

        def session(g):
            net = Network(g, hops=2, backend="numpy")
            net.add_scores("s", _scores())
            return net

        def answers(net):
            query = net.query("s").algorithm("base").limit(K)
            return [_hex(query.aggregate(a).run()) for _, a in shapes]

        want = _serial(monkeypatch, lambda: [answers(session(g)) for g in (graph, other)])
        nets = [session(graph), session(other)]
        got = [[], []]
        barrier = threading.Barrier(2)

        def caller(i):
            barrier.wait()
            for _ in range(ROUNDS):
                got[i].append(answers(nets[i]))

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[want[0]] * ROUNDS, [want[1]] * ROUNDS]

    def test_a_one_block_scan_asks_for_no_pool(self, graph, monkeypatch):
        def no_pool():
            raise AssertionError("a one-block scan asked for the pool")

        monkeypatch.setattr(vectorized, "_block_pool", no_pool)
        spec = QuerySpec(K, "sum", 2, True, "numpy")
        _scan(graph, _scores(), spec, block=N)

    def test_pool_size_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert vectorized._block_pool() is None
        monkeypatch.setattr(vectorized, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        pool = vectorized._block_pool()
        assert pool.helpers == 2  # the scanning thread is the third
        assert vectorized._block_pool() is pool  # started once
        pool.executor.shutdown(wait=True)

    def test_a_forked_child_starts_its_own_pool(self, monkeypatch):
        """A child forked from a process with a pool has none of its
        threads: a pid other than the pool's owner starts a new pool."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(vectorized, "_pool", None)
        parent = vectorized._block_pool()
        monkeypatch.setattr(os, "getpid", lambda: parent.pid + 1)
        child = vectorized._block_pool()
        assert child is not parent and child.pid == parent.pid + 1
        assert vectorized._block_pool() is child
        for pool in (parent, child):
            pool.executor.shutdown(wait=True)


# ---------------------------------------------------------------------------
# The fused batch reads each block once; bits pinned on raw floats
# ---------------------------------------------------------------------------
def _batch_graph(n: int = 3000, seed: int = 5) -> Graph:
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
    edges = sorted({(int(min(a, b)), int(max(a, b))) for a, b in zip(src, dst) if a != b})
    return Graph.from_edges(edges, num_nodes=n)


#: Top 5 of each query, as the parent of the read-once change computed them
#: (170-center blocks, each expanded or read on its own).
PINNED = [
    [(1287, "0x1.fd9f320797140p+4"), (2576, "0x1.f5aa5efe5ceffp+4"),
     (137, "0x1.e81c1059445c5p+4"), (616, "0x1.e1a49efa3f450p+4"),
     (1488, "0x1.e17d8339bd51fp+4")],
    [(852, "0x1.130e01cf669cfp-2"), (1425, "0x1.ecb3c497a1426p-3"),
     (851, "0x1.e809a3e4804c8p-3"), (1746, "0x1.e78ef731f3f3bp-3"),
     (2835, "0x1.ddf59964cc2cfp-3")],
    [(137, "0x1.eefb716bff526p+4"), (1287, "0x1.e780cae63aa49p+4"),
     (1249, "0x1.e4af6b0225031p+4"), (1488, "0x1.d407a9b7f40b6p+4"),
     (2565, "0x1.d1bf843d6810cp+4")],
]


class TestReadOnceBatch:
    def test_hit_miss_and_no_index_give_the_pinned_bits(self):
        graph = _batch_graph()
        rng = np.random.default_rng(11)
        queries = [
            BatchQuery(ScoreVector((rng.random(graph.num_nodes) * 0.37).tolist()), 5, a)
            for a in ("sum", "avg", "sum")
        ]
        index = CSRBallIndex(graph.csr(), 2)
        runs = [
            batch_base_topk(graph, queries, hops=2, backend="numpy", ball_index=ix)
            for ix in (None, index, index)
        ]
        stats = index.stats()
        assert stats["misses"] == stats["hits"] == graph.num_nodes
        # One read a 1,024-center block, however many queries share it.
        assert stats["served"] == stats["appended"] == -(-graph.num_nodes // 1024)
        for run in runs:
            assert [_hex(result) for result in run] == PINNED

    @pytest.mark.parametrize("queries", [1, 2, 5, 300])
    def test_every_sub_block_cut_gives_the_whole_block_values(self, graph, queries):
        from repro.core.vectorized import fused_ball_values
        from repro.graph.csr import batched_hop_balls
        from repro.graph.traversal import TraversalCounter

        rng = np.random.default_rng(queries)
        node_scores = rng.random((N, queries)) * 0.37
        avg_rows = np.arange(queries) % 2 == 1
        centers = np.arange(100, 1124, dtype=np.int64)
        got = NumpyKernels().fused_ball_values(
            np, graph.csr(), centers, node_scores, avg_rows, 2, True, TraversalCounter()
        )
        owners, members, _ = batched_hop_balls(graph.csr(), centers, 2, include_self=True)
        whole = fused_ball_values(np, node_scores, avg_rows, owners, members, centers.size)
        assert got.tobytes() == whole.tobytes()
