"""Tests for batch (multi-query) processing."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core.backends import numpy_available
from repro.core.base import base_topk
from repro.core.batch import BatchQuery, BatchResult, batch_base_topk
from repro.core.query import QuerySpec
from repro.core.results import combine_query_stats
from repro.errors import InvalidParameterError, RelevanceError
from repro.dynamic.graph import DynamicGraph
from repro.relevance import BinaryRelevance, ScoreVector
from repro.session import Network
from tests.conftest import random_graph, random_scores, rounded


@pytest.fixture(scope="module")
def batch_graph():
    return random_graph(50, 0.1, seed=191)


def _vectors(n, count, seed):
    return [ScoreVector(random_scores(n, seed=seed + i)) for i in range(count)]


@pytest.fixture
def count_to_csr(monkeypatch):
    """Counts calls to ``repro.graph.csr.to_csr`` (the graph classes look it
    up there at call time); the fixture value returns the count so far."""
    pytest.importorskip("numpy")
    import repro.graph.csr as csr_module

    calls = []
    real = csr_module.to_csr

    def counting(graph, **kwargs):
        calls.append(graph)
        time.sleep(0.02)  # widen the window two racing first readers share
        return real(graph, **kwargs)

    monkeypatch.setattr(csr_module, "to_csr", counting)
    return lambda: len(calls)


class TestBatchBase:
    def test_matches_individual_base(self, batch_graph):
        vectors = _vectors(50, 4, seed=200)
        queries = [BatchQuery(v, k=5 + i) for i, v in enumerate(vectors)]
        results = batch_base_topk(batch_graph, queries, hops=2)
        assert len(results) == 4
        for query, result in zip(queries, results):
            expected = base_topk(
                batch_graph, query.scores.values(), QuerySpec(k=query.k, hops=2)
            )
            assert rounded(result.values) == rounded(expected.values)

    def test_mixed_aggregates(self, batch_graph):
        vector = ScoreVector(random_scores(50, seed=210))
        queries = [
            BatchQuery(vector, k=5, aggregate="sum"),
            BatchQuery(vector, k=5, aggregate="avg"),
            BatchQuery(vector, k=5, aggregate="count"),
        ]
        results = batch_base_topk(batch_graph, queries, hops=2)
        for query, result in zip(queries, results):
            expected = base_topk(
                batch_graph,
                vector.values(),
                QuerySpec(k=5, hops=2, aggregate=query.aggregate),
            )
            assert rounded(result.values) == rounded(expected.values)

    def test_tuple_shorthand(self, batch_graph):
        scores = random_scores(50, seed=220)
        results = batch_base_topk(
            batch_graph, [(scores, 3), (scores, 7, "avg")], hops=2
        )
        assert len(results[0]) == 3
        assert len(results[1]) == 7
        assert results[1].stats.aggregate == "avg"

    def test_shared_traversal_cost(self, batch_graph):
        """The whole batch does one Base run's traversal, not q of them."""
        vectors = _vectors(50, 5, seed=230)
        results = batch_base_topk(
            batch_graph, [BatchQuery(v, k=4) for v in vectors], hops=2
        )
        single = base_topk(
            batch_graph, vectors[0].values(), QuerySpec(k=4, hops=2)
        )
        for result in results:
            assert result.stats.edges_scanned == single.stats.edges_scanned
            assert result.stats.extra["batch_size"] == 5.0

    def test_empty_batch(self, batch_graph):
        assert batch_base_topk(batch_graph, []) == []

    def test_open_ball(self, batch_graph):
        vector = ScoreVector(random_scores(50, seed=240))
        results = batch_base_topk(
            batch_graph, [BatchQuery(vector, k=5)], hops=2, include_self=False
        )
        expected = base_topk(
            batch_graph,
            vector.values(),
            QuerySpec(k=5, hops=2, include_self=False),
        )
        assert rounded(results[0].values) == rounded(expected.values)

    def test_wrong_length_rejected(self, batch_graph):
        with pytest.raises(RelevanceError):
            batch_base_topk(
                batch_graph, [BatchQuery(ScoreVector([0.5] * 10), k=2)]
            )

    def test_max_rejected(self, batch_graph):
        vector = ScoreVector(random_scores(50, seed=250))
        with pytest.raises(InvalidParameterError):
            batch_base_topk(
                batch_graph, [BatchQuery(vector, k=2, aggregate="max")]
            )

    def test_malformed_entry_rejected(self, batch_graph):
        with pytest.raises(InvalidParameterError):
            batch_base_topk(batch_graph, [42])  # type: ignore[list-item]


class TestBatchEngine:
    def test_routing_and_correctness(self, batch_graph):
        sparse = BinaryRelevance(0.02, seed=260).scores(batch_graph)
        dense = ScoreVector(random_scores(50, seed=261, density=0.9))
        net = Network(batch_graph, hops=2)
        results = net.batch(
            [BatchQuery(sparse, k=4), BatchQuery(dense, k=6)]
        )
        assert results[0].stats.algorithm == "backward"
        assert results[1].stats.algorithm == "batch-base"
        for vector, result in ((sparse, results[0]), (dense, results[1])):
            expected = base_topk(
                batch_graph, vector.values(), QuerySpec(k=result.stats.k, hops=2)
            )
            assert rounded(result.values) == rounded(expected.values)

    def test_all_sparse_batch(self, batch_graph):
        vectors = [
            BinaryRelevance(0.02, seed=270 + i).scores(batch_graph)
            for i in range(3)
        ]
        net = Network(batch_graph, hops=2)
        results = net.batch([BatchQuery(v, k=3) for v in vectors])
        assert all(r.stats.algorithm == "backward" for r in results)

    def test_engines_share_the_graphs_csr(self, count_to_csr):
        """There is no CSR to inject: every session over one graph runs on
        the graph's own view."""
        graph = random_graph(50, 0.1, seed=191)
        dense = ScoreVector(random_scores(50, seed=285, density=0.9))
        queries = [BatchQuery(dense, k=5)]
        first = Network(graph, hops=2, backend="numpy").batch(queries)
        second = Network(graph, hops=2, backend="numpy").batch(queries)
        assert first[0].entries == second[0].entries
        assert count_to_csr() == 1

    def test_results_in_input_order(self, batch_graph):
        sparse = BinaryRelevance(0.02, seed=280).scores(batch_graph)
        dense = ScoreVector(random_scores(50, seed=281, density=0.9))
        net = Network(batch_graph, hops=2)
        results = net.batch(
            [
                BatchQuery(dense, k=2),
                BatchQuery(sparse, k=3),
                BatchQuery(dense, k=4),
            ]
        )
        assert [len(r) for r in results] == [2, 3, 4]


class TestBatchStatsAggregation:
    """Regression: workload-level stats must sum per-query counters.

    Each shared-scan member's ``QueryStats`` carries the *whole* batch
    scan's counters (tagged with ``extra["batch_size"]``); naively summing
    them multiplies the shared traversal by the batch size, and reporting
    one member's stats drops the individually-routed queries entirely.
    ``combine_query_stats`` (surfaced as ``BatchResult.stats``) must count
    the shared scan once and add each peeled-off query's own work.
    """

    def test_shared_scan_counted_once(self, batch_graph):
        vectors = _vectors(50, 4, seed=300)
        results = batch_base_topk(
            batch_graph, [BatchQuery(v, k=5) for v in vectors], hops=2
        )
        single = base_topk(
            batch_graph, vectors[0].values(), QuerySpec(k=5, hops=2)
        )
        combined = BatchResult(results).stats
        # NOT 4x the scan: the whole batch did one Base run's traversal.
        assert combined.edges_scanned == single.stats.edges_scanned
        assert combined.balls_expanded == single.stats.balls_expanded
        assert combined.nodes_evaluated == batch_graph.num_nodes
        assert combined.extra["num_queries"] == 4.0

    def test_mixed_routing_sums_per_query(self, batch_graph):
        sparse = BinaryRelevance(0.02, seed=310).scores(batch_graph)
        dense = ScoreVector(random_scores(50, seed=311, density=0.9))
        net = Network(batch_graph, hops=2)
        results = net.batch(
            [BatchQuery(dense, k=5), BatchQuery(sparse, k=3)]
        )
        combined = BatchResult(results).stats
        shared, backward = results[0].stats, results[1].stats
        assert combined.edges_scanned == (
            shared.edges_scanned + backward.edges_scanned
        )
        assert combined.nodes_evaluated == (
            shared.nodes_evaluated + backward.nodes_evaluated
        )
        assert combined.algorithm == "batch"

    def test_not_last_query_stats(self, batch_graph):
        """The old failure mode: batch-level reporting showed only the last
        member's counters."""
        sparse = BinaryRelevance(0.02, seed=320).scores(batch_graph)
        dense = ScoreVector(random_scores(50, seed=321, density=0.9))
        net = Network(batch_graph, hops=2)
        results = net.batch(
            [BatchQuery(dense, k=5), BatchQuery(sparse, k=3)]
        )
        combined = BatchResult(results).stats
        last = results[-1].stats
        assert combined.nodes_evaluated > last.nodes_evaluated
        assert combined.edges_scanned > last.edges_scanned

    def test_uniform_vs_mixed_labels(self, batch_graph):
        vectors = _vectors(50, 2, seed=330)
        same = combine_query_stats(
            r.stats
            for r in batch_base_topk(
                batch_graph, [BatchQuery(v, k=3) for v in vectors], hops=2
            )
        )
        assert same.aggregate == "sum"
        mixed = combine_query_stats(
            r.stats
            for r in batch_base_topk(
                batch_graph,
                [
                    BatchQuery(vectors[0], k=3, aggregate="sum"),
                    BatchQuery(vectors[1], k=3, aggregate="avg"),
                ],
                hops=2,
            )
        )
        assert mixed.aggregate == "mixed"

    def test_empty_batch_stats(self):
        combined = BatchResult([]).stats
        assert combined.nodes_evaluated == 0
        assert combined.algorithm == "batch"

    def test_elapsed_is_per_query_share(self, batch_graph):
        vectors = _vectors(50, 5, seed=340)
        results = batch_base_topk(
            batch_graph, [BatchQuery(v, k=3) for v in vectors], hops=2
        )
        combined = BatchResult(results).stats
        # Every member reports the whole-batch wall clock; the combined
        # elapsed must be one batch's, not five.
        assert combined.elapsed_sec == pytest.approx(
            results[0].stats.elapsed_sec, rel=1e-6
        )


# ----------------------------------------------------------------------
# A group is its members
# ----------------------------------------------------------------------
WORK_COUNTERS = (
    "edges_scanned",
    "nodes_visited",
    "balls_expanded",
    "candidates_verified",
    "distribution_pushes",
)
N = 240
#: (score name, k, aggregate): dense and sparse members interleaved.
MEMBERS = (
    ("dense0", 5, "sum"),
    ("sparse0", 4, "sum"),
    ("sparse1", 6, "avg"),
    ("dense1", 3, "avg"),
    ("sparse2", 3, "count"),
)
SESSION_BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def _dyadic_scores(n, seed):
    """Multiples of 1/64: every summation order gives the same float, so the
    fused scan (last-ulp equal to Base on arbitrary floats) compares exactly."""
    rng = random.Random(seed)
    return [rng.randrange(1, 64) / 64 for _ in range(n)]


def _member_session(directed, backend="auto", graph=None):
    """A fresh session over a fresh graph: no cache is inherited."""
    if graph is None:
        graph = random_graph(N, 0.02, seed=401, directed=directed)
    net = Network(graph, hops=2, backend=backend)
    for i in range(2):
        net.add_scores(f"dense{i}", _dyadic_scores(N, seed=410 + i))
    for i in range(3):
        net.add_scores(f"sparse{i}", BinaryRelevance(0.03, seed=420 + i).scores(graph))
    return net


def _as_group(net, members=MEMBERS):
    return net.batch([net.query(s).limit(k).aggregate(a) for s, k, a in members])


def _singly(net, member):
    """The request the executor issues for ``member``, run alone."""
    score, k, aggregate = member
    route = "backward" if score.startswith("sparse") else "base"
    return net.query(score).limit(k).aggregate(aggregate).algorithm(route).run()


class TestGroupIsItsMembers:
    @pytest.mark.parametrize("backend", SESSION_BACKENDS)
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_entries_and_work_equal_the_single_path(self, directed, backend):
        # Two fresh sessions, same order (the group runs its sparse members
        # first, in input order), so neither side inherits a ball.  A dense
        # member scans a session of its own that has run the sparse members
        # first: the group's fused scan reads the ball index their
        # verification filled (and a second base scan would read the one
        # the first filled, charging no traversal).
        grouped = _as_group(_member_session(directed, backend))
        alone = _member_session(directed, backend)
        sparse = [m for m in MEMBERS if m[0].startswith("sparse")]
        singles = {member: _singly(alone, member) for member in sparse}
        for member in MEMBERS:
            if member not in singles:
                session = _member_session(directed, backend)
                for earlier in sparse:
                    _singly(session, earlier)
                singles[member] = _singly(session, member)
        for member, got in zip(MEMBERS, grouped):
            want = singles[member]
            assert got.entries == want.entries, member
            for name in WORK_COUNTERS:
                assert getattr(got.stats, name) == getattr(want.stats, name), (
                    member, name,
                )
        routes = [r.stats.algorithm for r in grouped]
        assert routes == ["batch-base", "backward", "backward", "batch-base", "backward"]

    def test_second_identical_sparse_group_hits_the_ball_cache(self):
        pytest.importorskip("numpy")
        net = _member_session(False)
        sparse = [m for m in MEMBERS if m[0].startswith("sparse")]
        first = _as_group(net, sparse)
        cold = net._ctx.cache_stats()["ball_cache"]
        second = _as_group(net, sparse)
        warm = net._ctx.cache_stats()["ball_cache"]
        assert [r.entries for r in second] == [r.entries for r in first]
        assert cold["misses"] > 0
        assert warm["misses"] == cold["misses"]
        # Verification reads every ball back; distribution is not run again,
        # since every sparse member takes its phase 1 from the memo.
        assert net._ctx.cache_stats()["phase1"]["hits"] == len(sparse)
        assert warm["hits"] - cold["hits"] == sum(
            r.stats.candidates_verified for r in second
        )

    def test_group_after_add_edge_sees_the_patched_arrays(self, count_to_csr):
        base = random_graph(N, 0.02, seed=401)
        net = _member_session(False, graph=DynamicGraph.from_graph(base))
        _as_group(net)
        u, v = next(
            (u, v) for u in range(N) for v in range(u + 1, N)
            if not net.graph.has_edge(u, v)
        )
        net.add_edge(u, v)
        after = _as_group(net)
        assert count_to_csr() == 1  # patched, never rebuilt
        fresh = _as_group(_member_session(False, graph=net.graph.snapshot()))
        assert [r.entries for r in after] == [r.entries for r in fresh]


class TestOneCsrPerGraph:
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_every_door_asks_the_graph(self, count_to_csr, directed):
        from repro.core.backward import backward_topk
        from repro.core.forward import forward_topk
        from repro.core.weighted import weighted_backward_topk, weighted_base_topk
        from tests.test_service import hold_worker

        net = _member_session(directed, "numpy")
        graph = net.graph
        try:
            _as_group(net)
            _as_group(net)
            # A coalesced QueryService group (one worker held, then released).
            service = net.service(workers=1)
            release, blocker = hold_worker(net)
            handles = [
                net.query(score).limit(k).aggregate(a).submit(cached=False)
                for score, k, a in MEMBERS
            ]
            release.set()
            blocker.result(timeout=10)
            for handle in handles:
                handle.result(timeout=10)
            assert service.stats()["coalesced_batches"] == 1
        finally:
            net.close()
        # The standalone front doors, sessionless.
        spec = QuerySpec(k=3, hops=2, backend="numpy")
        dense = _dyadic_scores(N, seed=410)
        sparse = BinaryRelevance(0.03, seed=420).scores(graph).values()
        base_topk(graph, dense, spec)
        forward_topk(graph, dense, spec)
        backward_topk(graph, sparse, spec)
        weighted_base_topk(graph, dense, spec)
        weighted_backward_topk(graph, sparse, spec)
        batch_base_topk(graph, [(dense, 3)], hops=2, backend="numpy")
        assert count_to_csr() == (2 if directed else 1)

    def test_racing_first_readers_build_once(self, count_to_csr):
        graph = random_graph(N, 0.02, seed=402, directed=True)
        barrier = threading.Barrier(4)
        views = []

        def reader():
            barrier.wait(timeout=10)
            views.append((graph.csr(), graph.rev_csr()))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert count_to_csr() == 2  # one forward, one reversed
        assert len(views) == 4
        assert all(pair[0] is views[0][0] and pair[1] is views[0][1] for pair in views)
