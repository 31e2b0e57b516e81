"""The session ball index: a repeated scan reads balls back, bit for bit.

:class:`~repro.graph.csr.CSRBallIndex` keeps the ``(owner, member)`` pairs
an exhaustive scan expands, keyed by node, and hands later scans the same
arrays, so a warm answer must equal a cold one *exactly* — the reduction
sees identical input — and not only on the dyadic scores the parity suites
use.  Scores here are arbitrary floats and every comparison is ``==`` on
entries or on the raw bytes of a value array.  Covered: every base
aggregate, the fused batch and forward over hops 1-3, both ball
conventions, directed and undirected; a cap that stops coverage mid-graph
and is never exceeded or rewritten; blocks with absent balls (only those
expanded and charged); permuted,
strided, reversed and repeated center sets; ``.where(...)`` and streamed
re-scans; invalidation by every ``DynamicGraph`` write made behind the
session's back, and the session's own edge writes forgetting only the balls
they changed (``tests/test_edge_write_index.py`` has the rest); ``close()``; the
work counters; ``cache_stats()``; racing threads on a cold index and a cold
session.  The workers' indexes are in ``tests/test_worker_ball_index.py``,
balls whose members' high parts span several values in
``tests/test_ball_index_wide.py``.
"""

from __future__ import annotations

import os
import random
import sys
import threading

import pytest

from repro import Network
from repro.aggregates.functions import AggregateKind
from repro.core.base import base_topk
from repro.core.batch import batch_base_topk
from repro.core.context import GraphContext
from repro.core.executor import execute
from repro.core.forward import forward_topk
from repro.core.query import QuerySpec
from repro.core.request import QueryRequest
from repro.dynamic.graph import DynamicGraph
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter
from repro.relevance.base import ScoreVector

np = pytest.importorskip("numpy")

from repro.core.vectorized import NumpyKernels  # noqa: E402
from repro.graph.csr import CSRBallIndex, batched_hop_balls  # noqa: E402

THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "4"))
AGGREGATES = ("sum", "avg", "count", "max", "min")
VIEWS = [
    (directed, hops, include_self)
    for directed in (False, True)
    for hops in (1, 2, 3)
    for include_self in (True, False)
]
#: Three 1,024-center scan blocks; a fused batch of six runs 170-center blocks.
N = 2600
SMALL = 600


def _edges(n: int, directed: bool, seed: int):
    """About three edges a node; the last 20 nodes touch none (empty open balls)."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 3 * n:
        u, v = rng.randrange(n - 20), rng.randrange(n - 20)
        if u != v:
            edges.add((u, v) if directed else (min(u, v), max(u, v)))
    return sorted(edges)


def _graph(n: int, directed: bool, seed: int = 3) -> Graph:
    return Graph.from_edges(_edges(n, directed, seed), num_nodes=n, directed=directed)


def _scores(n: int, seed: int):
    """Arbitrary (non-dyadic) floats, four in ten zero."""
    rng = random.Random(seed)
    return [rng.random() if rng.random() < 0.6 else 0.0 for _ in range(n)]


def _session(graph, hops=2, include_self=True, vectors=1):
    net = Network(graph, hops=hops, include_self=include_self, backend="numpy")
    for i in range(vectors):
        net.add_scores(f"s{i}", _scores(graph.num_nodes, seed=40 + i))
    return net


def _index_stats(net):
    return net._ctx.cache_stats()["ball_cache"]


# ---------------------------------------------------------------------------
# Index on == index off, through the session
# ---------------------------------------------------------------------------
class TestWarmEqualsCold:
    @pytest.mark.parametrize("directed,hops,include_self", VIEWS)
    def test_base_every_aggregate(self, directed, hops, include_self):
        graph = _graph(N, directed)
        net = _session(graph, hops, include_self)
        scores = net.scores_of("s0")
        for aggregate in AGGREGATES:
            query = net.query("s0").algorithm("base").aggregate(aggregate).limit(25)
            cold, warm = query.run(), query.run()
            off = base_topk(
                graph, scores, QuerySpec(25, aggregate, hops, include_self, "numpy")
            )
            assert cold.entries == off.entries, aggregate
            assert warm.entries == off.entries, aggregate
        stats = _index_stats(net)
        assert stats["covered"] == N
        assert stats["appended"] == 3  # filled once, by the first scan alone
        assert stats["served"] == 3 * (2 * len(AGGREGATES) - 1)

    @pytest.mark.parametrize("directed,hops,include_self", VIEWS)
    def test_fused_batch_shares_the_scan_filled_copy(self, directed, hops, include_self):
        graph = _graph(N, directed)
        net = _session(graph, hops, include_self, vectors=6)
        members = [
            (f"s{i}", 10 + i, ("sum", "avg", "count")[i % 3]) for i in range(6)
        ]
        group = [net.query(s).limit(k).aggregate(a) for s, k, a in members]
        off = batch_base_topk(
            graph,
            [(net.scores_of(s), k, a) for s, k, a in members],
            hops=hops, include_self=include_self, backend="numpy",
        )
        cold = net.batch(group)  # fills in 170-center blocks
        assert _index_stats(net)["appended"] > 3
        warm = net.batch(group)
        net.query("s0").algorithm("base").limit(5).run()  # reads in 1,024s
        for got in (cold, warm):
            assert [r.entries for r in got] == [r.entries for r in off]
        assert warm[0].stats.edges_scanned == 0
        assert _index_stats(net)["covered"] == N

    @pytest.mark.parametrize("directed,hops,include_self", VIEWS)
    def test_forward_through_ball_values(self, directed, hops, include_self):
        graph = _graph(SMALL, directed)
        net = _session(graph, hops, include_self)
        net.query("s0").algorithm("base").limit(5).run()  # covers the graph
        for aggregate in ("sum", "avg", "count"):
            # Id order here, but any order would do: every ball is present.
            got = (
                net.query("s0").algorithm("forward").ordering("arbitrary")
                .aggregate(aggregate).limit(15).run()
            )
            off = forward_topk(
                graph, net.scores_of("s0"),
                QuerySpec(15, aggregate, hops, include_self, "numpy"),
                diff_index=net._ctx.diff_index, ordering="arbitrary",
            )
            assert got.entries == off.entries, aggregate
            # A hit expands nothing, and still counts as an evaluation.
            assert got.stats.nodes_evaluated == off.stats.nodes_evaluated
            assert got.stats.pruned_nodes == off.stats.pruned_nodes
            assert got.stats.edges_scanned < off.stats.edges_scanned
        assert _index_stats(net)["served"] >= 3


# ---------------------------------------------------------------------------
# The kernel seam: whole value arrays, cap, block shapes
# ---------------------------------------------------------------------------
def _values(csr, centers, scores, kind, hops, include_self, index):
    counter = TraversalCounter()
    values, sizes = NumpyKernels(index).ball_values(
        np, csr, centers, scores, kind, hops, include_self, counter,
        want_sizes=True,
    )
    return values.tobytes(), sizes.tobytes(), counter


def _layout(index) -> tuple:
    """Where every run sits and what it holds: the bytes that must not move
    once a ball is stored."""
    return tuple(
        array.tobytes()
        for array in (
            index._start, index._size, index._rstart, index._span, index._high,
            index._low, index._counts,
        )
    )


def _sweep(csr, index, block, hops=2, include_self=True, scores=None):
    """One pass over the graph in ``block``-sized ranges; returns the blocks
    that charged traversal work (their absent balls' only)."""
    n = csr.num_nodes
    scores = np.asarray(_scores(n, 7)) if scores is None else scores
    expanded = []
    for lo in range(0, n, block):
        centers = np.arange(lo, min(lo + block, n), dtype=np.int64)
        on = _values(csr, centers, scores, AggregateKind.SUM, hops, include_self, index)
        off = _values(csr, centers, scores, AggregateKind.SUM, hops, include_self, None)
        assert on[:2] == off[:2], lo
        if on[2].balls_expanded:
            assert on[2].edges_scanned <= off[2].edges_scanned
            expanded.append(lo)
        else:
            assert (on[2].edges_scanned, on[2].nodes_visited) == (0, 0)
    return expanded


class TestKernelSeam:
    @pytest.mark.parametrize("directed,hops,include_self", VIEWS)
    def test_every_kind_bit_for_bit(self, directed, hops, include_self):
        csr = _graph(SMALL, directed).csr()
        scores = np.asarray(_scores(SMALL, 11))
        index = CSRBallIndex(csr, hops, include_self=include_self)
        _sweep(csr, index, 64, hops, include_self, scores)
        assert index.covered == SMALL
        for kind in (AggregateKind.SUM, AggregateKind.AVG, AggregateKind.MAX, AggregateKind.MIN):
            for lo in range(0, SMALL, 100):
                centers = np.arange(lo, lo + 100, dtype=np.int64)
                on = _values(csr, centers, scores, kind, hops, include_self, index)
                off = _values(csr, centers, scores, kind, hops, include_self, None)
                assert on[:2] == off[:2], (kind, lo)
                assert on[2].balls_expanded == 0
        # The index is the closure itself, in batched_hop_balls' layout.
        owners, members, _ = batched_hop_balls(
            csr, np.arange(SMALL, dtype=np.int64), hops, include_self=include_self
        )
        got_owners, got_members = index.pairs(np.arange(SMALL, dtype=np.int64))
        assert got_owners.dtype == owners.dtype and got_members.dtype == members.dtype
        assert got_owners.tobytes() == owners.tobytes()
        assert got_members.tobytes() == members.tobytes()

    def test_fused_values_bit_for_bit(self):
        csr = _graph(SMALL, False).csr()
        node_scores = np.stack([np.asarray(_scores(SMALL, s)) for s in (1, 2, 3)], axis=1)
        avg_rows = np.asarray([False, True, False])
        index = CSRBallIndex(csr, 2)
        _sweep(csr, index, 128)
        for lo in range(0, SMALL, 50):
            centers = np.arange(lo, lo + 50, dtype=np.int64)
            counter = TraversalCounter()
            on = NumpyKernels(index).fused_ball_values(
                np, csr, centers, node_scores, avg_rows, 2, True, counter
            )
            off = NumpyKernels().fused_ball_values(
                np, csr, centers, node_scores, avg_rows, 2, True, TraversalCounter()
            )
            assert on.tobytes() == off.tobytes()
            assert counter.edges_scanned == 0

    def test_capped_index_never_grows_past_its_cap_or_rewrites_a_ball(self):
        csr = _graph(SMALL, False).csr()
        index = CSRBallIndex(csr, 2, max_bytes=40_000)
        first = _sweep(csr, index, 64)
        assert first == list(range(0, SMALL, 64))  # cold: everything expands
        stats = index.stats()
        assert 0 < stats["covered"] < SMALL
        assert 0 < stats["bytes"] <= 40_000
        present = np.flatnonzero(index._start >= 0)
        assert present.size == stats["covered"]
        kept = index.pairs(present)
        layout = _layout(index)
        # Cyclic scans in other block sizes and a shuffled one: the balls
        # that fit stay where they are, whatever else is offered.
        again = _sweep(csr, index, 64)
        assert again == [
            lo for lo in first if (index._start[lo : lo + 64] < 0).any()
        ]
        _sweep(csr, index, 17)
        shuffled = np.random.default_rng(1).permutation(SMALL).astype(np.int64)
        scores = np.asarray(_scores(SMALL, 7))
        for lo in range(0, SMALL, 50):
            _values(csr, shuffled[lo : lo + 50], scores, AggregateKind.SUM, 2, True, index)
        after = index.stats()
        assert (after["covered"], after["bytes"], after["appended"]) == (
            stats["covered"], stats["bytes"], stats["appended"]
        )
        assert layout == _layout(index)
        again_kept = index.pairs(present)
        assert again_kept[0].tobytes() == kept[0].tobytes()
        assert again_kept[1].tobytes() == kept[1].tobytes()

    def test_a_block_with_absent_balls_expands_and_adds_exactly_those(self):
        csr = _graph(SMALL, False).csr()
        index = CSRBallIndex(csr, 2)
        scores = np.asarray(_scores(SMALL, 7))
        head = np.arange(0, 100, dtype=np.int64)
        _values(csr, head, scores, AggregateKind.SUM, 2, True, index)
        before = index.stats()
        assert before["covered"] == 100
        layout = index._start[:100].tobytes()
        straddling = np.arange(50, 150, dtype=np.int64)
        on = _values(csr, straddling, scores, AggregateKind.SUM, 2, True, index)
        off = _values(csr, straddling, scores, AggregateKind.SUM, 2, True, None)
        assert on[:2] == off[:2]
        # Half the block is read back; only the other half is expanded.
        tail = _values(csr, straddling[50:], scores, AggregateKind.SUM, 2, True, None)
        assert on[2].snapshot() == tail[2].snapshot()
        assert on[2].balls_expanded == 50 and index.served == before["served"] + 1
        assert (index.hits, index.misses) == (before["hits"] + 50, before["misses"] + 50)
        after = index.stats()
        assert after["covered"] == 150 and after["appended"] == before["appended"] + 1
        assert index._start[:100].tobytes() == layout  # present balls stay put
        sizes = batched_hop_balls(csr, np.arange(150, dtype=np.int64), 2)[1].size
        # Each ball stored once: its pairs, and one high run (every id < 2**16).
        assert after["runs"] == 150
        assert after["bytes"] == 2 * sizes + 4 * 150 == 2 * after["pairs"] + 4 * after["runs"]
        # Now the straddling block is a hit, and so is any mix of the 150.
        on = _values(csr, straddling, scores, AggregateKind.SUM, 2, True, index)
        assert on[:2] == off[:2] and on[2].balls_expanded == 0

    @pytest.mark.parametrize("fill,read", [(17, 100), (100, 17), (64, 600)])
    def test_fill_in_one_block_size_read_in_another(self, fill, read):
        csr = _graph(SMALL, True).csr()
        index = CSRBallIndex(csr, 2)
        _sweep(csr, index, fill)
        assert index.covered == SMALL
        assert _sweep(csr, index, read) == []

    @pytest.mark.parametrize("fill", [100, 17])
    def test_any_present_center_set_is_served(self, fill):
        csr = _graph(SMALL, False).csr()
        index = CSRBallIndex(csr, 2)
        _sweep(csr, index, fill)
        scores = np.asarray(_scores(SMALL, 7))
        shapes = [
            np.asarray([0, 2, 1, 3], dtype=np.int64),
            np.arange(50, 10, -1, dtype=np.int64),  # reversed
            np.arange(0, 200, 2, dtype=np.int64),  # strided
            np.asarray([5, 5, 6, 5], dtype=np.int64),  # repeated
            np.asarray([SMALL - 1, SMALL - 2, 0], dtype=np.int64),  # empty open balls
            np.random.default_rng(0).permutation(SMALL).astype(np.int64),
        ]
        for kind in (AggregateKind.MAX, AggregateKind.SUM, AggregateKind.AVG):
            for include_self in (True, False):
                view = index if include_self else CSRBallIndex(csr, 2, include_self=False)
                if view is not index:
                    _sweep(csr, view, fill, include_self=False)
                for centers in shapes:
                    served = view.served
                    on = _values(csr, centers, scores, kind, 2, include_self, view)
                    off = _values(csr, centers, scores, kind, 2, include_self, None)
                    assert on[:2] == off[:2]
                    assert view.served == served + 1
                    assert on[2].balls_expanded == 0
                    want = batched_hop_balls(csr, centers, 2, include_self=include_self)
                    got = view.pairs(centers)
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()
        empty = np.empty(0, dtype=np.int64)
        assert index.pairs(empty) is None
        assert _values(csr, empty, scores, AggregateKind.SUM, 2, True, index)[0] == b""

    def test_a_shuffled_fill_stores_each_ball_once(self):
        csr = _graph(SMALL, True).csr()
        index = CSRBallIndex(csr, 2)
        scores = np.asarray(_scores(SMALL, 7))
        order = np.random.default_rng(2).permutation(SMALL).astype(np.int64)
        order = np.concatenate([order, order[:90]])  # 90 centers offered twice
        for lo in range(0, order.size, 40):
            centers = np.concatenate([order[lo : lo + 40], order[lo : lo + 3]])
            on = _values(csr, centers, scores, AggregateKind.SUM, 2, True, index)
            off = _values(csr, centers, scores, AggregateKind.SUM, 2, True, None)
            assert on[:2] == off[:2]
        everything = np.arange(SMALL, dtype=np.int64)
        owners, members, _ = batched_hop_balls(csr, everything, 2)
        assert index.stats()["covered"] == index.stats()["runs"] == SMALL
        assert index.stats()["bytes"] == 2 * members.size + 4 * SMALL
        kept = index.pairs(everything)
        assert kept[0].tobytes() == owners.tobytes()
        assert kept[1].tobytes() == members.tobytes()

    def test_an_index_for_another_view_is_ignored(self):
        graph = _graph(SMALL, False)
        csr = graph.csr()
        scores = np.asarray(_scores(SMALL, 7))
        centers = np.arange(0, 100, dtype=np.int64)
        for other in (
            CSRBallIndex(csr, 1),
            CSRBallIndex(csr, 2, include_self=False),
            CSRBallIndex(_graph(SMALL, False, seed=4).csr(), 2),
        ):
            for _ in range(2):
                on = _values(csr, centers, scores, AggregateKind.SUM, 2, True, other)
                assert on[2].balls_expanded == 100
            assert other.stats()["covered"] == 0
            assert on[:2] == _values(csr, centers, scores, AggregateKind.SUM, 2, True, None)[:2]

    def test_unbounded_index_grows_without_losing_a_ball(self):
        csr = _graph(N, False).csr()
        index = CSRBallIndex(csr, 2)
        _sweep(csr, index, 40)  # 65 appends, several reallocations
        assert index.stats()["covered"] == N and index.stats()["max_bytes"] is None
        assert _sweep(csr, index, 1024) == []


# ---------------------------------------------------------------------------
# Lifetime: cap from the session budget, writes, close
# ---------------------------------------------------------------------------
def _scan(ctx, scores, aggregate="sum", k=20):
    request = QueryRequest(
        k=k, aggregate=aggregate, algorithm="base", backend="numpy",
        hops=ctx.hops, include_self=ctx.include_self,
    )
    return execute(ctx, ScoreVector(scores), request)


class TestLifetime:
    def test_cap_is_half_the_session_budget(self):
        graph = _graph(SMALL, False)
        assert GraphContext(graph).ball_index().max_bytes == 32 * 1024 * 1024
        assert GraphContext(graph, ball_cache_bytes=None).ball_index().max_bytes is None
        ctx = GraphContext(graph, ball_cache_bytes=60_000)
        scores = _scores(SMALL, 5)
        cold, warm = _scan(ctx, scores), _scan(ctx, scores)
        stats = ctx.cache_stats()["ball_cache"]
        assert stats["max_bytes"] == 30_000 and 0 < stats["bytes"] <= 30_000
        assert 0 < stats["covered"] < SMALL  # the one 600-center block fits in part
        assert warm.entries == cold.entries
        # The warm block reads the part that fit and expands the rest.
        assert cold.stats.balls_expanded == SMALL
        assert warm.stats.balls_expanded == SMALL - stats["covered"]
        assert 0 < warm.stats.edges_scanned < cold.stats.edges_scanned

    @pytest.mark.parametrize("write", ["add_edge", "remove_edge", "add_node"])
    def test_a_dynamic_write_drops_it(self, write):
        edges = _edges(SMALL, False, seed=3)
        dyn = DynamicGraph.from_edges(edges, num_nodes=SMALL)
        ctx = GraphContext(dyn, hops=2)
        scores = _scores(SMALL, 5)
        _scan(ctx, scores)
        filled = ctx.ball_index()
        assert filled.covered == SMALL
        if write == "add_edge":
            dyn.add_edge(SMALL - 1, 0)  # an isolated node joins a ball
        elif write == "remove_edge":
            dyn.remove_edge(*edges[0])
        else:
            dyn.add_node()
            scores = scores + [0.75]
        got = _scan(ctx, scores)
        assert ctx.ball_index() is not filled
        assert got.stats.edges_scanned > 0  # nothing was read off the dead index
        fresh = GraphContext(
            Graph.from_edges(list(dyn.edges()), num_nodes=dyn.num_nodes), hops=2
        )
        assert got.entries == _scan(fresh, scores).entries
        assert _scan(ctx, scores).entries == got.entries  # and warm again

    def test_session_writes_forget_only_the_balls_they_changed(self):
        net = _session(DynamicGraph.from_edges(_edges(SMALL, False, 3), num_nodes=SMALL))
        query = net.query("s0").algorithm("base").limit(10)
        before = query.run()
        assert _index_stats(net)["covered"] == SMALL
        index = net._ctx.ball_index()
        net.add_edge(SMALL - 1, 0)
        # One hop of either endpoint is forgotten (hops=2): node 0 and its
        # neighbours, the joining node among them.
        forgotten = len(net.graph.neighbors(0)) + 1
        assert net._ctx.ball_index() is index
        assert _index_stats(net)["covered"] == SMALL - forgotten
        after = query.run()
        assert after.stats.balls_expanded == forgotten
        fresh = _session(Graph.from_edges(list(net.graph.edges()), num_nodes=SMALL))
        assert after.entries == fresh.query("s0").algorithm("base").limit(10).run().entries
        net.remove_edge(SMALL - 1, 0)
        assert query.run().entries == before.entries
        assert _index_stats(net)["covered"] == SMALL

    def test_close_releases_every_ball_array(self):
        net = _session(_graph(SMALL, False))
        scan = net.query("s0").algorithm("base").limit(10)
        first = scan.run()
        net.query("s0").algorithm("backward").limit(10).run()
        net.topk_weighted("s0", 5)
        ctx = net._ctx
        assert ctx.cache_stats()["ball_cache"]["bytes"] > 0
        assert ctx.cache_stats()["phase1"]["entries"] == 1
        net.close()
        assert ctx._ball_index is None
        # The one backward read missed the memo; its entry went with the
        # balls, counted as dropped.
        assert ctx.cache_stats() == {
            "ball_cache": None,
            "phase1": {
                "entries": 0, "bytes": 0, "hits": 0, "misses": 1, "repaired": 0,
                "dropped": 1,
            },
        }
        # Still usable: the artefacts rebuild lazily.
        again = scan.run()
        assert again.entries == first.entries
        assert again.stats.edges_scanned == first.stats.edges_scanned
        assert _index_stats(net)["covered"] == SMALL


# ---------------------------------------------------------------------------
# Counters and stats
# ---------------------------------------------------------------------------
class TestAccounting:
    def test_second_scan_charges_less_traversal_same_evaluations(self):
        net = _session(_graph(N, False))
        query = net.query("s0").algorithm("base").limit(10)
        first, second = query.run(), query.run()
        assert 0 == second.stats.edges_scanned < first.stats.edges_scanned
        assert second.stats.nodes_visited < first.stats.nodes_visited
        assert second.stats.nodes_evaluated == first.stats.nodes_evaluated == N
        assert second.entries == first.entries

    def test_a_filtered_rescan_and_a_repeated_stream_expand_nothing(self):
        net = _session(_graph(N, False))
        some = [v for v in range(N) if v % 7 == 3]  # no contiguous range
        filtered = net.query("s0").algorithm("base").where(some).limit(10)
        first, second = filtered.run(), filtered.run()
        assert first.stats.edges_scanned > 0 == second.stats.edges_scanned
        assert second.stats.nodes_evaluated == first.stats.nodes_evaluated == len(some)
        want = base_topk(
            net.graph, net.scores_of("s0"), QuerySpec(10, "sum", 2, True, "numpy"),
            node_order=some,
        )
        assert first.entries == second.entries == want.entries
        streamed = net.query("s0").aggregate("max").limit(10)
        cold = list(streamed.stream())
        appended = _index_stats(net)["appended"]
        served = _index_stats(net)["served"]
        warm = list(streamed.stream())
        after = _index_stats(net)
        assert after["appended"] == appended and after["served"] > served
        assert warm == cold and warm[-1].entries == tuple(streamed.run().entries)

    def test_cache_stats_entry_and_service_payload(self):
        net = _session(_graph(SMALL, False))
        assert _index_stats(net) is None
        query = net.query("s0").algorithm("base").limit(10)
        query.run()
        query.run()
        stats = net.service().stats()["session_caches"]["ball_cache"]
        assert stats == {
            "covered": SMALL,
            "pairs": stats["pairs"],
            "runs": SMALL,
            "bytes": stats["bytes"],
            "max_bytes": net._ctx.ball_cache_bytes // 2,
            "served": 1,
            "appended": 1,
            "hits": SMALL,
            "misses": SMALL,
        }
        assert stats["bytes"] == 2 * stats["pairs"] + 4 * SMALL == 2 * int(
            batched_hop_balls(net.graph.csr(), np.arange(SMALL, dtype=np.int64), 2)[1].size
        ) + 4 * SMALL

    def test_python_backend_builds_no_index(self):
        net = _session(_graph(SMALL, False))
        net.query("s0").algorithm("base").backend("python").limit(5).run()
        assert _index_stats(net) is None


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------
def _run_threads(targets):
    """Run ``targets`` to completion on racing threads; re-raise what failed."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
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
    if errors:
        raise errors[0]


class TestConcurrentColdScans:
    def test_racing_fills_in_four_block_sizes_leave_each_ball_stored_once(self):
        csr = _graph(SMALL, False).csr()
        index = CSRBallIndex(csr, 2)
        blocks = (17, 20, 64, 100)
        # _sweep compares every block with its index-free value.
        _run_threads(
            [lambda b=blocks[i % len(blocks)]: _sweep(csr, index, b) for i in range(THREADS)]
        )
        everything = np.arange(SMALL, dtype=np.int64)
        owners, members, _ = batched_hop_balls(csr, everything, 2)
        stats = index.stats()
        assert stats["covered"] == stats["runs"] == SMALL
        assert stats["bytes"] == 2 * members.size + 4 * SMALL  # exactly the closure
        runs = np.sort(index._start)
        assert (np.diff(runs) == index._size[np.argsort(index._start)][:-1]).all()
        kept = index.pairs(everything)
        assert kept[0].tobytes() == owners.tobytes()
        assert kept[1].tobytes() == members.tobytes()

    def test_threads_on_a_cold_session_return_the_single_threaded_entries(self):
        graph = _graph(N, False)
        want = {
            aggregate: base_topk(
                graph, ScoreVector(_scores(N, 40)), QuerySpec(30, aggregate, 2, True, "numpy")
            ).entries
            for aggregate in AGGREGATES
        }
        net = _session(graph)
        got = {}

        def worker(slot: int) -> None:
            for round_ in range(3):
                aggregate = AGGREGATES[(slot + round_) % len(AGGREGATES)]
                entries = (
                    net.query("s0").algorithm("base").aggregate(aggregate)
                    .limit(30).run().entries
                )
                got[(slot, round_)] = (aggregate, entries)

        _run_threads([lambda i=i: worker(i) for i in range(THREADS)])
        assert len(got) == 3 * THREADS
        for aggregate, entries in got.values():
            assert entries == want[aggregate], aggregate
        # What the race left behind is exactly the closure, appended once.
        index = net._ctx.ball_index()
        assert index.stats()["covered"] == N and index.stats()["appended"] == 3
        owners, members, _ = batched_hop_balls(graph.csr(), np.arange(N, dtype=np.int64), 2)
        kept = index.pairs(np.arange(N, dtype=np.int64))
        assert kept[0].tobytes() == owners.tobytes()
        assert kept[1].tobytes() == members.tobytes()
