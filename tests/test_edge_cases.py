"""Edge-case hardening across subsystems."""

from __future__ import annotations

from repro.core.backward import backward_topk
from repro.core.base import base_topk
from repro.core.forward import forward_topk
from repro.core.query import QuerySpec
from repro.graph.graph import Graph
from repro.relational.operators import (
    OperatorStats,
    distinct,
    group_aggregate,
    hash_join,
    order_by_limit,
)
from repro.relational.table import Table
from tests.conftest import rounded


class TestRelationalEmptyInputs:
    def test_distinct_empty(self):
        stats = OperatorStats()
        out = distinct(Table.empty(["a"]), stats)
        assert out.num_rows == 0

    def test_join_empty_sides(self):
        stats = OperatorStats()
        left = Table.empty(["k", "x"])
        right = Table({"k": [1], "y": [2]})
        assert hash_join(left, right, left_key="k", right_key="k", stats=stats).num_rows == 0
        assert hash_join(right, left, left_key="k", right_key="k", stats=stats).num_rows == 0

    def test_group_empty(self):
        stats = OperatorStats()
        out = group_aggregate(
            Table.empty(["g", "v"]),
            key="g",
            aggregations={"s": ("sum", "v")},
            stats=stats,
        )
        assert out.num_rows == 0

    def test_limit_beyond_rows(self):
        stats = OperatorStats()
        t = Table({"v": [1.0, 2.0]})
        out = order_by_limit(t, column="v", k=10, stats=stats)
        assert out.num_rows == 2


class TestAlgorithmsOnPathologies:
    def test_complete_graph_all_balls_identical(self):
        n = 12
        g = Graph.from_edges(
            [(u, v) for u in range(n) for v in range(u + 1, n)]
        )
        scores = [i / n for i in range(n)]
        spec = QuerySpec(k=5, hops=2)
        expected = base_topk(g, scores, spec)
        # every ball is V, so every value equals sum(scores)
        assert len(set(rounded(expected.values))) == 1
        assert rounded(forward_topk(g, scores, spec).values) == rounded(
            expected.values
        )
        assert rounded(backward_topk(g, scores, spec).values) == rounded(
            expected.values
        )

    def test_disconnected_stars(self):
        edges = []
        for hub in (0, 10, 20):
            edges.extend((hub, hub + leaf) for leaf in range(1, 10))
        g = Graph.from_edges(edges, num_nodes=30)
        scores = [1.0 if u % 10 == 0 else 0.0 for u in range(30)]
        spec = QuerySpec(k=3, hops=2)
        expected = base_topk(g, scores, spec)
        assert rounded(backward_topk(g, scores, spec).values) == rounded(
            expected.values
        )
        # every hub's ball holds exactly its own flag
        assert expected.values == [1.0, 1.0, 1.0]

    def test_long_path_high_hops(self):
        n = 40
        g = Graph.from_edges([(i, i + 1) for i in range(n - 1)])
        scores = [1.0 if i == 0 else 0.0 for i in range(n)]
        spec = QuerySpec(k=1, hops=10)
        for func in (base_topk, forward_topk, backward_topk):
            result = func(g, scores, spec)
            assert result.values == [1.0]
            # only nodes within 10 hops of node 0 can be the answer
            assert result.nodes[0] <= 10

    def test_k_equals_n_returns_everything_sorted(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        scores = [0.1, 0.9, 0.3, 0.6]
        spec = QuerySpec(k=4, hops=1)
        for func in (base_topk, forward_topk, backward_topk):
            result = func(g, scores, spec)
            assert len(result) == 4
            assert result.values == sorted(result.values, reverse=True)

    def test_scores_all_equal_ranking_by_ball_size(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (3, 4)])
        scores = [0.5] * 5
        spec = QuerySpec(k=1, hops=1)
        result = base_topk(g, scores, spec)
        assert result.top()[0] == 0  # the hub has the largest 1-hop ball
        assert rounded(forward_topk(g, scores, spec).values) == rounded(
            result.values
        )
