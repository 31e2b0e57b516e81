"""Tests for the relational plan against the graph-side oracle."""

from __future__ import annotations

import pytest

from repro.core.base import base_topk
from repro.core.query import QuerySpec
from repro.errors import PlanError
from repro.relational.engine import relational_topk
from repro.relational.operators import OperatorStats
from repro.relational.planner import (
    edges_table,
    neighborhood_pairs,
    nodes_table,
    scores_table,
)
from tests.conftest import random_graph, random_scores, ref_ball, rounded


class TestBaseTables:
    def test_edges_table_undirected_has_both_arcs(self, path_graph):
        t = edges_table(path_graph)
        assert t.num_rows == 8  # 4 edges x 2 directions
        assert set(zip(t.column("src"), t.column("dst"))) == set(path_graph.arcs())

    def test_edges_table_directed(self, directed_cycle):
        t = edges_table(directed_cycle)
        assert t.num_rows == 4

    def test_nodes_and_scores_tables(self, path_graph):
        assert nodes_table(path_graph).column("node") == [0, 1, 2, 3, 4]
        st = scores_table([0.1, 0.2])
        assert st.column("score") == [0.1, 0.2]


class TestNeighborhoodPairs:
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    @pytest.mark.parametrize("include_self", [True, False])
    def test_pairs_equal_balls(self, hops, include_self):
        g = random_graph(20, 0.15, seed=101)
        stats = OperatorStats()
        pairs = neighborhood_pairs(
            edges_table(g), nodes_table(g), hops, include_self=include_self, stats=stats
        )
        got = {}
        for src, dst in zip(pairs.column("src"), pairs.column("dst")):
            got.setdefault(src, set()).add(dst)
        for u in range(20):
            expected = ref_ball(g, u, hops, include_self=include_self)
            assert got.get(u, set()) == expected, u

    def test_pairs_are_distinct(self):
        g = random_graph(15, 0.25, seed=102)
        stats = OperatorStats()
        pairs = neighborhood_pairs(
            edges_table(g), nodes_table(g), 2, include_self=True, stats=stats
        )
        rows = pairs.to_rows()
        assert len(rows) == len(set(rows))

    def test_negative_hops_rejected(self, path_graph):
        with pytest.raises(PlanError):
            neighborhood_pairs(
                edges_table(path_graph),
                nodes_table(path_graph),
                -1,
                include_self=True,
                stats=OperatorStats(),
            )


class TestRelationalTopK:
    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_matches_base(self, aggregate, hops):
        g = random_graph(30, 0.12, seed=103)
        scores = random_scores(30, seed=104)
        spec = QuerySpec(k=6, hops=hops, aggregate=aggregate)
        expected = base_topk(g, scores, spec)
        actual = relational_topk(g, scores, spec)
        assert rounded(actual.values) == rounded(expected.values)

    def test_directed_matches_base(self):
        g = random_graph(25, 0.1, seed=105, directed=True)
        scores = random_scores(25, seed=106)
        spec = QuerySpec(k=5)
        expected = base_topk(g, scores, spec)
        actual = relational_topk(g, scores, spec)
        assert rounded(actual.values) == rounded(expected.values)

    def test_isolated_nodes_included(self, two_components):
        scores = [0.0] * 6
        spec = QuerySpec(k=6)
        actual = relational_topk(two_components, scores, spec)
        assert len(actual) == 6

    def test_open_ball(self):
        g = random_graph(20, 0.2, seed=107)
        scores = random_scores(20, seed=108)
        spec = QuerySpec(k=5, include_self=False)
        expected = base_topk(g, scores, spec)
        actual = relational_topk(g, scores, spec)
        assert rounded(actual.values) == rounded(expected.values)

    def test_max_rejected(self, path_graph):
        with pytest.raises(PlanError):
            relational_topk(path_graph, [0.1] * 5, QuerySpec(k=2, aggregate="max"))

    def test_stats_name_the_algorithm(self):
        g = random_graph(20, 0.2, seed=109)
        scores = random_scores(20, seed=110)
        result = relational_topk(g, scores, QuerySpec(k=4, hops=2))
        expected = base_topk(g, scores, QuerySpec(k=4))
        assert rounded(result.values) == rounded(expected.values)
        assert result.stats.algorithm == "relational"

    def test_stats_expose_row_work(self):
        g = random_graph(20, 0.2, seed=111)
        scores = random_scores(20, seed=112)
        result = relational_topk(g, scores, QuerySpec(k=4))
        assert result.stats.extra["rows_scanned"] > 0
        assert result.stats.extra["join_probes"] > 0

    def test_two_hop_join_blowup_visible(self):
        """The 2-hop plan materializes more rows than the 1-hop plan —
        the paper's 'gigantic self-join' claim, measured."""
        g = random_graph(25, 0.2, seed=113)
        scores = random_scores(25, seed=114)
        one = relational_topk(g, scores, QuerySpec(k=3, hops=1))
        two = relational_topk(g, scores, QuerySpec(k=3, hops=2))
        assert (
            two.stats.extra["rows_scanned"] > one.stats.extra["rows_scanned"]
        )
