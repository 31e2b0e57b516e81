"""Tests for the cost-based planner and the session's explain()."""

from __future__ import annotations

import pytest

from repro.core.base import base_topk
from repro.core.planner import QueryPlanner
from repro.core.query import QuerySpec
from repro.errors import InvalidParameterError
from repro.graph.generators import powerlaw_cluster
from repro.relevance import BinaryRelevance, MixtureRelevance
from repro.session import Network
from tests.conftest import random_graph, random_scores, rounded


@pytest.fixture(scope="module")
def planner_graph():
    return powerlaw_cluster(400, 3, 0.5, seed=7, heavy_tail=True)


class TestPlanChoice:
    def test_sparse_binary_picks_backward(self, planner_graph):
        scores = BinaryRelevance(0.01, seed=8).scores(planner_graph).values()
        planner = QueryPlanner(planner_graph, scores, hops=2)
        plan = planner.plan(QuerySpec(k=10))
        assert plan.chosen == "backward"
        backward = plan.estimate_for("backward")
        assert backward.online_ball_expansions < planner_graph.num_nodes / 5
        assert "exact shortcut" in backward.note

    def test_all_zero_scores_backward_trivial(self, planner_graph):
        planner = QueryPlanner(planner_graph, [0.0] * 400, hops=2)
        plan = planner.plan(QuerySpec(k=5))
        assert plan.chosen == "backward"

    def test_max_falls_back_to_base(self, planner_graph):
        scores = random_scores(400, seed=9)
        planner = QueryPlanner(planner_graph, scores, hops=2)
        plan = planner.plan(QuerySpec(k=5, aggregate="max"))
        assert plan.chosen == "base"
        assert [e.algorithm for e in plan.estimates] == ["base"]

    def test_amortization_affects_forward_cost(self, planner_graph):
        scores = random_scores(400, seed=10)
        planner = QueryPlanner(planner_graph, scores, hops=2, index_available=False)
        cold = planner.plan(QuerySpec(k=5), amortize_index=False)
        warm = planner.plan(QuerySpec(k=5), amortize_index=True)
        fwd_cold = cold.estimate_for("forward").total_first_query()
        fwd_warm = warm.estimate_for("forward").total_amortized()
        assert fwd_cold > fwd_warm

    def test_index_available_zeroes_offline(self, planner_graph):
        scores = random_scores(400, seed=11)
        planner = QueryPlanner(planner_graph, scores, hops=2, index_available=True)
        plan = planner.plan(QuerySpec(k=5))
        assert plan.estimate_for("forward").offline_ball_expansions == 0.0

    def test_hops_mismatch_rejected(self, planner_graph):
        planner = QueryPlanner(planner_graph, [0.0] * 400, hops=2)
        with pytest.raises(InvalidParameterError):
            planner.plan(QuerySpec(k=5, hops=1))

    def test_explain_text(self, planner_graph):
        scores = BinaryRelevance(0.02, seed=12).scores(planner_graph).values()
        planner = QueryPlanner(planner_graph, scores, hops=2)
        text = planner.plan(QuerySpec(k=7)).explain()
        assert "chosen algorithm" in text
        assert "->" in text
        assert "base" in text and "backward" in text

    def test_estimate_for_unknown(self, planner_graph):
        planner = QueryPlanner(planner_graph, [0.0] * 400, hops=2)
        plan = planner.plan(QuerySpec(k=5))
        with pytest.raises(InvalidParameterError):
            plan.estimate_for("quantum")


class TestEngineIntegration:
    def test_engine_explain(self, planner_graph):
        net = Network(planner_graph, hops=2).add_scores("s", BinaryRelevance(0.01, seed=13))
        plan = net.query("s").limit(10).explain()
        assert plan.chosen in ("base", "forward", "backward")

    def test_planned_execution_is_correct(self):
        g = random_graph(50, 0.1, seed=14)
        scores = random_scores(50, seed=15)
        result = Network(g, hops=2).add_scores("s", scores).topk("s", 6, algorithm="planned")
        expected = base_topk(g, scores, QuerySpec(k=6))
        assert rounded(result.values) == rounded(expected.values)

    def test_planner_rebuilt_after_index_build(self, planner_graph):
        net = Network(planner_graph, hops=2).add_scores(
            "s", MixtureRelevance(0.01, zero_fraction=0.0, seed=16)
        )
        query = net.query("s").limit(10)
        cold_plan = query.explain(amortize_index=False)
        net.build_indexes()
        warm_plan = query.explain(amortize_index=False)
        cold_forward = cold_plan.estimate_for("forward").offline_ball_expansions
        warm_forward = warm_plan.estimate_for("forward").offline_ball_expansions
        assert cold_forward > 0.0
        assert warm_forward == 0.0
