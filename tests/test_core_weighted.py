"""Tests for distance-weighted top-k aggregation (footnote 1)."""

from __future__ import annotations

import pytest

from repro.aggregates.weighted import (
    exponential_decay,
    inverse_distance,
    uniform_weight,
    weighted_ball_sum,
)
from repro.core.base import base_topk
from repro.core.query import QuerySpec
from repro.core.weighted import weighted_backward_topk, weighted_base_topk
from repro.errors import InvalidParameterError
from repro.graph.generators import powerlaw_cluster
from repro.graph.neighborhood import NeighborhoodSizeIndex
from repro.relevance import BinaryRelevance
from repro.session import Network
from tests.conftest import random_graph, random_scores, rounded


def brute_weighted_topk(graph, scores, k, hops, profile, include_self=True):
    values = sorted(
        (
            weighted_ball_sum(
                graph, scores, u, hops, profile, include_self=include_self
            )
            for u in graph.nodes()
        ),
        reverse=True,
    )
    return values[:k]


class TestWeightedBase:
    def test_hand_computed_path(self, path_graph):
        scores = [0.0, 0.0, 1.0, 0.0, 1.0]
        result = weighted_base_topk(
            path_graph, scores, QuerySpec(k=1, hops=2), inverse_distance
        )
        # node 3: itself 0 + node 2 at d1 (w=1) + node 4 at d1 (w=1) = 2.0
        assert result.entries[0] == (3, 2.0)

    def test_uniform_equals_plain_sum(self):
        g = random_graph(35, 0.12, seed=141)
        scores = random_scores(35, seed=142)
        spec = QuerySpec(k=8, hops=2)
        weighted = weighted_base_topk(g, scores, spec, uniform_weight)
        plain = base_topk(g, scores, spec)
        assert rounded(weighted.values) == rounded(plain.values)

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_matches_brute_force(self, hops):
        g = random_graph(30, 0.12, seed=143)
        scores = random_scores(30, seed=144)
        result = weighted_base_topk(
            g, scores, QuerySpec(k=6, hops=hops), inverse_distance
        )
        assert rounded(result.values) == rounded(
            brute_weighted_topk(g, scores, 6, hops, inverse_distance)
        )

    def test_avg_rejected(self, path_graph):
        with pytest.raises(InvalidParameterError):
            weighted_base_topk(
                path_graph, [0.1] * 5, QuerySpec(k=1, aggregate="avg")
            )


class TestWeightedBackward:
    @pytest.mark.parametrize("profile_name", ["inverse", "exp", "uniform"])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_agrees_with_weighted_base(self, profile_name, hops):
        profile = {
            "inverse": inverse_distance,
            "exp": exponential_decay(0.5),
            "uniform": uniform_weight,
        }[profile_name]
        g = random_graph(40, 0.1, seed=145)
        scores = random_scores(40, seed=146)
        spec = QuerySpec(k=7, hops=hops)
        expected = weighted_base_topk(g, scores, spec, profile)
        actual = weighted_backward_topk(g, scores, spec, profile)
        assert rounded(actual.values) == rounded(expected.values)

    @pytest.mark.parametrize("gamma", [0.0, 0.4, 0.9, "auto"])
    def test_any_gamma_correct(self, gamma):
        g = random_graph(35, 0.12, seed=147)
        scores = random_scores(35, seed=148)
        spec = QuerySpec(k=6, hops=2)
        expected = weighted_base_topk(g, scores, spec)
        actual = weighted_backward_topk(g, scores, spec, gamma=gamma)
        assert rounded(actual.values) == rounded(expected.values)

    def test_directed_graph(self):
        g = random_graph(30, 0.1, seed=149, directed=True)
        scores = random_scores(30, seed=150)
        spec = QuerySpec(k=5, hops=2)
        expected = weighted_base_topk(g, scores, spec)
        actual = weighted_backward_topk(g, scores, spec)
        assert rounded(actual.values) == rounded(expected.values)

    def test_open_ball(self):
        g = random_graph(30, 0.12, seed=151)
        scores = random_scores(30, seed=152)
        spec = QuerySpec(k=5, hops=2, include_self=False)
        expected = weighted_base_topk(g, scores, spec)
        actual = weighted_backward_topk(g, scores, spec)
        assert rounded(actual.values) == rounded(expected.values)

    def test_binary_shortcut(self):
        g = powerlaw_cluster(200, 3, 0.5, seed=153)
        scores = BinaryRelevance(0.05, seed=154).scores(g).values()
        spec = QuerySpec(k=8, hops=2)
        result = weighted_backward_topk(
            g, scores, spec, sizes=NeighborhoodSizeIndex.exact(g, 2)
        )
        assert result.stats.extra["exact_shortcut"] == 1.0
        assert result.stats.candidates_verified == 0
        expected = weighted_base_topk(g, scores, spec)
        assert rounded(result.values) == rounded(expected.values)

    def test_exact_sizes_and_estimates_agree(self):
        g = random_graph(35, 0.12, seed=155)
        scores = random_scores(35, seed=156)
        spec = QuerySpec(k=6, hops=2)
        exact = weighted_backward_topk(
            g, scores, spec, sizes=NeighborhoodSizeIndex.exact(g, 2)
        )
        estimated = weighted_backward_topk(g, scores, spec, sizes=None)
        assert rounded(exact.values) == rounded(estimated.values)


class TestEngineWeighted:
    def test_engine_paths_agree(self):
        g = random_graph(40, 0.1, seed=157)
        scores = random_scores(40, seed=158)
        net = Network(g, hops=2).add_scores("s", scores)
        via_base = net.topk_weighted("s", 6, algorithm="base")
        via_backward = net.topk_weighted("s", 6, algorithm="backward")
        assert rounded(via_base.values) == rounded(via_backward.values)
        assert via_base.stats.algorithm == "weighted-base"
        assert via_backward.stats.algorithm == "weighted-backward"

    def test_custom_profile(self):
        g = random_graph(30, 0.12, seed=159)
        scores = random_scores(30, seed=160)
        net = Network(g, hops=2).add_scores("s", scores)
        decay = exponential_decay(0.3)
        result = net.topk_weighted("s", 5, profile=decay, algorithm="backward")
        expected = weighted_base_topk(g, scores, QuerySpec(k=5, hops=2), decay)
        assert rounded(result.values) == rounded(expected.values)

    def test_unknown_algorithm(self):
        g = random_graph(20, 0.2, seed=161)
        net = Network(g, hops=2).add_scores("s", [0.5] * 20)
        with pytest.raises(InvalidParameterError):
            net.topk_weighted("s", 3, algorithm="forward")
