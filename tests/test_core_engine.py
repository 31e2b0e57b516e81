"""Single-query cases through the ``Network`` front door: score coercion,
index lifecycle, algorithm pins and knobs, ``algorithm="auto"``."""

from __future__ import annotations

import pytest

from repro.core.base import base_topk
from repro.core.context import GraphContext
from repro.core.query import QuerySpec
from repro.errors import InvalidParameterError, RelevanceError
from repro.graph.generators import powerlaw_cluster
from repro.relevance import BinaryRelevance, ScoreVector
from repro.session import Network
from tests.conftest import random_graph, random_scores, rounded


@pytest.fixture
def engine_graph():
    return random_graph(50, 0.1, seed=71)


@pytest.fixture
def engine_scores():
    return random_scores(50, seed=72)


def session(graph, relevance, **options):
    return Network(graph, **options).add_scores("s", relevance)


class TestConstruction:
    def test_accepts_score_vector(self, engine_graph, engine_scores):
        net = session(engine_graph, ScoreVector(engine_scores))
        assert net.scores_of("s").density > 0

    def test_accepts_plain_sequence(self, engine_graph, engine_scores):
        net = session(engine_graph, engine_scores)
        assert len(net.scores_of("s")) == 50

    def test_accepts_relevance_function(self, engine_graph):
        net = session(engine_graph, BinaryRelevance(0.1, seed=73))
        assert net.scores_of("s").is_binary

    def test_rejects_wrong_length(self, engine_graph):
        with pytest.raises(RelevanceError):
            session(engine_graph, [0.5] * 10)

    def test_rejects_out_of_range(self, engine_graph):
        with pytest.raises(RelevanceError):
            session(engine_graph, [2.0] * 50)


class TestIndexLifecycle:
    def test_build_indexes_once(self, engine_graph, engine_scores):
        net = session(engine_graph, engine_scores)
        first = net.build_indexes()
        assert first > 0.0
        assert net.build_indexes() == 0.0
        assert net.diff_index is not None

    def test_size_index_estimated_by_default(self, engine_graph):
        assert not GraphContext(engine_graph).size_index().is_exact

    def test_size_index_exact_on_request(self, engine_graph):
        assert GraphContext(engine_graph).size_index(exact=True).is_exact

    def test_size_index_upgrades_after_build(self, engine_graph):
        ctx = GraphContext(engine_graph)
        ctx.build_indexes()
        assert ctx.size_index().is_exact


class TestQueries:
    @pytest.mark.parametrize("algorithm", ["base", "forward", "backward"])
    @pytest.mark.parametrize("aggregate", ["sum", "avg"])
    def test_all_paths_agree(self, engine_graph, engine_scores, algorithm, aggregate):
        net = session(engine_graph, engine_scores)
        expected = base_topk(
            engine_graph, engine_scores, QuerySpec(k=6, aggregate=aggregate)
        )
        result = net.topk("s", 6, aggregate, algorithm=algorithm)
        assert rounded(result.values) == rounded(expected.values)
        assert result.stats.algorithm == algorithm

    def test_max_via_base(self, engine_graph, engine_scores):
        net = session(engine_graph, engine_scores)
        result = net.topk("s", 3, "max", algorithm="auto")
        assert result.stats.algorithm == "base"

    def test_unknown_algorithm(self, engine_graph, engine_scores):
        net = session(engine_graph, engine_scores)
        with pytest.raises(InvalidParameterError):
            net.topk("s", 3, "sum", algorithm="sideways")

    def test_unknown_option_rejected(self, engine_graph, engine_scores):
        net = session(engine_graph, engine_scores)
        with pytest.raises(InvalidParameterError):
            net.topk("s", 3, "sum", algorithm="backward", nonsense=1)

    def test_backward_options_forwarded(self, engine_graph, engine_scores):
        net = session(engine_graph, engine_scores)
        result = net.topk("s", 3, "sum", algorithm="backward", gamma=0.5)
        assert result.stats.extra["gamma"] == 0.5

    def test_backward_exact_sizes_option(self, engine_graph, engine_scores):
        net = session(engine_graph, engine_scores)
        result = net.topk("s", 3, "sum", algorithm="backward", exact_sizes=True)
        assert rounded(result.values) == rounded(
            base_topk(engine_graph, engine_scores, QuerySpec(k=3)).values
        )

    def test_forward_ordering_option(self, engine_graph, engine_scores):
        net = session(engine_graph, engine_scores)
        result = net.topk("s", 3, "sum", algorithm="forward", ordering="degree")
        assert result.stats.extra["ordering"] == "degree"

    def test_hops_respected(self, engine_graph, engine_scores):
        r1 = session(engine_graph, engine_scores, hops=1).topk("s", 3, algorithm="base")
        r2 = session(engine_graph, engine_scores, hops=2).topk("s", 3, algorithm="base")
        assert r1.values[0] <= r2.values[0]


class TestAutoSelection:
    def test_sparse_picks_backward(self):
        g = powerlaw_cluster(200, 3, 0.5, seed=74)
        result = session(g, BinaryRelevance(0.05, seed=75)).topk("s", 5)
        assert result.stats.algorithm == "backward"

    def test_dense_without_index_picks_base(self, engine_graph):
        result = session(engine_graph, [0.9] * 50).topk("s", 5)
        assert result.stats.algorithm == "base"

    def test_dense_with_index_picks_forward(self, engine_graph):
        net = session(engine_graph, [0.9] * 50)
        net.build_indexes()
        result = net.topk("s", 5)
        assert result.stats.algorithm == "forward"


class TestConvenience:
    """``Network.topk`` is the one-shot form."""

    def test_topk_sum(self, engine_graph, engine_scores):
        result = session(engine_graph, engine_scores).topk("s", 4)
        expected = base_topk(engine_graph, engine_scores, QuerySpec(k=4))
        assert rounded(result.values) == rounded(expected.values)

    def test_topk_avg(self, engine_graph, engine_scores):
        result = session(engine_graph, engine_scores).topk("s", 4, "avg", algorithm="base")
        expected = base_topk(
            engine_graph, engine_scores, QuerySpec(k=4, aggregate="avg")
        )
        assert rounded(result.values) == rounded(expected.values)
