"""Deprecation shims: old entry points warn but stay entry-for-entry exact.

The API redesign keeps the pre-session paths working — ``TopKEngine``,
``topk_sum``/``topk_avg`` — while the engine class emits
:class:`DeprecationWarning` pointing at the ``Network`` facade.  These
tests pin both halves of that contract: the warning fires on construction,
and the answers are identical to the facade's.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.engine import TopKEngine, topk_avg, topk_sum
from repro.session import Network
from tests.conftest import random_graph, random_scores, rounded


@pytest.fixture(scope="module")
def graph():
    return random_graph(40, 0.12, seed=511)


@pytest.fixture(scope="module")
def scores():
    return random_scores(40, seed=512, density=0.9)


@pytest.fixture(scope="module")
def net(graph, scores):
    return Network(graph, hops=2).add_scores("s", scores)


class TestTopKEngineShim:
    def test_construction_warns(self, graph, scores):
        with pytest.warns(DeprecationWarning, match="Network"):
            TopKEngine(graph, scores)

    @pytest.mark.parametrize("algorithm", ["base", "forward", "backward", "auto"])
    def test_old_path_identical_entries(self, graph, scores, algorithm):
        # Fresh session and engine: "auto" depends on cache state (a built
        # index flips dense queries to forward), so parity needs both sides
        # cold.
        fresh = Network(graph, hops=2).add_scores("s", scores)
        with pytest.warns(DeprecationWarning):
            engine = TopKEngine(graph, scores, hops=2)
        old = engine.topk(5, "sum", algorithm)
        new = fresh.query("s").limit(5).algorithm(algorithm).run()
        assert old.entries == new.entries
        assert old.stats.algorithm == new.stats.algorithm

    def test_old_options_still_forwarded(self, graph, scores):
        with pytest.warns(DeprecationWarning):
            engine = TopKEngine(graph, scores, hops=2)
        result = engine.topk(3, "sum", "backward", gamma=0.5)
        assert result.stats.extra["gamma"] == 0.5

    def test_index_lifecycle_still_works(self, graph, scores, tmp_path):
        with pytest.warns(DeprecationWarning):
            engine = TopKEngine(graph, scores, hops=2)
        assert engine.build_indexes() > 0.0
        path = tmp_path / "old.lonaidx"
        engine.save_index(path)
        with pytest.warns(DeprecationWarning):
            reader = TopKEngine(graph, scores, hops=2)
        reader.load_index(path)
        assert reader.diff_index is not None

    def test_explain_still_works(self, graph, scores, net):
        with pytest.warns(DeprecationWarning):
            engine = TopKEngine(graph, scores, hops=2)
        old_plan = engine.explain(5)
        new_plan = net.query("s").limit(5).explain()
        assert old_plan.chosen == new_plan.chosen


class TestConvenienceFunctions:
    """topk_sum/topk_avg route through the facade and must not warn."""

    def test_no_deprecation_warning(self, graph, scores):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            topk_sum(graph, scores, 3)
            topk_avg(graph, scores, 3)

    def test_identical_to_facade(self, graph, scores, net):
        old_sum = topk_sum(graph, scores, 4)
        old_avg = topk_avg(graph, scores, 4)
        new_sum = net.query("s").limit(4).run()
        new_avg = net.query("s").limit(4).aggregate("avg").run()
        assert rounded(old_sum.values) == rounded(new_sum.values)
        assert rounded(old_avg.values) == rounded(new_avg.values)
