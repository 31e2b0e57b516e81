"""End-to-end integration: every execution path, one truth.

For each dataset stand-in (tiny scale) and both paper aggregates, the same
query is answered through every path the repository offers — Base,
LONA-Forward, LONA-Backward (indexed and index-free), the relational plan,
the shared-scan batch, the materialized view, and the maintained dynamic
view — and all must return the same top-k value multiset.  This is the
repository's strongest single guarantee: a regression anywhere in any
substrate breaks this file.

Also includes deterministic work-counter regression guards: the pruning
algorithms must actually prune on the paper's workloads (wall-clock-free,
machine-independent assertions).
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import figure
from repro.core.backward import backward_topk
from repro.core.base import base_topk
from repro.core.batch import BatchQuery, batch_base_topk
from repro.core.forward import forward_topk
from repro.core.materialized import MaterializedView
from repro.core.query import QuerySpec
from repro.dynamic import DynamicGraph, MaintainedAggregateView
from repro.graph.diffindex import build_differential_index
from repro.relational.engine import relational_topk
from repro.relevance.base import ScoreVector
from repro.session import Network
from tests.conftest import rounded

DATASETS = ["fig1", "fig3", "fig5"]  # collaboration, intrusion, citation
K = 8
SCALE = 0.04


@pytest.fixture(scope="module", params=DATASETS)
def scenario(request):
    spec = figure(request.param)
    graph = spec.build_graph(scale=SCALE)
    scores = spec.build_scores(graph).values()
    diff_index = build_differential_index(graph, 2)
    return request.param, graph, scores, diff_index


@pytest.mark.parametrize("aggregate", ["sum", "avg"])
def test_all_paths_agree(scenario, aggregate):
    figure_id, graph, scores, diff_index = scenario
    spec = QuerySpec(k=K, hops=2, aggregate=aggregate)
    reference = base_topk(graph, scores, spec)
    truth = rounded(reference.values)

    answers = {
        "forward": forward_topk(graph, scores, spec, diff_index=diff_index),
        "backward-indexed": backward_topk(
            graph, scores, spec, sizes=diff_index.sizes
        ),
        "backward-indexfree": backward_topk(graph, scores, spec),
        "relational": relational_topk(graph, scores, spec),
        "batch": batch_base_topk(
            graph, [BatchQuery(ScoreVector(scores), K, aggregate)]
        )[0],
        "materialized": MaterializedView(graph, scores, hops=2).topk(K, aggregate),
        "maintained-view": MaintainedAggregateView(
            DynamicGraph.from_graph(graph), scores, hops=2
        ).topk(K, aggregate),
    }
    for path, result in answers.items():
        assert rounded(result.values) == truth, (figure_id, aggregate, path)


def test_engine_facade_matches_direct_calls(scenario):
    figure_id, graph, scores, _diff_index = scenario
    net = Network(graph, hops=2).add_scores("s", scores)
    expected = rounded(base_topk(graph, scores, QuerySpec(k=K, hops=2)).values)
    for algorithm in ("auto", "planned", "base", "forward", "backward"):
        result = net.topk("s", K, algorithm=algorithm)
        assert rounded(result.values) == expected, (figure_id, algorithm)


def test_deterministic_across_runs(scenario):
    figure_id, graph, scores, diff_index = scenario
    spec = QuerySpec(k=K, hops=2)
    first = backward_topk(graph, scores, spec, sizes=diff_index.sizes)
    second = backward_topk(graph, scores, spec, sizes=diff_index.sizes)
    assert first.entries == second.entries
    assert first.stats.nodes_evaluated == second.stats.nodes_evaluated
    assert first.stats.distribution_pushes == second.stats.distribution_pushes


class TestWorkCounterRegressions:
    """Deterministic pruning guarantees on the paper's own workloads.

    These pin the *mechanism*, not wall-clock: if a change silently turns a
    pruning algorithm into a full scan, these fail on any machine.
    """

    def test_backward_shortcut_on_binary_workloads(self):
        spec = figure("fig1")
        graph = spec.build_graph(scale=0.1)
        scores = spec.build_scores(graph).values()
        result = backward_topk(
            graph,
            scores,
            QuerySpec(k=50, hops=2),
            sizes=build_differential_index(graph, 2).sizes,
        )
        # Binary relevance -> rest bound 0 -> zero exact evaluations.
        assert result.stats.nodes_evaluated == 0
        assert result.stats.extra["exact_shortcut"] == 1.0
        # Distribution touches only the non-zero nodes' balls.
        nonzero = sum(1 for s in scores if s > 0)
        assert result.stats.balls_expanded == nonzero

    def test_forward_prunes_on_intrusion_workload(self):
        spec = figure("fig3")
        graph = spec.build_graph(scale=0.1)
        scores = spec.build_scores(graph).values()
        result = forward_topk(graph, scores, QuerySpec(k=20, hops=2))
        assert result.stats.pruned_nodes > graph.num_nodes * 0.3
        assert result.stats.nodes_evaluated < graph.num_nodes * 0.7

    def test_batch_shares_traversal(self):
        spec = figure("fig1")
        graph = spec.build_graph(scale=0.05)
        from repro.relevance.mixture import MixtureRelevance

        vectors = [
            MixtureRelevance(0.05, zero_fraction=0.0, seed=i).scores(graph)
            for i in range(4)
        ]
        results = batch_base_topk(
            graph, [BatchQuery(v, k=5) for v in vectors], hops=2
        )
        single = base_topk(graph, vectors[0].values(), QuerySpec(k=5, hops=2))
        # Whole batch == one Base traversal, not four.
        assert results[0].stats.edges_scanned == single.stats.edges_scanned
