"""Tests for the dynamic graph and incremental aggregate maintenance."""

from __future__ import annotations

import random

import pytest

from repro.core.backends import numpy_available
from repro.core.base import base_topk
from repro.core.query import QuerySpec
from repro.dynamic import DynamicGraph, MaintainedAggregateView
from repro.errors import (
    EdgeNotFoundError,
    GraphBuildError,
    InvalidParameterError,
    RelevanceError,
)
from repro.graph.generators import erdos_renyi
from tests.conftest import random_scores, ref_ball, rounded

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


class TestDynamicGraph:
    def test_from_graph_copies(self, path_graph):
        dg = DynamicGraph.from_graph(path_graph)
        dg.add_edge(0, 4)
        assert not path_graph.has_edge(0, 4)
        assert dg.has_edge(0, 4)

    def test_version_bumps(self, path_graph):
        dg = DynamicGraph.from_graph(path_graph)
        v0 = dg.version
        dg.add_edge(0, 2)
        assert dg.version == v0 + 1
        dg.remove_edge(0, 2)
        assert dg.version == v0 + 2
        dg.add_node()
        assert dg.version == v0 + 3

    def test_duplicate_edge_rejected(self, path_graph):
        dg = DynamicGraph.from_graph(path_graph)
        with pytest.raises(GraphBuildError):
            dg.add_edge(0, 1)
        with pytest.raises(GraphBuildError):
            dg.add_edge(1, 0)  # undirected duplicate

    def test_self_loop_rejected(self, path_graph):
        dg = DynamicGraph.from_graph(path_graph)
        with pytest.raises(GraphBuildError):
            dg.add_edge(2, 2)

    def test_remove_missing_edge(self, path_graph):
        dg = DynamicGraph.from_graph(path_graph)
        with pytest.raises(EdgeNotFoundError):
            dg.remove_edge(0, 3)

    def test_edge_counts_maintained(self, path_graph):
        dg = DynamicGraph.from_graph(path_graph)
        assert dg.num_edges == 4
        dg.add_edge(0, 3)
        assert dg.num_edges == 5
        dg.remove_edge(0, 1)
        assert dg.num_edges == 4

    def test_directed_dynamic(self, directed_cycle):
        dg = DynamicGraph.from_graph(directed_cycle)
        dg.add_edge(0, 2)
        assert dg.has_edge(0, 2)
        assert not dg.has_edge(2, 0)
        dg.add_edge(2, 0)  # reverse arc is distinct
        assert dg.num_edges == 6

    def test_snapshot_immutable(self, path_graph):
        dg = DynamicGraph.from_graph(path_graph)
        snap = dg.snapshot()
        dg.add_edge(0, 4)
        assert not snap.has_edge(0, 4)

    def test_from_edges(self):
        dg = DynamicGraph.from_edges([(0, 1), (1, 2)], num_nodes=4)
        assert dg.num_nodes == 4
        assert dg.num_edges == 2


class TestMaintainedView:
    def _fresh(self, seed=1, n=40, m=80):
        dg = DynamicGraph.from_graph(erdos_renyi(n, m, seed=seed))
        scores = random_scores(n, seed=seed + 100)
        return dg, MaintainedAggregateView(dg, scores, hops=2)

    def _assert_consistent(self, dg, view):
        for aggregate in ("sum", "avg"):
            expected = base_topk(
                dg, view.scores, QuerySpec(k=dg.num_nodes, hops=2, aggregate=aggregate)
            )
            got = view.topk(dg.num_nodes, aggregate)
            assert rounded(got.values) == rounded(expected.values), aggregate

    def test_initial_consistency(self):
        dg, view = self._fresh()
        self._assert_consistent(dg, view)

    def test_edge_insertion(self):
        dg, view = self._fresh(seed=2)
        affected = view.add_edge(0, 1) if not dg.has_edge(0, 1) else 0
        self._assert_consistent(dg, view)
        if affected:
            assert affected >= 2

    def test_edge_deletion(self):
        dg, view = self._fresh(seed=3)
        u, v = next(iter(dg.edges()))
        view.remove_edge(u, v)
        self._assert_consistent(dg, view)

    def test_score_update_is_arithmetic_only(self):
        dg, view = self._fresh(seed=4)
        before = view.nodes_repaired
        view.update_score(5, 1.0)
        assert view.nodes_repaired == before  # no BFS re-evaluation
        assert view.arithmetic_updates > 0
        self._assert_consistent(dg, view)

    def test_noop_score_update(self):
        dg, view = self._fresh(seed=5)
        current = view.scores[3]
        assert view.update_score(3, current) == 0

    def test_add_node_then_connect(self):
        dg, view = self._fresh(seed=6)
        node = view.add_node()
        assert view.value(node, "sum") == 0.0
        view.add_edge(node, 0)
        view.update_score(node, 0.8)
        self._assert_consistent(dg, view)

    def test_random_mutation_stress(self):
        rng = random.Random(77)
        dg, view = self._fresh(seed=7, n=30, m=50)
        for _step in range(40):
            op = rng.random()
            if op < 0.35:
                u, v = rng.randrange(dg.num_nodes), rng.randrange(dg.num_nodes)
                if u != v and not dg.has_edge(u, v):
                    view.add_edge(u, v)
            elif op < 0.6:
                edges = list(dg.edges())
                if edges:
                    u, v = edges[rng.randrange(len(edges))]
                    view.remove_edge(u, v)
            else:
                view.update_score(
                    rng.randrange(dg.num_nodes), round(rng.random(), 3)
                )
        self._assert_consistent(dg, view)

    def test_directed_maintenance(self):
        dg = DynamicGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], directed=True
        )
        view = MaintainedAggregateView(dg, [0.5, 0.2, 0.9, 0.1], hops=2)
        view.add_edge(0, 2)
        view.update_score(2, 0.3)
        view.remove_edge(1, 3)
        expected = base_topk(dg, view.scores, QuerySpec(k=4, hops=2))
        assert rounded(view.topk(4).values) == rounded(expected.values)

    def test_external_mutation_detected(self):
        dg, view = self._fresh(seed=8)
        dg.add_node()  # bypasses the view
        with pytest.raises(InvalidParameterError):
            view.topk(3)

    def test_score_validation(self):
        dg, view = self._fresh(seed=9)
        with pytest.raises(RelevanceError):
            view.update_score(0, 1.5)
        with pytest.raises(RelevanceError):
            MaintainedAggregateView(dg, [2.0] * dg.num_nodes)

    def test_max_rejected(self):
        dg, view = self._fresh(seed=10)
        with pytest.raises(InvalidParameterError):
            view.topk(3, "max")

    def test_stats_exposed(self):
        dg, view = self._fresh(seed=11)
        view.update_score(0, 1.0)
        result = view.topk(3)
        assert result.stats.algorithm == "maintained-view"
        assert result.stats.extra["arithmetic_updates_total"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestDirectedView:
    """Insert, delete and score update on a directed graph: the affected set
    is the *reverse* ball, taken from the graph-owned reverse CSR (numpy) or
    a reversal built once per graph version (python)."""

    EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (4, 0), (5, 4)]
    SCORES = [0.5, 0.25, 1.0, 0.125, 0.75, 0.0]  # dyadic: sums are exact

    def _fresh(self, backend):
        dg = DynamicGraph.from_edges(self.EDGES, directed=True)
        return dg, MaintainedAggregateView(dg, self.SCORES, hops=2, backend=backend)

    def _assert_exact(self, dg, view):
        for aggregate in ("sum", "avg"):
            spec = QuerySpec(
                k=dg.num_nodes, hops=2, aggregate=aggregate, backend="python"
            )
            expected = base_topk(dg, view.scores, spec)
            assert view.topk(dg.num_nodes, aggregate).entries == expected.entries

    @staticmethod
    def _seeing(dg, *targets):
        """How many nodes have one of ``targets`` in their 2-hop ball."""
        return sum(
            1 for x in dg.nodes() if set(targets) & ref_ball(dg, x, 2)
        )

    @staticmethod
    def _reach(dg, u):
        """How many nodes reach ``u`` within one hop (``h - 1``): the only
        balls an arc out of ``u`` can change."""
        return len(ref_ball(dg.reversed(), u, 1))

    def test_insert(self, backend):
        dg, view = self._fresh(backend)
        affected = view.add_edge(2, 5)
        assert affected == self._reach(dg, 2) == 2  # 2 itself and 1
        self._assert_exact(dg, view)

    def test_delete(self, backend):
        dg, view = self._fresh(backend)
        expected = self._reach(dg, 4)  # the same with or without the arc
        assert view.remove_edge(4, 0) == expected == 2  # 4 and 5
        self._assert_exact(dg, view)
        expected = self._reach(dg, 1)
        assert view.remove_edge(1, 3) == expected == 2  # 1 and 0
        self._assert_exact(dg, view)

    def test_score_update(self, backend):
        dg, view = self._fresh(backend)
        before = view.nodes_repaired
        assert view.update_score(4, 1.0) == self._seeing(dg, 4) == 2
        assert view.nodes_repaired == before  # arithmetic only
        self._assert_exact(dg, view)

    def test_reversal_is_not_rebuilt_per_call(self, backend, monkeypatch):
        dg, view = self._fresh(backend)
        view.update_score(0, 0.25)  # whatever is built lazily exists now
        calls = []
        real = DynamicGraph.reversed
        monkeypatch.setattr(
            DynamicGraph, "reversed", lambda self: calls.append(1) or real(self)
        )
        view.update_score(1, 0.5)
        view.update_score(2, 0.5)
        assert calls == []  # same graph version: nothing to rebuild
        view.add_edge(0, 2)
        view.remove_edge(0, 2)
        # python: one reversal per new graph version (remove_edge looks before
        # it deletes, at the version add_edge left); numpy patches the
        # graph-owned reverse CSR and never copies the adjacency.
        assert len(calls) == (0 if backend == "numpy" else 1)
        self._assert_exact(dg, view)


@pytest.mark.parametrize("backend", BACKENDS)
def test_new_node_then_edge_keeps_csr_estimates_and_view_in_step(backend):
    """``add_node`` grows every derived table by one row; an edge to the new
    node must then find them all the same length."""
    from repro.graph.neighborhood import upper_estimate
    from repro.session import Network

    graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    net = Network(graph, hops=2, backend=backend)
    net.add_scores("s", [0.5, 0.25, 1.0, 0.125])
    view = net.maintain("s")
    net.query("s").limit(2).algorithm("backward").run()  # CSR + estimates exist
    node = view.add_node()
    assert node == 4 and view.value(node) == 0.0
    net.add_scores("s", view.scores)  # the named vector follows the graph
    net.add_edge(node, 0)
    net.update_score("s", node, 0.75)
    sizes = net._ctx.size_index()
    assert len(sizes) == 5
    assert [sizes.upper(v) for v in range(5)] == upper_estimate(graph, 2)
    if backend == "numpy":
        from repro.graph.csr import to_csr

        fresh = to_csr(graph, use_numpy=True)
        assert net._ctx.csr() is graph.csr()
        assert graph.csr().indptr.tolist() == fresh.indptr.tolist()
        assert graph.csr().indices.tolist() == fresh.indices.tolist()
    spec = QuerySpec(k=5, hops=2, backend="python")
    expected = base_topk(graph, net.scores_of("s").values(), spec).entries
    assert net.query("s").limit(5).algorithm("view").run().entries == expected
    assert net.query("s").limit(5).algorithm("backward").run().entries == expected
