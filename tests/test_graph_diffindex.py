"""Tests for the differential index against brute-force set computation,
the ball-index build against the Python set build, and the staleness check."""

from __future__ import annotations

import random

import pytest

from repro.core.backends import numpy_available
from repro.core.base import base_topk
from repro.core.forward import forward_topk
from repro.core.query import QuerySpec
from repro.dynamic.graph import DynamicGraph
from repro.errors import IndexNotBuiltError, InvalidParameterError
from repro.graph.diffindex import _set_build, build_differential_index
from repro.graph.graph import Graph
from tests.conftest import random_graph, random_scores, ref_ball, rounded

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def brute_delta(graph: Graph, u: int, v: int, hops: int, include_self: bool = True) -> int:
    ball_u = ref_ball(graph, u, hops, include_self=include_self)
    ball_v = ref_ball(graph, v, hops, include_self=include_self)
    return len(ball_v - ball_u)


class TestDeltaValues:
    def test_path_graph_one_hop(self, path_graph):
        idx = build_differential_index(path_graph, 1)
        # For arc 2 -> 3: S(3) = {2,3,4}, S(2) = {1,2,3}; delta = |{4}| = 1.
        assert idx.delta(path_graph, 2, 3) == 1
        # For arc 0 -> 1: S(1) = {0,1,2}, S(0) = {0,1}; delta = 1.
        assert idx.delta(path_graph, 0, 1) == 1

    def test_star_center_vs_leaf(self, star_graph):
        idx = build_differential_index(star_graph, 1)
        # S(leaf) = {leaf, 0} subset of S(0) = everything: delta(leaf-0) = 0.
        assert idx.delta(star_graph, 0, 1) == 0
        # S(0) has 4 nodes not in S(leaf).
        assert idx.delta(star_graph, 1, 0) == 4

    def test_clique_deltas_zero(self, triangle_graph):
        idx = build_differential_index(triangle_graph, 1)
        for u, v in triangle_graph.arcs():
            assert idx.delta(triangle_graph, u, v) == 0

    @pytest.mark.parametrize("hops", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, hops, seed):
        g = random_graph(30, 0.12, seed=seed)
        idx = build_differential_index(g, hops)
        for u, v in g.arcs():
            assert idx.delta(g, u, v) == brute_delta(g, u, v, hops)

    def test_directed_graph(self, directed_cycle):
        idx = build_differential_index(directed_cycle, 1)
        # Arc 0 -> 1: S(1) = {1, 2}, S(0) = {0, 1}: delta = 1.
        assert idx.delta(directed_cycle, 0, 1) == 1

    def test_open_ball_deltas(self):
        g = random_graph(25, 0.15, seed=7)
        idx = build_differential_index(g, 2, include_self=False)
        for u, v in list(g.arcs())[:50]:
            assert idx.delta(g, u, v) == brute_delta(g, u, v, 2, include_self=False)


class TestIndexStructure:
    def test_rows_align_with_adjacency(self, path_graph):
        idx = build_differential_index(path_graph, 1)
        for u in path_graph.nodes():
            assert len(idx.delta_row(u)) == path_graph.degree(u)

    def test_sizes_are_exact(self, path_graph):
        idx = build_differential_index(path_graph, 2)
        assert idx.sizes.is_exact
        assert [idx.sizes.value(u) for u in range(5)] == [3, 4, 5, 4, 3]

    def test_delta_unknown_arc(self, path_graph):
        idx = build_differential_index(path_graph, 1)
        with pytest.raises(IndexNotBuiltError):
            idx.delta(path_graph, 0, 4)

    def test_invalid_parameters(self, path_graph):
        with pytest.raises(InvalidParameterError):
            build_differential_index(path_graph, -1)


class TestCompatibility:
    def test_check_compatible_passes(self, path_graph):
        idx = build_differential_index(path_graph, 2)
        idx.check_compatible(path_graph, 2, True)

    def test_wrong_hops(self, path_graph):
        idx = build_differential_index(path_graph, 2)
        with pytest.raises(IndexNotBuiltError):
            idx.check_compatible(path_graph, 1, True)

    def test_wrong_ball_convention(self, path_graph):
        idx = build_differential_index(path_graph, 2)
        with pytest.raises(IndexNotBuiltError):
            idx.check_compatible(path_graph, 2, False)

    def test_wrong_graph_size(self, path_graph, star_graph):
        idx = build_differential_index(path_graph, 2)
        with pytest.raises(IndexNotBuiltError):
            idx.check_compatible(star_graph, 2, True)


class TestBallIndexBuild:
    """The numpy build reads every ball through a ``CSRBallIndex`` and must
    give the Python set build's arrays: delta arc for arc, N node for node."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("cap", [None, 0, 600])
    def test_arrays_equal_the_set_build(self, directed, hops, include_self, cap):
        np = pytest.importorskip("numpy")
        from repro.graph.csr import CSRBallIndex

        base = random_graph(30, 0.08, seed=hops + 5 * directed, directed=directed)
        # Five trailing isolated nodes: their N is the bare center (or 0).
        g = Graph.from_edges(list(base.edges()), num_nodes=35, directed=directed)
        balls = CSRBallIndex(g.csr(), hops, include_self=include_self, max_bytes=cap)
        want = _set_build(g, hops, include_self=include_self)
        # Cold, then whatever the cap kept, then a fresh unbounded index.
        for shared in (balls, balls, None):
            got = build_differential_index(
                g, hops, include_self=include_self, ball_index=shared
            )
            assert np.array_equal(got.deltas, np.asarray(want.deltas))
            assert np.array_equal(got.offsets, g.csr().indptr)
            assert got.sizes.is_exact
            assert got.sizes.upper_values().tolist() == list(want.sizes.upper_values())
            # Python ints for the python backend's bounds arithmetic.
            assert [got.delta_row(u) for u in g.nodes()] == [
                want.delta_row(u) for u in g.nodes()
            ]
            assert {type(d) for u in g.nodes() for d in got.delta_row(u)} <= {int}
        if cap is not None:
            assert balls.stats()["bytes"] <= cap

    def test_a_ball_index_of_another_view_is_refused(self, path_graph):
        pytest.importorskip("numpy")
        from repro.graph.csr import CSRBallIndex

        balls = CSRBallIndex(path_graph.csr(), 1)
        with pytest.raises(InvalidParameterError):
            build_differential_index(path_graph, 2, ball_index=balls)


class TestStaleIndex:
    """An index describes one arc layout at one graph version: a forward
    read over anything else raises instead of pruning with wrong deltas."""

    @pytest.mark.parametrize("build", [_set_build, build_differential_index])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_an_index_from_before_edge_writes_is_refused(self, build, backend, seed):
        rng = random.Random(seed)
        g = DynamicGraph.from_graph(random_graph(40, 0.1, seed=seed))
        scores = random_scores(40, seed=seed)
        spec = QuerySpec(k=5, hops=2, backend=backend)
        old = build(g, 2)
        forward_topk(g, scores, spec, diff_index=old)
        for _ in range(10):
            g.remove_edge(*rng.choice(list(g.edges())))
        for _ in range(10):
            u, v = rng.sample(range(40), 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
        with pytest.raises(IndexNotBuiltError):
            forward_topk(g, scores, spec, diff_index=old)
        fresh = build(g, 2)
        assert rounded(forward_topk(g, scores, spec, diff_index=fresh).values) == rounded(
            base_topk(g, scores, spec).values
        )

    def test_one_write_moves_the_version(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        idx = _set_build(g, 1)
        g.add_edge(0, 3)
        g.remove_edge(0, 3)  # same arcs again, two versions later
        with pytest.raises(IndexNotBuiltError, match="version"):
            idx.check_compatible(g, 1, True)

    def test_another_layout_with_the_same_node_count_is_refused(self):
        a = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        b = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        with pytest.raises(IndexNotBuiltError, match="layout"):
            _set_build(a, 1).check_compatible(b, 1, True)
        index = build_differential_index(a, 1)
        with pytest.raises(IndexNotBuiltError, match="layout"):
            index.check_compatible(b, 1, True)  # b holds no CSR: a degree walk
        if numpy_available():
            b.csr()
            for built in (index, _set_build(a, 1)):
                with pytest.raises(IndexNotBuiltError, match="layout"):
                    built.check_compatible(b, 1, True)  # against b's CSR
