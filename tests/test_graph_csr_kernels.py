"""Property tests for the CSR layer: round-trips and expansion kernels.

Two families:

* ``to_csr``/``from_csr`` round-trips over randomized graph shapes —
  weighted, directed, empty, isolated-node — asserting the reconstruction
  is arc-for-arc (and weight-for-weight) identical, plus the platform-width
  regression (``array('q')`` is 8 bytes everywhere; ``'l'`` is 4 on
  Windows/ILP32).
* the numpy expansion kernels (``neighbor_slab`` / ``csr_hop_ball`` /
  ``batched_hop_balls`` / ``CSRBallIndex``) checked against the pure-Python
  :func:`~repro.graph.traversal.hop_ball` oracle on the same randomized
  shapes, the batched kernels against the python reference's single-center
  BFS on arbitrary graphs and center lists (hypothesis) under both key
  widths, the width
  boundary itself, the 4-byte ``indices`` through every copy of the arrays,
  and an allocation bound: a batched expansion's memory follows its balls,
  not ``len(centers) * num_nodes``.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

import repro.graph.csr as csr_module
from repro.graph.csr import CSRGraph, from_csr, to_csr
from repro.graph.graph import Graph
from repro.graph.traversal import (
    TraversalCounter,
    hop_ball,
    hop_ball_csr,
    hop_ball_with_distances,
)
from tests.conftest import random_graph


def random_weighted_graph(n: int, edge_prob: float, seed: int, *, directed: bool) -> Graph:
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if not directed and u > v:
                continue
            if rng.random() < edge_prob:
                edges.append((u, v, round(rng.uniform(0.1, 5.0), 3)))
    return Graph.from_weighted_edges(edges, num_nodes=n, directed=directed)


def assert_graphs_equal(a: Graph, b: Graph) -> None:
    assert a.num_nodes == b.num_nodes
    assert a.num_edges == b.num_edges
    assert a.directed == b.directed
    assert a.weighted == b.weighted
    for u in a.nodes():
        assert list(a.neighbors(u)) == list(b.neighbors(u))
        if a.weighted:
            assert list(a.neighbor_weights(u)) == list(b.neighbor_weights(u))


class TestRoundTripProperties:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("directed", [False, True])
    def test_random_graphs(self, seed, directed):
        g = random_graph(
            10 + seed * 7, 0.05 + 0.03 * (seed % 4), seed=seed, directed=directed
        )
        assert_graphs_equal(g, from_csr(to_csr(g)))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("directed", [False, True])
    def test_random_weighted_graphs(self, seed, directed):
        g = random_weighted_graph(12 + seed * 5, 0.1, seed=seed, directed=directed)
        assert_graphs_equal(g, from_csr(to_csr(g)))

    def test_empty_graph(self):
        g = Graph([])
        back = from_csr(to_csr(g))
        assert back.num_nodes == 0
        assert back.num_edges == 0

    def test_edgeless_graph(self):
        g = Graph.from_edges([], num_nodes=5)
        back = from_csr(to_csr(g))
        assert back.num_nodes == 5
        assert back.num_edges == 0

    def test_isolated_nodes_preserved(self):
        # Nodes 3, 5, 6 have no edges; indptr must keep their empty slabs.
        g = Graph.from_edges([(0, 1), (1, 2), (4, 0)], num_nodes=7)
        csr = to_csr(g)
        assert csr.degree(3) == csr.degree(5) == csr.degree(6) == 0
        assert_graphs_equal(g, from_csr(csr))

    def test_fixed_width_arrays(self):
        """array('q') pins 8-byte ints on every platform (the 'l' bug)."""
        csr = to_csr(Graph.from_edges([(0, 1)]))
        assert csr.indptr.itemsize == 8
        assert csr.indices.itemsize == 8

    def test_degree_array_exported(self):
        assert "degree_array" in csr_module.__all__
        numpy = pytest.importorskip("numpy")
        g = random_graph(15, 0.2, seed=3)
        degrees = csr_module.degree_array(g)
        assert isinstance(degrees, numpy.ndarray)
        assert degrees.tolist() == [g.degree(u) for u in g.nodes()]

    def test_numpy_roundtrip(self):
        pytest.importorskip("numpy")
        g = random_weighted_graph(20, 0.15, seed=9, directed=True)
        assert_graphs_equal(g, from_csr(to_csr(g, use_numpy=True)))


class TestExpansionKernels:
    """The numpy kernels against the pure-Python BFS oracle."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        self.np = pytest.importorskip("numpy")

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_csr_hop_ball_matches_hop_ball(self, seed, directed, hops):
        g = random_graph(30, 0.1, seed=seed, directed=directed)
        csr = to_csr(g, use_numpy=True)
        for include_self in (True, False):
            for center in range(0, 30, 7):
                expected = sorted(
                    hop_ball(g, center, hops, include_self=include_self)
                )
                actual = csr_module.csr_hop_ball(
                    csr, center, hops, include_self=include_self
                )
                assert actual.tolist() == expected
                # The counted form: same members, hop_ball's charges.
                oracle, counter = TraversalCounter(), TraversalCounter()
                hop_ball(g, center, hops, include_self=include_self, counter=oracle)
                counted = hop_ball_csr(
                    csr, center, hops, include_self=include_self, counter=counter
                )
                assert counted.tolist() == expected
                assert counter.snapshot() == oracle.snapshot()

    def test_csr_hop_ball_allocates_nothing_node_sized(self):
        # One center's ball costs what it reaches, not an n-sized stamp.
        import tracemalloc

        n = 200_000
        path = CSRGraph(
            indptr=self.np.arange(n + 1, dtype=self.np.int64).clip(max=n - 1),
            indices=self.np.arange(1, n, dtype=self.np.int32),
            weights=None,
            directed=True,
        )
        tracemalloc.start()
        ball = csr_module.csr_hop_ball(path, 5, 3)
        _now, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert ball.tolist() == [5, 6, 7, 8]
        assert peak < n  # bytes; the old stamp array alone was 8 * n

    def test_neighbor_slab_concatenates_adjacency(self):
        g = random_graph(25, 0.15, seed=2)
        csr = to_csr(g, use_numpy=True)
        frontier = self.np.array([3, 0, 17], dtype=self.np.int64)
        neighbors, counts = csr_module.neighbor_slab(csr, frontier)
        expected = list(g.neighbors(3)) + list(g.neighbors(0)) + list(g.neighbors(17))
        assert neighbors.tolist() == expected
        assert counts.tolist() == [g.degree(3), g.degree(0), g.degree(17)]

    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    @pytest.mark.parametrize("include_self", [True, False])
    def test_batched_hop_balls_matches_per_ball(self, hops, include_self):
        g = random_graph(35, 0.1, seed=4)
        csr = to_csr(g, use_numpy=True)
        centers = self.np.array([5, 0, 11, 29, 34], dtype=self.np.int64)
        owners, members, _edges = csr_module.batched_hop_balls(
            csr, centers, hops, include_self=include_self
        )
        for i, center in enumerate(centers.tolist()):
            ball = members[owners == i]
            expected = sorted(hop_ball(g, center, hops, include_self=include_self))
            assert ball.tolist() == expected

    def test_batched_hop_balls_empty_centers(self):
        csr = to_csr(random_graph(10, 0.2, seed=5), use_numpy=True)
        owners, members, edges = csr_module.batched_hop_balls(
            csr, self.np.empty(0, dtype=self.np.int64), 2
        )
        assert owners.size == 0 and members.size == 0 and edges == 0

    def test_ball_cache_caches_and_counts(self):
        from repro.aggregates.functions import AggregateKind
        from repro.core.vectorized import NumpyKernels

        np = self.np
        g = random_graph(30, 0.12, seed=6)
        csr = to_csr(g, use_numpy=True)
        index = csr_module.CSRBallIndex(csr, 2)
        center = np.asarray([4], dtype=np.int64)
        assert index.pairs(center) is None  # an index expands nothing: a miss
        scores = np.linspace(0.1, 0.7, 30)
        counter = TraversalCounter()
        kernels = NumpyKernels(index)
        first, _ = kernels.ball_values(
            np, csr, center, scores, AggregateKind.SUM, 2, True, counter
        )
        assert counter.balls_expanded == 1 and index.covered == 1
        _owners, members = index.pairs(center)
        again, _ = kernels.ball_values(
            np, csr, center, scores, AggregateKind.SUM, 2, True, counter
        )
        assert again.tobytes() == first.tobytes()
        assert counter.balls_expanded == 1  # hits are free
        oracle = TraversalCounter()
        expected = hop_ball(g, 4, 2, counter=oracle)
        assert members.tolist() == sorted(expected)
        assert counter.edges_scanned == oracle.edges_scanned
        assert counter.nodes_visited == oracle.nodes_visited
        stats = index.stats()
        assert (stats["hits"], stats["misses"]) == (2, 2)
        assert stats["bytes"] == 2 * members.size and stats["covered"] == 1

    def test_plain_csr_rejected_by_kernels(self):
        csr = to_csr(random_graph(10, 0.2, seed=8))  # stdlib arrays
        assert isinstance(csr, CSRGraph)
        with pytest.raises(TypeError):
            csr_module.csr_hop_ball(csr, 0, 2)


# Guarded import, NOT a module-level importorskip: a missing hypothesis must
# skip only the property test, never the suites above it.
try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - exercised without hypothesis
    given = settings = st = None


def _batched_kernels_property(data):
    """Both batched kernels == the single-center BFS of the python
    reference, ball for ball: members, hop distances and edges scanned."""
    np = pytest.importorskip("numpy")
    n = data.draw(st.integers(min_value=1, max_value=16), label="n")
    directed = data.draw(st.booleans(), label="directed")
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1] if directed else e[0] < e[1]
            ),
            unique=True,
            max_size=n * 3,
        ),
        label="edges",
    )
    # num_nodes keeps the nodes no edge touches: isolated, empty balls.
    graph = Graph.from_edges(edges, num_nodes=n, directed=directed)
    csr = to_csr(graph, use_numpy=True)
    centers = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n), label="centers"),
        dtype=np.int64,
    )
    hops = data.draw(st.integers(0, 4), label="hops")
    include_self = data.draw(st.booleans(), label="include_self")

    owners, members, edges_scanned = csr_module.batched_hop_balls(
        csr, centers, hops, include_self=include_self
    )
    d_owners, d_members, dists, d_edges = csr_module.batched_hop_balls_with_distances(
        csr, centers, hops, include_self=include_self
    )
    assert owners.tolist() == d_owners.tolist() == sorted(owners.tolist())
    assert members.tolist() == d_members.tolist()
    expected_edges = 0
    for i, center in enumerate(centers.tolist()):
        ball = csr_module.csr_hop_ball(csr, center, hops, include_self=include_self)
        assert members[owners == i].tolist() == ball.tolist()
        counter = TraversalCounter()
        one = hop_ball_with_distances(
            graph, center, hops, include_self=include_self, counter=counter
        )
        assert d_members[d_owners == i].tolist() == sorted(one)
        assert dists[d_owners == i].tolist() == [one[v] for v in sorted(one)]
        expected_edges += counter.edges_scanned
    assert edges_scanned == d_edges == expected_edges

    # Both key widths are one kernel: these blocks fit 32-bit keys, so force
    # the wide layout and require the same arrays back.
    narrow = csr_module._key_layout
    levels, _shift, _edges = csr_module._expand_key_levels(np, csr, centers, hops)
    assert {level.dtype for level in levels} == {np.dtype(np.int32)}

    def wide_layout(np_, num_nodes, count):
        return narrow(np_, num_nodes, count)[0], np_.int64

    with mock.patch.object(csr_module, "_key_layout", wide_layout):
        levels, _shift, _edges = csr_module._expand_key_levels(np, csr, centers, hops)
        assert {level.dtype for level in levels} == {np.dtype(np.int64)}
        wide = csr_module.batched_hop_balls(csr, centers, hops, include_self=include_self)
        d_wide = csr_module.batched_hop_balls_with_distances(
            csr, centers, hops, include_self=include_self
        )
    narrow_run = (owners, members, edges_scanned, d_owners, d_members, dists, d_edges)
    for got, want in zip(wide + d_wide, narrow_run):
        assert np.array_equal(got, want)
        assert getattr(got, "dtype", np.intp) == np.intp


if st is not None:
    test_batched_kernels_property = settings(max_examples=150, deadline=None)(
        given(data=st.data())(_batched_kernels_property)
    )
else:  # pragma: no cover - exercised without hypothesis

    @pytest.mark.skip(reason="hypothesis not installed")
    def test_batched_kernels_property():
        pass


@pytest.mark.parametrize("count, dtype", [(1023, "int32"), (1024, "int64")])
def test_key_width_boundary(count, dtype):
    """2**20 + 1 nodes need 21 bits: 1,023 owners still fit 31-bit keys,
    1,024 do not, and the largest key of either block comes back intact."""
    np = pytest.importorskip("numpy")
    n = 2**20 + 1
    arc_free = CSRGraph(
        indptr=np.zeros(n + 1, dtype=np.int64),
        indices=np.empty(0, dtype=np.int32),
        weights=None,
        directed=False,
    )
    assert csr_module._key_layout(np, n, count) == (21, np.dtype(dtype))
    centers = np.full(count, n - 1, dtype=np.int64)  # the last owner holds the top node
    centers[0] = 0
    levels, shift, edges = csr_module._expand_key_levels(np, arc_free, centers, 2)
    assert [level.dtype for level in levels] == [np.dtype(dtype)] and (shift, edges) == (21, 0)
    assert int(levels[0].max()) == ((count - 1) << 21) | int(centers[-1])
    owners, members, dists, _ = csr_module.batched_hop_balls_with_distances(
        arc_free, centers, 2
    )
    assert owners.dtype == members.dtype == dists.dtype == np.intp
    assert np.array_equal(owners, np.arange(count))
    assert np.array_equal(members, centers) and not dists.any()


def test_every_copy_of_the_csr_keeps_four_byte_indices():
    np = pytest.importorskip("numpy")
    csr = to_csr(random_graph(40, 0.1, seed=11), use_numpy=True)
    assert csr.indptr.dtype == np.int64 and csr.indices.dtype == np.int32
    inserted = csr_module.patch_csr(
        csr, [2, 5], [int(csr.indptr[3]), int(csr.indptr[6])], [5, 2]
    )
    deleted = csr_module.patch_csr(inserted, [2], [int(inserted.indptr[3]) - 1])
    grown = csr_module.append_csr_node(deleted)
    for view in (inserted, deleted, grown):
        assert view.indptr.dtype == np.int64 and view.indices.dtype == np.int32
    assert inserted.neighbors(2)[-1] == 5 and inserted.neighbors(5)[-1] == 2
    export = csr_module.SharedCSR.export(grown, version=1)
    try:
        meta = export.meta()
        assert np.dtype(meta["indices"]["dtype"]) == np.int32
        attached = csr_module.AttachedCSR.attach(meta)
        try:
            assert attached.csr.indices.dtype == np.int32
            assert attached.csr.indices.nbytes == 4 * grown.num_arcs
            assert np.array_equal(attached.csr.indices, grown.indices)
            assert np.array_equal(attached.csr.indptr, grown.indptr)
            centers = np.arange(grown.num_nodes, dtype=np.int64)
            for got, want in zip(
                csr_module.batched_hop_balls(attached.csr, centers, 2),
                csr_module.batched_hop_balls(grown, centers, 2),
            ):
                assert np.array_equal(got, want)
        finally:
            attached.close()
    finally:
        export.unlink()
        export.close()


def test_batched_expansion_memory_follows_the_balls():
    """512 two-hop balls on a 50,000-node ring are 2,560 pairs; a
    ``len(centers) * num_nodes`` visited buffer would be 25.6 MB.  The peak
    measures 116 KB with 32-bit keys and indices (126 KB with 64-bit ones);
    the bound is that plus a quarter."""
    np = pytest.importorskip("numpy")
    import tracemalloc

    n = 50_000
    nodes = np.arange(n, dtype=np.int64)
    ring = CSRGraph(
        indptr=np.arange(n + 1, dtype=np.int64) * 2,
        indices=np.stack(((nodes - 1) % n, (nodes + 1) % n), axis=1).ravel().astype(np.int32),
        weights=None,
        directed=False,
    )
    centers = np.arange(0, n, n // 512, dtype=np.int64)[:512]
    tracemalloc.start()
    try:
        _owners, members, edges = csr_module.batched_hop_balls(ring, centers, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert members.size == 512 * 5 and edges == 512 * (2 + 4)
    assert peak < 145_000
