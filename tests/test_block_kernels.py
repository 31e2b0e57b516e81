"""The kernel-provider seam: numpy and native evaluate a block identically.

The route drivers in :mod:`repro.core.vectorized` are shared; a backend is
a *provider* of block primitives.  The parity suites compare final top-k
entries through ``Network``, which cannot see a below-the-cut value or a
work counter drifting — and the access counters are part of the contract
(they are what the paper's cost argument is stated in).  So this file pins
the seam itself: every primitive, both providers, bit-identical values
(the fused multi-query sums: to the last ulp, see there) and identical
``(edges_scanned, nodes_visited, balls_expanded)``, on directed and
undirected graphs with isolated nodes, ``hops`` 0-3 and both ball
conventions.

The native provider is built directly, so the file runs everywhere numpy
does: jitted where numba is installed, as plain Python otherwise or under
``REPRO_NATIVE_INTERPRETED=1`` (CI runs both).
"""

from __future__ import annotations

import random

import pytest

from repro.aggregates.functions import AggregateKind
from repro.aggregates.weighted import inverse_distance, precompute_weights
from repro.core.query import QuerySpec
from repro.core.results import QueryStats
from repro.core.topk import TopKAccumulator
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter

np = pytest.importorskip("numpy")

from repro.core import vectorized  # noqa: E402
from repro.core.vectorized import NumpyKernels  # noqa: E402
from repro.graph.csr import CSRBallCache, to_csr  # noqa: E402
from repro.graph.diffindex import build_differential_index  # noqa: E402
from repro.native.provider import NativeKernels  # noqa: E402

N = 36  # nodes 30..35 touch no edge: isolated, empty open balls
CASES = [
    (directed, hops, include_self)
    for directed in (False, True)
    for hops in (0, 1, 2, 3)
    for include_self in (True, False)
]


def _graph(directed: bool, seed: int = 5) -> Graph:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 70:
        u, v = rng.randrange(30), rng.randrange(30)
        if u != v:
            edges.add((u, v) if directed else (min(u, v), max(u, v)))
    return Graph.from_edges(sorted(edges), num_nodes=N, directed=directed)


def _scores(seed: int, n: int = N):
    rng = random.Random(seed)  # non-dyadic floats: summation order shows
    return np.asarray(
        [rng.random() if rng.random() < 0.7 else 0.0 for _ in range(n)]
    )


def _centers(seed: int = 9):
    """Unsorted, repeated, isolated nodes included."""
    rng = random.Random(seed)
    return np.asarray(
        [rng.randrange(N) for _ in range(50)] + [33, 33, 0], dtype=np.int64
    )


def _same_bits(a, b) -> bool:
    # Cast first: ``np.bincount`` over zero pairs (every ball empty) hands
    # back integer zeros whatever its weights.
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _both(call):
    """Run ``call(kernels, counter)`` on both providers; assert the counters
    agree and return the two results."""
    out = []
    for kernels in (NumpyKernels(), NativeKernels()):
        counter = TraversalCounter()
        out.append((call(kernels, counter), counter.snapshot()))
    (ref, ref_work), (nat, nat_work) = out
    assert ref_work == nat_work
    assert ref_work["balls_expanded"] > 0
    return ref, nat


@pytest.mark.parametrize("directed,hops,include_self", CASES)
class TestBlockPrimitives:
    @pytest.mark.parametrize(
        "kind",
        [AggregateKind.SUM, AggregateKind.AVG, AggregateKind.MAX, AggregateKind.MIN],
    )
    def test_ball_values(self, directed, hops, include_self, kind):
        csr = to_csr(_graph(directed), use_numpy=True)
        scores, centers = _scores(1), _centers()
        for want_sizes in (False, True):
            ref, nat = _both(
                lambda kernels, counter, want_sizes=want_sizes: kernels.ball_values(
                    np, csr, centers, scores, kind, hops, include_self, counter,
                    want_sizes=want_sizes,
                )
            )
            assert _same_bits(ref[0], nat[0])
            if want_sizes:
                assert ref[1].tolist() == nat[1].tolist()
                if not include_self:  # the isolated center 33: an empty ball
                    assert ref[1][-2] == 0 and ref[0][-2] == 0.0
            else:
                assert ref[1] is None and nat[1] is None

    def test_weighted_ball_sums(self, directed, hops, include_self):
        csr = to_csr(_graph(directed), use_numpy=True)
        scores, centers = _scores(2), _centers()
        weights = np.asarray(precompute_weights(inverse_distance, hops))
        ref, nat = _both(
            lambda kernels, counter: kernels.weighted_ball_sums(
                np, csr, centers, scores, weights, hops, include_self, counter
            )
        )
        assert _same_bits(ref, nat)

    def test_fused_ball_values(self, directed, hops, include_self):
        csr = to_csr(_graph(directed), use_numpy=True)
        centers = _centers()
        node_scores = np.ascontiguousarray(
            np.stack([_scores(3), _scores(4), _scores(5)], axis=1)
        )
        avg_rows = np.asarray([False, True, False])
        ref, nat = _both(
            lambda kernels, counter: kernels.fused_ball_values(
                np, csr, centers, node_scores, avg_rows, hops, include_self, counter
            )
        )
        assert ref.shape == (3, centers.size)
        # The one value contract that is not bit-level: ``np.add.reduceat``
        # over a 2-d slab may re-associate a segment's additions, the
        # kernel adds strictly left to right — a last-ulp difference, which
        # is why batch parity has always been asserted to 1e-9.
        np.testing.assert_allclose(ref, nat, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("is_avg", [False, True])
    def test_prune_step(self, directed, hops, include_self, is_avg):
        graph = _graph(directed)
        csr = to_csr(graph, use_numpy=True)
        deltas = build_differential_index(
            graph, hops, include_self=include_self
        ).flat_deltas()
        rng = random.Random(11)
        evaluated = np.asarray([rng.random() < 0.3 for _ in range(N)])
        pruned = ~evaluated & np.asarray([rng.random() < 0.2 for _ in range(N)])
        sources = np.flatnonzero(evaluated)
        source_sums = _scores(6)[sources] * 4.0
        ubound = _scores(7) * 6.0 + 1.0
        inv_size = 1.0 / np.arange(1, N + 1) if is_avg else None
        threshold = 2.5 * (0.2 if is_avg else 1.0)
        states = []
        for kernels in (NumpyKernels(), NativeKernels()):
            bound, cut = ubound.copy(), pruned.copy()
            counts = kernels.prune_step(
                np, csr, deltas, sources, source_sums, threshold, bound,
                inv_size, evaluated, cut,
            )
            states.append((counts, bound, cut))
        (ref_counts, ref_bound, ref_cut), (nat_counts, nat_bound, nat_cut) = states
        assert ref_counts == nat_counts
        assert _same_bits(ref_bound, nat_bound)
        assert ref_cut.tolist() == nat_cut.tolist()
        assert not (ref_cut & evaluated).any()  # only open nodes are cut


@pytest.mark.parametrize("directed,hops,include_self", CASES)
def test_verify_backward_same_entries_different_loop_shape(
    directed, hops, include_self
):
    """The one primitive whose loop differs: numpy stops per candidate,
    native per block — same entries, native never verifies fewer."""
    graph = _graph(directed)
    csr = to_csr(graph, use_numpy=True)
    scores = _scores(8)
    spec = QuerySpec(k=4, hops=hops, include_self=include_self)
    exact, _ = NumpyKernels().ball_values(
        np, csr, np.arange(N), scores, AggregateKind.SUM, hops, include_self,
        TraversalCounter(),
    )
    bounds = exact + 0.25  # any sound bound
    order = np.lexsort((np.arange(N), -bounds))
    runs = []
    for kernels in (NumpyKernels(), NativeKernels()):
        acc = TopKAccumulator(spec.k)
        stats = QueryStats(algorithm="backward", aggregate="sum")
        offered = kernels.verify_backward(
            np, csr, spec, scores, order, bounds, None, acc, stats,
            TraversalCounter(), CSRBallCache(csr, hops, include_self=include_self),
        )
        assert stats.candidates_verified == offered
        runs.append((acc.entries(), offered))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] <= runs[1][1]


class TestProfilesAndProvenance:
    def test_roles_pick_each_providers_profile(self):
        n, arcs = 100_000, 600_000
        assert NumpyKernels().block_size(None, n, arcs) == 1024
        assert NumpyKernels().block_size(None, n, arcs, role="prune") == 256
        # A numpy verification block costs a distance BFS: not capped.
        assert NumpyKernels().block_size(None, n, arcs, role="verify") == 1024
        native = NativeKernels()
        assert native.block_size(None, n, arcs) == 4096
        assert native.block_size(None, n, arcs, role="prune") == 1024
        assert native.block_size(None, n, arcs, role="verify") == 1024
        assert native.block_size(None, 400, 2000, role="verify") == 400 // 8
        assert native.block_size(None, 0, 0) == 4

    def test_stamp(self):
        stats = QueryStats(algorithm="base", aggregate="sum")
        NumpyKernels().stamp(stats)
        assert stats.extra == {}
        NativeKernels().stamp(stats)
        assert stats.extra["kernel"] == "native"
        assert stats.extra["kernel_mode"] in ("compiled", "interpreted")
        assert stats.extra["jit_compile_sec"] >= 0.0

    def test_native_scratch_follows_the_graph(self):
        # A pool worker keeps one provider across tasks on different graphs.
        native = NativeKernels()
        small = to_csr(Graph.from_edges([(0, 1), (1, 2)]), use_numpy=True)
        big = to_csr(_graph(False), use_numpy=True)
        for csr, n in ((big, N), (small, 3), (big, N)):
            scores = _scores(12, n)
            centers = np.arange(n, dtype=np.int64)
            ref, _ = NumpyKernels().ball_values(
                np, csr, centers, scores, AggregateKind.SUM, 2, True,
                TraversalCounter(),
            )
            nat, _ = native.ball_values(
                np, csr, centers, scores, AggregateKind.SUM, 2, True,
                TraversalCounter(),
            )
            assert _same_bits(ref, nat)


_WORK = (
    "nodes_evaluated", "pruned_nodes", "bound_evaluations", "edges_scanned",
    "nodes_visited", "balls_expanded", "distribution_pushes",
)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
def test_drivers_agree_on_entries_and_work_at_equal_blocks(directed, aggregate):
    """One driver, two providers: with the block size pinned equal, the
    scan and forward routes report the same entries *and* the same work."""
    graph = _graph(directed)
    scores = _scores(13).tolist()
    spec = QuerySpec(k=5, hops=2, aggregate=aggregate)
    index = build_differential_index(graph, 2)
    runs = {
        "base": lambda k: vectorized.base_topk_numpy(
            graph, scores, spec, block_size=7, kernels=k
        ),
        "forward": lambda k: vectorized.forward_topk_numpy(
            graph, scores, spec, diff_index=index, block_size=7, kernels=k
        ),
    }
    if aggregate == "sum":
        runs["weighted-base"] = lambda k: vectorized.weighted_base_topk_numpy(
            graph, scores, spec, block_size=7, kernels=k
        )
    for route, run in runs.items():
        ref, nat = run(NumpyKernels()), run(NativeKernels())
        assert ref.entries == nat.entries, route
        assert (ref.stats.backend, nat.stats.backend) == ("numpy", "native")
        for field in _WORK:
            assert getattr(ref.stats, field) == getattr(nat.stats, field), (
                route, field,
            )
    # Backward routes: verification loop shapes differ, entries do not.
    for run in (
        lambda k: vectorized.backward_topk_numpy(graph, scores, spec, kernels=k),
        lambda k: vectorized.weighted_backward_topk_numpy(
            graph, scores, QuerySpec(k=5, hops=2), kernels=k
        ),
    ):
        ref, nat = run(NumpyKernels()), run(NativeKernels())
        assert ref.entries == nat.entries
        assert ref.stats.distribution_pushes == nat.stats.distribution_pushes
