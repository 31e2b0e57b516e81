"""Property-based tests (hypothesis) on the library's core invariants.

Four families:

1. **Bound soundness** — the paper's Eq. 1 / Eq. 3 / static / AVG bounds are
   genuine upper bounds for every random graph and score vector.
2. **Algorithm agreement** — Base, Forward, Backward, the relational plan,
   and the distributed BSP execution return identical top-k value multisets.
3. **Traversal** — the library BFS equals an independent set-expansion
   reference under composed parameters, and the differential index read off
   the ball index equals the Python set build.
4. **Accumulator model** — the bounded heap matches a sort-based model under
   arbitrary offer sequences.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backward import backward_topk
from repro.core.base import base_topk
from repro.core.bounds import avg_bound, backward_sum_bound, static_sum_bound
from repro.core.forward import forward_topk
from repro.core.query import QuerySpec
from repro.core.topk import TopKAccumulator
from repro.graph.diffindex import _set_build, build_differential_index
from repro.graph.graph import Graph
from repro.graph.neighborhood import NeighborhoodSizeIndex, lower_estimate, upper_estimate
from repro.graph.traversal import hop_ball
from repro.relational.engine import relational_topk
from tests.conftest import ref_aggregate, ref_ball, rounded

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@st.composite
def graphs(draw, max_nodes: int = 18, directed: bool = False):
    """Small random simple graphs (possibly disconnected, possibly empty)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    possible = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if (u < v if not directed else u != v)
    ]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=3 * n)
        if possible
        else st.just([])
    )
    return Graph.from_edges(edges, num_nodes=n, directed=directed)


@st.composite
def graph_and_scores(draw, directed: bool = False):
    g = draw(graphs(directed=directed))
    scores = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.just(1.0),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=g.num_nodes,
            max_size=g.num_nodes,
        )
    )
    return g, scores


# ---------------------------------------------------------------------------
# 1. Bound soundness
# ---------------------------------------------------------------------------
class TestBoundSoundness:
    @given(data=graph_and_scores(), hops=st.integers(min_value=0, max_value=3))
    def test_static_bound_sound(self, data, hops):
        g, scores = data
        for v in g.nodes():
            ball = ref_ball(g, v, hops)
            exact = sum(scores[w] for w in ball)
            assert static_sum_bound(len(ball), scores[v]) >= exact - 1e-9

    @given(data=graph_and_scores(), hops=st.integers(min_value=1, max_value=2))
    def test_eq1_differential_bound_sound(self, data, hops):
        g, scores = data
        idx = build_differential_index(g, hops)
        exact = {
            u: ref_aggregate(g, scores, u, hops, "sum") for u in g.nodes()
        }
        for u in g.nodes():
            row = idx.delta_row(u)
            for i, v in enumerate(g.neighbors(u)):
                bound = exact[u] + row[i]
                assert bound >= exact[v] - 1e-9

    @given(
        data=graph_and_scores(),
        gamma=st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
        hops=st.integers(min_value=0, max_value=2),
    )
    def test_eq3_backward_bound_sound(self, data, gamma, hops):
        g, scores = data
        n = g.num_nodes
        distributed = [u for u in range(n) if scores[u] > 0 and scores[u] >= gamma]
        rest = max(
            (scores[u] for u in range(n) if u not in set(distributed)),
            default=0.0,
        )
        partial = [0.0] * n
        covered = [0] * n
        for u in distributed:
            for v in ref_ball(g, u, hops):
                partial[v] += scores[u]
                covered[v] += 1
        for v in range(n):
            exact = ref_aggregate(g, scores, v, hops, "sum")
            bound = backward_sum_bound(
                partial[v],
                covered[v],
                len(ref_ball(g, v, hops)),
                scores[v],
                rest,
                self_distributed=v in set(distributed),
            )
            assert bound >= exact - 1e-9

    @given(data=graph_and_scores(), hops=st.integers(min_value=0, max_value=3))
    def test_size_estimates_bracket_exact(self, data, hops):
        g, _scores = data
        upper = upper_estimate(g, hops)
        lower = lower_estimate(g, hops)
        for v in g.nodes():
            exact = len(ref_ball(g, v, hops))
            assert lower[v] <= exact <= upper[v]

    @given(
        data=graph_and_scores(directed=True),
        hops=st.integers(min_value=0, max_value=3),
    )
    def test_size_estimates_bracket_exact_directed(self, data, hops):
        g, _scores = data
        upper = upper_estimate(g, hops)
        lower = lower_estimate(g, hops)
        for v in g.nodes():
            exact = len(ref_ball(g, v, hops))
            assert lower[v] <= exact <= upper[v]

    @given(data=graph_and_scores(), hops=st.integers(min_value=1, max_value=2))
    def test_avg_bound_sound_with_estimates(self, data, hops):
        g, scores = data
        lower = lower_estimate(g, hops)
        for v in g.nodes():
            ball = ref_ball(g, v, hops)
            exact_avg = ref_aggregate(g, scores, v, hops, "avg")
            sum_upper = static_sum_bound(len(ball), scores[v])
            assert avg_bound(sum_upper, lower[v]) >= exact_avg - 1e-9


# ---------------------------------------------------------------------------
# 2. Algorithm agreement
# ---------------------------------------------------------------------------
class TestAlgorithmAgreement:
    @given(
        data=graph_and_scores(),
        k=st.integers(min_value=1, max_value=8),
        hops=st.integers(min_value=0, max_value=2),
        aggregate=st.sampled_from(["sum", "avg", "count"]),
        include_self=st.booleans(),
    )
    def test_three_lona_paths_agree(self, data, k, hops, aggregate, include_self):
        g, scores = data
        spec = QuerySpec(
            k=k, hops=hops, aggregate=aggregate, include_self=include_self
        )
        base = base_topk(g, scores, spec)
        fwd = forward_topk(g, scores, spec)
        bwd = backward_topk(g, scores, spec)
        assert rounded(fwd.values) == rounded(base.values)
        assert rounded(bwd.values) == rounded(base.values)

    @given(
        data=graph_and_scores(directed=True),
        k=st.integers(min_value=1, max_value=6),
        aggregate=st.sampled_from(["sum", "avg"]),
    )
    def test_directed_agreement(self, data, k, aggregate):
        g, scores = data
        spec = QuerySpec(k=k, hops=2, aggregate=aggregate)
        base = base_topk(g, scores, spec)
        fwd = forward_topk(g, scores, spec)
        bwd = backward_topk(g, scores, spec)
        assert rounded(fwd.values) == rounded(base.values)
        assert rounded(bwd.values) == rounded(base.values)

    @given(
        data=graph_and_scores(),
        k=st.integers(min_value=1, max_value=6),
        gamma=st.floats(min_value=0.0, max_value=1.1, allow_nan=False),
    )
    def test_backward_correct_for_any_gamma(self, data, k, gamma):
        g, scores = data
        spec = QuerySpec(k=k, hops=2)
        base = base_topk(g, scores, spec)
        bwd = backward_topk(g, scores, spec, gamma=gamma)
        assert rounded(bwd.values) == rounded(base.values)

    @given(
        data=graph_and_scores(),
        k=st.integers(min_value=1, max_value=6),
        exact_sizes=st.booleans(),
    )
    def test_backward_sizes_mode_irrelevant_to_answer(self, data, k, exact_sizes):
        g, scores = data
        spec = QuerySpec(k=k, hops=2)
        sizes = (
            NeighborhoodSizeIndex.exact(g, 2)
            if exact_sizes
            else NeighborhoodSizeIndex.estimated(g, 2)
        )
        base = base_topk(g, scores, spec)
        bwd = backward_topk(g, scores, spec, sizes=sizes)
        assert rounded(bwd.values) == rounded(base.values)

    @given(
        data=graph_and_scores(),
        k=st.integers(min_value=1, max_value=5),
        aggregate=st.sampled_from(["sum", "avg"]),
    )
    def test_relational_plan_agrees(self, data, k, aggregate):
        g, scores = data
        spec = QuerySpec(k=k, hops=2, aggregate=aggregate)
        base = base_topk(g, scores, spec)
        rel = relational_topk(g, scores, spec)
        assert rounded(rel.values) == rounded(base.values)

    @given(
        data=graph_and_scores(),
        k=st.integers(min_value=1, max_value=5),
        factor=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    )
    def test_weighted_backward_agrees_with_weighted_scan(self, data, k, factor):
        from repro.aggregates.weighted import exponential_decay
        from repro.core.weighted import weighted_backward_topk, weighted_base_topk

        g, scores = data
        profile = exponential_decay(factor)
        spec = QuerySpec(k=k, hops=2)
        expected = weighted_base_topk(g, scores, spec, profile)
        actual = weighted_backward_topk(g, scores, spec, profile)
        assert rounded(actual.values) == rounded(expected.values)

    @given(
        data=graph_and_scores(),
        ks=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    )
    def test_batch_scan_agrees_with_individual_runs(self, data, ks):
        from repro.core.batch import BatchQuery, batch_base_topk
        from repro.relevance.base import ScoreVector

        g, scores = data
        vector = ScoreVector(scores)
        queries = [BatchQuery(vector, k=k) for k in ks]
        results = batch_base_topk(g, queries, hops=2)
        for k, result in zip(ks, results):
            expected = base_topk(g, scores, QuerySpec(k=k, hops=2))
            assert rounded(result.values) == rounded(expected.values)

    @given(
        data=graph_and_scores(),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "score"]),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=10_000),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            max_size=8,
        ),
    )
    def test_maintained_view_tracks_mutations(self, data, mutations):
        from repro.dynamic import DynamicGraph, MaintainedAggregateView

        g, scores = data
        graph = DynamicGraph.from_graph(g)
        view = MaintainedAggregateView(graph, scores, hops=2)
        n = graph.num_nodes
        for op, raw_u, raw_v, value in mutations:
            u, v = raw_u % n, raw_v % n
            if op == "add" and u != v and not graph.has_edge(u, v):
                view.add_edge(u, v)
            elif op == "remove" and graph.has_edge(u, v):
                view.remove_edge(u, v)
            elif op == "score":
                view.update_score(u, value)
        expected = base_topk(graph, view.scores, QuerySpec(k=n, hops=2))
        assert rounded(view.topk(n, "sum").values) == rounded(expected.values)


# ---------------------------------------------------------------------------
# 3. Traversal
# ---------------------------------------------------------------------------
class TestTraversalProperties:
    @given(
        data=graph_and_scores(),
        hops=st.integers(min_value=0, max_value=4),
        include_self=st.booleans(),
    )
    def test_hop_ball_matches_reference(self, data, hops, include_self):
        g, _scores = data
        for center in g.nodes():
            assert hop_ball(g, center, hops, include_self=include_self) == ref_ball(
                g, center, hops, include_self=include_self
            )

    @given(data=graph_and_scores(), hops=st.integers(min_value=0, max_value=3))
    def test_balls_monotone_in_hops(self, data, hops):
        g, _scores = data
        for center in g.nodes():
            smaller = hop_ball(g, center, hops)
            bigger = hop_ball(g, center, hops + 1)
            assert smaller <= bigger

    @given(
        directed=st.booleans(),
        data=st.data(),
        hops=st.integers(min_value=0, max_value=3),
        include_self=st.booleans(),
    )
    def test_ball_index_build_equals_the_set_build(self, directed, data, hops, include_self):
        """Differential index read off a ``CSRBallIndex``: the Python set
        build's deltas arc for arc and ``N`` node for node."""
        np = pytest.importorskip("numpy")
        from repro.graph.csr import CSRBallIndex

        g = data.draw(graphs(directed=directed))
        balls = CSRBallIndex(g.csr(), hops, include_self=include_self)
        got = build_differential_index(g, hops, include_self=include_self, ball_index=balls)
        want = _set_build(g, hops, include_self=include_self)
        assert got.deltas.tolist() == list(want.deltas)
        assert got.sizes.upper_values().tolist() == list(want.sizes.upper_values())
        assert np.array_equal(got.offsets, np.asarray(want.offsets))


# ---------------------------------------------------------------------------
# 4. Accumulator model
# ---------------------------------------------------------------------------
class TestAccumulatorModel:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_matches_sorted_model(self, values, k):
        acc = TopKAccumulator(k)
        for node, value in enumerate(values):
            acc.offer(node, value)
        assert acc.values() == sorted(values, reverse=True)[:k]

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_threshold_equals_kth_or_neg_inf(self, values, k):
        acc = TopKAccumulator(k)
        for node, value in enumerate(values):
            acc.offer(node, value)
        if len(values) < k:
            assert acc.threshold == -math.inf
        else:
            assert acc.threshold == sorted(values, reverse=True)[k - 1]
