"""Tests for the Network session facade and its fluent query builder.

The acceptance bar for the facade: ``Network.query(...)`` must cover single
queries, batch shared scans, the relational baseline
(``relational.engine``), and dynamic maintained views
(``DynamicGraph``/``MaintainedAggregateView``) — entry for entry equal to
the reference functions (``base_topk`` on ``backend="python"``) — and
``.stream()`` must yield monotonically refining top-k states that converge
to ``.run()``'s answer on both backends.
"""

from __future__ import annotations

import random

import pytest

from repro.core.backends import numpy_available
from repro.core.base import base_topk
from repro.core.batch import BatchQuery, BatchResult
from repro.core.query import QuerySpec
from repro.core.request import QueryRequest
from repro.core.results import StreamUpdate
from repro.dynamic.graph import DynamicGraph
from repro.dynamic.maintenance import MaintainedAggregateView
from repro.errors import InvalidParameterError
from repro.relational.engine import relational_topk
from repro.relevance import BinaryRelevance
from repro.session import Network, QueryBuilder
from tests.conftest import random_graph, rounded

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def continuous_scores(n: int, seed: int) -> list:
    """Strictly positive, pairwise-distinct scores: tie-free top-k."""
    rng = random.Random(seed)
    return [0.05 + 0.9 * rng.random() for _ in range(n)]


@pytest.fixture(scope="module")
def net_graph():
    return random_graph(60, 0.08, seed=311)


@pytest.fixture(scope="module")
def net_scores(net_graph):
    return continuous_scores(net_graph.num_nodes, seed=312)


@pytest.fixture()
def net(net_graph, net_scores):
    session = Network(net_graph, hops=2)
    session.add_scores("dense", net_scores)
    session.add_scores(
        "sparse", BinaryRelevance(0.05, seed=313).scores(net_graph)
    )
    return session


class TestSessionBasics:
    def test_named_scores(self, net):
        assert net.score_names() == ("dense", "sparse")
        assert len(net.scores_of("dense")) == 60

    def test_unknown_score_rejected_early(self, net):
        with pytest.raises(InvalidParameterError, match="unknown score"):
            net.query("missing")

    def test_add_scores_is_chainable(self, net_graph):
        session = Network(net_graph).add_scores("a", [0.5] * 60)
        assert session.score_names() == ("a",)

    def test_from_edges(self):
        session = Network.from_edges([(0, 1), (1, 2)], hops=1)
        assert session.graph.num_nodes == 3

    def test_builder_is_immutable(self, net):
        base = net.query("dense").limit(5)
        avg = base.aggregate("avg")
        assert base.request().aggregate.value == "sum"
        assert avg.request().aggregate.value == "avg"
        assert base is not avg

    def test_limit_required(self, net):
        with pytest.raises(InvalidParameterError, match="limit"):
            net.query("dense").run()

    def test_hops_must_match_session(self, net):
        assert isinstance(net.query("dense").hops(2), QueryBuilder)
        with pytest.raises(InvalidParameterError, match="hops"):
            net.query("dense").hops(3)

    def test_request_lowering(self, net):
        request = (
            net.query("dense")
            .limit(7)
            .aggregate("avg")
            .algorithm("backward")
            .backend("python")
            .gamma(0.5)
            .request()
        )
        assert isinstance(request, QueryRequest)
        assert (request.k, request.score) == (7, "dense")
        assert request.aggregate.value == "avg"
        assert request.algorithm == "backward"
        assert request.backend == "python"
        assert request.gamma == 0.5
        spec = request.spec()
        assert isinstance(spec, QuerySpec)
        assert (spec.k, spec.hops, spec.backend) == (7, 2, "python")

    def test_topk_convenience(self, net, net_graph, net_scores):
        result = net.topk("dense", 4, "sum")
        expected = base_topk(net_graph, net_scores, QuerySpec(k=4, hops=2))
        assert result.entries == expected.entries


class TestSingleQueryParity:
    """Entry-for-entry parity with the python ``base_topk`` reference."""

    @pytest.mark.parametrize("algorithm", ["base", "forward", "backward"])
    @pytest.mark.parametrize("aggregate", ["sum", "avg"])
    def test_algorithms_match_old_engine(
        self, net, net_graph, net_scores, algorithm, aggregate
    ):
        reference = base_topk(
            net_graph,
            net_scores,
            QuerySpec(k=6, aggregate=aggregate, hops=2, backend="python"),
        )
        new = (
            net.query("dense")
            .limit(6)
            .aggregate(aggregate)
            .algorithm(algorithm)
            .run()
        )
        assert [n for n, _ in new.entries] == [n for n, _ in reference.entries]
        assert rounded(new.values) == rounded(reference.values)
        assert new.stats.algorithm == algorithm

    def test_auto_matches_old_auto(self, net, net_graph):
        sparse = net.scores_of("sparse")
        reference = base_topk(
            net_graph, sparse, QuerySpec(k=5, hops=2, backend="python")
        )
        new = net.query("sparse").limit(5).run()
        assert rounded(new.values) == rounded(reference.values)
        assert new.stats.algorithm == "backward"  # sparse -> backward

    def test_planned_algorithm(self, net):
        result = net.query("dense").limit(5).algorithm("planned").run()
        plan = net.query("dense").limit(5).explain()
        assert result.stats.algorithm == plan.chosen

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_pinning(self, net, backend):
        result = (
            net.query("dense")
            .limit(5)
            .algorithm("backward")
            .backend(backend)
            .run()
        )
        assert result.stats.backend == backend

    def test_max_min_route_to_base(self, net):
        for aggregate in ("max", "min"):
            result = net.query("dense").limit(3).aggregate(aggregate).run()
            assert result.stats.algorithm == "base"

    def test_index_sharing_across_scores(self, net):
        net.build_indexes()
        dense = net.query("dense").limit(5).algorithm("forward").run()
        sparse = net.query("sparse").limit(5).algorithm("forward").run()
        assert dense.stats.index_build_sec == 0.0
        assert sparse.stats.index_build_sec == 0.0


class TestWhereFilter:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_node_set_filter(self, net, net_graph, net_scores, backend):
        candidates = list(range(0, 60, 3))
        result = (
            net.query("dense")
            .limit(5)
            .where(candidates)
            .backend(backend)
            .run()
        )
        full = base_topk(net_graph, net_scores, QuerySpec(k=60, hops=2))
        by_node = dict(full.entries)
        expected = sorted(
            ((u, by_node[u]) for u in candidates),
            key=lambda pair: (-pair[1], pair[0]),
        )[:5]
        assert [n for n, _ in result.entries] == [n for n, _ in expected]
        assert rounded(result.values) == rounded([v for _, v in expected])

    def test_predicate_filter(self, net):
        via_pred = (
            net.query("dense").limit(5).where(lambda v: v % 2 == 0).run()
        )
        via_set = (
            net.query("dense").limit(5).where(range(0, 60, 2)).run()
        )
        assert via_pred.entries == via_set.entries

    def test_chained_where_intersects(self, net):
        chained = (
            net.query("dense")
            .limit(5)
            .where(range(0, 30))
            .where(range(20, 60))
            .run()
        )
        direct = net.query("dense").limit(5).where(range(20, 30)).run()
        assert chained.entries == direct.entries

    def test_filter_smaller_than_k(self, net):
        result = net.query("dense").limit(10).where([4, 7]).run()
        assert sorted(node for node, _ in result.entries) == [4, 7]

    def test_out_of_range_candidate_rejected(self, net):
        with pytest.raises(InvalidParameterError, match="not in graph"):
            net.query("dense").where([999])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_parity_on_filter(self, net, backend):
        reference = (
            net.query("dense").limit(6).where(range(0, 40)).backend("python").run()
        )
        other = (
            net.query("dense").limit(6).where(range(0, 40)).backend(backend).run()
        )
        assert [n for n, _ in other.entries] == [n for n, _ in reference.entries]
        assert rounded(other.values) == rounded(reference.values)


class TestRelationalParity:
    def test_matches_functional_relational(self, net, net_graph, net_scores):
        old = relational_topk(net_graph, net_scores, QuerySpec(k=6, hops=2))
        new = net.query("dense").limit(6).algorithm("relational").run()
        assert new.entries == old.entries
        assert new.stats.algorithm == "relational"

    def test_matches_functional_relational_avg(self, net, net_graph, net_scores):
        old = relational_topk(
            net_graph, net_scores, QuerySpec(k=4, aggregate="avg", hops=2)
        )
        new = (
            net.query("dense")
            .limit(4)
            .aggregate("avg")
            .algorithm("relational")
            .run()
        )
        assert new.entries == old.entries

    def test_relational_with_filter(self, net):
        candidates = range(0, 60, 4)
        relational = (
            net.query("dense")
            .limit(5)
            .where(candidates)
            .algorithm("relational")
            .run()
        )
        graphwise = net.query("dense").limit(5).where(candidates).run()
        assert [n for n, _ in relational.entries] == [
            n for n, _ in graphwise.entries
        ]
        assert rounded(relational.values) == rounded(graphwise.values)


class TestBatch:
    def test_matches_old_batch_engine(self, net, net_graph):
        """A group answers what ``base_topk`` answers for each member."""
        queries = [
            BatchQuery(net.scores_of("dense"), k=5),
            BatchQuery(net.scores_of("sparse"), k=4),
            BatchQuery(net.scores_of("dense"), k=3, aggregate="avg"),
        ]
        new = net.batch(queries)
        assert isinstance(new, BatchResult)
        assert len(new) == len(queries)
        for query, result in zip(queries, new):
            reference = base_topk(
                net_graph,
                query.scores,
                QuerySpec(
                    k=query.k, aggregate=query.aggregate, hops=2, backend="python"
                ),
            )
            assert rounded(result.values) == rounded(reference.values)

    def test_accepts_builders(self, net):
        batch = net.batch(
            [
                net.query("dense").limit(5),
                net.query("sparse").limit(4),
                net.query("dense").limit(3).aggregate("avg"),
            ]
        )
        singles = [
            net.query("dense").limit(5).run(),
            net.query("sparse").limit(4).run(),
            net.query("dense").limit(3).aggregate("avg").run(),
        ]
        for batched, single in zip(batch, singles):
            assert rounded(batched.values) == rounded(single.values)
            assert sorted(n for n, _ in batched.entries) == sorted(
                n for n, _ in single.entries
            )

    def test_routing_policy_preserved(self, net):
        batch = net.batch(
            [net.query("dense").limit(5), net.query("sparse").limit(4)]
        )
        assert batch[0].stats.algorithm == "batch-base"
        assert batch[1].stats.algorithm == "backward"

    def test_filtered_builder_rejected(self, net):
        with pytest.raises(InvalidParameterError, match="batch entry"):
            net.batch([net.query("dense").limit(5).where([1, 2, 3])])

    @pytest.mark.parametrize(
        "pin",
        [
            lambda q: q.ordering("ubound"),
            lambda q: q.seed(7),  # the builder cannot set seed to None
            lambda q: q.gamma("auto"),
            lambda q: q.distribution_fraction(0.1),
            lambda q: q.exact_sizes(False),
        ],
        ids=["ordering", "seed", "gamma", "distribution_fraction", "exact_sizes"],
    )
    def test_default_valued_pin_rejected(self, net, pin):
        """``Network.batch`` asks the scheduler's predicate, set-fields mask
        included: a knob pinned to its default is still a pin (it used to
        compare values only and let these through silently)."""
        from repro.core.batch import coalescible_request

        builder = pin(net.query("sparse").limit(3))
        assert not coalescible_request(
            builder.request(), hops=2, include_self=True, backend=net.backend
        )
        with pytest.raises(InvalidParameterError, match="batch entry 0"):
            net.batch([builder])

    def test_pinned_ordering_fails_like_run(self, net):
        # The issue's reproduction: .run() rejects it, so .batch() must too.
        builder = net.query("sparse").limit(3).ordering("ubound")
        with pytest.raises(InvalidParameterError, match="ordering"):
            builder.run()
        with pytest.raises(InvalidParameterError, match="ordering"):
            net.batch([builder])

    def test_combined_stats_sum_per_query(self, net):
        batch = net.batch(
            [
                net.query("dense").limit(5),
                net.query("dense").limit(3),
                net.query("sparse").limit(4),
            ]
        )
        shared = batch[0].stats
        sparse = batch[2].stats
        combined = batch.stats
        assert combined.extra["num_queries"] == 3.0
        # Shared-scan traversal counted once (not twice), sparse added once.
        assert combined.edges_scanned == (
            shared.edges_scanned + sparse.edges_scanned
        )
        assert combined.nodes_evaluated == (
            shared.nodes_evaluated + sparse.nodes_evaluated
        )


class TestStream:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("aggregate", ["sum", "avg"])
    def test_monotone_refinement_and_convergence(
        self, net, backend, aggregate
    ):
        builder = (
            net.query("dense").limit(5).aggregate(aggregate).backend(backend)
        )
        updates = list(builder.stream())
        assert updates, "stream must yield at least one update"
        assert all(isinstance(u, StreamUpdate) for u in updates)
        # Monotone: bounds never increase, k-th best never decreases.
        for prev, cur in zip(updates, updates[1:]):
            assert cur.bound <= prev.bound + 1e-12
            assert cur.kth_value >= prev.kth_value - 1e-12
        final = updates[-1]
        assert final.done
        exact = builder.run()
        assert [n for n, _ in final.entries] == exact.nodes
        assert rounded([v for _, v in final.entries]) == rounded(exact.values)

    def test_streams_agree_across_backends(self, net):
        if len(BACKENDS) < 2:
            pytest.skip("numpy not available")
        py = list(net.query("dense").limit(5).backend("python").stream())
        npy = list(net.query("dense").limit(5).backend("numpy").stream())
        assert [u.node for u in py] == [u.node for u in npy]
        assert [u.evaluated for u in py] == [u.evaluated for u in npy]
        assert rounded([u.value for u in py]) == rounded([u.value for u in npy])

    def test_stream_can_terminate_early(self, net_graph):
        # A strongly skewed vector lets the bound close before a full scan.
        scores = [0.0] * net_graph.num_nodes
        scores[0] = 1.0
        session = Network(net_graph, hops=2).add_scores("spike", scores)
        updates = list(session.query("spike").limit(1).stream())
        assert updates[-1].done
        assert updates[-1].evaluated <= net_graph.num_nodes

    def test_stream_respects_filter(self, net):
        candidates = list(range(0, 60, 5))
        updates = list(
            net.query("dense").limit(3).where(candidates).stream()
        )
        assert {u.node for u in updates} <= set(candidates)
        exact = net.query("dense").limit(3).where(candidates).run()
        assert rounded([v for _, v in updates[-1].entries]) == rounded(
            exact.values
        )

    def test_stream_updates_carry_exact_values(self, net, net_graph, net_scores):
        full = dict(
            base_topk(net_graph, net_scores, QuerySpec(k=60, hops=2)).entries
        )
        for update in net.query("dense").limit(5).stream():
            assert round(update.value, 9) == round(full[update.node], 9)

    def test_stream_rejects_relational(self, net):
        with pytest.raises(InvalidParameterError, match="stream"):
            list(net.query("dense").limit(3).algorithm("relational").stream())


class TestDynamic:
    @pytest.fixture()
    def dyn(self):
        graph = DynamicGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
        )
        scores = continuous_scores(graph.num_nodes, seed=401)
        session = Network(graph, hops=2).add_scores("live", scores)
        return session, scores

    def test_view_parity_with_old_path(self, dyn):
        session, scores = dyn
        session.maintain("live")
        old_graph = DynamicGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
        )
        old_view = MaintainedAggregateView(old_graph, scores, hops=2)
        old = old_view.topk(3, "sum")
        new = session.query("live").limit(3).algorithm("view").run()
        assert new.entries == old.entries
        assert new.stats.algorithm == "maintained-view"

    def test_view_requires_maintain(self, dyn):
        session, _scores = dyn
        with pytest.raises(InvalidParameterError, match="maintained view"):
            session.query("live").limit(3).algorithm("view").run()

    def test_mutations_repair_view_and_caches(self, dyn):
        session, _scores = dyn
        session.maintain("live")
        session.build_indexes()
        assert session.diff_index is not None
        repaired = session.add_edge(2, 5)
        assert repaired > 0
        # Caches dropped: the old differential index would be unsound now.
        assert session.diff_index is None
        via_view = session.query("live").limit(3).algorithm("view").run()
        via_base = session.query("live").limit(3).algorithm("base").run()
        assert rounded(via_view.values) == rounded(via_base.values)

    def test_remove_edge_repairs(self, dyn):
        session, _scores = dyn
        session.maintain("live")
        session.add_edge(2, 5)
        session.remove_edge(2, 5)
        via_view = session.query("live").limit(3).algorithm("view").run()
        via_base = session.query("live").limit(3).algorithm("base").run()
        assert rounded(via_view.values) == rounded(via_base.values)

    def test_update_score_syncs_named_vector(self, dyn):
        session, _scores = dyn
        session.maintain("live")
        session.update_score("live", 0, 0.99)
        assert session.scores_of("live")[0] == 0.99
        via_view = session.query("live").limit(3).algorithm("view").run()
        via_base = session.query("live").limit(3).algorithm("base").run()
        assert rounded(via_view.values) == rounded(via_base.values)

    def test_update_score_without_view(self, dyn):
        session, _scores = dyn
        session.update_score("live", 1, 0.42)
        assert session.scores_of("live")[1] == 0.42

    def test_mutation_requires_dynamic_graph(self, net):
        with pytest.raises(InvalidParameterError, match="DynamicGraph"):
            net.add_edge(0, 1)

    def test_maintain_requires_dynamic_graph(self, net):
        with pytest.raises(InvalidParameterError, match="DynamicGraph"):
            net.maintain("dense")

    def test_planned_reads_share_one_size_table_per_graph_version(
        self, dyn, monkeypatch
    ):
        """Every score's planner — the session's cached ones and the ones the
        executor builds for a pinned backend — takes the context's estimate
        table; after a write that table is derived once, not once (let alone
        twice) per planner."""
        from repro.core import planner as planner_module
        from repro.core.planner import QueryPlanner
        from repro.graph import neighborhood

        session, scores = dyn
        session.add_scores("other", continuous_scores(6, seed=402))
        built = []

        def counting(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, **k: built.append(name) or real(*a, **k)
            )

        counting(neighborhood, "csr_estimates")
        counting(neighborhood, "upper_estimate")
        counting(planner_module, "upper_estimate")
        session.add_edge(2, 5)
        for name in ("live", "other"):
            session.query(name).limit(3).algorithm("planned").run()
            session.query(name).limit(3).backend("python").explain()
        assert len(built) == 1, built
        # ... and the plans are the ones a planner computes on its own.
        for backend in (session.backend, "python"):
            own = QueryPlanner(
                session.graph, scores, hops=2, backend=backend
            ).plan(QuerySpec(k=3, hops=2, backend=backend))
            shared = session.query("live").limit(3).backend(backend).explain()
            assert shared.explain() == own.explain()

    def test_filtered_view_query(self, dyn):
        session, _scores = dyn
        session.maintain("live")
        filtered = (
            session.query("live")
            .limit(2)
            .algorithm("view")
            .where([0, 1, 2])
            .run()
        )
        assert {n for n, _ in filtered.entries} <= {0, 1, 2}


class TestContractEdges:
    """Regressions from review: no silently dropped pins, no stale views."""

    def test_replacing_scores_rebuilds_maintained_view(self):
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        session = Network(graph, hops=2).add_scores(
            "s", [0.1, 0.9, 0.3, 0.5, 0.2]
        )
        session.maintain("s")
        session.add_scores("s", [0.9, 0.1, 0.1, 0.1, 0.9])
        via_view = session.query("s").limit(3).algorithm("view").run()
        via_base = session.query("s").limit(3).algorithm("base").run()
        assert rounded(via_view.values) == rounded(via_base.values)

    def test_filtered_query_rejects_pruning_algorithm_pin(self, net):
        for algorithm in ("forward", "backward", "planned"):
            with pytest.raises(InvalidParameterError, match="where"):
                (
                    net.query("dense")
                    .limit(3)
                    .algorithm(algorithm)
                    .where([0, 1, 2])
                    .run()
                )

    def test_filtered_query_allows_base_and_relational(self, net):
        base = (
            net.query("dense").limit(3).algorithm("base").where([0, 1, 2]).run()
        )
        rel = (
            net.query("dense")
            .limit(3)
            .algorithm("relational")
            .where([0, 1, 2])
            .run()
        )
        assert rounded(base.values) == rounded(rel.values)

    def test_stream_rejects_algorithm_pins(self, net):
        for algorithm in ("forward", "backward", "planned", "view"):
            with pytest.raises(InvalidParameterError, match="stream"):
                list(net.query("dense").limit(3).algorithm(algorithm).stream())

    def test_stream_on_empty_filter_is_empty(self, net):
        updates = list(
            net.query("dense").limit(3).where(lambda v: False).stream()
        )
        assert updates == []
        result = net.query("dense").limit(3).where(lambda v: False).run()
        assert result.entries == []

    def test_batch_rejects_algorithm_pin(self, net):
        with pytest.raises(InvalidParameterError, match="batch entry"):
            net.batch([net.query("sparse").limit(3).algorithm("base")])

    def test_batch_rejects_backend_pin(self, net):
        other = "python" if net.backend != "python" else "numpy"
        with pytest.raises(InvalidParameterError, match="batch entry"):
            net.batch([net.query("dense").limit(3).backend(other)])

    def test_batch_rejects_gamma_pin(self, net):
        with pytest.raises(InvalidParameterError, match="batch entry"):
            net.batch([net.query("sparse").limit(3).gamma(0.5)])

    def test_batch_accepts_session_backend_pin(self, net):
        batch = net.batch(
            [net.query("dense").limit(3).backend(net.backend)]
        )
        assert len(batch) == 1

    def test_topk_rejects_terminal_methods_as_options(self, net):
        with pytest.raises(InvalidParameterError, match="unknown query option"):
            net.topk("dense", 2, run=True)
        with pytest.raises(InvalidParameterError, match="unknown query option"):
            net.topk("dense", 2, limit=5)

    def test_topk_accepts_refinement_options(self, net):
        result = net.topk("dense", 2, algorithm="backward", gamma=0.5)
        assert result.stats.extra["gamma"] == 0.5

    def test_stream_rejects_mismatched_context(self, net_graph, net_scores):
        """Round 2 review: stream() must enforce the hops/ball guard too."""
        from repro.core import executor
        from repro.core.context import GraphContext
        from repro.relevance import ScoreVector

        ctx = GraphContext(net_graph, hops=1)
        request = QueryRequest(k=5, hops=2)
        with pytest.raises(InvalidParameterError, match="context built for"):
            list(executor.stream(ctx, ScoreVector(net_scores), request))

    def test_update_score_bad_node_leaves_view_intact(self):
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        session = Network(graph, hops=2).add_scores(
            "s", [0.1, 0.9, 0.3, 0.5, 0.2]
        )
        session.maintain("s")
        before = session.query("s").limit(5).algorithm("view").run().entries
        for bad in (-1, 99):
            with pytest.raises(InvalidParameterError, match="not in graph"):
                session.update_score("s", bad, 0.7)
        after = session.query("s").limit(5).algorithm("view").run().entries
        assert after == before

    def test_engine_auto_rejects_inapplicable_options(self, net_graph, net_scores):
        """Resolve auto first, then reject bad knobs."""
        session = Network(net_graph, hops=2).add_scores("s", net_scores)
        # Dense, no index -> auto resolves to base, which takes no options.
        with pytest.raises(InvalidParameterError, match="no effect"):
            session.topk("s", 3, algorithm="auto", gamma=0.5)

    def test_add_edge_refuses_after_outside_mutation(self):
        """Round 3 review: mutating past a stale view must raise, not bake
        the stale state into a 'repaired' view."""
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        session = Network(graph, hops=2).add_scores(
            "s", [0.1, 0.9, 0.3, 0.5, 0.2]
        )
        session.maintain("s")
        graph.add_edge(0, 3)  # outside the session
        with pytest.raises(InvalidParameterError, match="outside the view"):
            session.add_edge(1, 4)

    def test_filtered_view_query_detects_stale_view(self):
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        session = Network(graph, hops=2).add_scores(
            "s", [0.1, 0.9, 0.3, 0.5, 0.2]
        )
        session.maintain("s")
        graph.add_edge(0, 3)  # outside the session
        with pytest.raises(InvalidParameterError, match="outside the view"):
            session.query("s").limit(2).algorithm("view").where([2, 3]).run()

    def test_explain_honors_backend_pin(self, net):
        if len(BACKENDS) < 2:
            pytest.skip("numpy not available")
        pinned = net.query("dense").limit(5).backend("python").explain()
        assert pinned.backend == "python"
        run = net.query("dense").limit(5).backend("python").algorithm(
            "backward"
        ).run()
        assert run.stats.backend == pinned.backend

    def test_batch_does_not_eagerly_build_caches(self, net, net_graph):
        # A batch builds exactly what its members run singly would build,
        # and nothing else.  An all-sparse batch is backward requests, and
        # backward needs the size estimate and — on a vectorized backend —
        # the session ball index its verification reads through (the pin
        # used to say "no ball cache": the group path bypassed the session
        # and expanded every ball afresh per member).  Still no differential
        # index, no exact size index.  The CSR is the graph's, not a context
        # artifact, so there is nothing to pin on the context for it.
        artifacts = ("_diff_index", "_estimated_sizes", "_ball_index")

        def built(session):
            return {a for a in artifacts if getattr(session._ctx, a) is not None}

        single = Network(net_graph, hops=2).add_scores(
            "sparse", net.scores_of("sparse")
        )
        net.batch([net.query("sparse").limit(3)])
        single.query("sparse").limit(3).run()
        assert built(net) == built(single)
        expected = {"_estimated_sizes"}
        if numpy_available():
            expected.add("_ball_index")
        assert built(net) == expected

    def test_filtered_max_runs_vectorized(self, net):
        """MAX/MIN reduce with segmented reduceat: numpy covers them too."""
        if len(BACKENDS) < 2:
            pytest.skip("numpy not available")
        result = (
            net.query("dense")
            .limit(3)
            .aggregate("max")
            .where(range(0, 20))
            .backend("numpy")
            .run()
        )
        assert result.stats.backend == "numpy"
        python = (
            net.query("dense")
            .limit(3)
            .aggregate("max")
            .where(range(0, 20))
            .backend("python")
            .run()
        )
        assert python.stats.backend == "python"
        assert result.entries == python.entries
        summed = (
            net.query("dense")
            .limit(3)
            .where(range(0, 20))
            .backend("numpy")
            .run()
        )
        assert summed.stats.backend == "numpy"

    def test_network_topk_weighted_matches_engine(self, net_graph, net_scores):
        from repro.aggregates import inverse_distance
        from repro.core.weighted import weighted_base_topk

        session = Network(net_graph, hops=2).add_scores("w", net_scores)
        new = session.topk_weighted("w", 4, inverse_distance)
        spec = QuerySpec(k=4, hops=2, backend="python")
        old = weighted_base_topk(net_graph, net_scores, spec, inverse_distance)
        assert rounded(new.values) == rounded(old.values)
        with pytest.raises(InvalidParameterError, match="unknown query option"):
            session.topk_weighted("w", 4, inverse_distance, nonsense=1)
        with pytest.raises(InvalidParameterError, match="have no effect on"):
            session.topk_weighted("w", 4, inverse_distance, "base", gamma=0.5)

    def test_builder_rejects_inapplicable_knobs(self, net):
        """Round 5 review: a knob the resolved algorithm ignores must raise."""
        with pytest.raises(InvalidParameterError, match="no effect"):
            net.query("dense").limit(3).algorithm("backward").ordering(
                "degree"
            ).run()
        with pytest.raises(InvalidParameterError, match="no effect"):
            net.query("dense").limit(3).algorithm("forward").gamma(0.5).run()
        with pytest.raises(InvalidParameterError, match="no effect"):
            net.query("dense").limit(3).algorithm("base").exact_sizes().run()
        with pytest.raises(InvalidParameterError, match="no effect"):
            net.query("dense").limit(3).where([1, 2]).gamma(0.5).run()
        with pytest.raises(InvalidParameterError, match="no effect"):
            list(net.query("dense").limit(3).ordering("degree").stream())
        # Applicable pins still work.
        ok = net.query("dense").limit(3).algorithm("backward").gamma(0.5).run()
        assert ok.stats.extra["gamma"] == 0.5

    def test_view_query_rejects_inapplicable_knobs(self):
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        session = Network(graph, hops=2).add_scores("s", [0.1, 0.9, 0.3, 0.5])
        session.maintain("s")
        with pytest.raises(InvalidParameterError, match="no effect"):
            session.query("s").limit(2).algorithm("view").gamma(0.5).run()

    def test_stream_validates_eagerly(self, net):
        """Misuse raises at .stream() call time, not at first next()."""
        with pytest.raises(InvalidParameterError):
            net.query("dense").limit(3).algorithm("forward").stream()


# ----------------------------------------------------------------------
# One float array per score vector (the vector owns it)
# ----------------------------------------------------------------------
ARRAY_N = 240


@pytest.fixture
def count_conversions(monkeypatch):
    """Counts list -> array conversions of score vectors.

    Wraps ``numpy.array`` / ``numpy.asarray`` (the drivers resolve them at
    call time) and records every call handed a ``ScoreVector`` or a list of
    one value per node; the fixture value maps a vector to how often its
    values were converted.
    """
    np = pytest.importorskip("numpy")
    from repro.relevance import ScoreVector

    converted = []

    def wrap(name):
        real = getattr(np, name)

        def counting(obj, *args, **kwargs):
            if isinstance(obj, ScoreVector) or (
                isinstance(obj, list) and len(obj) == ARRAY_N
            ):
                converted.append(tuple(obj))
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)

    wrap("array")
    wrap("asarray")
    return lambda vector: converted.count(tuple(vector))


class TestOneArrayPerVector:
    def _session(self, graph=None):
        graph = graph or random_graph(ARRAY_N, 0.02, seed=501)
        rng = random.Random(502)
        net = Network(graph, hops=2, backend="numpy")
        net.add_scores("dense", [rng.randrange(1, 64) / 64 for _ in range(ARRAY_N)])
        net.add_scores("sparse", BinaryRelevance(0.03, seed=503).scores(graph))
        net.add_scores(
            "graded",
            [rng.randrange(1, 64) / 64 if rng.random() < 0.04 else 0.0 for _ in range(ARRAY_N)],
        )
        return net

    def test_every_read_path_shares_one_conversion(self, count_conversions):
        from tests.test_service import hold_worker

        net = self._session()
        names = ("dense", "sparse", "graded")
        vectors = [net.scores_of(name) for name in names]
        assert [count_conversions(v) for v in vectors] == [0, 0, 0]
        try:
            # Ten reads per vector: different k, aggregate and route.
            for name in names:
                for k, aggregate in [(1, "sum"), (7, "avg"), (30, "count"), (3, "max"), (500, "sum")]:
                    net.query(name).limit(k).aggregate(aggregate).run()
                    net.query(name).limit(k).aggregate(aggregate).where(range(0, ARRAY_N, 2)).run()
                net.topk_weighted(name, 5)
            members = [net.query(n).limit(4).aggregate(a) for n in names for a in ("sum", "count")]
            net.batch(members)
            # A coalesced QueryService group (one worker held, then released).
            service = net.service(workers=1)
            release, blocker = hold_worker(net)
            handles = [
                net.query(n).limit(3).aggregate(a).submit(cached=False)
                for n in names for a in ("sum", "avg")
            ]
            release.set()
            blocker.result(timeout=10)
            for handle in handles:
                handle.result(timeout=10)
            assert service.stats()["coalesced_batches"] == 1
            # Sharded scans and a fused group export it too; backward runs
            # in process and reads the same array.
            net.parallel(workers=2, min_nodes=0)
            for name in names:
                net.query(name).limit(5).algorithm("base").backend("parallel").run()
                net.query(name).limit(5).aggregate("avg").algorithm("backward").backend("parallel").run()
            net._run_batch(
                [BatchQuery(scores=v, k=3, aggregate="count") for v in vectors],
                backend="parallel",
            )
            assert [count_conversions(v) for v in vectors] == [1, 1, 1]
            assert [net.scores_of(name) for name in names] == vectors
        finally:
            net.close()

    def test_writes_yield_a_vector_with_a_fresh_array(self, count_conversions):
        base = random_graph(ARRAY_N, 0.02, seed=501)
        net = self._session(DynamicGraph.from_graph(base))
        try:
            net.maintain("sparse")  # the view copies the array it will write
            for name in ("sparse", "graded"):
                before = net.scores_of(name)
                held = before.array()
                node = before.nonzero_nodes[0]
                net.update_score(name, node, 0.0)
                after = net.scores_of(name)
                # The write copied the built array and patched one slot.
                assert after is not before and after.array() is not held
                assert count_conversions(after) == 0
                assert after.array().tolist() == after.values()
                assert after.array()[node] == 0.0 and held[node] == before[node] > 0.0
                assert not after.array().flags.writeable
                reference = base_topk(
                    net.graph, after.values(), QuerySpec(k=5, hops=2, backend="python")
                )
                for route in ("backward", "base") + (("view",) if name == "sparse" else ()):
                    got = net.query(name).limit(5).algorithm(route).run()
                    assert got.values == reference.values, (name, route)
                assert (count_conversions(before), count_conversions(after)) == (1, 0)
            replaced = net.scores_of("dense")
            held = replaced.array()
            net.add_scores("dense", [0.5] * ARRAY_N)
            assert net.scores_of("dense").array() is not held
            assert net.scores_of("dense").array().tolist() == [0.5] * ARRAY_N
            assert held.tolist() == replaced.values()
        finally:
            net.close()
