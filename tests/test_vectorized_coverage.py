"""Full-coverage vectorized backend: routes, caches, planner, session.

The acceptance bar for the backend-coverage work: every executor route —
base (all aggregates), forward, backward, batch, filtered, weighted base
and weighted backward — resolves to a vectorized kernel under
``backend="auto"`` when numpy is importable, the session reuses ball
expansions across queries (version-invalidated on dynamic graphs), the
block-size heuristic adapts to graph size and degree, and the planner's
cost model is backend-sensitive.
"""

from __future__ import annotations

import random

import pytest

from repro.core.backends import resolve_backend
from repro.core.planner import BACKEND_COST_FACTORS, QueryPlanner
from repro.core.query import QuerySpec
from repro.errors import InvalidParameterError
from repro.session import Network, _builder_refinements
from tests.conftest import random_graph

np = pytest.importorskip("numpy")

#: What ``backend="auto"`` resolves to wherever numpy imports.
AUTO_BACKEND = resolve_backend("auto")


def continuous_scores(n: int, seed: int, level: float = 0.9) -> list:
    rng = random.Random(seed)
    return [level * rng.random() + 0.05 for _ in range(n)]


@pytest.fixture(scope="module")
def cov_graph():
    return random_graph(60, 0.08, seed=411)


@pytest.fixture()
def net(cov_graph):
    session = Network(cov_graph, hops=2)
    session.add_scores("dense", continuous_scores(60, seed=412))
    return session


class TestRouteCoverage:
    """Every route runs on a vectorized kernel under ``backend="auto"``."""

    @pytest.mark.parametrize(
        "aggregate", ["sum", "avg", "count", "max", "min"]
    )
    def test_base_all_aggregates(self, net, aggregate):
        result = (
            net.query("dense").limit(5).aggregate(aggregate)
            .algorithm("base").run()
        )
        assert result.stats.backend == AUTO_BACKEND

    @pytest.mark.parametrize("algorithm", ["forward", "backward"])
    def test_lona_routes(self, net, algorithm):
        result = (
            net.query("dense").limit(5).algorithm(algorithm).run()
        )
        assert result.stats.backend == AUTO_BACKEND

    @pytest.mark.parametrize("aggregate", ["sum", "max"])
    def test_filtered_route(self, net, aggregate):
        result = (
            net.query("dense").limit(5).aggregate(aggregate)
            .where(range(0, 40)).run()
        )
        assert result.stats.backend == AUTO_BACKEND

    def test_batch_route(self, net):
        batch = net.batch(
            [
                net.query("dense").limit(5),
                net.query("dense").limit(3).aggregate("avg"),
            ]
        )
        for result in batch:
            assert result.stats.backend == AUTO_BACKEND

    @pytest.mark.parametrize("algorithm", ["base", "backward"])
    def test_weighted_routes(self, net, algorithm):
        result = net.topk_weighted("dense", 5, algorithm=algorithm)
        assert result.stats.backend == AUTO_BACKEND

    def test_auto_resolution_covers_default_route(self, net):
        # No pins at all: the "auto" algorithm on the "auto" backend must
        # still land on a vectorized kernel.
        result = net.query("dense").limit(5).run()
        assert result.stats.backend == AUTO_BACKEND


class TestAdaptiveBlockSize:
    def test_bounds_respected(self):
        from repro.core.vectorized import (
            _MAX_BLOCK,
            _MIN_BLOCK,
            adaptive_block_size,
        )

        # Node count alone never shrinks a block (the expansion dedups by
        # sorting, no block x num_nodes buffer): sparse graphs of any size
        # run at the ceiling.  Pure arithmetic, so probing 10M nodes is free.
        assert adaptive_block_size(100, 500) == _MAX_BLOCK
        assert adaptive_block_size(1_000_000, 10_000_000) == _MAX_BLOCK
        assert adaptive_block_size(10_000_000, 100_000_000) == _MAX_BLOCK
        # Only the slab budget does, and never below the floor.
        dense = adaptive_block_size(10_000_000, 20_000 * 10_000_000)
        assert _MIN_BLOCK <= dense < _MAX_BLOCK
        assert adaptive_block_size(100, 10**12) == _MIN_BLOCK
        assert adaptive_block_size(0, 0) == _MIN_BLOCK

    def test_degree_shrinks_blocks(self):
        from repro.core.vectorized import adaptive_block_size

        sparse = adaptive_block_size(10_000, 2 * 10_000)
        dense = adaptive_block_size(10_000, 4000 * 10_000)
        assert dense < sparse

    def test_pruning_cap(self):
        from repro.core.vectorized import adaptive_block_size

        # Threshold-driven kernels never evaluate a large slice of the
        # graph in one round, however small the graph.
        assert adaptive_block_size(400, 2000, pruning=True) <= 400 // 8
        assert adaptive_block_size(100_000, 600_000, pruning=True) <= 256

    def test_explicit_requests_honored_as_given(self):
        from repro.core.vectorized import resolve_block_size

        assert resolve_block_size(17, 1000, 5000) == 17
        assert resolve_block_size(1, 1000, 5000) == 1
        # No budget clamps an explicit request, in any role or graph size.
        n = 4_000_000
        assert resolve_block_size(1024, n, 10 * n) == 1024
        assert resolve_block_size(0, 1000, 5000) == 1
        from repro.core.vectorized import NumpyKernels

        for role in ("scan", "prune", "verify"):
            assert NumpyKernels().block_size(5000, n, 10 * n, role=role) == 5000


class TestSessionBallCache:
    """The session ball index, read by the numpy kernels (these sessions
    pin ``backend="numpy"``)."""

    @pytest.fixture()
    def np_net(self, cov_graph):
        session = Network(cov_graph, hops=2, backend="numpy")
        session.add_scores("dense", continuous_scores(60, seed=412))
        return session

    def test_backward_reuses_verification_balls(self, np_net):
        net = np_net
        ctx = net._ctx
        index = ctx.ball_index()
        assert index.covered == 0
        first = net.query("dense").limit(5).algorithm("backward").run()
        expanded_once = index.covered
        assert expanded_once > 0
        second = net.query("dense").limit(5).algorithm("backward").run()
        assert second.entries == first.entries
        assert ctx.ball_index() is index
        # The repeat query verified the same candidates: cache hits, no
        # (or almost no) new expansions, and strictly less charged BFS work.
        assert second.stats.balls_expanded < first.stats.balls_expanded

    def test_weighted_backward_reuses_distance_balls(self, np_net):
        net = np_net
        ctx = net._ctx
        index = ctx.ball_index()
        first = net.topk_weighted("dense", 5, algorithm="backward")
        expanded_once = int(index._labelled.sum())
        assert expanded_once > 0
        second = net.topk_weighted("dense", 5, algorithm="backward")
        assert second.entries == first.entries
        assert ctx.ball_index() is index
        assert second.stats.balls_expanded < first.stats.balls_expanded

    def test_cache_not_charged_to_later_counters(self, np_net):
        # The session index holds no counter: a later query's expansions
        # (a larger k verifies more) never reach an earlier query's stats.
        query = np_net.query("dense").algorithm("backward")
        first = query.limit(5).run()
        before = first.stats.as_dict()
        later = query.limit(25).run()
        assert later.stats.balls_expanded > 0
        assert first.stats.as_dict() == before
        assert not hasattr(np_net._ctx.ball_index(), "counter")

    def test_dynamic_mutation_forgets_the_balls_it_changed(self, cov_graph):
        from repro.dynamic.graph import DynamicGraph
        from repro.graph.csr import edge_write_reach

        session = Network(
            DynamicGraph.from_graph(cov_graph), hops=2, backend="numpy"
        )
        session.add_scores("dense", continuous_scores(60, seed=413))
        session.query("dense").limit(5).algorithm("backward").run()
        index = session._ctx.ball_index()
        assert index.covered > 0
        session.add_edge(0, 59)
        assert session._ctx.ball_index() is index
        assert index.csr is session.graph.csr()
        reach = edge_write_reach(session.graph.csr(), 0, 59, 2)
        assert not (index._start[reach] >= 0).any()

    def test_results_unchanged_by_cache(self, net, cov_graph):
        # A cold context (no shared cache) and the warm session agree.
        from repro.core.backward import backward_topk

        warm = net.query("dense").limit(7).algorithm("backward").run()
        warm2 = net.query("dense").limit(7).algorithm("backward").run()
        cold = backward_topk(
            cov_graph,
            net.scores_of("dense").values(),
            QuerySpec(k=7, hops=2, backend="numpy"),
        )
        assert warm.entries == warm2.entries == cold.entries


class TestBackendSensitivePlanner:
    """The cost model discounts vectorized routes, so choice can flip."""

    @pytest.fixture(scope="class")
    def flip_case(self):
        g = random_graph(150, 0.02, seed=0)
        scores = continuous_scores(150, seed=100, level=0.9)
        return g, scores

    def test_multipliers_recorded(self, flip_case):
        g, scores = flip_case
        for backend in ("python", "numpy"):
            planner = QueryPlanner(
                g, scores, hops=2, index_available=True, backend=backend
            )
            plan = planner.plan(QuerySpec(k=10))
            for est in plan.estimates:
                expected = BACKEND_COST_FACTORS[backend][est.algorithm]
                assert est.cost_multiplier == expected
            flat = plan.as_dict()
            assert all(
                "cost_multiplier" in e and "effective_online_cost" in e
                for e in flat["estimates"]
            )

    def test_choice_flips_with_backend(self, flip_case):
        g, scores = flip_case
        python_plan = QueryPlanner(
            g, scores, hops=2, index_available=True, backend="python"
        ).plan(QuerySpec(k=10))
        numpy_plan = QueryPlanner(
            g, scores, hops=2, index_available=True, backend="numpy"
        ).plan(QuerySpec(k=10))
        assert python_plan.chosen == "forward"
        # Recalibrated factors (backward verification got the session ball
        # caches): the vectorized plan now routes this shape to backward —
        # still a flip away from the python winner, which is the property
        # this test pins.
        assert numpy_plan.chosen == "backward"

    def test_explain_shows_discount(self, flip_case):
        g, scores = flip_case
        plan = QueryPlanner(
            g, scores, hops=2, index_available=True, backend="numpy"
        ).plan(QuerySpec(k=10))
        assert "x0.24 numpy" in plan.explain()

    def test_session_run_honors_backend_pin_for_planned(self, flip_case):
        # The session planner is cached on the session backend; a builder
        # that pins the *other* backend must be planned on that backend —
        # for .run() exactly as for .explain().
        g, scores = flip_case
        session = Network(g, hops=2).add_scores("s", scores)
        session.build_indexes()
        # Warm the cached (auto -> numpy) planner first.
        auto_plan = session.query("s").limit(10).explain()
        assert auto_plan.chosen == "backward"
        pinned = (
            session.query("s").limit(10)
            .algorithm("planned").backend("python")
        )
        assert pinned.explain().chosen == "forward"
        result = pinned.run()
        assert result.stats.algorithm == "forward"
        assert result.stats.backend == "python"


class TestTopkWhitelistDerivation:
    def test_derived_set_matches_builder_surface(self):
        assert _builder_refinements() == {
            "where",
            "algorithm",
            "backend",
            "gamma",
            "distribution_fraction",
            "exact_sizes",
            "ordering",
            "seed",
            "weighted",
            "priority",
            "deadline",
        }

    def test_topk_accepts_every_refinement(self, net):
        result = net.topk(
            "dense",
            4,
            "sum",
            algorithm="forward",
            backend="numpy",
            ordering="degree",
        )
        assert result.stats.algorithm == "forward"
        assert result.stats.backend == "numpy"

    def test_topk_rejects_unknown_and_terminals(self, net):
        with pytest.raises(InvalidParameterError, match="unknown query option"):
            net.topk("dense", 3, "sum", not_an_option=1)
        for terminal in ("run", "stream", "explain", "request", "spec"):
            with pytest.raises(InvalidParameterError):
                net.topk("dense", 3, "sum", **{terminal: True})

    def test_new_builder_refinement_auto_whitelisted(self, net, monkeypatch):
        from repro.session import QueryBuilder

        def shiny(self, value):
            return self._with()

        monkeypatch.setattr(QueryBuilder, "shiny", shiny, raising=False)
        assert "shiny" in _builder_refinements()
        result = net.topk("dense", 3, "sum", shiny=1)
        assert len(result.entries) == 3
