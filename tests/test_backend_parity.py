"""Backend parity: the vectorized numpy backend must agree with Python.

The contract (see :mod:`repro.core.backends`):

* identical node selections in identical order, for every algorithm,
  aggregate, ball convention, and graph shape;
* bit-exact entries on integer-valued (binary / COUNT) scores, where float
  summation order cannot matter;
* values within 1e-9 on continuous scores (the two backends accumulate
  floats in different orders, so the last ulp may differ).

These tests are the safety net that lets ``backend="auto"`` default to the
vectorized path: any divergence is a bug, not a tolerance.
"""

from __future__ import annotations

import random

import pytest

from repro.aggregates.weighted import (
    exponential_decay,
    inverse_distance,
    uniform_weight,
)
from repro.core.backends import BACKENDS, resolve_backend
from repro.core.backward import backward_topk
from repro.core.base import base_topk
from repro.core.batch import BatchQuery, batch_base_topk
from repro.core.forward import forward_topk
from repro.core.query import QuerySpec
from repro.core.weighted import weighted_backward_topk, weighted_base_topk
from repro.errors import InvalidParameterError
from repro.graph.diffindex import build_differential_index
from repro.graph.graph import Graph
from repro.relevance.base import ScoreVector
from repro.session import Network
from tests.conftest import random_graph, random_scores, rounded

np = pytest.importorskip("numpy")


def binary_scores(n: int, seed: int, density: float = 0.3):
    rng = random.Random(seed)
    return [1.0 if rng.random() < density else 0.0 for _ in range(n)]


def spec_pair(k=7, aggregate="sum", hops=2, include_self=True):
    py = QuerySpec(
        k=k, aggregate=aggregate, hops=hops, include_self=include_self,
        backend="python",
    )
    return py, py.with_backend("numpy")


def assert_same_answer(a, b):
    """Same nodes in the same order; values equal to 1e-9."""
    assert a.nodes == b.nodes
    assert rounded(a.values) == rounded(b.values)


def assert_equivalent_answer(a, b):
    """Value-multiset parity with tie-group latitude (continuous scores).

    The backends accumulate floats in different orders, so two nodes whose
    true aggregates are mathematically equal can differ in the last ulp and
    swap positions.  Values must agree to 1e-9 and every rounded-value tie
    group must select the same node set — except possibly the rank-k
    boundary group, where the accumulator's documented tie latitude
    applies (see :mod:`repro.core.topk`).
    """
    from collections import defaultdict

    assert rounded(a.values) == rounded(b.values)
    groups_a = defaultdict(set)
    groups_b = defaultdict(set)
    for node, value in a.entries:
        groups_a[round(value, 9)].add(node)
    for node, value in b.entries:
        groups_b[round(value, 9)].add(node)
    boundary = round(a.values[-1], 9) if a.entries else None
    for key, nodes in groups_a.items():
        if key != boundary:
            assert nodes == groups_b[key]


class TestForwardParity:
    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
    @pytest.mark.parametrize("include_self", [True, False])
    def test_binary_scores_bit_exact(self, aggregate, include_self):
        for seed in range(4):
            g = random_graph(45, 0.09, seed=seed)
            scores = binary_scores(45, seed + 10)
            di = build_differential_index(g, 2, include_self=include_self)
            py, npy = spec_pair(aggregate=aggregate, include_self=include_self)
            a = forward_topk(g, scores, py, diff_index=di)
            b = forward_topk(g, scores, npy, diff_index=di)
            assert a.entries == b.entries

    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_continuous_scores(self, aggregate, hops):
        for seed in range(3):
            g = random_graph(40, 0.1, seed=seed)
            scores = random_scores(40, seed=seed + 50, density=0.6)
            di = build_differential_index(g, hops)
            py, npy = spec_pair(aggregate=aggregate, hops=hops)
            assert_same_answer(
                forward_topk(g, scores, py, diff_index=di),
                forward_topk(g, scores, npy, diff_index=di),
            )

    def test_directed_graphs(self):
        for seed in range(3):
            g = random_graph(35, 0.08, seed=seed, directed=True)
            scores = binary_scores(35, seed + 20)
            di = build_differential_index(g, 2)
            py, npy = spec_pair()
            a = forward_topk(g, scores, py, diff_index=di)
            b = forward_topk(g, scores, npy, diff_index=di)
            assert a.entries == b.entries

    @pytest.mark.parametrize("ordering", ["arbitrary", "degree", "ubound", "random"])
    def test_every_ordering(self, ordering):
        g = random_graph(40, 0.1, seed=3)
        scores = binary_scores(40, 13)
        di = build_differential_index(g, 2)
        py, npy = spec_pair()
        a = forward_topk(g, scores, py, diff_index=di, ordering=ordering, seed=5)
        b = forward_topk(g, scores, npy, diff_index=di, ordering=ordering, seed=5)
        assert a.entries == b.entries

    def test_block_size_does_not_change_answers(self):
        from repro.core.vectorized import forward_topk_numpy

        g = random_graph(50, 0.1, seed=8)
        scores = random_scores(50, seed=9, density=0.5)
        di = build_differential_index(g, 2)
        spec = QuerySpec(k=10, backend="numpy")
        reference = forward_topk_numpy(g, scores, spec, diff_index=di, block_size=1)
        for block_size in (3, 17, 1000):
            result = forward_topk_numpy(
                g, scores, spec, diff_index=di, block_size=block_size
            )
            assert_same_answer(reference, result)

    def test_max_min_rejected(self):
        g = random_graph(20, 0.2, seed=1)
        with pytest.raises(InvalidParameterError):
            forward_topk(
                g, binary_scores(20, 2), QuerySpec(k=3, aggregate="max", backend="numpy")
            )

    def test_stats_backend_tagged(self):
        g = random_graph(25, 0.15, seed=2)
        scores = binary_scores(25, 3)
        di = build_differential_index(g, 2)
        py, npy = spec_pair(k=4)
        assert forward_topk(g, scores, py, diff_index=di).stats.backend == "python"
        assert forward_topk(g, scores, npy, diff_index=di).stats.backend == "numpy"


class TestBackwardParity:
    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
    @pytest.mark.parametrize("include_self", [True, False])
    def test_binary_scores_bit_exact(self, aggregate, include_self):
        for seed in range(4):
            g = random_graph(45, 0.09, seed=seed)
            scores = binary_scores(45, seed + 30)
            di = build_differential_index(g, 2, include_self=include_self)
            py, npy = spec_pair(aggregate=aggregate, include_self=include_self)
            a = backward_topk(g, scores, py, sizes=di.sizes)
            b = backward_topk(g, scores, npy, sizes=di.sizes)
            assert a.entries == b.entries

    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_continuous_scores_exact_and_estimated_sizes(self, aggregate, hops):
        for seed in range(3):
            g = random_graph(40, 0.1, seed=seed)
            scores = random_scores(40, seed=seed + 70, density=0.4)
            di = build_differential_index(g, hops)
            py, npy = spec_pair(aggregate=aggregate, hops=hops)
            assert_same_answer(
                backward_topk(g, scores, py, sizes=di.sizes),
                backward_topk(g, scores, npy, sizes=di.sizes),
            )
            assert_same_answer(
                backward_topk(g, scores, py),
                backward_topk(g, scores, npy),
            )

    def test_directed_distribution_uses_reversed_arcs(self):
        for seed in range(3):
            g = random_graph(35, 0.08, seed=seed, directed=True)
            scores = random_scores(35, seed=seed + 90, density=0.3)
            py, npy = spec_pair()
            assert_same_answer(
                backward_topk(g, scores, py),
                backward_topk(g, scores, npy),
            )

    @pytest.mark.parametrize("gamma", [0.25, 0.75, "auto"])
    def test_gamma_policies(self, gamma):
        g = random_graph(40, 0.1, seed=4)
        scores = random_scores(40, seed=44, density=0.5)
        di = build_differential_index(g, 2)
        py, npy = spec_pair()
        a = backward_topk(g, scores, py, gamma=gamma, sizes=di.sizes)
        b = backward_topk(g, scores, npy, gamma=gamma, sizes=di.sizes)
        assert_same_answer(a, b)
        assert a.stats.extra["gamma"] == b.stats.extra["gamma"]
        assert a.stats.extra["distributed_nodes"] == b.stats.extra["distributed_nodes"]
        assert a.stats.extra["rest_bound"] == b.stats.extra["rest_bound"]

    def test_exact_shortcut_taken_by_both(self):
        g = random_graph(40, 0.1, seed=6)
        scores = binary_scores(40, 66, density=0.2)
        di = build_differential_index(g, 2)
        py, npy = spec_pair()
        a = backward_topk(g, scores, py, gamma=1.0, sizes=di.sizes)
        b = backward_topk(g, scores, npy, gamma=1.0, sizes=di.sizes)
        assert a.stats.extra["exact_shortcut"] == 1.0
        assert b.stats.extra["exact_shortcut"] == 1.0
        assert a.entries == b.entries

    @pytest.mark.parametrize("distributed", [1000, 1100, 2500])
    def test_shortcut_bits_past_one_distribution_block(self, distributed):
        # Under the exact shortcut the partial sums are the answers; numpy
        # distributes 1,024 nodes a block and must keep adding each node's
        # deposits in the Python loop's order across blocks.
        from repro.bench.workloads import figure

        g = figure("fig1").build_graph(1.0)
        rng = random.Random(5)
        scores = [0.0] * g.num_nodes
        for node in rng.sample(range(g.num_nodes), distributed):
            scores[node] = rng.random()
        py, npy = spec_pair(k=50)
        a = backward_topk(g, scores, py, gamma=1e-12)
        b = backward_topk(g, scores, npy, gamma=1e-12)
        assert b.stats.extra["exact_shortcut"] == 1.0
        assert b.stats.extra["distributed_nodes"] == distributed
        assert [(u, v.hex()) for u, v in a.entries] == [
            (u, v.hex()) for u, v in b.entries
        ]


class TestBackendSelection:
    def test_auto_resolves_down_the_ladder(self):
        # auto is numpy wherever numpy imports; the pure-python fallback is
        # covered by the no-numpy CI cell.
        assert resolve_backend("auto") == "numpy"

    def test_declared_backends(self):
        assert BACKENDS == ("auto", "python", "numpy", "parallel", "cluster")

    def test_explicit_backends_resolve_to_themselves(self):
        assert resolve_backend("python") == "python"
        assert resolve_backend("numpy") == "numpy"

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_results_tag_their_kernel(self, backend):
        g = random_graph(40, 0.1, seed=5)
        net = Network(g, hops=2, backend=backend)
        net.add_scores("s", random_scores(40, seed=5))
        assert net.topk("s", 5).stats.extra["kernel"] == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_backend("fortran")
        with pytest.raises(InvalidParameterError):
            QuerySpec(k=1, backend="fortran")

    def test_spec_backend_roundtrip(self):
        spec = QuerySpec(k=3, backend="python")
        assert spec.with_backend("numpy").backend == "numpy"
        assert spec.backend == "python"
        assert "auto" in BACKENDS

    def test_engine_backend_override_per_query(self):
        g = random_graph(40, 0.1, seed=7)
        scores = binary_scores(40, 77)
        net = Network(g, hops=2, backend="python").add_scores("s", scores)
        net.build_indexes()
        a = net.topk("s", 5, algorithm="forward")
        b = net.topk("s", 5, algorithm="forward", backend="numpy")
        assert a.stats.backend == "python"
        assert b.stats.backend == "numpy"
        assert a.entries == b.entries

    def test_engine_rejects_unknown_backend(self):
        g = random_graph(10, 0.2, seed=8)
        with pytest.raises(InvalidParameterError):
            Network(g, backend="gpu")

    def test_planner_surfaces_backend(self):
        g = random_graph(30, 0.1, seed=9)
        net = Network(g, hops=2, backend="numpy").add_scores("s", binary_scores(30, 5))
        plan = net.query("s").limit(5).explain()
        assert plan.backend == "numpy"
        assert "execution backend: numpy" in plan.explain()

    def test_engine_csr_cached_across_queries(self):
        g = random_graph(30, 0.1, seed=10)
        net = Network(g, hops=2, backend="numpy").add_scores("s", binary_scores(30, 6))
        net.topk("s", 3, algorithm="backward")
        first = g.csr()
        net.topk("s", 3, algorithm="backward")
        assert g.csr() is first


class TestBaseParity:
    @pytest.mark.parametrize(
        "aggregate", ["sum", "avg", "count", "max", "min"]
    )
    @pytest.mark.parametrize("include_self", [True, False])
    def test_binary_scores_bit_exact(self, aggregate, include_self):
        for seed in range(4):
            g = random_graph(45, 0.09, seed=seed)
            scores = binary_scores(45, seed + 40)
            py, npy = spec_pair(aggregate=aggregate, include_self=include_self)
            a = base_topk(g, scores, py)
            b = base_topk(g, scores, npy)
            assert a.entries == b.entries

    @pytest.mark.parametrize(
        "aggregate", ["sum", "avg", "count", "max", "min"]
    )
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_continuous_scores(self, aggregate, hops):
        for seed in range(3):
            g = random_graph(40, 0.1, seed=seed)
            scores = random_scores(40, seed=seed + 60, density=0.6)
            py, npy = spec_pair(aggregate=aggregate, hops=hops)
            assert_equivalent_answer(
                base_topk(g, scores, py), base_topk(g, scores, npy)
            )

    def test_directed_graphs(self):
        for seed in range(3):
            g = random_graph(35, 0.08, seed=seed, directed=True)
            scores = binary_scores(35, seed + 25)
            py, npy = spec_pair()
            assert base_topk(g, scores, py).entries == base_topk(g, scores, npy).entries

    @pytest.mark.parametrize(
        "aggregate", ["sum", "avg", "count", "max", "min"]
    )
    def test_empty_balls(self, aggregate):
        # Nodes 2..5 are isolated: open balls are empty -> value 0.0 for
        # every aggregate kind, on both backends.
        g = Graph.from_edges([(0, 1)], num_nodes=6)
        scores = [0.9, 0.4, 0.8, 0.1, 0.0, 0.7]
        py, npy = spec_pair(k=6, aggregate=aggregate, include_self=False)
        a = base_topk(g, scores, py)
        b = base_topk(g, scores, npy)
        assert a.entries == b.entries
        assert sorted(v for _, v in a.entries)[:4] == [0.0, 0.0, 0.0, 0.0]

    def test_node_order_respected(self):
        g = random_graph(40, 0.1, seed=5)
        scores = binary_scores(40, 15)
        order = list(reversed(range(40)))
        py, npy = spec_pair()
        a = base_topk(g, scores, py, node_order=order)
        b = base_topk(g, scores, npy, node_order=order)
        assert a.entries == b.entries
        assert a.stats.nodes_evaluated == b.stats.nodes_evaluated == 40

    def test_block_size_does_not_change_answers(self):
        from repro.core.vectorized import base_topk_numpy

        g = random_graph(50, 0.1, seed=8)
        scores = random_scores(50, seed=9, density=0.5)
        spec = QuerySpec(k=10, backend="numpy")
        reference = base_topk_numpy(g, scores, spec, block_size=1)
        for block_size in (3, 17, 1000):
            result = base_topk_numpy(g, scores, spec, block_size=block_size)
            assert_same_answer(reference, result)

    def test_stats_backend_tagged_and_counters_agree(self):
        g = random_graph(25, 0.15, seed=2)
        scores = binary_scores(25, 3)
        py, npy = spec_pair(k=4)
        a = base_topk(g, scores, py)
        b = base_topk(g, scores, npy)
        assert a.stats.backend == "python"
        assert b.stats.backend == "numpy"
        assert a.stats.edges_scanned == b.stats.edges_scanned
        assert a.stats.nodes_visited == b.stats.nodes_visited
        assert a.stats.balls_expanded == b.stats.balls_expanded


WEIGHT_PROFILES = [inverse_distance, exponential_decay(0.5), uniform_weight]


def weighted_spec_pair(k=7, hops=2, include_self=True):
    py = QuerySpec(
        k=k, aggregate="sum", hops=hops, include_self=include_self,
        backend="python",
    )
    return py, py.with_backend("numpy")


class TestWeightedParity:
    @pytest.mark.parametrize("profile", WEIGHT_PROFILES)
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_weighted_base(self, profile, hops):
        for seed in range(3):
            g = random_graph(40, 0.1, seed=seed)
            scores = random_scores(40, seed=seed + 80, density=0.5)
            py, npy = weighted_spec_pair(hops=hops)
            assert_equivalent_answer(
                weighted_base_topk(g, scores, py, profile),
                weighted_base_topk(g, scores, npy, profile),
            )

    @pytest.mark.parametrize("include_self", [True, False])
    def test_weighted_base_directed(self, include_self):
        for seed in range(3):
            g = random_graph(35, 0.08, seed=seed, directed=True)
            scores = random_scores(35, seed=seed + 85, density=0.5)
            py, npy = weighted_spec_pair(include_self=include_self)
            assert_equivalent_answer(
                weighted_base_topk(g, scores, py),
                weighted_base_topk(g, scores, npy),
            )

    @pytest.mark.parametrize("profile", WEIGHT_PROFILES)
    @pytest.mark.parametrize("gamma", [0.25, 0.75, "auto"])
    def test_weighted_backward(self, profile, gamma):
        for seed in range(3):
            g = random_graph(40, 0.1, seed=seed)
            scores = random_scores(40, seed=seed + 90, density=0.5)
            di = build_differential_index(g, 2)
            py, npy = weighted_spec_pair()
            a = weighted_backward_topk(
                g, scores, py, profile, gamma=gamma, sizes=di.sizes
            )
            b = weighted_backward_topk(
                g, scores, npy, profile, gamma=gamma, sizes=di.sizes
            )
            assert_equivalent_answer(a, b)
            assert a.stats.extra["gamma"] == b.stats.extra["gamma"]
            assert (
                a.stats.extra["distributed_nodes"]
                == b.stats.extra["distributed_nodes"]
            )
            assert a.stats.extra["rest_bound"] == b.stats.extra["rest_bound"]

    def test_weighted_backward_estimated_sizes(self):
        for seed in range(3):
            g = random_graph(40, 0.1, seed=seed)
            scores = random_scores(40, seed=seed + 95, density=0.4)
            py, npy = weighted_spec_pair()
            assert_equivalent_answer(
                weighted_backward_topk(g, scores, py),
                weighted_backward_topk(g, scores, npy),
            )

    def test_weighted_backward_directed(self):
        for seed in range(3):
            g = random_graph(35, 0.08, seed=seed, directed=True)
            scores = random_scores(35, seed=seed + 97, density=0.3)
            py, npy = weighted_spec_pair()
            assert_equivalent_answer(
                weighted_backward_topk(g, scores, py),
                weighted_backward_topk(g, scores, npy),
            )

    def test_exact_shortcut_taken_by_both(self):
        g = random_graph(40, 0.1, seed=6)
        scores = binary_scores(40, 66, density=0.2)
        di = build_differential_index(g, 2)
        py, npy = weighted_spec_pair()
        a = weighted_backward_topk(g, scores, py, gamma=1.0, sizes=di.sizes)
        b = weighted_backward_topk(g, scores, npy, gamma=1.0, sizes=di.sizes)
        assert a.stats.extra["exact_shortcut"] == 1.0
        assert b.stats.extra["exact_shortcut"] == 1.0
        assert_same_answer(a, b)

    @pytest.mark.parametrize("algorithm", ["base", "backward"])
    def test_empty_balls(self, algorithm):
        g = Graph.from_edges([(0, 1)], num_nodes=5)
        scores = [0.9, 0.4, 0.8, 0.1, 0.6]
        py, npy = weighted_spec_pair(k=5, include_self=False)
        run = weighted_base_topk if algorithm == "base" else weighted_backward_topk
        a = run(g, scores, py)
        b = run(g, scores, npy)
        assert_same_answer(a, b)
        assert sorted(v for _, v in a.entries)[:3] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_avg_rejected_on_both_backends(self, backend):
        g = random_graph(20, 0.2, seed=1)
        spec = QuerySpec(k=3, aggregate="avg", backend=backend)
        with pytest.raises(InvalidParameterError):
            weighted_base_topk(g, binary_scores(20, 2), spec)
        with pytest.raises(InvalidParameterError):
            weighted_backward_topk(g, binary_scores(20, 2), spec)

    def test_stats_backend_tagged(self):
        g = random_graph(25, 0.15, seed=2)
        scores = binary_scores(25, 3)
        py, npy = weighted_spec_pair(k=4)
        assert weighted_base_topk(g, scores, py).stats.backend == "python"
        assert weighted_base_topk(g, scores, npy).stats.backend == "numpy"
        assert weighted_backward_topk(g, scores, py).stats.backend == "python"
        assert weighted_backward_topk(g, scores, npy).stats.backend == "numpy"


class TestBatchParity:
    def test_shared_scan_backends_agree(self):
        g = random_graph(50, 0.08, seed=11)
        queries = [
            BatchQuery(
                scores=ScoreVector(random_scores(50, seed=100 + i, density=0.7)),
                k=5,
                aggregate=agg,
            )
            for i, agg in enumerate(["sum", "avg", "count"])
        ]
        py = batch_base_topk(g, queries, hops=2, backend="python")
        npy = batch_base_topk(g, queries, hops=2, backend="numpy")
        for a, b in zip(py, npy):
            assert_same_answer(a, b)
            assert a.stats.edges_scanned == b.stats.edges_scanned
            assert a.stats.balls_expanded == b.stats.balls_expanded
        assert npy[0].stats.backend == "numpy"

    def test_fused_scan_matches_per_query_base(self):
        g = random_graph(45, 0.09, seed=12)
        queries = [
            BatchQuery(
                scores=ScoreVector(binary_scores(45, 200 + i, density=0.5)),
                k=4 + i,
                aggregate=agg,
            )
            for i, agg in enumerate(["sum", "avg", "count", "sum"])
        ]
        fused = batch_base_topk(g, queries, hops=2, backend="numpy")
        for entry, result in zip(queries, fused):
            spec = QuerySpec(
                k=entry.k, aggregate=entry.aggregate, hops=2, backend="python"
            )
            alone = base_topk(g, entry.scores.values(), spec)
            assert result.entries == alone.entries

    @pytest.mark.parametrize("include_self", [True, False])
    def test_avg_ties_and_empty_balls(self, include_self):
        # A triangle (identical closed neighborhoods -> exact AVG ties), an
        # edge, and an isolated node (empty open ball).
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4)], num_nodes=6)
        queries = [
            BatchQuery(
                scores=ScoreVector([1.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
                k=6,
                aggregate="avg",
            ),
            BatchQuery(
                scores=ScoreVector([0.5, 0.5, 0.5, 0.25, 0.25, 0.0]),
                k=3,
                aggregate="avg",
            ),
        ]
        py = batch_base_topk(
            g, queries, hops=2, include_self=include_self, backend="python"
        )
        npy = batch_base_topk(
            g, queries, hops=2, include_self=include_self, backend="numpy"
        )
        for a, b in zip(py, npy):
            assert a.entries == b.entries


# ---------------------------------------------------------------------------
# Property tests: the fused batch kernel against the per-query oracle
# ---------------------------------------------------------------------------
# Guarded import, NOT a module-level importorskip: a missing hypothesis
# must skip only this property test, never the parity suite above it.
try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - exercised without hypothesis
    given = settings = st = None

#: Dyadic-rational scores: sums of these are exact in binary floating point
#: in any association order, so the two backends must be *bit*-identical
#: and tie handling cannot diverge on rounding.
DYADIC = [i / 16.0 for i in range(17)]


def _fused_batch_kernel_property(data):
    """Fused numpy batch == each query through python Base, entry for entry."""
    n = data.draw(st.integers(min_value=2, max_value=14), label="n")
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] < e[1]),
            unique=True,
            max_size=n * 2,
        ),
        label="edges",
    )
    graph = Graph.from_edges(edges, num_nodes=n)
    hops = data.draw(st.integers(0, 3), label="hops")
    include_self = data.draw(st.booleans(), label="include_self")
    num_queries = data.draw(st.integers(1, 4), label="q")
    queries = []
    for i in range(num_queries):
        scores = data.draw(
            st.lists(
                st.sampled_from(DYADIC), min_size=n, max_size=n
            ),
            label=f"scores{i}",
        )
        queries.append(
            BatchQuery(
                scores=ScoreVector(scores),
                k=data.draw(st.integers(1, n), label=f"k{i}"),
                aggregate=data.draw(
                    st.sampled_from(["sum", "avg", "count"]), label=f"agg{i}"
                ),
            )
        )
    fused = batch_base_topk(
        graph, queries, hops=hops, include_self=include_self, backend="numpy"
    )
    for entry, result in zip(queries, fused):
        spec = QuerySpec(
            k=entry.k,
            aggregate=entry.aggregate,
            hops=hops,
            include_self=include_self,
            backend="python",
        )
        alone = base_topk(graph, entry.scores.values(), spec)
        assert result.entries == alone.entries


if st is not None:
    test_fused_batch_kernel_property = settings(max_examples=40, deadline=None)(
        given(data=st.data())(_fused_batch_kernel_property)
    )
else:  # pragma: no cover - exercised without hypothesis

    @pytest.mark.skip(reason="hypothesis not installed")
    def test_fused_batch_kernel_property():
        pass
