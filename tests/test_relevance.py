"""Tests for the relevance-function layer."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.errors import RelevanceError
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.relevance import (
    BinaryRelevance,
    IterativeClassifierRelevance,
    MixtureRelevance,
    RandomAssignmentRelevance,
    RandomWalkRelevance,
    ScoreVector,
    indicator_scores,
    uniform_scores,
    walk_diffusion,
)


class TestScoreVector:
    def test_basic_accessors(self):
        sv = ScoreVector([0.0, 0.5, 1.0])
        assert len(sv) == 3
        assert sv[1] == 0.5
        assert list(sv) == [0.0, 0.5, 1.0]

    def test_range_validated(self):
        with pytest.raises(RelevanceError):
            ScoreVector([0.5, 1.2])
        with pytest.raises(RelevanceError):
            ScoreVector([-0.1])

    def test_nonzero_and_density(self):
        sv = ScoreVector([0.0, 0.3, 0.0, 1.0])
        assert sv.nonzero_nodes == (1, 3)
        assert sv.density == 0.5

    def test_is_binary(self):
        assert ScoreVector([0.0, 1.0, 1.0]).is_binary
        assert not ScoreVector([0.0, 0.5]).is_binary

    def test_descending_nonzero_order(self):
        sv = ScoreVector([0.2, 0.9, 0.0, 0.9, 0.5])
        assert sv.descending_nonzero() == [1, 3, 4, 0]

    def test_total(self):
        assert ScoreVector([0.25, 0.75]).total() == 1.0

    def test_values_returns_copy(self):
        sv = ScoreVector([0.1, 0.2])
        values = sv.values()
        values[0] = 0.9
        assert sv[0] == 0.1

    def test_check_graph(self, path_graph):
        ScoreVector([0.0] * 5).check_graph(path_graph)
        with pytest.raises(RelevanceError):
            ScoreVector([0.0] * 4).check_graph(path_graph)

    def test_empty_vector(self):
        sv = ScoreVector([])
        assert sv.density == 0.0
        assert sv.is_binary


class TestScoreVectorArray:
    """The vector owns its float64 array: built once, shared, read-only."""

    def test_built_once_read_only_equal_to_values(self):
        np = pytest.importorskip("numpy")
        sv = ScoreVector([0.2, 0.9, 0.0, 0.9, 0.5])
        arr = sv.array()
        assert sv.array() is arr
        assert arr.dtype == np.float64 and arr.tolist() == sv.values()
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
        assert sv[0] == 0.2

    def test_racing_first_readers_convert_once(self, monkeypatch):
        np = pytest.importorskip("numpy")
        conversions = []
        real = np.array

        def counting(obj, *args, **kwargs):
            conversions.append(obj)
            time.sleep(0.02)  # widen the window the racing readers share
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(np, "array", counting)
        sv = ScoreVector([i / 64 for i in range(64)])
        barrier = threading.Barrier(4)
        seen = []

        def reader():
            barrier.wait(timeout=10)
            seen.append(sv.array())

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(conversions) == 1
        assert len(seen) == 4 and all(arr is seen[0] for arr in seen)

    def test_sorted_access_is_the_distribution_order(self):
        pytest.importorskip("numpy")
        sv = ScoreVector([0.2, 0.9, 0.0, 0.9, 0.5])
        ids, scores = sv.sorted_access()
        assert ids.tolist() == sv.descending_nonzero() == [1, 3, 4, 0]
        assert scores.tolist() == [0.9, 0.9, 0.5, 0.2]
        assert not ids.flags.writeable and not scores.flags.writeable
        assert sv.sorted_access()[0] is ids
        empty = ScoreVector([0.0, 0.0]).sorted_access()
        assert empty[0].size == empty[1].size == 0

    def test_folded_scores_reads_the_owner(self):
        np = pytest.importorskip("numpy")
        from repro.aggregates.functions import AggregateKind
        from repro.relevance.base import folded_scores

        binary, graded = ScoreVector([0.0, 1.0, 1.0]), ScoreVector([0.0, 0.5, 1.0])
        for kind in (None, AggregateKind.SUM, AggregateKind.AVG, AggregateKind.MAX):
            arr, effective = folded_scores(np, graded, kind)
            assert arr is graded.array() and effective is kind
        # COUNT is SUM over the indicator; a binary vector's array is one.
        arr, kind = folded_scores(np, binary, AggregateKind.COUNT)
        assert arr is binary.array() and kind is AggregateKind.SUM
        arr, kind = folded_scores(np, graded, AggregateKind.COUNT)
        assert arr.tolist() == [0.0, 1.0, 1.0] and kind is AggregateKind.SUM
        assert graded.array().tolist() == [0.0, 0.5, 1.0]
        # Anything else is converted (an array: taken as it is).
        arr, _ = folded_scores(np, [0.0, 0.5], AggregateKind.COUNT)
        assert arr.dtype == np.float64 and arr.tolist() == [0.0, 1.0]
        given = np.asarray([0.25, 0.0])
        assert folded_scores(np, given)[0] is given

    def test_python_backend_never_reaches_for_numpy(self):
        """A fresh interpreter builds a vector and runs every python-backend
        front door over it; ``numpy`` (installed or not) is never imported."""
        script = textwrap.dedent(
            """
            import sys
            from repro import Graph, QuerySpec, ScoreVector
            from repro.core.backward import backward_topk
            from repro.core.base import base_topk
            from repro.core.forward import forward_topk
            graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
            vector = ScoreVector([0.0, 1.0, 0.0, 0.5])
            spec = QuerySpec(k=1, hops=1, backend="python")
            for run in (base_topk, forward_topk, backward_topk):
                assert run(graph, vector, spec).entries == [(2, 1.5)]
            assert "numpy" not in sys.modules
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr


class TestHelpers:
    def test_uniform_scores(self, path_graph):
        sv = uniform_scores(path_graph, 0.5)
        assert all(v == 0.5 for v in sv)
        with pytest.raises(RelevanceError):
            uniform_scores(path_graph, 1.5)

    def test_indicator_scores(self, path_graph):
        sv = indicator_scores(path_graph, [0, 3])
        assert sv.values() == [1.0, 0.0, 0.0, 1.0, 0.0]
        assert sv.is_binary

    def test_indicator_rejects_bad_node(self, path_graph):
        with pytest.raises(RelevanceError):
            indicator_scores(path_graph, [9])


class TestBinaryAndAssignment:
    def test_binary_ratio(self):
        g = erdos_renyi(200, 300, seed=1)
        sv = BinaryRelevance(0.1, seed=2).scores(g)
        assert sv.is_binary
        assert len(sv.nonzero_nodes) == 20

    def test_binary_deterministic(self):
        g = erdos_renyi(100, 150, seed=1)
        a = BinaryRelevance(0.2, seed=3).scores(g)
        b = BinaryRelevance(0.2, seed=3).scores(g)
        assert a.values() == b.values()

    def test_binary_ratio_bounds(self):
        with pytest.raises(RelevanceError):
            BinaryRelevance(1.5)

    def test_assignment_blacked_count(self):
        g = erdos_renyi(300, 400, seed=4)
        sv = RandomAssignmentRelevance(0.05, seed=5).scores(g)
        blacked = sum(1 for v in sv if v == 1.0)
        assert blacked == 15

    def test_assignment_tail_in_range(self):
        g = erdos_renyi(200, 250, seed=6)
        sv = RandomAssignmentRelevance(0.0, rate=5.0, seed=7).scores(g)
        assert all(0.0 <= v < 1.0 for v in sv)
        # exponential tail concentrates near zero
        assert sum(v < 0.3 for v in sv) > 140

    def test_assignment_zero_fraction(self):
        g = erdos_renyi(300, 350, seed=8)
        sv = RandomAssignmentRelevance(
            0.0, zero_fraction=0.5, seed=9
        ).scores(g)
        zeros = sum(1 for v in sv if v == 0.0)
        assert 100 <= zeros <= 200

    def test_assignment_validation(self):
        with pytest.raises(RelevanceError):
            RandomAssignmentRelevance(0.1, rate=0.0)
        with pytest.raises(RelevanceError):
            RandomAssignmentRelevance(0.1, zero_fraction=2.0)


class TestRandomWalk:
    def test_diffusion_spreads_mass(self, path_graph):
        out = walk_diffusion(path_graph, [1.0, 0.0, 0.0, 0.0, 0.0], iterations=2)
        assert out[1] > 0.0
        assert out[2] > 0.0

    def test_diffusion_zero_stays_zero(self, path_graph):
        out = walk_diffusion(path_graph, [0.0] * 5)
        assert out == [0.0] * 5

    def test_diffusion_normalized(self, star_graph):
        out = walk_diffusion(star_graph, [1.0, 0, 0, 0, 0, 0], iterations=3)
        assert max(out) == 1.0

    def test_diffusion_validation(self, path_graph):
        with pytest.raises(RelevanceError):
            walk_diffusion(path_graph, [1.0] * 4)
        with pytest.raises(RelevanceError):
            walk_diffusion(path_graph, [1.0] * 5, restart_prob=0.0)
        with pytest.raises(RelevanceError):
            walk_diffusion(path_graph, [1.0] * 5, iterations=-1)

    def test_dangling_nodes_keep_mass(self):
        g = Graph.from_edges([(0, 1)], num_nodes=3)  # node 2 isolated
        out = walk_diffusion(g, [0.0, 0.0, 1.0], iterations=4)
        assert out[2] == 1.0

    def test_relevance_wrapper(self, path_graph):
        base = BinaryRelevance(0.4, seed=11)
        walked = RandomWalkRelevance(base, iterations=2).scores(path_graph)
        assert len(walked) == 5
        assert not walked.is_binary or walked.density in (0.0, 1.0)

    def test_wrapper_rejects_non_relevance(self):
        with pytest.raises(RelevanceError):
            RandomWalkRelevance(object())


class TestMixture:
    def test_blacked_nodes_stay_one(self):
        g = erdos_renyi(200, 400, seed=12)
        sv = MixtureRelevance(0.1, seed=13).scores(g)
        assert sum(1 for v in sv if v == 1.0) >= 20

    def test_binary_mode(self):
        g = erdos_renyi(150, 200, seed=14)
        sv = MixtureRelevance(0.1, binary=True, seed=15).scores(g)
        assert sv.is_binary
        assert len(sv.nonzero_nodes) == 15

    def test_truncation_sparsifies(self):
        g = erdos_renyi(200, 400, seed=16)
        dense = MixtureRelevance(0.05, zero_fraction=0.0, seed=17).scores(g)
        sparse = MixtureRelevance(
            0.05, zero_fraction=0.0, truncate_below=0.2, seed=17
        ).scores(g)
        assert sparse.density < dense.density
        # surviving scores are untouched
        for lo, hi in zip(sparse, dense):
            if lo > 0.0:
                assert lo == hi

    def test_deterministic(self):
        g = erdos_renyi(100, 200, seed=18)
        a = MixtureRelevance(0.05, seed=19).scores(g)
        b = MixtureRelevance(0.05, seed=19).scores(g)
        assert a.values() == b.values()

    def test_validation(self):
        with pytest.raises(RelevanceError):
            MixtureRelevance(0.1, alpha=1.5)
        with pytest.raises(RelevanceError):
            MixtureRelevance(0.1, truncate_below=-0.2)


class TestIterativeClassifier:
    def test_seeds_clamped(self, path_graph):
        sv = IterativeClassifierRelevance([0], [4]).scores(path_graph)
        assert sv[0] == 1.0
        assert sv[4] == 0.0

    def test_proximity_orders_scores(self, path_graph):
        sv = IterativeClassifierRelevance([0], [4], iterations=8).scores(path_graph)
        assert sv[1] > sv[3]

    def test_no_iterations_returns_priors(self, path_graph):
        sv = IterativeClassifierRelevance([0], prior=0.3, iterations=0).scores(
            path_graph
        )
        assert sv[2] == pytest.approx(0.3)

    def test_overlapping_seeds_rejected(self):
        with pytest.raises(RelevanceError):
            IterativeClassifierRelevance([1], [1])

    def test_out_of_graph_seed_rejected(self, path_graph):
        with pytest.raises(RelevanceError):
            IterativeClassifierRelevance([10]).scores(path_graph)

    def test_scores_in_range(self):
        g = erdos_renyi(80, 160, seed=20)
        sv = IterativeClassifierRelevance(
            [0, 1, 2], [70, 71], iterations=6
        ).scores(g)
        assert all(0.0 <= v <= 1.0 for v in sv)
