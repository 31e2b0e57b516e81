"""The compiled kernel tier: availability ladder, parity, and the leaner
parallel round it feeds.

The native backend is import-or-decline like numpy (see
:mod:`repro.core.backends`): ``"auto"`` walks native -> numpy -> python,
and asking for ``"native"`` explicitly without its imports raises instead
of silently changing performance class.  ``REPRO_NATIVE_INTERPRETED``
makes the tier available with the kernels running interpreted — same
code, no jit — which is what lets every parity test here run on machines
without numba.  The kernels accumulate in the same order as
``np.bincount`` on sorted members, so base/forward/backward entries are
bit-exact against numpy; batch shares numpy's 1e-9 pairwise-summation
tolerance.

The parallel half covers the pipe link's round: work-stealing chunk
arithmetic, shared-memory reply buffers (and the strip-on-respawn pipe
fallback), and native-kernel opt-in inside workers.
"""

from __future__ import annotations

import os

import pytest

import repro.core.backends as backends
from repro.core.backends import BACKENDS, resolve_backend
from repro.errors import BackendUnavailableError
from repro.graph.graph import Graph
from repro.parallel.coordinator import _chunked
from repro.session import Network
from tests.conftest import random_graph, random_scores, rounded

np = pytest.importorskip("numpy")

WORKERS = int(os.environ.get("REPRO_PARALLEL_TEST_WORKERS", "2"))


@pytest.fixture()
def interpreted_native(monkeypatch):
    """Make the native tier resolvable without numba (kernels interpreted)."""
    monkeypatch.setenv("REPRO_NATIVE_INTERPRETED", "1")


def _net(graph, scores, backend, hops=2, **kwargs):
    net = Network(graph, hops=hops, backend=backend, **kwargs)
    net.add_scores("s", scores)
    return net


def _pair(graph, scores, hops=2):
    return (
        _net(graph, scores, "native", hops=hops),
        _net(graph, scores, "numpy", hops=hops),
    )


def assert_same_answer(a, b):
    assert a.nodes == b.nodes
    assert rounded(a.values) == rounded(b.values)


class TestAvailabilityLadder:
    def test_native_is_a_declared_backend(self):
        assert "native" in BACKENDS

    def test_auto_prefers_native_when_available(self, interpreted_native):
        assert resolve_backend("auto") == "native"
        assert resolve_backend("native") == "native"

    def test_auto_declines_to_numpy_without_numba(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_INTERPRETED", raising=False)
        monkeypatch.setattr(backends, "_NUMBA_AVAILABLE", False)
        assert resolve_backend("auto") == "numpy"

    def test_explicit_native_raises_when_unavailable(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_INTERPRETED", raising=False)
        monkeypatch.setattr(backends, "_NUMBA_AVAILABLE", False)
        with pytest.raises(BackendUnavailableError):
            resolve_backend("native")

    def test_numba_import_alone_unlocks_the_tier(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_INTERPRETED", raising=False)
        monkeypatch.setattr(backends, "_NUMBA_AVAILABLE", True)
        assert resolve_backend("auto") == "native"

    def test_explicit_lower_tiers_still_resolve(self, interpreted_native):
        # auto prefers native, but pinning numpy/python must keep working.
        assert resolve_backend("numpy") == "numpy"
        assert resolve_backend("python") == "python"


class TestNativeParity:
    """Entry-for-entry agreement with numpy on every covered route."""

    @pytest.mark.parametrize(
        "aggregate", ["sum", "avg", "count", "max", "min"]
    )
    def test_base_every_aggregate(self, interpreted_native, aggregate):
        g = random_graph(60, 0.08, seed=99)
        scores = random_scores(60, seed=3)
        nat, ref = _pair(g, scores)
        a = nat.query("s").limit(7).aggregate(aggregate).algorithm("base").run()
        b = ref.query("s").limit(7).aggregate(aggregate).algorithm("base").run()
        assert_same_answer(a, b)

    @pytest.mark.parametrize("algorithm", ["forward", "backward"])
    def test_pruned_algorithms(self, interpreted_native, algorithm):
        g = random_graph(70, 0.06, seed=17)
        scores = random_scores(70, seed=5)
        nat, ref = _pair(g, scores)
        a = nat.query("s").limit(9).algorithm(algorithm).run()
        b = ref.query("s").limit(9).algorithm(algorithm).run()
        assert_same_answer(a, b)

    def test_backward_with_sparse_scores(self, interpreted_native):
        # Low non-zero density drives backward's candidate/verify split.
        g = random_graph(80, 0.05, seed=23)
        scores = random_scores(80, seed=11, density=0.15)
        nat, ref = _pair(g, scores)
        a = nat.query("s").limit(5).algorithm("backward").run()
        b = ref.query("s").limit(5).algorithm("backward").run()
        assert_same_answer(a, b)

    def test_weighted_routes(self, interpreted_native):
        g = random_graph(60, 0.08, seed=41)
        scores = random_scores(60, seed=7)
        nat, ref = _pair(g, scores)
        assert_same_answer(
            nat.topk_weighted("s", 8), ref.topk_weighted("s", 8)
        )
        assert_same_answer(
            nat.topk_weighted("s", 8, algorithm="base"),
            ref.topk_weighted("s", 8, algorithm="base"),
        )

    def test_filtered_competitors(self, interpreted_native):
        g = random_graph(60, 0.08, seed=53)
        scores = random_scores(60, seed=13)
        nat, ref = _pair(g, scores)
        a = nat.query("s").limit(6).where(lambda u: u % 2 == 0).run()
        b = ref.query("s").limit(6).where(lambda u: u % 2 == 0).run()
        assert_same_answer(a, b)

    def test_batch_shared_scan(self, interpreted_native):
        g = random_graph(60, 0.08, seed=61)
        scores = random_scores(60, seed=17)
        nat, ref = _pair(g, scores)
        qa = nat.batch(
            [nat.query("s").limit(5), nat.query("s").limit(4).aggregate("avg")]
        )
        qb = ref.batch(
            [ref.query("s").limit(5), ref.query("s").limit(4).aggregate("avg")]
        )
        for a, b in zip(qa, qb):
            assert_same_answer(a, b)

    def test_directed_graphs(self, interpreted_native):
        g = random_graph(50, 0.06, seed=71, directed=True)
        scores = random_scores(50, seed=19)
        nat, ref = _pair(g, scores)
        for algorithm in ("base", "forward", "backward"):
            a = nat.query("s").limit(6).algorithm(algorithm).run()
            b = ref.query("s").limit(6).algorithm(algorithm).run()
            assert_same_answer(a, b)

    def test_integer_score_ties_bit_exact(self, interpreted_native):
        # Integer scores make summation order irrelevant: entries must be
        # *identical*, including tie order.
        g = random_graph(60, 0.08, seed=83)
        scores = [(i % 3) / 2 for i in range(60)]
        nat, ref = _pair(g, scores)
        a = nat.topk("s", 10)
        b = ref.topk("s", 10)
        assert a.entries == b.entries

    def test_empty_balls(self, interpreted_native):
        # Nodes 8/9 are isolated: their balls are empty without self.
        g = Graph.from_edges(
            [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)], num_nodes=10
        )
        scores = [(i + 1) / 16 for i in range(10)]
        for include_self in (True, False):
            nat = Network(g, hops=2, include_self=include_self, backend="native")
            ref = Network(g, hops=2, include_self=include_self, backend="numpy")
            nat.add_scores("s", scores)
            ref.add_scores("s", scores)
            assert nat.topk("s", 10).entries == ref.topk("s", 10).entries


class TestKernelProvenance:
    def test_native_results_tag_kernel_and_mode(self, interpreted_native):
        g = random_graph(40, 0.1, seed=5)
        net = _net(g, random_scores(40, seed=5), "native")
        res = net.topk("s", 5)
        assert res.stats.extra["kernel"] == "native"
        assert res.stats.extra["kernel_mode"] in ("compiled", "interpreted")

    def test_numpy_results_tag_their_tier(self):
        g = random_graph(40, 0.1, seed=5)
        net = _net(g, random_scores(40, seed=5), "numpy")
        assert net.topk("s", 5).stats.extra["kernel"] == "numpy"

    def test_explain_names_the_compiled_tier(self, interpreted_native):
        g = random_graph(40, 0.1, seed=5)
        net = _net(g, random_scores(40, seed=5), "native")
        text = net.query("s").limit(5).explain().explain()
        assert "compiled CSR kernels" in text


class TestWorkStealing:
    def test_chunked_partitions_exactly(self):
        task = {"type": "scan", "shard": 0}
        pieces = _chunked(task, 1000, 100)
        assert len(pieces) > 1
        assert pieces[0]["lo"] == 0 and pieces[-1]["hi"] == 1000
        for left, right in zip(pieces, pieces[1:]):
            assert left["hi"] == right["lo"]  # no gaps, no overlap
        assert all(p["hi"] > p["lo"] for p in pieces)

    def test_chunked_never_splits_below_a_block(self):
        task = {"type": "scan", "shard": 0}
        assert _chunked(task, 150, 100) == [task]
        assert _chunked(dict(task), 0, 100) == [task]

    def test_chunk_count_is_bounded(self):
        pieces = _chunked({"shard": 1}, 10**6, 10)
        assert len(pieces) <= 4

    def test_skewed_graph_answers_match_numpy(self):
        # A hub-heavy graph gives one shard most of the work; stealing
        # must not change the entries, only the task count.
        import random as _random

        rng = _random.Random(29)
        n = 5000  # each shard must own >= 2 kernel blocks (1024) to split
        edges = {(u, u + 1) for u in range(n - 1)}
        for _ in range(3 * n):
            u, v = rng.randrange(120), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = Graph.from_edges(sorted(edges), num_nodes=n)
        scores = random_scores(n, seed=31)
        ref = _net(g, scores, "numpy").topk("s", 12)

        net = _net(g, scores, "parallel")
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        try:
            res = net.topk("s", 12)
            assert res.entries == ref.entries
            # Scans were split into more tasks than shards.
            assert res.stats.extra["tasks"] > len(engine.stats()["shards"])
        finally:
            engine.close()


class TestReplyBuffers:
    def test_respawn_falls_back_to_pipe_replies(self):
        # Killing a worker mid-life forces the reissue path: reissued
        # tasks are stripped of their reply buffers (two writers must
        # never share a slot) and the engine rotates segments afterwards.
        g = random_graph(300, 0.02, seed=43)
        scores = random_scores(300, seed=47)
        ref = _net(g, scores, "numpy").topk("s", 10)

        net = _net(g, scores, "parallel")
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        try:
            assert net.topk("s", 10).entries == ref.entries
            pool = engine._pool()
            pool._members[0].process.terminate()
            pool._members[0].process.join()
            assert net.topk("s", 10).entries == ref.entries
            assert pool.respawns >= 1
            # The next healthy round still matches.
            assert net.topk("s", 10).entries == ref.entries
        finally:
            engine.close()

    def test_stats_surface_the_new_gauges(self):
        g = random_graph(200, 0.03, seed=53)
        net = _net(g, random_scores(200, seed=59), "parallel")
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        try:
            res = net.topk("s", 8)
            stats = engine.stats()
            for key in (
                "reply_buffers",
                "pipe_bytes_sent",
                "pipe_bytes_received",
            ):
                assert key in stats
            assert res.stats.extra["pipe_bytes_sent"] > 0
            assert res.stats.extra["pipe_bytes_received"] > 0
        finally:
            engine.close()


class TestWorkerNativeOptIn:
    def test_workers_stay_on_numpy_for_interpreted_kernels(
        self, interpreted_native
    ):
        # Interpreted native kernels lose to the numpy slab path, so the
        # engine only offers native to workers when the kernels compiled.
        g = random_graph(200, 0.03, seed=61)
        net = _net(g, random_scores(200, seed=61), "parallel")
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        try:
            import repro.native.kernels as kernels

            expected = kernels.KERNEL_MODE == "compiled"
            assert engine._workers_native() is expected
        finally:
            engine.close()

    def test_workers_honour_the_native_flag(self):
        # Wiring test: set the engine's flag directly; the worker runs the
        # kernels it can import (interpreted here unless numba compiled).
        g = random_graph(300, 0.02, seed=67)
        scores = random_scores(300, seed=71)
        ref = _net(g, scores, "numpy")
        net = _net(g, scores, "parallel")
        engine = net.parallel(workers=WORKERS, min_nodes=0)
        engine._native = True
        try:
            assert net.topk("s", 9).entries == ref.topk("s", 9).entries
            assert (
                net.topk_weighted("s", 9).entries
                == ref.topk_weighted("s", 9).entries
            )
            b = net.query("s").limit(9).algorithm("backward").run()
            rb = ref.query("s").limit(9).algorithm("backward").run()
            assert b.entries == rb.entries
        finally:
            engine.close()
