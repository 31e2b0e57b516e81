"""Concurrency stress: parallel queries, shared caches, racing mutations.

These tests drive the serving layer with real thread pools and assert the
*answers* stay exactly right — thread-safety of `GraphContext`'s lazily
built artifacts (CSR views, size indexes, LRU ball caches with their
shared visited-stamp arrays), the scheduler's dispatch accounting, and the
readers-writer isolation between queries and dynamic mutations.

Scores are quantized (dyadic) so sums are exact in any execution order and
every comparison can demand entry-for-entry identity.  ``REPRO_STRESS_THREADS``
/ ``REPRO_STRESS_ROUNDS`` scale the load up in CI's concurrency-smoke job.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.session import Network
from tests.conftest import random_graph
from tests.test_service import quantized_scores

THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "4"))
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "3"))

SCORE_NAMES = ("s0", "s1", "s2", "s3")


def build_net(graph_seed: int = 13, *, dynamic: bool = False) -> Network:
    graph = random_graph(90, 0.06, seed=graph_seed)
    if dynamic:
        from repro.dynamic.graph import DynamicGraph

        graph = DynamicGraph.from_graph(graph)
    net = Network(graph, hops=2)
    for i, name in enumerate(SCORE_NAMES):
        net.add_scores(name, quantized_scores(90, seed=100 + i, density=0.5 + 0.1 * i))
    return net


def shapes(net):
    """A mixed workload: coalescible, pinned, filtered, and AVG queries."""
    return [
        ("plain", net.query("s0").limit(5)),
        ("plain2", net.query("s1").limit(8)),
        ("avg", net.query("s2").limit(5).aggregate("avg")),
        ("backward", net.query("s3").limit(5).algorithm("backward")),
        ("filtered", net.query("s0").limit(4).where(range(0, 90, 3))),
        ("count", net.query("s1").limit(6).aggregate("count")),
    ]


class TestParallelQueries:
    def test_parallel_submits_match_sequential(self):
        net = build_net()
        try:
            expected = {tag: builder.run().entries for tag, builder in shapes(net)}
            net.service(workers=THREADS)
            for _ in range(ROUNDS):
                handles = [
                    (tag, builder.submit(cached=False))
                    for tag, builder in shapes(net)
                    for _ in range(THREADS)
                ]
                for tag, handle in handles:
                    assert handle.result(timeout=30).entries == expected[tag], tag
        finally:
            net.service().shutdown()

    def test_parallel_inline_runs_share_context_safely(self):
        # .run() on a zero-worker service executes on the calling thread:
        # many caller threads exercise GraphContext's lazy builds and the
        # shared ball caches truly in parallel.
        net = build_net(graph_seed=29)
        expected = {tag: builder.run().entries for tag, builder in shapes(net)}

        def worker(_):
            out = {}
            for tag, builder in shapes(net):
                out[tag] = builder.run().entries
            return out

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            for answer in pool.map(worker, range(THREADS * ROUNDS)):
                assert answer == expected

    @pytest.mark.skipif(
        os.environ.get("REPRO_FORCE_PYTHON") == "1", reason="numpy-backend stress"
    )
    def test_parallel_backward_shares_ball_cache(self):
        pytest.importorskip("numpy")
        net = build_net(graph_seed=41)
        builder = net.query("s3").limit(6).algorithm("backward").backend("numpy")
        expected = builder.run().entries

        def worker(_):
            return builder.run().entries

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            for entries in pool.map(worker, range(THREADS * 4)):
                assert entries == expected
        stats = net._ctx.ball_index().stats()
        assert stats["hits"] > 0  # the session's index was genuinely shared

    def test_concurrent_submit_and_stream(self):
        net = build_net(graph_seed=57)
        expected = net.query("s0").limit(5).run().entries
        net.service(workers=2)
        try:
            stream_handle = net.query("s0").limit(5).submit(stream=True)
            plain = [net.query("s1").limit(5).submit() for _ in range(6)]
            updates = list(stream_handle.updates(timeout=30))
            assert updates and updates[-1].done
            # Streams evaluate in bound order, so equal-valued boundary
            # ties may resolve to different nodes than run(); the value
            # multiset is exact either way (documented tie semantics).
            assert [v for _, v in updates[-1].entries] == [v for _, v in expected]
            for handle in plain:
                handle.result(timeout=30)
        finally:
            net.service().shutdown()


class TestMutationIsolation:
    def test_mutations_never_tear_inflight_queries(self):
        net = build_net(graph_seed=71, dynamic=True)
        net.service(workers=THREADS)
        try:
            errors = []
            stop = threading.Event()

            def mutate():
                edge = 0
                while not stop.is_set():
                    try:
                        u, v = 80 + (edge % 9), (edge * 7) % 50
                        if not net.graph.has_edge(u, v):
                            net.add_edge(u, v)
                        net.update_score("s0", edge % 90, 0.5)
                    except Exception as exc:  # pragma: no cover - must not happen
                        errors.append(exc)
                    edge += 1

            writer = threading.Thread(target=mutate, daemon=True)
            writer.start()
            try:
                for _ in range(ROUNDS * 4):
                    handles = [
                        net.query(name).limit(5).submit(cached=False)
                        for name in SCORE_NAMES
                    ]
                    for handle in handles:
                        result = handle.result(timeout=30)
                        assert len(result.entries) == 5
            finally:
                stop.set()
                writer.join(timeout=10)
            assert not errors, errors
            # Quiesced: the post-mutation answer is stable and exact.
            final = net.query("s0").limit(5).run().entries
            assert net.query("s0").limit(5).run().entries == final
        finally:
            net.service().shutdown()

    def test_racing_reads_see_the_old_or_the_new_arrays_never_a_mix(self):
        """The graph patches its CSR into new arrays and the context swaps
        whole tables, so a query that races an edge write answers for the
        graph without the edge or with it — an ``indptr`` of one version read
        against the ``indices`` (or size table, or view arrays) of the other
        would answer for neither."""
        import sys

        pytest.importorskip("numpy")
        net = build_net(graph_seed=59, dynamic=True)
        net.maintain("s0")
        reads = {
            "base": net.query("s1").limit(8).algorithm("base"),
            "backward": net.query("s3").limit(6).algorithm("backward"),
            "view": net.query("s0").limit(6).algorithm("view"),
        }

        def answers():
            return {tag: builder.run().entries for tag, builder in reads.items()}

        without = answers()
        for u, v in ((u, v) for u in range(90) for v in range(u + 1, 90)):
            if net.graph.has_edge(u, v):
                continue
            net.add_edge(u, v)
            with_edge = answers()
            net.remove_edge(u, v)
            if all(with_edge[tag] != without[tag] for tag in reads):
                break
        else:  # pragma: no cover - the seed graph has such an edge
            pytest.fail("no edge changes all three answers")
        assert answers() == without

        net.service(workers=THREADS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        stop = threading.Event()
        errors = []

        def toggle():
            try:
                while not stop.is_set():
                    net.add_edge(u, v)
                    net.remove_edge(u, v)
            except Exception as exc:  # pragma: no cover - must not happen
                errors.append(exc)

        writer = threading.Thread(target=toggle, daemon=True)
        writer.start()
        try:
            for _ in range(ROUNDS * 8):
                handles = [
                    (tag, builder.submit(cached=False))
                    for tag, builder in reads.items()
                    for _ in range(THREADS)
                ]
                for tag, handle in handles:
                    entries = handle.result(timeout=30).entries
                    assert entries in (without[tag], with_edge[tag]), tag
        finally:
            stop.set()
            writer.join(timeout=10)
            sys.setswitchinterval(interval)
            net.service().shutdown()
        assert not writer.is_alive() and not errors, errors
        if net.graph.has_edge(u, v):
            net.remove_edge(u, v)
        assert answers() == without

    def test_mutation_waits_for_inflight_then_queries_see_new_version(self):
        from tests.test_service import hold_worker

        net = build_net(graph_seed=83, dynamic=True)
        net.service(workers=1)
        try:
            release, blocker = hold_worker(net)
            state = {"mutated_at": None, "blocker_done_at": None}

            def mutate():
                net.add_edge(85, 3)
                state["mutated_at"] = threading.get_ident()

            writer = threading.Thread(target=mutate, daemon=True)
            writer.start()
            # The mutation must be parked behind the in-flight query.
            writer.join(timeout=0.2)
            assert writer.is_alive(), "add_edge did not wait for reader"
            release.set()
            blocker.result(timeout=10)
            writer.join(timeout=10)
            assert not writer.is_alive()
            assert net.graph.has_edge(85, 3)
            post = net.query("s0").limit(5).run()
            assert len(post.entries) == 5
        finally:
            net.service().shutdown()


class TestCacheConsistencyUnderLoad:
    def test_cached_answers_always_match_current_graph(self):
        net = build_net(graph_seed=97, dynamic=True)
        net.service(workers=2)
        try:
            for round_no in range(ROUNDS):
                fresh = net.query("s1").limit(5).run().entries
                # A burst of cached submits: every answer equals the live one.
                handles = [net.query("s1").limit(5).submit() for _ in range(8)]
                for handle in handles:
                    assert handle.result(timeout=30).entries == fresh
                if not net.graph.has_edge(86, round_no + 1):
                    net.add_edge(86, round_no + 1)
                else:
                    net.remove_edge(86, round_no + 1)
                after = net.query("s1").limit(5).run().entries
                burst = [net.query("s1").limit(5).submit() for _ in range(4)]
                for handle in burst:
                    assert handle.result(timeout=30).entries == after
        finally:
            net.service().shutdown()
