"""The concurrent serving surface: handles, scheduler, coalescing, cache.

Covers the :mod:`repro.service` package end to end through the session
front door — handle lifecycle (result/cancel/timeout/deadline), admission
control, scan coalescing parity against sequential ``.run()``, the
graph-version-keyed result cache and its invalidation on mutations, the
set-fields mask on ``QueryRequest``, and the bounded session ball caches.

Score vectors here are quantized (0 / 0.25 / 0.5 / 1 multiples), so every
aggregate is an exact dyadic float and reduction order cannot produce
last-ULP drift: coalesced, cached, and sequential answers must be
*entry-for-entry identical*, not merely approximately equal.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core.request import QueryRequest
from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    QueryCancelledError,
    ServiceOverloadedError,
    ServiceShutdownError,
)
from repro.relevance.base import ScoreVector
from repro.service import QueryHandle, ResultCache
from repro.session import Network
from tests.conftest import random_graph


def quantized_scores(n: int, seed: int, *, density: float = 0.6):
    """Dyadic scores: sums are exact floats in any summation order."""
    rng = random.Random(seed)
    levels = (0.25, 0.5, 0.75, 1.0)
    return ScoreVector(
        [rng.choice(levels) if rng.random() < density else 0.0 for _ in range(n)]
    )


def hold_worker(net):
    """Occupy one worker with a query that blocks until the event is set.

    Patches the session's ``_run`` (instance attribute shadowing) so a
    sentinel score name parks inside execution; returns ``(release_event,
    blocker_handle)``.  Everything else executes unchanged.
    """
    release = threading.Event()
    real_run = net._run

    def slow_run(request, _real=real_run, _release=release):
        if request.score == "__slow__":
            _release.wait(10)
        return _real(request)

    net._run = slow_run
    if "__slow__" not in net.score_names():
        net.add_scores("__slow__", [0.5] * net.graph.num_nodes)
    blocker = net.query("__slow__").limit(2).submit(cached=False)
    deadline = time.monotonic() + 5
    while not blocker.running() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert blocker.running(), "blocker never started"
    return release, blocker


@pytest.fixture
def net():
    graph = random_graph(70, 0.07, seed=31)
    session = Network(graph, hops=2)
    session.add_scores("a", quantized_scores(70, seed=1))
    session.add_scores("b", quantized_scores(70, seed=2))
    session.add_scores("c", quantized_scores(70, seed=3, density=0.9))
    yield session
    if session._service is not None:
        session._service.shutdown(wait=True)


@pytest.fixture
def dyn_net():
    from repro.dynamic.graph import DynamicGraph

    graph = DynamicGraph.from_graph(random_graph(50, 0.08, seed=77))
    session = Network(graph, hops=2)
    session.add_scores("a", quantized_scores(50, seed=5))
    yield session
    if session._service is not None:
        session._service.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Handle lifecycle
# ---------------------------------------------------------------------------
class TestHandles:
    def test_submit_returns_done_result(self, net):
        handle = net.query("a").limit(5).submit()
        result = handle.result(timeout=10)
        assert handle.done() and handle.state == "done"
        assert result.entries == net.query("a").limit(5).run().entries

    def test_run_is_submit_result_shim(self, net):
        # .run() flows through the same service (counted as a submission)
        # but bypasses the result cache: every run executes.
        before = net.service().stats()["submitted"]
        first = net.query("a").limit(4).run()
        second = net.query("a").limit(4).run()
        stats = net.service().stats()
        assert stats["submitted"] == before + 2
        assert first.entries == second.entries
        assert "result_cache" not in second.stats.extra

    def test_result_timeout_raises_builtin_timeout(self, net):
        net.service(workers=1)
        release, blocker = hold_worker(net)
        with pytest.raises(TimeoutError):
            blocker.result(timeout=0.01)
        release.set()
        assert len(blocker.result(timeout=10).entries) == 2

    def test_cancel_pending(self, net):
        service = net.service(workers=1)
        release, blocker = hold_worker(net)
        queued = net.query("b").limit(3).submit()
        assert queued.cancel() is True
        assert queued.cancelled() and queued.state == "cancelled"
        with pytest.raises(QueryCancelledError):
            queued.result(timeout=1)
        release.set()
        blocker.result(timeout=10)
        service.drain(timeout=10)
        assert service.stats()["cancelled"] == 1

    def test_cancel_completed_is_false(self, net):
        handle = net.query("a").limit(3).submit()
        handle.result(timeout=10)
        assert handle.cancel() is False

    def test_deadline_expires_queued_query(self, net):
        service = net.service(workers=1)
        release, blocker = hold_worker(net)
        late = net.query("b").limit(3).submit(deadline=0.02)
        with pytest.raises(DeadlineExceededError):
            late.result(timeout=5)
        assert late.state == "expired" and late.cancelled()
        release.set()
        blocker.result(timeout=10)
        assert service.stats()["expired"] == 1

    def test_deadline_from_builder_knob(self, net):
        request = net.query("a").limit(3).deadline(2.5).priority(7).request()
        assert request.deadline == 2.5 and request.priority == 7
        # Serving metadata never splits cache keys or equality.
        assert request == net.query("a").limit(3).request()
        assert hash(request) == hash(net.query("a").limit(3).request())

    def test_invalid_deadline_rejected(self, net):
        with pytest.raises(InvalidParameterError):
            net.query("a").limit(3).deadline(-1.0).request()
        with pytest.raises(InvalidParameterError):
            net.query("a").limit(3).submit(deadline=0.0)

    def test_done_callback_fires(self, net):
        seen = []
        handle = net.query("a").limit(3).submit()
        handle.result(timeout=10)
        handle.add_done_callback(lambda h: seen.append(h.state))
        assert seen == ["done"]

    def test_failure_propagates_original_error(self, net):
        # An executor-level validation error surfaces from result() with
        # its type intact (here: knob inapplicable to the algorithm).
        handle = net.query("a").limit(3).algorithm("base").gamma(0.5).submit()
        with pytest.raises(InvalidParameterError, match="gamma"):
            handle.result(timeout=10)
        assert handle.state == "failed"
        assert isinstance(handle.exception(), InvalidParameterError)

    def test_streaming_subscription(self, net):
        handle = net.query("a").limit(4).submit(stream=True)
        updates = list(handle.updates(timeout=10))
        assert updates, "stream produced no refinements"
        assert updates[-1].done
        expected = net.query("a").limit(4).run()
        assert list(updates[-1].entries) == expected.entries
        assert handle.result(timeout=10).entries == expected.entries

    def test_updates_requires_stream_submission(self, net):
        handle = net.query("a").limit(3).submit()
        handle.result(timeout=10)
        with pytest.raises(QueryCancelledError, match="stream=True"):
            next(handle.updates())

    def test_stream_validation_is_eager(self, net):
        with pytest.raises(InvalidParameterError, match="stream"):
            net.query("a").limit(3).algorithm("backward").submit(stream=True)


# ---------------------------------------------------------------------------
# Scheduler: priority, admission, coalescing
# ---------------------------------------------------------------------------
class TestScheduler:
    def test_priority_orders_queue(self, net):
        service = net.service(workers=1, coalesce=False)
        order = []
        release, blocker = hold_worker(net)
        low = net.query("a").limit(2).submit(priority=0, cached=False)
        high = net.query("b").limit(2).submit(priority=10, cached=False)
        low.add_done_callback(lambda h: order.append("low"))
        high.add_done_callback(lambda h: order.append("high"))
        release.set()
        blocker.result(timeout=10)
        assert service.drain(timeout=10)
        assert order == ["high", "low"]

    def test_admission_control_rejects_over_queue_bound(self, net):
        service = net.service(workers=1, max_pending=2, coalesce=False)
        release, blocker = hold_worker(net)
        held = [net.query("b").limit(2).submit(cached=False) for _ in range(2)]
        with pytest.raises(ServiceOverloadedError):
            net.query("c").limit(2).submit()
        assert service.stats()["rejected"] == 1
        release.set()
        blocker.result(timeout=10)
        for handle in held:
            handle.result(timeout=10)

    def test_submit_after_shutdown_raises(self, net):
        service = net.service(workers=1)
        service.shutdown()
        with pytest.raises(ServiceShutdownError):
            service.submit(net.query("a").limit(2))

    def test_shutdown_fails_queued_handles_and_run_recovers(self, net):
        service = net.service(workers=1)
        release, blocker = hold_worker(net)
        queued = net.query("b").limit(2).submit()
        service.shutdown(wait=False)  # clears the queue, fails `queued`
        release.set()
        with pytest.raises(ServiceShutdownError):
            queued.result(timeout=10)
        blocker.result(timeout=10)  # in-flight work still completes
        service.shutdown(wait=True)
        # The session replaces a closed service transparently.
        assert len(net.query("a").limit(3).run().entries) == 3

    def test_coalescing_parity_and_accounting(self, net):
        # Hold the single worker, queue six compatible queries, release:
        # they must execute as ONE fused batch with per-query answers
        # identical to sequential .run().
        expected = {
            (name, k): net.query(name).limit(k).run().entries
            for name in ("a", "b", "c")
            for k in (3, 7)
        }
        service = net.service(workers=1)
        release, blocker = hold_worker(net)
        handles = {
            (name, k): net.query(name).limit(k).submit(cached=False)
            for name in ("a", "b", "c")
            for k in (3, 7)
        }
        release.set()
        blocker.result(timeout=10)
        for key, handle in handles.items():
            assert handle.result(timeout=10).entries == expected[key], key
        stats = service.stats()
        assert stats["coalesced_batches"] == 1
        assert stats["coalesced_queries"] == 6
        one = handles[("a", 3)].result()
        assert one.stats.extra["coalesced_group"] == 6.0
        assert one.stats.extra["batch_size"] == 6.0

    def test_coalescing_skips_pinned_and_filtered_queries(self, net):
        from repro.core.batch import coalescible_request

        plain = net.query("a").limit(3).request()
        assert coalescible_request(plain, hops=2, include_self=True, backend="auto")
        for builder in (
            net.query("a").limit(3).algorithm("base"),
            net.query("a").limit(3).where([1, 2, 3]),
            net.query("a").limit(3).aggregate("max"),
            net.query("a").limit(3).backend("python"),
            net.query("a").limit(3).gamma("auto"),  # default-valued pin
        ):
            assert not coalescible_request(
                builder.request(), hops=2, include_self=True, backend="auto"
            )

    def test_non_coalescible_submissions_run_individually(self, net):
        service = net.service(workers=2)
        handle = net.query("a").limit(4).algorithm("backward").submit()
        direct = net.query("a").limit(4).algorithm("backward").run()
        assert handle.result(timeout=10).entries == direct.entries
        assert service.stats()["coalesced_batches"] == 0

    def test_inline_service_has_no_threads(self, net):
        before = threading.active_count()
        net.query("a").limit(3).run()
        handle = net.query("a").limit(3).submit()
        handle.result(timeout=10)
        assert threading.active_count() == before
        assert net.service().workers == 0

    def test_service_reconfigure_is_idempotent(self, net):
        one = net.service(workers=2)
        assert net.service(workers=2) is one
        assert net.service() is one
        two = net.service(workers=2, coalesce=False)
        assert two is not one and one.closed


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_hot_query_served_from_cache(self, net):
        service = net.service(workers=1)
        first = net.query("a").limit(5).submit().result(timeout=10)
        second = net.query("a").limit(5).submit().result(timeout=10)
        assert second.entries == first.entries
        assert second.stats.extra.get("result_cache") == 1.0
        assert "result_cache" not in first.stats.extra
        stats = service.stats()
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 1

    def test_cached_copies_are_isolated(self, net):
        net.service(workers=1)
        first = net.query("a").limit(5).submit().result(timeout=10)
        first.entries.clear()  # a rude caller cannot poison the cache
        second = net.query("a").limit(5).submit().result(timeout=10)
        assert len(second.entries) == 5

    def test_different_requests_different_entries(self, net):
        net.service(workers=1)
        net.query("a").limit(5).submit().result(timeout=10)
        other = net.query("a").limit(6).submit().result(timeout=10)
        assert "result_cache" not in other.stats.extra

    def test_add_edge_invalidates(self, dyn_net):
        service = dyn_net.service(workers=1)
        before = dyn_net.query("a").limit(5).submit().result(timeout=10)
        dyn_net.add_edge(0, 49)
        after = dyn_net.query("a").limit(5).submit().result(timeout=10)
        assert "result_cache" not in after.stats.extra
        assert after.entries == dyn_net.query("a").limit(5).run().entries
        assert service.cache.stats()["invalidations"] >= 1
        # `before` stays a valid snapshot of the pre-mutation answer.
        assert len(before.entries) == 5

    def test_update_score_invalidates(self, dyn_net):
        dyn_net.service(workers=1)
        stale = dyn_net.query("a").limit(5).submit().result(timeout=10)
        node = stale.entries[0][0]
        dyn_net.update_score("a", node, 0.0)
        fresh = dyn_net.query("a").limit(5).submit().result(timeout=10)
        assert "result_cache" not in fresh.stats.extra
        assert fresh.entries == dyn_net.query("a").limit(5).run().entries

    def test_update_score_keeps_unrelated_scores_hot(self, dyn_net):
        # Per-score invalidation (not a whole-cache flush): mutating "a"
        # must leave "b"'s cached answer resident and hitting — the
        # hit-rate regression the serving follow-up closed.
        dyn_net.add_scores("b", quantized_scores(50, seed=6))
        service = dyn_net.service(workers=1)
        dyn_net.query("a").limit(5).submit().result(timeout=10)
        dyn_net.query("b").limit(5).submit().result(timeout=10)
        hits_before = service.cache.stats()["hits"]
        dyn_net.update_score("a", 0, 0.75)
        survivor = dyn_net.query("b").limit(5).submit().result(timeout=10)
        assert survivor.stats.extra.get("result_cache") == 1.0
        stats = service.cache.stats()
        assert stats["hits"] == hits_before + 1
        assert stats["score_invalidations"] >= 1
        assert stats["invalidations"] == 0  # no whole-cache flush happened
        # And "a" itself re-executes (its entry was evicted).
        fresh = dyn_net.query("a").limit(5).submit().result(timeout=10)
        assert "result_cache" not in fresh.stats.extra

    def test_add_scores_evicts_only_that_score(self, dyn_net):
        dyn_net.add_scores("b", quantized_scores(50, seed=7))
        service = dyn_net.service(workers=1)
        dyn_net.query("a").limit(5).submit().result(timeout=10)
        dyn_net.query("b").limit(5).submit().result(timeout=10)
        dyn_net.add_scores("a", quantized_scores(50, seed=8))
        assert len(service.cache) == 1  # only "b"'s entry survived
        survivor = dyn_net.query("b").limit(5).submit().result(timeout=10)
        assert survivor.stats.extra.get("result_cache") == 1.0

    def test_pinned_variant_never_served_unpinned_cache_entry(self, net):
        # `pinned` is hash-excluded on QueryRequest, but it changes
        # validation semantics: after the plain request is cached, the
        # default-valued-knob-pinned variant must still raise, not be
        # served the cached answer.
        net.service(workers=1)
        net.query("a").limit(5).submit().result(timeout=10)
        pinned = net.query("a").limit(5).algorithm("base").gamma("auto").submit()
        with pytest.raises(InvalidParameterError, match="gamma"):
            pinned.result(timeout=10)

    def test_midflight_add_scores_cannot_poison_cache(self, net):
        # A worker executing a query for score 'a' while add_scores('a',
        # ...) replaces the vector: the mutation waits for the in-flight
        # query (write guard), and the old answer must never be served
        # under the new epoch.
        from tests.test_service import hold_worker  # self-import for clarity

        net.service(workers=1)
        release, blocker = hold_worker(net)
        inflight = net.query("a").limit(5).submit()  # queued, cached=True
        swapped = quantized_scores(70, seed=555)
        swapper = threading.Thread(
            target=lambda: net.add_scores("a", swapped), daemon=True
        )
        swapper.start()
        release.set()
        blocker.result(timeout=10)
        inflight.result(timeout=10)
        swapper.join(timeout=10)
        assert not swapper.is_alive()
        after = net.query("a").limit(5).submit().result(timeout=10)
        assert after.entries == net.query("a").limit(5).run().entries

    def test_add_scores_bumps_epoch(self, net):
        net.service(workers=1)
        net.query("a").limit(5).submit().result(timeout=10)
        net.add_scores("a", quantized_scores(70, seed=42))
        refreshed = net.query("a").limit(5).submit().result(timeout=10)
        assert "result_cache" not in refreshed.stats.extra
        assert refreshed.entries == net.query("a").limit(5).run().entries

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        from repro.core.results import QueryStats, TopKResult

        def result(tag):
            return TopKResult(entries=[(tag, 1.0)], stats=QueryStats())

        cache.put("x", result(1))
        cache.put("y", result(2))
        assert cache.get("x") is not None  # refresh x
        cache.put("z", result(3))  # evicts y (LRU)
        assert cache.get("y") is None
        assert cache.get("x") is not None and cache.get("z") is not None
        assert cache.stats()["evictions"] == 1


# ---------------------------------------------------------------------------
# The set-fields mask (PR 2 review follow-up)
# ---------------------------------------------------------------------------
class TestSetFieldsMask:
    def test_default_valued_knob_pin_rejected(self, net):
        # Pinning a knob to its *default* value on an algorithm that cannot
        # honor it is now rejected exactly like a non-default pin.
        cases = [
            (net.query("a").limit(3).algorithm("base").gamma("auto"), "gamma"),
            (
                net.query("a").limit(3).algorithm("base").distribution_fraction(0.1),
                "distribution_fraction",
            ),
            (net.query("a").limit(3).algorithm("base").exact_sizes(False), "exact_sizes"),
            (
                net.query("a").limit(3).algorithm("backward").ordering("ubound"),
                "ordering",
            ),
        ]
        for builder, knob in cases:
            with pytest.raises(InvalidParameterError, match=knob):
                builder.run()

    def test_mask_recorded_on_lowering(self, net):
        request = net.query("a").limit(3).gamma(0.4).request()
        assert request.is_pinned("gamma") and request.is_pinned("k")
        assert not request.is_pinned("ordering")

    def test_direct_requests_keep_value_based_check(self):
        # A hand-built request (empty mask) with default knob values still
        # passes on any algorithm — old behavior, unchanged.
        request = QueryRequest(k=3, algorithm="base")
        assert request.pinned == frozenset()

    def test_unknown_pinned_name_rejected(self):
        with pytest.raises(InvalidParameterError, match="pinned"):
            QueryRequest(k=3, pinned=frozenset({"not_a_field"}))

    def test_applicable_default_pin_still_allowed(self, net):
        # gamma pinned to its default on *backward* is applicable: fine.
        result = net.query("a").limit(3).algorithm("backward").gamma("auto").run()
        assert len(result.entries) == 3


# ---------------------------------------------------------------------------
# The bounded session ball index
# ---------------------------------------------------------------------------
class TestBoundedBallCaches:
    def test_byte_budget_closes_the_index(self):
        np = pytest.importorskip("numpy")
        from repro.graph.csr import CSRBallIndex, batched_hop_balls, to_csr

        graph = random_graph(40, 0.15, seed=9)
        csr = to_csr(graph, use_numpy=True)
        balls = [batched_hop_balls(csr, np.asarray([v]), 2) for v in range(40)]
        # Ten balls' pairs at 2 bytes and their one high run each at 4.
        budget = sum(2 * int(members.size) + 4 for _, members, _ in balls[:10])
        index = CSRBallIndex(csr, 2, max_bytes=budget)
        for v, (owners, members, _) in enumerate(balls):
            index.extend(np.asarray([v]), owners, members)
        stats = index.stats()
        assert stats["bytes"] <= budget and stats["covered"] == 10
        # Closed when full, never evicted: the first balls stay readable
        # and a later one is not taken even after a re-offer.
        center = np.asarray([0])
        assert index.pairs(center)[1].tolist() == balls[0][1].tolist()
        assert index.pairs(np.asarray([39])) is None
        index.extend(np.asarray([39]), *balls[39][:2])
        assert index.pairs(np.asarray([39])) is None
        assert index.stats()["bytes"] == stats["bytes"]

    def test_hit_counters_exposed_via_session_stats(self, net):
        pytest.importorskip("numpy")
        net.query("c").limit(4).backend("numpy").algorithm("backward").run()
        net.query("c").limit(4).backend("numpy").algorithm("backward").run()
        payload = net.service().stats()["session_caches"]
        ball = payload["ball_cache"]
        assert ball is not None and ball["hits"] > 0
        assert ball["max_bytes"] == net._ctx.ball_cache_bytes // 2
        # The second read took phases 1-2 from the memo: one float64 n-array.
        phase1 = payload["phase1"]
        assert (phase1["entries"], phase1["hits"], phase1["misses"]) == (1, 1, 1)
        assert phase1["bytes"] >= 8 * net.graph.num_nodes

    def test_label_bytes_count_against_the_budget(self):
        np = pytest.importorskip("numpy")
        from repro.graph.csr import (
            CSRBallIndex,
            batched_hop_balls_with_distances,
            to_csr,
        )

        graph = random_graph(30, 0.15, seed=11)
        csr = to_csr(graph, use_numpy=True)
        index = CSRBallIndex(csr, 2, max_bytes=2048)
        for v in range(30):
            index.extend(
                np.asarray([v]), *batched_hop_balls_with_distances(csr, np.asarray([v]), 2)[:3]
            )
        stats = index.stats()
        assert 0 < stats["bytes"] <= 2048
        assert stats["runs"] == stats["covered"]  # one high run a ball
        assert stats["bytes"] == 3 * int(index._size[index._start >= 0].sum()) + 4 * stats["runs"]
        owners, members, dists = index.pairs(np.asarray([0]), labels=True)
        assert members.size == dists.size == index._size[0]


class TestHandleRepr:
    def test_states_are_strings(self, net):
        handle = net.query("a").limit(2).submit()
        handle.result(timeout=10)
        assert isinstance(handle, QueryHandle)
        assert handle.state in {"done"}
        assert handle.running() is False

    def test_stream_cancel_after_last_update_still_cancels(self, net):
        # cancel() on a running stream returns True ("will not produce a
        # result"); even if execution completes before the worker checks
        # the abort flag again, the handle must land cancelled, not done.
        from repro.core.results import QueryStats, TopKResult

        handle = QueryHandle(
            net.query("a").limit(2).request(), stream=True
        )
        assert handle._start(0.0)
        assert handle.cancel() is True  # running + stream -> cooperative
        handle._finish(TopKResult(entries=[(0, 1.0)], stats=QueryStats()))
        assert handle.state == "cancelled"
        with pytest.raises(QueryCancelledError):
            handle.result(timeout=1)

    def test_deadline_error_names_configured_seconds(self, net):
        net.service(workers=1)
        release, blocker = hold_worker(net)
        late = net.query("b").limit(3).submit(deadline=0.015)
        with pytest.raises(DeadlineExceededError, match="0.015s"):
            late.result(timeout=5)
        release.set()
        blocker.result(timeout=10)
