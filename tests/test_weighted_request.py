"""Distance weights are a request field: one door for the weighted read.

Footnote 1's ``F(u) = sum w(dist(u, v)) * f(v)`` rides
``QueryRequest.weights`` through ``QueryBuilder.weighted(profile)`` ->
``executor.execute`` like every other read, so it gets what they get: the
service's read lock, lanes and occupancy over HTTP, deadline, cancel,
handles, the version-keyed result cache.  Pinned here:

* the field — wire round trip, v1 payloads, identity and shape keys;
* every combination the request rejects, locally and typed over the wire;
* the main door's guarantees (each of these failed before the field
  existed: ``topk_weighted`` took no lock, no lane, no deadline, no cache);
* remote == local entry for entry; uniform weights == plain SUM;
* ``base_topk_numpy(weights=w)`` byte-equal to the answers of the
  ``weighted_base_topk_numpy`` it replaced, on non-dyadic scores;
* what was deleted stays deleted (``POST /v1/weighted`` is a 404).
"""

from __future__ import annotations

import hashlib
import random
import threading
import time

import pytest

from repro.aggregates.weighted import (
    exponential_decay,
    inverse_distance,
    precompute_weights,
    table_profile,
    uniform_weight,
)
from repro.core.batch import coalescible_request
from repro.core.query import QuerySpec
from repro.core.request import REQUEST_SCHEMA_VERSION, QueryRequest
from repro.dynamic.graph import DynamicGraph
from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ProtocolError,
    QueryCancelledError,
)
from repro.graph.graph import Graph
from repro.session import Network
from tests.conftest import random_graph
from tests.test_service import hold_worker, quantized_scores

#: Inverse distance and 0.5-decay at hops=2: dyadic, like the scores.
INVERSE = (1.0, 1.0, 0.5)
DECAY = (1.0, 0.5, 0.25)
PROFILES = {
    "inverse_distance": inverse_distance,
    "exponential_decay": exponential_decay(0.5),
    "uniform_weight": uniform_weight,
}


@pytest.fixture
def net():
    graph = DynamicGraph.from_graph(random_graph(70, 0.07, seed=31))
    session = Network(graph, hops=2)
    session.add_scores("a", quantized_scores(70, seed=1))
    session.add_scores("b", quantized_scores(70, seed=2))
    yield session
    session.close()


# ---------------------------------------------------------------------------
# The field
# ---------------------------------------------------------------------------
class TestRequestField:
    def test_round_trips_the_wire_schema(self):
        request = QueryRequest(
            k=4, score="s", algorithm="base", weights=[1, 0.5, 0.25],
            priority=3, deadline=1.5, pinned={"weights", "algorithm"},
        )
        assert request.weights == DECAY
        payload = request.to_dict()
        assert payload["schema_version"] == REQUEST_SCHEMA_VERSION == 2
        assert payload["weights"] == list(DECAY)
        back = QueryRequest.from_dict(payload)
        assert back == request and back.weights == DECAY
        assert back.pinned == request.pinned and back.deadline == 1.5
        assert QueryRequest.from_dict(QueryRequest(k=4).to_dict()).weights is None

    def test_v1_payload_without_the_key_decodes(self):
        payload = QueryRequest(k=4, score="s").to_dict()
        del payload["weights"]
        payload["schema_version"] = 1
        assert QueryRequest.from_dict(payload) == QueryRequest(k=4, score="s")
        with pytest.raises(ProtocolError, match="newer"):
            QueryRequest.from_dict(dict(payload, schema_version=3))

    def test_identity_and_shape_keys_see_the_profile(self):
        plain = QueryRequest(k=4, score="s")
        inverse = plain.replace(weights=INVERSE)
        decay = plain.replace(weights=DECAY)
        keys = {r.canonical_key() for r in (plain, inverse, decay)}
        shapes = {r.shape_key() for r in (plain, inverse, decay)}
        assert len(keys) == len(shapes) == 3
        assert inverse != plain and inverse != decay
        # Score and k stay outside the shape, as for every request.
        assert inverse.replace(score="t", k=9).shape_key() == inverse.shape_key()
        assert inverse.replace(priority=5).canonical_key() == inverse.canonical_key()

    def test_builder_tabulates_once_for_the_session_radius(self, net):
        request = net.query("a").limit(3).weighted(exponential_decay(0.5)).request()
        assert request.weights == DECAY and request.is_pinned("weights")
        assert net.query("a").limit(3).weighted().request().weights == INVERSE
        assert "weights=[1.0, 1.0, 0.5]" in net.query("a").limit(3).weighted().request().describe()
        profile = table_profile(DECAY)
        assert precompute_weights(profile, 2) == list(DECAY) and profile(3) == 0.0


# ---------------------------------------------------------------------------
# Rejected combinations
# ---------------------------------------------------------------------------
#: Raw wire payloads a well-behaved client would never build.
BAD_PAYLOADS = {
    "avg": {"aggregate": "avg"},
    "max": {"aggregate": "max"},
    "forward": {"algorithm": "forward"},
    "planned": {"algorithm": "planned"},
    "relational": {"algorithm": "relational"},
    "view": {"algorithm": "view"},
    "where": {"candidates": [1, 2, 3]},
    "short": {"weights": [1.0]},
    "long": {"weights": [1.0, 1.0, 0.5, 0.25]},
    "above-one": {"weights": [1.0, 2.0, 0.5]},
    "negative": {"weights": [1.0, -0.1, 0.5]},
    "nan": {"weights": [1.0, float("nan"), 0.5]},
    "not-numbers": {"weights": ["a", "b", "c"]},
}


def _payload(**changes):
    return {"schema_version": 2, "k": 3, "score": "s", "hops": 2,
            "weights": list(INVERSE), **changes}


class TestRejectedLocally:
    @pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
    def test_request_rejects(self, case):
        with pytest.raises(InvalidParameterError):
            QueryRequest.from_dict(_payload(**BAD_PAYLOADS[case]))

    def test_builder_rejects_at_lowering_or_before(self, net):
        weighted = net.query("a").limit(3).weighted()
        for bad in (
            weighted.aggregate("avg"),
            weighted.aggregate("max"),
            weighted.algorithm("forward"),
            weighted.algorithm("planned"),
            weighted.algorithm("relational"),
            weighted.algorithm("view"),
            weighted.where([1, 2, 3]),
        ):
            with pytest.raises(InvalidParameterError):
                bad.run()
        with pytest.raises(InvalidParameterError, match=r"weights must be in \[0, 1\]"):
            net.query("a").limit(3).weighted(lambda d: 2.0)
        with pytest.raises(InvalidParameterError, match="SUM"):
            net.topk("a", 3, "avg", weighted=None)

    def test_stream_explain_and_inapplicable_knobs(self, net):
        weighted = net.query("a").limit(3).weighted()
        with pytest.raises(InvalidParameterError, match="stream"):
            weighted.stream()
        with pytest.raises(InvalidParameterError, match="stream"):
            weighted.submit(stream=True)
        with pytest.raises(InvalidParameterError, match="planner"):
            weighted.explain()
        with pytest.raises(InvalidParameterError, match="have no effect on 'base'"):
            weighted.algorithm("base").gamma(0.5).run()
        with pytest.raises(InvalidParameterError, match="have no effect on 'backward'"):
            weighted.ordering("degree").run()
        with pytest.raises(InvalidParameterError, match="unknown query option"):
            net.topk_weighted("a", 3, nonsense=1)
        # ... and the knobs backward does honor still reach it.
        tuned = weighted.gamma(0.5).exact_sizes().run()
        assert tuned.stats.extra["gamma"] == 0.5
        assert [v for _, v in tuned.entries] == [v for _, v in weighted.run().entries]


# ---------------------------------------------------------------------------
# The main door's guarantees
# ---------------------------------------------------------------------------
def _blocked_until_released(net, call):
    """Run ``call`` on a thread while ``net._write_guard()`` is held: it must
    not complete before the guard is released, and must complete after."""
    out = {}
    reader = threading.Thread(target=lambda: out.update(result=call()), daemon=True)
    with net._write_guard():
        reader.start()
        reader.join(timeout=0.3)
        assert reader.is_alive(), "weighted read did not wait for the writer"
        assert "result" not in out
    reader.join(timeout=30)
    assert not reader.is_alive()
    return out["result"]


class TestMainDoor:
    def test_takes_the_read_lock(self, net):
        net.service(workers=1)
        expected = net.topk_weighted("a", 5).entries
        got = _blocked_until_released(net, lambda: net.topk_weighted("a", 5))
        assert got.entries == expected

    def test_inline_session_takes_it_too(self, net):
        net.service()  # the zero-thread inline service
        got = _blocked_until_released(
            net, lambda: net.topk_weighted("a", 5, algorithm="base")
        )
        assert got.stats.algorithm == "weighted-base"

    def test_queued_deadline_expires_and_cancel_works(self, net):
        net.service(workers=1)
        release, blocker = hold_worker(net)
        try:
            expiring = net.query("a").limit(3).weighted().submit(deadline=0.05)
            cancelled = net.query("b").limit(3).weighted().submit()
            assert cancelled.cancel() is True
            time.sleep(0.1)
        finally:
            release.set()
        blocker.result(timeout=10)
        with pytest.raises(DeadlineExceededError):
            expiring.result(timeout=10)
        with pytest.raises(QueryCancelledError):
            cancelled.result(timeout=10)
        assert expiring.state == "expired" and cancelled.state == "cancelled"

    def test_python_reference_polls_the_deadline(self, net):
        from repro.core.deadline import deadline_scope

        for algorithm in ("base", "backward"):
            query = net.query("a").limit(3).weighted().algorithm(algorithm)
            request = query.backend("python").request()
            with deadline_scope(time.monotonic() - 1.0):
                with pytest.raises(DeadlineExceededError):
                    net._run(request)

    def test_second_submit_is_a_cache_hit_until_a_write(self, net):
        service = net.service(workers=1)
        query = net.query("a").limit(4).weighted()

        def read(builder=query):
            result = builder.submit().result(timeout=10)
            return result, result.stats.extra.get("result_cache") == 1.0

        first, hit = read()
        assert not hit
        again, hit = read()
        assert hit and again.entries == first.entries
        # The unweighted twin and another profile are other questions.
        assert not read(net.query("a").limit(4))[1]
        assert not read(query.weighted(uniform_weight))[1]
        assert service.stats()["cache_hits"] == 1
        top = first.entries[0][0]
        net.update_score("a", top, 0.0 if net.scores_of("a")[top] else 1.0)
        after_score, hit = read()
        assert not hit and after_score.entries != first.entries
        assert read()[1]
        u, v = next(
            (u, v) for u in range(70) for v in range(u + 1, 70)
            if not net.graph.has_edge(u, v)
        )
        net.add_edge(u, v)
        assert not read()[1]
        assert service.stats()["cache_hits"] == 2

    def test_never_coalesced_with_same_shape_unweighted_reads(self, net):
        service = net.service(workers=1)
        weighted = net.query("a").limit(3).weighted()
        shape = dict(hops=2, include_self=True, backend=net.backend)
        assert coalescible_request(net.query("a").limit(3).request(), **shape)
        assert not coalescible_request(weighted.request(), **shape)
        release, blocker = hold_worker(net)
        try:
            plain = [net.query(s).limit(3).submit(cached=False) for s in "abab"]
            lone = weighted.submit(cached=False)
            assert lone.coalesce_key is None
        finally:
            release.set()
        blocker.result(timeout=10)
        results = [h.result(timeout=10) for h in plain]
        answer = lone.result(timeout=10)
        stats = service.stats()
        assert (stats["coalesced_batches"], stats["coalesced_queries"]) == (1, 4)
        assert all(r.stats.extra["coalesced_group"] == 4.0 for r in results)
        assert "coalesced_group" not in answer.stats.extra
        assert answer.stats.algorithm == "weighted-backward"
        assert answer.entries == net.topk_weighted("a", 3).entries


# ---------------------------------------------------------------------------
# Over HTTP
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    from repro.client import RemoteNetwork
    from repro.serving import QueryServer, ServerConfig

    graph = random_graph(60, 0.12, seed=611)
    session = Network(graph, hops=2)
    session.add_scores("s", quantized_scores(60, seed=612, density=0.9))
    server = QueryServer(session, ServerConfig(replicas=2)).start()
    client = RemoteNetwork(server.url, retry=None)
    yield session, server, client
    client.close()
    server.close()
    session.close()


class TestOverTheWire:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("algorithm", ["base", "backward"])
    def test_remote_equals_local(self, served, name, algorithm):
        net, _server, client = served
        local = net.topk_weighted("s", 6, PROFILES[name], algorithm)
        remote = client.topk_weighted("s", 6, PROFILES[name], algorithm)
        assert remote.entries == local.entries
        assert remote.stats.algorithm == local.stats.algorithm == f"weighted-{algorithm}"
        fluent = client.query("s").limit(6).weighted(PROFILES[name]).algorithm(algorithm)
        assert fluent.request() == (
            net.query("s").limit(6).weighted(PROFILES[name]).algorithm(algorithm).request()
        )
        assert fluent.run().entries == local.entries

    def test_uniform_weights_are_plain_sum(self, served):
        net, _server, client = served
        plain = net.topk("s", 6, algorithm="base")
        assert client.topk_weighted("s", 6, uniform_weight, "base").entries == plain.entries
        backward = net.topk_weighted("s", 6, uniform_weight)
        assert [v for _, v in backward.entries] == [v for _, v in plain.entries]

    @pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
    def test_server_rejects_typed(self, served, case):
        _net, _server, client = served
        with pytest.raises(InvalidParameterError):
            client._call(
                "POST", "/v1/query", {"request": _payload(**BAD_PAYLOADS[case])}
            )

    def test_execution_time_rejections_arrive_typed(self, served):
        _net, _server, client = served
        weighted = client.query("s").limit(3).weighted()
        with pytest.raises(InvalidParameterError, match="have no effect on 'base'"):
            weighted.algorithm("base").gamma(0.5).run()
        with pytest.raises(InvalidParameterError, match="stream"):
            weighted.stream()
        with pytest.raises(InvalidParameterError, match="SUM"):
            weighted.aggregate("avg").run()  # the client validates first

    def test_waits_for_the_writer_and_counts_in_occupancy(self, served):
        net, server, client = served
        assert server.replicas.drain(10)
        assert server.stats()["replicas"]["occupancy"] == 0
        out, occupancy = {}, 0
        reader = threading.Thread(
            target=lambda: out.update(
                result=client.topk_weighted("s", 4, exponential_decay(0.5))
            ),
            daemon=True,
        )
        with net._write_guard():
            reader.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and occupancy < 1:
                occupancy = server.stats()["replicas"]["occupancy"]
                time.sleep(0.005)
            reader.join(timeout=0.2)
            assert reader.is_alive() and "result" not in out
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert occupancy >= 1, "a weighted HTTP read never showed in lane occupancy"
        assert out["result"].entries == net.topk_weighted(
            "s", 4, exponential_decay(0.5)
        ).entries
        assert server.replicas.drain(10)  # the lane retires it after replying
        assert server.stats()["replicas"]["occupancy"] == 0

    def test_the_side_route_is_gone(self, served):
        _net, server, client = served
        body = {"score": "s", "k": 3, "weights": list(INVERSE)}
        with pytest.raises(ProtocolError, match="no route POST /v1/weighted"):
            client._call("POST", "/v1/weighted", body)
        assert "weighted" not in server.stats()["requests"]


def test_one_entry_point_per_layer():
    from repro.core import executor, vectorized
    from repro.parallel.coordinator import ShardedCoordinator
    from repro.parallel.worker import _HANDLERS

    assert sorted(_HANDLERS) == ["batch", "scan"]
    routes = [n for n in vars(ShardedCoordinator) if n.startswith(("execute", "run_"))]
    assert sorted(routes) == ["execute_backward", "execute_scan", "run_batch"]
    for module, name in (
        (executor, "execute_weighted"),
        (vectorized, "weighted_base_topk_numpy"),
    ):
        assert not hasattr(module, name)


# ---------------------------------------------------------------------------
# base_topk_numpy(weights=w) == the deleted weighted_base_topk_numpy, by bytes
# ---------------------------------------------------------------------------
#: sha1 over entries (int64 nodes, float64 values, raw bytes) and work
#: counters of ``weighted_base_topk_numpy`` at the parent commit, for the
#: 48 cells of ``_fixture_cells`` (generated there with this same code).
PARENT_SHA1 = "a14ba856081ccd53b518bc8a19e4563c9ed66d76"
N = 700


def _edges(n: int, directed: bool, seed: int):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 3 * n:
        u, v = rng.randrange(n - 20), rng.randrange(n - 20)
        if u != v:
            edges.add((u, v) if directed else (min(u, v), max(u, v)))
    return sorted(edges)


def _scores(n: int, seed: int):
    """Arbitrary (non-dyadic) floats, four in ten zero."""
    rng = random.Random(seed)
    return [rng.random() if rng.random() < 0.6 else 0.0 for _ in range(n)]


def _fixture_cells():
    for directed in (False, True):
        graph = Graph.from_edges(_edges(N, directed, 3), num_nodes=N, directed=directed)
        scores = _scores(N, 41)
        for hops in (1, 2, 3):
            for include_self in (True, False):
                for profile in (inverse_distance, exponential_decay(0.5)):
                    for block in (None, 7):
                        spec = QuerySpec(k=25, hops=hops, include_self=include_self)
                        yield graph, scores, spec, profile, block


def test_weighted_base_is_byte_equal_to_the_function_it_replaced():
    np = pytest.importorskip("numpy")
    from repro.core.vectorized import base_topk_numpy

    sha = hashlib.sha1()
    for graph, scores, spec, profile, block in _fixture_cells():
        result = base_topk_numpy(
            graph, scores, spec, block_size=block,
            weights=precompute_weights(profile, spec.hops),
        )
        stats = result.stats
        sha.update(np.asarray([n for n, _ in result.entries], dtype=np.int64).tobytes())
        sha.update(np.asarray([v for _, v in result.entries], dtype=np.float64).tobytes())
        sha.update(
            repr(
                (stats.algorithm, stats.edges_scanned, stats.nodes_visited,
                 stats.balls_expanded, stats.nodes_evaluated)
            ).encode()
        )
    assert sha.hexdigest() == PARENT_SHA1
