"""The network front door: wire protocol, routing, admission, client parity.

Four layers, tested mostly through real sockets:

* **Protocol** — results, stream updates, requests, and errors round-trip
  losslessly through :mod:`repro.serving.protocol`; every admission
  rejection maps onto the right HTTP status.
* **Routing** — the replica router is deterministic, shape-affine (score
  and k do not move a request between lanes), and spreads distinct shapes.
* **Admission** — token buckets, tenant quotas, and cost-based shedding
  reject with *typed, coded* errors carrying ``retry_after``; rejections
  never leak quota slots.
* **Client parity** — :class:`repro.RemoteNetwork` answers are
  entry-for-entry identical to local ``Network`` answers across the base /
  forward / backward / weighted / batch routes, and remote errors are the
  same exception classes a local caller sees.
"""

from __future__ import annotations

import json
import math
import time

import pytest

import repro
import repro.config
from repro.core.deadline import active_deadline, check_deadline, deadline_scope
from repro.core.request import QueryRequest
from repro.core.results import QueryStats, StreamUpdate, TopKResult
from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ProtocolError,
    QuotaExceededError,
    RateLimitedError,
    ReproError,
    ServiceOverloadedError,
    error_from_wire,
)
from repro.serving import (
    AdmissionController,
    QueryServer,
    ReplicaSet,
    ServerConfig,
    TokenBucket,
    decode_result,
    decode_update,
    encode_error,
    encode_result,
    encode_update,
    status_for,
)
from repro.session import Network
from tests.conftest import random_graph
from tests.test_service import quantized_scores


@pytest.fixture(scope="module")
def net():
    graph = random_graph(60, 0.12, seed=611)
    session = Network(graph, hops=2)
    # Dyadic scores (see test_service): aggregation order cannot produce
    # last-ULP drift, so remote answers — which may ride a coalesced shared
    # scan on a lane — must be entry-for-entry identical to local ones.
    session.add_scores("s", quantized_scores(60, seed=612, density=0.9))
    session.add_scores("t", quantized_scores(60, seed=613, density=0.4))
    yield session
    session.close()


@pytest.fixture(scope="module")
def server(net):
    srv = QueryServer(net, ServerConfig(replicas=3)).start()
    yield srv
    srv.close()


@pytest.fixture(scope="module")
def client(server):
    with repro.RemoteNetwork(server.url) as remote:
        yield remote


# ---------------------------------------------------------------------------
# Protocol round trips
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_result_round_trip_is_lossless(self):
        stats = QueryStats(
            algorithm="backward",
            aggregate="sum",
            backend="python",
            hops=2,
            k=3,
            elapsed_sec=0.25,
            nodes_evaluated=17,
            early_terminated=True,
        )
        stats.extra["gamma"] = 0.4
        result = TopKResult(entries=[(4, 2.5), (1, 1.0)], stats=stats)
        back = decode_result(json.loads(json.dumps(encode_result(result))))
        assert back.entries == result.entries
        assert back.stats.as_dict() == result.stats.as_dict()

    def test_decoded_results_hold_shared_entries(self):
        result = TopKResult(entries=[(4, 2.5), (1, 2.5), (9, 0.5)], stats=QueryStats())
        wire = json.dumps(encode_result(result))
        first, second = (decode_result(json.loads(wire)) for _ in range(2))
        assert first.entries == second.entries == result.entries
        assert all(a is b for a, b in zip(first.entries, second.entries))
        assert first.entries[0][1] is first.entries[1][1]  # one float per tie

    def test_result_decode_tolerates_unknown_stats_fields(self):
        payload = encode_result(TopKResult(entries=[(0, 1.0)], stats=QueryStats()))
        payload["stats"]["a_future_counter"] = 9
        assert decode_result(payload).entries == [(0, 1.0)]

    @pytest.mark.parametrize(
        "payload", [None, [], {"stats": {}}, {"entries": [["x", "y", "z"]]}]
    )
    def test_result_decode_rejects_malformed(self, payload):
        with pytest.raises(ProtocolError):
            decode_result(payload)

    def test_update_round_trip_including_infinite_bound(self):
        update = StreamUpdate(
            node=7,
            value=3.5,
            bound=-math.inf,
            entries=((7, 3.5), (2, 1.0)),
            evaluated=5,
            total=60,
            done=True,
            k=2,
        )
        back = decode_update(json.loads(json.dumps(encode_update(update)))
        )
        assert back == update

    def test_request_round_trip_preserves_identity_and_metadata(self):
        request = QueryRequest(
            k=5,
            score="s",
            aggregate="avg",
            algorithm="backward",
            candidates=(3, 1, 2),
            gamma=0.5,
            priority=7,
            deadline=1.5,
            pinned=frozenset({"gamma", "algorithm"}),
        )
        back = QueryRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert back == request
        assert back.priority == 7 and back.deadline == 1.5
        assert back.pinned == request.pinned
        assert back.canonical_key() == request.canonical_key()

    def test_request_decode_ignores_unknown_fields(self):
        payload = QueryRequest(k=3).to_dict()
        payload["a_future_knob"] = "x"
        assert QueryRequest.from_dict(payload) == QueryRequest(k=3)

    def test_request_decode_rejects_newer_schema(self):
        payload = QueryRequest(k=3).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ProtocolError):
            QueryRequest.from_dict(payload)

    def test_shape_key_ignores_score_and_k_only(self):
        a = QueryRequest(k=3, score="s")
        b = QueryRequest(k=9, score="t")
        c = QueryRequest(k=3, score="s", hops=1)
        assert a.shape_key() == b.shape_key()
        assert a.shape_key() != c.shape_key()

    def test_error_wire_round_trip_keeps_class_and_extras(self):
        original = ServiceOverloadedError(
            "too hot", retry_after=0.5, estimated_cost=12.0, cost_limit=3.0
        )
        payload = json.loads(json.dumps(encode_error(original)))
        back = error_from_wire(payload["error"])
        assert type(back) is ServiceOverloadedError
        assert back.retry_after == 0.5
        assert back.estimated_cost == 12.0
        assert str(back) == "too hot"

    def test_foreign_exception_degrades_to_base_code(self):
        payload = encode_error(RuntimeError("boom"))
        back = error_from_wire(payload["error"])
        assert type(back) is ReproError
        assert "boom" in str(back)

    @pytest.mark.parametrize(
        "error,status",
        [
            (RateLimitedError("x"), 429),
            (QuotaExceededError("x"), 429),
            (ServiceOverloadedError("x"), 429),
            (DeadlineExceededError("x"), 504),
            (ProtocolError("x"), 400),
            (InvalidParameterError("x"), 400),
            (RuntimeError("x"), 500),
        ],
    )
    def test_status_mapping(self, error, status):
        assert status_for(error) == status


# ---------------------------------------------------------------------------
# Replica routing
# ---------------------------------------------------------------------------
class TestRouting:
    def test_routing_is_shape_affine(self, net):
        replicas = ReplicaSet(net, repro.ServiceConfig(workers=0), replicas=4)
        try:
            base = replicas.route(QueryRequest(k=3, score="s"))[0]
            # Score and k are *not* shape: cache/coalescer locality demands
            # every variant of one shape lands on one lane.
            for request in (
                QueryRequest(k=50, score="s"),
                QueryRequest(k=3, score="t"),
                QueryRequest(k=7, score="t", aggregate="sum"),
            ):
                assert replicas.route(request)[0] == base
        finally:
            replicas.close()

    def test_distinct_shapes_spread_and_deterministically(self, net):
        first = ReplicaSet(net, repro.ServiceConfig(workers=0), replicas=4)
        second = ReplicaSet(net, repro.ServiceConfig(workers=0), replicas=4)
        try:
            shapes = [QueryRequest(k=3, hops=h) for h in range(8)]
            lanes_a = [first.route(r)[0] for r in shapes]
            lanes_b = [second.route(r)[0] for r in shapes]
            assert lanes_a == lanes_b  # crc32, not salted hash()
            assert len(set(lanes_a)) >= 2
        finally:
            first.close()
            second.close()

    def test_lanes_register_with_session_and_unregister_on_close(self, net):
        before = len(net._services())
        replicas = ReplicaSet(net, repro.ServiceConfig(workers=0), replicas=2)
        assert len(net._services()) == before + 2
        replicas.close()
        assert len(net._services()) == before


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_token_bucket_burst_then_refuses_with_eta(self):
        bucket = TokenBucket(rate=0.001, burst=2)
        assert bucket.take() is None
        assert bucket.take() is None
        eta = bucket.take()
        assert eta is not None and eta > 0

    def test_rate_limit_is_per_tenant(self):
        controller = AdmissionController(rate=0.001, burst=1)
        controller.admit(QueryRequest(k=1), tenant="a")()
        with pytest.raises(RateLimitedError) as info:
            controller.admit(QueryRequest(k=1), tenant="a")
        assert info.value.retry_after > 0
        controller.admit(QueryRequest(k=1), tenant="b")()  # unaffected

    def test_quota_bounds_inflight_and_release_is_idempotent(self):
        controller = AdmissionController(quota=1)
        release = controller.admit(QueryRequest(k=1), tenant="a")
        with pytest.raises(QuotaExceededError):
            controller.admit(QueryRequest(k=1), tenant="a")
        release()
        release()  # double release must not mint a second slot
        second = controller.admit(QueryRequest(k=1), tenant="a")
        with pytest.raises(QuotaExceededError):
            controller.admit(QueryRequest(k=1), tenant="a")
        second()

    def test_shedding_admits_cheap_rejects_expensive(self):
        controller = AdmissionController(
            cost_of=lambda request: float(request.k),
            load_of=lambda: 0.9,
            shed_watermark=0.5,
            cost_limit=100.0,
        )
        # budget = 100 * (1 - 0.9) / (1 - 0.5) = 20
        controller.admit(QueryRequest(k=10))()
        with pytest.raises(ServiceOverloadedError) as info:
            controller.admit(QueryRequest(k=30))
        assert info.value.estimated_cost == 30.0
        assert info.value.cost_limit == pytest.approx(20.0)
        assert info.value.retry_after > 0
        assert controller.counters["shed"] == 1

    def test_shedding_prices_backend_fixed_cost(self):
        # Satellite of the cluster backend: the shed comparison adds the
        # backend's fixed overhead, so a query that passes in-process is
        # rejected when routed to a backend whose dispatch tax alone
        # overflows the budget.
        controller = AdmissionController(
            cost_of=lambda request: float(request.k),
            fixed_cost_of=lambda request: (
                15.0 if request.backend == "cluster" else 0.0
            ),
            load_of=lambda: 0.9,
            shed_watermark=0.5,
            cost_limit=100.0,
        )
        # budget = 100 * (1 - 0.9) / (1 - 0.5) = 20; k=10 in-process passes
        controller.admit(QueryRequest(k=10))()
        # ... but the same k pinned to cluster pays 10 + 15 = 25 > 20.
        with pytest.raises(ServiceOverloadedError) as info:
            controller.admit(QueryRequest(k=10, backend="cluster"))
        assert info.value.estimated_cost == 25.0
        assert controller.counters["shed"] == 1

    def test_no_shedding_below_watermark(self):
        controller = AdmissionController(
            cost_of=lambda request: 1e9,
            load_of=lambda: 0.4,
            shed_watermark=0.5,
            cost_limit=1.0,
        )
        controller.admit(QueryRequest(k=1))()

    def test_rejections_do_not_leak_quota_slots(self):
        controller = AdmissionController(rate=0.001, burst=1, quota=5)
        controller.admit(QueryRequest(k=1), tenant="a")
        for _ in range(3):
            with pytest.raises(RateLimitedError):
                controller.admit(QueryRequest(k=1), tenant="a")
        assert controller.stats()["tenants_inflight"] == {"a": 1}


# ---------------------------------------------------------------------------
# Cooperative deadlines inside execution
# ---------------------------------------------------------------------------
class TestExecutionDeadlines:
    def test_scope_nests_and_restores(self):
        assert active_deadline() is None
        with deadline_scope(123.0):
            assert active_deadline() == 123.0
            with deadline_scope(456.0):
                assert active_deadline() == 456.0
            assert active_deadline() == 123.0
        assert active_deadline() is None

    def test_check_raises_only_past_deadline(self):
        with deadline_scope(time.monotonic() + 60):
            check_deadline()
        with deadline_scope(time.monotonic() - 1):
            with pytest.raises(DeadlineExceededError):
                check_deadline()

    @pytest.mark.parametrize("backend", ["python", "auto"])
    @pytest.mark.parametrize("algorithm", ["base", "forward", "backward"])
    def test_kernels_abort_mid_execution(self, net, algorithm, backend):
        # An already-expired scope: the kernel's first cooperative check
        # fires, proving enforcement happens *during* execution, not just
        # while queued.
        from repro.core import executor

        with deadline_scope(time.monotonic() - 1):
            with pytest.raises(DeadlineExceededError):
                executor.execute(
                    net._ctx,
                    net.scores_of("s"),
                    QueryRequest(k=3, algorithm=algorithm, backend=backend),
                )

    def test_deadline_fails_query_through_the_service(self, net):
        handle = net.query("s").limit(3).deadline(1e-6).submit(cached=False)
        with pytest.raises(DeadlineExceededError):
            handle.result(timeout=10)


# ---------------------------------------------------------------------------
# Server configuration
# ---------------------------------------------------------------------------
class TestServerConfig:
    def test_nested_sections_coerce_from_mappings(self):
        cfg = ServerConfig.from_options(
            {
                "replicas": 4,
                "service": {"workers": 2, "max_pending": 8},
                "parallel": {"workers": 2, "min_nodes": "30"},
            }
        )
        assert cfg.replicas == 4
        assert isinstance(cfg.service, repro.ServiceConfig)
        assert cfg.service.workers == 2 and cfg.service.max_pending == 8
        assert isinstance(cfg.parallel, repro.ParallelConfig)
        assert cfg.parallel.min_nodes == 30

    def test_unknown_keys_rejected_at_every_level(self):
        with pytest.raises(InvalidParameterError, match="replica_count"):
            ServerConfig.from_options({"replica_count": 3})
        with pytest.raises(InvalidParameterError, match="wrokers"):
            ServerConfig.from_options({"service": {"wrokers": 2}})

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(
            json.dumps(
                {
                    "port": 0,
                    "replicas": 2,
                    "quota": 8,
                    "service": {"workers": 1},
                }
            )
        )
        cfg = ServerConfig.from_file(path)
        assert cfg.replicas == 2 and cfg.quota == 8
        assert cfg.service.workers == 1

    def test_config_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ProtocolError):
            ServerConfig.from_file(path)

    @pytest.mark.parametrize(
        "options, names",
        [
            # Values that do not convert: the error names class and field.
            ({"replicas": "two"}, "ServerConfig.replicas"),
            ({"max_handles": [3]}, "ServerConfig.max_handles"),
            ({"port": "x"}, "ServerConfig.port"),
            ({"replicas": 2.5}, "ServerConfig.replicas"),
            ({"service": {"workers": "a"}}, "ServiceConfig.workers"),
            ({"service": {"workers": 1.5}}, "ServiceConfig.workers"),
            ({"parallel": {"min_nodes": "x"}}, "ParallelConfig.min_nodes"),
            ({"cluster": {"shards": "many"}}, "ClusterConfig.shards"),
            # Values that convert but are out of range.
            ({"port": 70000}, "port"),
            ({"max_body": -1}, "max_body"),
            ({"shed_watermark": 5}, "shed_watermark"),
            ({"quota": -1}, "quota"),
            ({"replicas": 0}, "replicas"),
            # A removed option is an unknown option, listing the valid names.
            ({"parallel": {"partitioner": "bfs"}}, "unknown ParallelConfig option"),
            ({"cluster": {"partitioner": "bfs"}}, "unknown ClusterConfig option"),
            ({"service": {"coalesce_limit": 8}}, r"unknown ServiceConfig .*'max_pending'"),
            ({"service": {"cache_entries": 0}}, r"unknown ServiceConfig .*'max_pending'"),
            ({"parallel": {"seed": 2010}}, r"unknown ParallelConfig .*'min_nodes'"),
            ({"parallel": {"timeout": 30}}, r"unknown ParallelConfig .*'min_nodes'"),
            ({"cluster": {"seed": 2010}}, r"unknown ClusterConfig .*'ship_policy'"),
            ({"cluster": {"timeout": 30}}, r"unknown ClusterConfig .*'ship_policy'"),
            ({"cluster": {"connect_timeout": 2}}, r"unknown ClusterConfig .*'ship_policy'"),
            ({"cluster": {"io_timeout": 2}}, r"unknown ClusterConfig .*'ship_policy'"),
            ({"global_rate": 10.0}, r"unknown ServerConfig .*'tenant_rate'"),
            ({"global_burst": 10.0}, r"unknown ServerConfig .*'tenant_rate'"),
        ],
    )
    def test_bad_values_are_invalid_parameter_errors(self, options, names):
        with pytest.raises(InvalidParameterError, match=names):
            ServerConfig.from_options(options)

    def test_constructors_reject_like_mappings(self):
        """The same errors without a mapping in between, and numeric strings
        (a hand-written file) convert."""
        assert ServerConfig(replicas="2", max_handles="3").replicas == 2
        with pytest.raises(InvalidParameterError, match="unknown .* option"):
            repro.ParallelConfig(partitioner="bfs")
        with pytest.raises(InvalidParameterError, match="unknown .* option"):
            repro.config.ClusterConfig(partitioner="bfs")
        with pytest.raises(InvalidParameterError, match="ServerConfig.quota"):
            ServerConfig(quota="lots")

    @pytest.mark.parametrize(
        "section, cls, field",
        [
            ("service", "ServiceConfig", "coalesce"),
            ("cluster", "ClusterConfig", "hedge"),
        ],
    )
    @pytest.mark.parametrize("value", ["false", "off", "", 0, 1, None, [True]])
    def test_bool_fields_accept_only_bools(self, tmp_path, section, cls, field, value):
        """``bool("false")`` is true: a bool field takes ``True``/``False``
        and nothing else, from a file or a constructor."""
        path = tmp_path / "server.json"
        path.write_text(json.dumps({section: {field: value}}))
        with pytest.raises(InvalidParameterError, match=f"{cls}.{field} must be bool"):
            ServerConfig.from_file(path)
        with pytest.raises(InvalidParameterError, match=f"{cls}.{field} must be bool"):
            getattr(repro.config, cls)(**{field: value})

    def test_bool_fields_keep_real_bools(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps(
            {"service": {"coalesce": False}, "cluster": {"hedge": False}}
        ))
        cfg = ServerConfig.from_file(path)
        assert cfg.service.coalesce is False and cfg.cluster.hedge is False
        assert repro.ServiceConfig(coalesce=True).coalesce is True

    def test_cli_reports_a_bad_config_file_and_exits_2(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replicas": "two", "service": {"workers": 1}}))
        code = cli_main(
            [
                "serve", "--dataset", "collaboration_like", "--scale", "0.05",
                "--k", "3", "--queries", "1",
                "--listen", "127.0.0.1:0", "--config", str(path),
            ]
        )
        assert code == 2
        assert "error: ServerConfig.replicas must be int" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Client parity: remote answers == local answers
# ---------------------------------------------------------------------------
class TestClientParity:
    @pytest.mark.parametrize("algorithm", ["base", "forward", "backward", "auto"])
    def test_algorithms_entry_for_entry(self, net, client, algorithm):
        local = net.query("s").limit(5).algorithm(algorithm).run()
        remote = client.query("s").limit(5).algorithm(algorithm).run()
        assert remote.entries == local.entries
        assert remote.stats.algorithm == local.stats.algorithm

    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count", "max", "min"])
    def test_aggregates_entry_for_entry(self, net, client, aggregate):
        local = net.topk("t", 4, aggregate)
        remote = client.topk("t", 4, aggregate)
        assert remote.entries == local.entries

    def test_refinements_cross_the_wire(self, net, client):
        nodes = [0, 3, 5, 7, 11, 13]
        local = net.query("s").limit(3).where(nodes).run()
        remote = client.query("s").limit(3).where(nodes).run()
        assert remote.entries == local.entries
        local = net.query("s").limit(3).algorithm("backward").gamma(0.5).run()
        remote = client.query("s").limit(3).algorithm("backward").gamma(0.5).run()
        assert remote.entries == local.entries

    def test_weighted_entry_for_entry(self, net, client):
        local = net.topk_weighted("s", 4)
        remote = client.topk_weighted("s", 4)
        assert remote.entries == local.entries

    def test_batch_entry_for_entry(self, net, client):
        # Local batch tuples take score *vectors*; remote tuples take score
        # *names* (the wire has no vectors).  Builders are the shared form.
        local = net.batch(
            [
                net.query("s").limit(3),
                net.query("t").limit(4).aggregate("count"),
                net.query("s").limit(2).aggregate("avg"),
            ]
        )
        remote = client.batch([("s", 3), ("t", 4, "count"), ("s", 2, "avg")])
        assert [r.entries for r in remote] == [r.entries for r in local.results]

    def test_submit_poll_result(self, client, net):
        handle = client.query("s").limit(4).submit()
        remote = handle.result(timeout=30)
        assert handle.done() and handle.state == "done"
        assert remote.entries == net.query("s").limit(4).run().entries

    def test_stream_refines_to_the_final_answer(self, net, client):
        updates = list(client.query("s").limit(3).stream())
        assert updates, "stream produced no updates"
        assert updates[-1].done
        local = net.query("s").limit(3).run()
        assert list(updates[-1].entries) == local.entries

    def test_remote_validation_error_is_typed(self, client):
        with pytest.raises(InvalidParameterError):
            client.query("s").limit(0).run()

    def test_unknown_score_is_typed(self, client):
        with pytest.raises(ReproError, match="no_such_score"):
            client.topk("no_such_score", 3)

    def test_unknown_query_id_is_protocol_error(self, client):
        with pytest.raises(ProtocolError):
            client._call("GET", "/v1/result/q999999")

    def test_health_and_stats_surfaces(self, client, server, net):
        health = client.health()
        assert health["ok"] and health["protocol"] == 1
        assert health["graph"]["nodes"] == net.graph.num_nodes
        assert client.score_names() == net.score_names()
        stats = client.stats()
        assert stats["admission"]["admitted"] > 0
        assert stats["replicas"]["replicas"] == 3
        for lane in stats["replicas"]["lanes"]:  # lanes share one session
            assert lane["session_caches"]["phase1"] == net._ctx.cache_stats()["phase1"]

    def test_cancel_pending_remote_query(self, net):
        # A dedicated zero-worker... not possible remotely; instead submit
        # against a quota-free server and cancel immediately — the handle
        # must end in a typed cancelled/done state, never hang.
        handle_server = QueryServer(net, replicas=1).start()
        try:
            with repro.RemoteNetwork(handle_server.url) as remote:
                handle = remote.query("s").limit(3).submit()
                handle.cancel()  # may race completion; both ends are valid
                assert handle.state in {"pending", "running", "cancelled", "done"}
        finally:
            handle_server.close()


# ---------------------------------------------------------------------------
# The remote builder is the local builder's surface
# ---------------------------------------------------------------------------
#: One call shape per local refinement (``where`` takes the wire's form:
#: node ids, not a predicate).
REFINEMENT_CALLS = {
    "limit": [(4,), ("4",)],
    "k": [(5,), ("5",)],
    "hops": [(2,)],
    "aggregate": [("avg",), (repro.AggregateKind.MAX,)],
    "where": [([3, 1, 2],)],
    "algorithm": [("backward",)],
    "backend": [("numpy",)],
    "gamma": [(0.5,), ("auto",)],
    "distribution_fraction": [(0.25,), ("0.25",)],
    "exact_sizes": [(), (False,), (0,)],
    "ordering": [("degree",)],
    "seed": [(7,), ("7",)],
    "weighted": [(), (lambda d: 0.5 ** d,)],
    "priority": [(3,), ("3",)],
    "deadline": [(2.5,), ("2.5",)],
}


class TestRemoteBuilderParity:
    @pytest.fixture()
    def remote(self, net):
        client = repro.RemoteNetwork("http://127.0.0.1:9")  # never contacted
        defaults = {"hops": net.hops, "include_self": net.include_self, "backend": net.backend}
        client._session_defaults = lambda: dict(defaults)
        return client

    def test_every_local_refinement_has_call_shapes_here(self):
        from repro.session import _refinement_methods

        assert set(_refinement_methods()) == set(REFINEMENT_CALLS)

    @pytest.mark.parametrize("name", sorted(REFINEMENT_CALLS))
    def test_same_call_shapes_lower_to_equal_requests(self, net, remote, name):
        for args in REFINEMENT_CALLS[name]:
            local = getattr(net.query("s").limit(3), name)(*args).request()
            wire = getattr(remote.query("s").limit(3), name)(*args).request()
            assert wire == local, (name, args)
            assert wire.pinned == local.pinned, (name, args)
            assert wire.priority == local.priority and wire.deadline == local.deadline
            # The payload that crosses the wire decodes to the same request.
            assert QueryRequest.from_dict(wire.to_dict()) == local

    def test_chained_where_intersects_as_locally(self, net, remote):
        local = net.query("s").limit(3).where([1, 2, 3]).where([2, 3, 4]).request()
        wire = remote.query("s").limit(3).where([1, 2, 3]).where([2, 3, 4]).request()
        assert wire == local
        assert tuple(wire.candidates) == (2, 3)

    def test_exact_sizes_defaults_to_true_and_k_coerces(self, remote):
        request = remote.query("s").exact_sizes().k("5").request()
        assert request.exact_sizes is True and request.k == 5

    def test_local_validation_runs_remotely(self, net, remote):
        with pytest.raises(InvalidParameterError, match="hops"):
            remote.query("s").hops(net.hops + 1)
        with pytest.raises(InvalidParameterError, match="predicates"):
            remote.query("s").where(lambda u: u > 3)
        with pytest.raises(AttributeError, match="unknown query refinement"):
            remote.query("s").not_a_refinement


# ---------------------------------------------------------------------------
# ``native`` is not a backend, on any door
# ---------------------------------------------------------------------------
FIVE_BACKENDS = "('auto', 'python', 'numpy', 'parallel', 'cluster')"


class TestNoNativeBackend:
    def test_builder_rejects_it(self, net):
        with pytest.raises(InvalidParameterError) as info:
            net.query("s").limit(3).backend("native").run()
        assert "unknown backend 'native'" in str(info.value)
        assert FIVE_BACKENDS in str(info.value)

    def test_request_rejects_it(self):
        with pytest.raises(InvalidParameterError) as info:
            QueryRequest.from_dict({"k": 3, "score": "s", "backend": "native"})
        assert "unknown backend 'native'" in str(info.value)
        assert FIVE_BACKENDS in str(info.value)

    def test_cli_rejects_it(self, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as info:
            cli_main(["query", "--dataset", "collaboration_like", "--backend", "native"])
        assert info.value.code == 2
        assert "invalid choice: 'native'" in capsys.readouterr().err

    def test_http_rejects_it_with_a_400(self, server):
        import http.client
        from urllib.parse import urlsplit

        address = urlsplit(server.url)
        request = QueryRequest(k=3, score="s").to_dict()
        request["backend"] = "native"
        conn = http.client.HTTPConnection(address.hostname, address.port, timeout=30)
        try:
            conn.request(
                "POST", "/v1/query", json.dumps({"request": request}),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["code"] == InvalidParameterError.code
        assert "unknown backend 'native'" in body["error"]["message"]


# ---------------------------------------------------------------------------
# Admission over the wire
# ---------------------------------------------------------------------------
class TestWireAdmission:
    def test_rate_limited_client_sees_typed_retry_after(self, net):
        server = QueryServer(
            net, replicas=1, tenant_rate=0.001, tenant_burst=1
        ).start()
        try:
            with repro.RemoteNetwork(server.url, tenant="hot") as remote:
                remote.topk("s", 2)
                with pytest.raises(RateLimitedError) as info:
                    remote.topk("s", 2)
                assert info.value.retry_after > 0
            with repro.RemoteNetwork(server.url, tenant="calm") as other:
                other.topk("s", 2)  # different tenant, own bucket
        finally:
            server.close()

    def test_quota_zero_rejects_with_typed_error(self, net):
        server = QueryServer(net, replicas=1, quota=0).start()
        try:
            with repro.RemoteNetwork(server.url) as remote:
                with pytest.raises(QuotaExceededError):
                    remote.topk("s", 2)
        finally:
            server.close()

    def test_shedding_over_the_wire_is_cost_selective(self, net):
        server = QueryServer(
            net, replicas=1, shed_watermark=0.5, cost_limit=1e-9
        ).start()
        try:
            # retry=None: the default policy would re-submit each shed
            # request (retry_after here is within its patience), turning
            # the exact admission-counter arithmetic below into a moving
            # target.
            with repro.RemoteNetwork(server.url, retry=None) as remote:
                remote.topk("s", 2)  # idle: below watermark, no shedding
                # Force the load reading past the watermark: any nonzero
                # planner cost now exceeds the vanishing budget.
                server.admission._load_of = lambda: 0.9
                with pytest.raises(ServiceOverloadedError) as info:
                    remote.topk("s", 2)
                assert info.value.estimated_cost is not None
                assert info.value.retry_after > 0
                assert server.admission.counters["shed"] == 1
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Concurrent remote clients (CI serving-smoke sizes this up via env)
# ---------------------------------------------------------------------------
class TestConcurrentClients:
    def test_many_clients_all_get_local_answers(self, net, server):
        import os
        import threading

        clients = int(os.environ.get("REPRO_SERVING_CLIENTS", "4"))
        rounds = int(os.environ.get("REPRO_SERVING_ROUNDS", "3"))
        expected = {
            ("s", 5): net.query("s").limit(5).run().entries,
            ("t", 3): net.query("t").limit(3).run().entries,
            ("s", 2): net.query("s").limit(2).aggregate("avg").run().entries,
            "weighted": net.topk_weighted("t", 4).entries,
        }
        failures = []

        def worker(index: int) -> None:
            try:
                with repro.RemoteNetwork(server.url, tenant=f"c{index}") as remote:
                    for _ in range(rounds):
                        got = remote.query("s").limit(5).run().entries
                        assert got == expected[("s", 5)], got
                        got = remote.query("t").limit(3).run().entries
                        assert got == expected[("t", 3)], got
                        got = (
                            remote.query("s").limit(2).aggregate("avg")
                            .run().entries
                        )
                        assert got == expected[("s", 2)], got
                    if index == 0:  # one weighted read rides the same lanes
                        got = remote.topk_weighted("t", 4).entries
                        assert got == expected["weighted"], got
            except Exception as exc:  # surfaced below with the thread index
                failures.append((index, repr(exc)))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures
