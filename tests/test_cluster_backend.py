"""Socket-cluster backend: wire protocol, comm policies, resilience.

Route parity against numpy — every route the sharded coordinator covers,
on both links — lives in ``tests/test_sharded_routes.py``.  This module
pins what only the socket link has: the frame codec, the communication
policies (θ-shipping prunes — soundly, also under ``.where(...)`` —
adaptive quotas bound round-1 volume, ``ship_policy="all"`` is the exact
naive baseline), the delta re-export after dynamic mutations, socket
timeouts, and worker-failure recovery (kill a remote worker mid-stream →
the coordinator re-issues to a respawned or standby worker).

The graphs here are far below the engine's production ``min_nodes`` floor,
so every fixture forces the cluster path with ``min_nodes=0``.
"""

from __future__ import annotations

import random

import pytest

from repro.config import ClusterConfig
from repro.core.backends import BACKENDS
from repro.core.request import QueryRequest
from repro.errors import ClusterError, InvalidParameterError
from repro.graph.graph import Graph
from repro.session import Network
from tests.conftest import random_graph

np = pytest.importorskip("numpy")

from repro.cluster.frames import decode_payload, encode_frame  # noqa: E402

#: Spawned cluster-worker count for the test engines.
WORKERS = 2


def _entries(result):
    return [(node, round(value, 9)) for node, value in result.entries]


def _dense_scores(n, seed):
    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]


@pytest.fixture(scope="module")
def cluster_net():
    g = random_graph(400, 0.015, seed=42)
    net = Network(g, hops=2)
    net.add_scores("dense", _dense_scores(400, 1))
    net.cluster(workers=WORKERS, min_nodes=0)
    yield net
    net.close()


class TestRegistrationAndConfig:
    def test_cluster_is_a_backend(self):
        assert "cluster" in BACKENDS

    def test_request_accepts_cluster(self):
        request = QueryRequest(k=3, backend="cluster")
        assert request.spec().backend == "cluster"

    def test_cluster_config_normalizes_addresses(self):
        cfg = ClusterConfig(workers=["a:1", "b:2"])
        assert cfg.workers == ("a:1", "b:2")
        assert cfg.as_dict()["workers"] == ["a:1", "b:2"]

    def test_cluster_config_validates(self):
        with pytest.raises(InvalidParameterError):
            ClusterConfig(workers=0)
        with pytest.raises(InvalidParameterError):
            ClusterConfig(workers=[])
        with pytest.raises(InvalidParameterError):
            ClusterConfig(ship_policy="sometimes")
        with pytest.raises(InvalidParameterError):
            ClusterConfig(shards=0)

    def test_configuring_engine_spawns_nothing(self):
        g = random_graph(100, 0.03, seed=77)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(100, 3))
        engine = net.cluster(workers=WORKERS, min_nodes=0)
        try:
            stats = engine.stats()
            assert stats["started"] is False
            assert stats["alive_peers"] == 0
        finally:
            net.close()


class TestFrameCodec:
    def test_header_round_trip(self):
        frame = encode_frame({"type": "hello", "rounds": 3})
        # First 4 bytes are the total-length prefix the socket readers use.
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4
        header, arrays = decode_payload(frame[4:])
        assert header["type"] == "hello"
        assert header["rounds"] == 3
        assert arrays == {}

    def test_arrays_round_trip(self):
        nodes = np.asarray([3, 1, 4], dtype=np.int64)
        values = np.asarray([0.5, -1.5, 2.25], dtype=np.float64)
        frame = encode_frame(
            {"type": "result"}, {"nodes": nodes, "values": values}
        )
        header, arrays = decode_payload(frame[4:])
        assert header["type"] == "result"
        assert arrays["nodes"].tolist() == [3, 1, 4]
        assert arrays["values"].tolist() == [0.5, -1.5, 2.25]
        assert arrays["nodes"].dtype == np.int64

    def test_empty_arrays_round_trip(self):
        frame = encode_frame(
            {"type": "result"}, {"nodes": np.empty(0, dtype=np.int64)}
        )
        _, arrays = decode_payload(frame[4:])
        assert arrays["nodes"].size == 0


class TestCommPolicies:
    @pytest.mark.parametrize("aggregate", ["sum", "max", "count"])
    def test_filtered_where(self, aggregate):
        # Regression: the θ seed is the k-th largest self score *of the
        # competitors*.  Seeded from all nodes, the 50 hot nodes outside
        # the candidate set put θ at 1.0 and workers dropped every
        # candidate whose aggregate was below it (2 entries came back).
        net = Network(random_graph(400, 0.002, seed=7), hops=1)
        net.add_scores("hot", [1.0 if u < 50 else 0.0 for u in range(400)])
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            run = lambda backend: (  # noqa: E731
                net.query("hot").limit(5).aggregate(aggregate)
                .where(range(300, 340)).backend(backend).run()
            )
            got, ref = run("cluster"), run("numpy")
            assert got.stats.backend == "cluster"
            assert got.entries == ref.entries
            assert len(got.entries) == 5
        finally:
            net.close()

    def test_theta_shipping_prunes_candidates(self, cluster_net):
        result = (
            cluster_net.query("dense").limit(5)
            .algorithm("base").backend("cluster").run()
        )
        extra = result.stats.extra
        naive = float(WORKERS * 5)
        assert extra["candidates_shipped"] + extra["candidates_pruned"] >= naive
        assert extra["candidates_shipped"] < naive * 2  # quotas bound volume
        assert extra["shipped_candidate_bytes"] == extra[
            "candidates_shipped"
        ] * 16.0

    def test_ship_all_is_exact_and_unpruned(self):
        g = random_graph(300, 0.02, seed=55)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(300, 12))
        net.cluster(workers=WORKERS, min_nodes=0, ship_policy="all")
        try:
            got = net.query("s").limit(6).backend("cluster").run()
            ref = net.query("s").limit(6).backend("numpy").run()
            assert _entries(got) == _entries(ref)
            assert got.stats.extra["candidates_pruned"] == 0.0
            # Every shard ships its k: the volume .explain() forecasts.
            plan = net.query("s").limit(6).backend("cluster").explain()
            assert (
                got.stats.extra["shipped_candidate_bytes"]
                == plan.comm["predicted_candidate_bytes"]
            )
        finally:
            net.close()

    def test_measured_comm_surfaces_in_engine_stats(self, cluster_net):
        cluster_net.query("dense").limit(4).backend("cluster").run()
        stats = cluster_net.cluster().stats()
        assert stats["last_comm"] is not None
        assert stats["last_comm"]["comm_rounds"] >= 1.0
        assert stats["comm"]["bytes_sent"] > 0
        assert stats["queries_served"] >= 1

    def test_worker_stats_round_trip(self, cluster_net):
        cluster_net.query("dense").limit(4).backend("cluster").run()
        rows = cluster_net.cluster().worker_stats()
        assert len(rows) == WORKERS
        for row in rows:
            assert row["alive"] is True
            assert row["tasks"] >= 1

    def test_plan_carries_comm_forecast(self, cluster_net):
        plan = (
            cluster_net.query("dense").limit(10)
            .backend("cluster").explain()
        )
        comm = plan.as_dict()["comm"]
        assert comm["shards"] == float(WORKERS)
        assert comm["predicted_candidates"] == float(WORKERS * 10)
        assert comm["predicted_candidate_bytes"] == float(WORKERS * 10 * 16)
        text = plan.explain()
        assert "socket cluster" in text
        assert "communication" in text


class TestShardEdgeCases:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_graphs_smaller_than_the_shard_count(self, n):
        # With 2 shards over <=2 nodes some shards are empty; empty owned
        # arrays must flow through scan/merge without special-casing.
        rng = random.Random(100 + n)
        edges = [(u, u + 1) for u in range(n - 1)]
        g = Graph.from_edges(edges, num_nodes=n)
        net = Network(g, hops=2)
        net.add_scores("s", [rng.random() for _ in range(n)])
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            got = net.query("s").limit(3).backend("cluster").run()
            ref = net.query("s").limit(3).backend("numpy").run()
            assert _entries(got) == _entries(ref)
            assert got.stats.backend == "cluster"
        finally:
            net.close()

    def test_more_shards_than_workers(self):
        g = random_graph(300, 0.02, seed=60)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(300, 13))
        net.cluster(workers=WORKERS, shards=4, min_nodes=0)
        try:
            got = net.query("s").limit(6).backend("cluster").run()
            ref = net.query("s").limit(6).backend("numpy").run()
            assert _entries(got) == _entries(ref)
            assert got.stats.extra["shards"] == 4.0
        finally:
            net.close()

    def test_more_workers_than_shards_keeps_standby(self):
        g = random_graph(300, 0.02, seed=61)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(300, 14))
        net.cluster(workers=3, shards=2, min_nodes=0)
        try:
            got = net.query("s").limit(6).backend("cluster").run()
            ref = net.query("s").limit(6).backend("numpy").run()
            assert _entries(got) == _entries(ref)
            engine = net.cluster()
            assert engine.stats()["alive_peers"] == 3
        finally:
            net.close()


class TestDynamicInvalidation:
    def test_delta_reexport_after_add_edge(self):
        from repro.dynamic.graph import DynamicGraph

        g = DynamicGraph.from_graph(random_graph(200, 0.02, seed=12))
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(200, 5))
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            engine = net.cluster()
            first = net.query("s").limit(5).backend("cluster").run()
            old_version = engine.stats()["export_version"]
            net.add_edge(0, 199)
            got = net.query("s").limit(5).backend("cluster").run()
            ref = net.query("s").limit(5).backend("numpy").run()
            assert _entries(got) == _entries(ref)
            # Only graph-derived stores were re-exported (new version
            # stamp); score stores persisted across the mutation.
            assert engine.stats()["export_version"] != old_version
            assert first.entries  # sanity: pre-mutation answer existed
        finally:
            net.close()

    def test_score_update_flows_to_workers(self):
        from repro.dynamic.graph import DynamicGraph

        g = DynamicGraph.from_graph(random_graph(200, 0.02, seed=13))
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(200, 6))
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            probe = lambda: (  # noqa: E731 - F(7) includes f(7) itself
                net.query("s").limit(1).where([7]).backend("cluster").run()
            )
            before = probe()
            net.update_score("s", 7, 1.0)
            got = net.query("s").limit(5).backend("cluster").run()
            ref = net.query("s").limit(5).backend("numpy").run()
            assert _entries(got) == _entries(ref)
            after = probe()
            assert _entries(after) != _entries(before)
        finally:
            net.close()


class TestResilience:
    def test_worker_kill_respawns_and_answers_exactly(self):
        g = random_graph(300, 0.02, seed=20)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(300, 15))
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            engine = net.cluster()
            net.query("s").limit(3).backend("cluster").run()
            transport = engine._resources["transport"]
            victim = transport.peers[0]
            victim.proc.terminate()
            victim.proc.wait(timeout=10)
            got = net.query("s").limit(3).backend("cluster").run()
            ref = net.query("s").limit(3).backend("numpy").run()
            assert _entries(got) == _entries(ref)
            # The dead slot was refilled (stores re-shipped to the fresh
            # worker on demand) and the whole peer set is serving again.
            assert transport.respawns == 1
            assert transport.alive_peers == WORKERS
        finally:
            net.close()

    def test_standby_worker_absorbs_kill_without_respawn_budget(self):
        # 3 workers over 2 shards: kill a shard owner mid-stream and
        # exhaust the respawn budget first — the round must re-issue the
        # orphaned task to the standby worker.
        g = random_graph(300, 0.02, seed=21)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(300, 16))
        net.cluster(workers=3, shards=2, min_nodes=0)
        try:
            engine = net.cluster()
            net.query("s").limit(3).backend("cluster").run()
            transport = engine._resources["transport"]
            transport.respawn_budget = 0
            victim = transport.peers[0]
            victim.proc.terminate()
            victim.proc.wait(timeout=10)
            got = net.query("s").limit(3).backend("cluster").run()
            ref = net.query("s").limit(3).backend("numpy").run()
            assert _entries(got) == _entries(ref)
            assert transport.respawns == 0
            assert transport.alive_peers == 2
        finally:
            net.close()

    def test_worker_kill_mid_weighted_respawns_and_answers_exactly(self):
        from repro.core import executor

        g = random_graph(300, 0.02, seed=24)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(300, 25))
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            engine = net.cluster()
            weights = (1.0, 1.0, 0.5)  # inverse distance at hops=2
            request_got = QueryRequest(k=6, backend="cluster", weights=weights)
            request_ref = QueryRequest(k=6, backend="numpy", weights=weights)
            executor.execute(net._ctx, net.scores_of("s"), request_got)
            transport = engine._resources["transport"]
            victim = transport.peers[0]
            victim.proc.terminate()
            victim.proc.wait(timeout=10)
            kinds, dispatch = [], engine._dispatch

            def recording(specs, **options):
                kinds.extend(spec["task"]["kind"] for spec in specs)
                return dispatch(specs, **options)

            engine._dispatch = recording
            got = executor.execute(net._ctx, net.scores_of("s"), request_got)
            ref = executor.execute(net._ctx, net.scores_of("s"), request_ref)
            # A weighted read is a scan task with weights: no kind of its own.
            assert "scan" in kinds and set(kinds) <= {"scan", "resume"}
            assert _entries(got) == _entries(ref)
            assert got.stats.backend == "cluster"
            assert transport.respawns == 1
            assert transport.alive_peers == WORKERS
        finally:
            net.close()

    def test_worker_kill_mid_batch_respawns_and_answers_exactly(self):
        from repro.core.batch import BatchQuery

        g = random_graph(300, 0.02, seed=26)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(300, 27))
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            engine = net.cluster()
            queries = [
                BatchQuery(scores=net.scores_of("s"), k=6),
                BatchQuery(scores=net.scores_of("s"), k=4, aggregate="avg"),
            ]
            net._run_batch(queries, backend="cluster")
            transport = engine._resources["transport"]
            victim = transport.peers[0]
            victim.proc.terminate()
            victim.proc.wait(timeout=10)
            got = net._run_batch(queries, backend="cluster")
            ref = net._run_batch(queries, backend="numpy")
            for g_, r in zip(got, ref):
                assert _entries(g_) == _entries(r)
            assert got[0].stats.backend == "cluster"
            assert transport.respawns == 1
            assert transport.alive_peers == WORKERS
        finally:
            net.close()

    def test_all_workers_dead_raises_cluster_error(self):
        g = random_graph(300, 0.02, seed=22)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(300, 17))
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            engine = net.cluster()
            net.query("s").limit(3).backend("cluster").run()
            transport = engine._resources["transport"]
            transport.respawn_budget = 0
            for peer in transport.peers:
                peer.proc.terminate()
                peer.proc.wait(timeout=10)
            with pytest.raises(ClusterError):
                net.query("s").limit(3).backend("cluster").run()
        finally:
            net.close()

    def test_engine_close_is_idempotent(self):
        g = random_graph(100, 0.03, seed=23)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(100, 18))
        engine = net.cluster(workers=WORKERS, min_nodes=0)
        net.query("s").limit(3).backend("cluster").run()
        net.close()
        net.close()
        assert engine.closed
        with pytest.raises(ClusterError):
            engine.execute_scan(
                net.scores_of("s"), QueryRequest(k=3).spec(), "base"
            )


class TestAddressedWorkers:
    def test_connect_to_externally_started_workers(self):
        # The multi-machine form: workers started out-of-band (here via
        # spawn_local_worker, exactly what `repro.cli cluster-worker`
        # runs), the engine given only their host:port addresses.
        from repro.cluster import spawn_local_worker

        ext = [spawn_local_worker(100), spawn_local_worker(101)]
        g = random_graph(300, 0.02, seed=30)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(300, 19))
        net.cluster(workers=[p.address for p in ext], min_nodes=0)
        try:
            got = net.query("s").limit(5).backend("cluster").run()
            ref = net.query("s").limit(5).backend("numpy").run()
            assert _entries(got) == _entries(ref)
            assert got.stats.backend == "cluster"
        finally:
            net.close()
            for peer in ext:
                peer.close()


class TestSocketTimeouts:
    """Address-connect mode never hangs: every connect/read is bounded.

    The multi-machine form takes raw ``host:port`` addresses, so a down
    or wedged remote worker must surface as a typed :class:`ClusterError`
    within the configured timeout — not stall the coordinator for the
    whole round budget.  The timeouts are the transport's constants
    ``_CONNECT_TIMEOUT`` / ``_FRAME_READ_TIMEOUT``; these tests shorten
    them with ``monkeypatch``."""

    def _closed_port(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_down_address_raises_typed_error_promptly(self, monkeypatch):
        import time

        from repro.cluster import transport as transport_module
        from repro.cluster.transport import ClusterTransport

        monkeypatch.setattr(transport_module, "_CONNECT_TIMEOUT", 2.0)
        address = f"127.0.0.1:{self._closed_port()}"
        transport = ClusterTransport([address, address])
        started = time.monotonic()
        with pytest.raises(ClusterError, match="could not start"):
            transport.start()
        assert time.monotonic() - started < 5.0

    def test_engine_surfaces_down_address_promptly(self, monkeypatch):
        import time

        from repro.cluster import transport as transport_module

        monkeypatch.setattr(transport_module, "_CONNECT_TIMEOUT", 2.0)
        address = f"127.0.0.1:{self._closed_port()}"
        g = random_graph(120, 0.03, seed=63)
        net = Network(g, hops=2)
        net.add_scores("s", _dense_scores(120, 20))
        net.cluster(workers=[address, address], min_nodes=0)
        try:
            started = time.monotonic()
            with pytest.raises(ClusterError):
                net.query("s").limit(3).backend("cluster").run()
            assert time.monotonic() - started < 10.0
        finally:
            net.close()

    def test_silent_server_read_is_bounded(self, monkeypatch):
        import socket
        import threading
        import time

        from repro.cluster import transport as transport_module
        from repro.cluster.transport import ClusterPeer

        monkeypatch.setattr(transport_module, "_FRAME_READ_TIMEOUT", 0.5)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        accepted = []

        def absorb():
            try:
                conn, _ = listener.accept()
                accepted.append(conn)  # accept, then never reply
            except OSError:
                pass

        thread = threading.Thread(target=absorb, daemon=True)
        thread.start()
        peer = ClusterPeer(0, "127.0.0.1", port)
        try:
            peer.connect(2.0)
            started = time.monotonic()
            with pytest.raises((ConnectionError, ClusterError)):
                peer.request({"type": "hello"})
            assert time.monotonic() - started < 5.0
            assert peer.alive is False
        finally:
            peer.close()
            for conn in accepted:
                conn.close()
            listener.close()


class TestDeclineRule:
    def test_planner_charges_cluster_fixed_cost(self):
        from repro.core.planner import BACKEND_FIXED_COSTS, QueryPlanner
        from repro.core.query import QuerySpec

        g = random_graph(120, 0.03, seed=42)
        scores = _dense_scores(120, 10)
        clu = QueryPlanner(g, scores, hops=2, backend="cluster").plan(
            QuerySpec(k=5)
        )
        par = QueryPlanner(g, scores, hops=2, backend="parallel").plan(
            QuerySpec(k=5)
        )
        fixed = BACKEND_FIXED_COSTS["cluster"]
        assert fixed > BACKEND_FIXED_COSTS["parallel"]
        assert clu.estimate_for("base").fixed_cost == fixed
        # Backward runs in process on every backend: no round to pay for.
        assert clu.estimate_for("backward").fixed_cost == 0.0
        assert clu.estimate_for("backward") == par.estimate_for("backward")
        # Socket rounds cost strictly more than queue IPC on this tiny
        # graph, mirroring the runtime decline rules.
        assert (
            clu.estimate_for("base").total_amortized()
            > par.estimate_for("base").total_amortized()
        )
        assert "socket cluster" in clu.explain()


class TestServiceClusterMode:
    def test_service_runs_queries_on_cluster_backend(self):
        g = random_graph(300, 0.02, seed=50)
        net = Network(g, hops=2, backend="cluster")
        net.add_scores("a", _dense_scores(300, 11))
        net.add_scores("b", _dense_scores(300, 12))
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            net.service(workers=2)
            handles = [
                net.query(s).limit(5).submit(cached=False)
                for s in ("a", "b", "a", "b")
            ]
            results = [h.result(timeout=120) for h in handles]
            backends = {r.stats.backend for r in results}
            assert backends <= {"cluster"}
            refs = [
                net.query(s).limit(5).backend("numpy").run()
                for s in ("a", "b", "a", "b")
            ]
            for got, ref in zip(results, refs):
                assert _entries(got) == _entries(ref)
            stats = net.service().stats()
            assert net.backend == "cluster"
            assert stats["cluster"]["last_comm"] is not None
            assert stats["cluster"]["comm"]["bytes_sent"] > 0
        finally:
            net.close()

    def test_pinned_backend_survives_cluster_mode(self):
        g = random_graph(300, 0.02, seed=51)
        net = Network(g, hops=2, backend="cluster")
        net.add_scores("a", _dense_scores(300, 13))
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            net.service(workers=2)
            result = (
                net.query("a").limit(5).backend("numpy")
                .submit(cached=False).result(timeout=120)
            )
            assert result.stats.backend == "numpy"
        finally:
            net.close()


class TestWorkerDeadline:
    """Deadline budgets ship with task frames and fire inside workers.

    The coordinator has no way to interrupt a remote kernel; instead
    :func:`repro.cluster.transport._remaining_budget` ships the active
    deadline's remaining seconds in every task frame, the worker installs
    a local :func:`~repro.core.deadline.deadline_scope`, and the shared
    task handlers' block-boundary ``check_deadline()`` polls observe it
    (repro-check rule RC001).
    """

    @staticmethod
    def _worker_with_store():
        from repro.cluster.worker import ClusterWorker

        worker = ClusterWorker()
        worker.handle(
            {"type": "put", "store": "csr", "kind": "csr", "version": 0},
            {
                "indptr": np.array([0, 1, 2], dtype=np.int64),
                "indices": np.array([1, 0], dtype=np.int64),
            },
        )
        worker.handle(
            {"type": "put", "store": "s"},
            {"data": np.array([1.0, 2.0], dtype=np.float64)},
        )
        return worker

    @staticmethod
    def _scan_task():
        return {
            "kind": "scan",
            "csr": {"store": "csr", "version": 0},
            "scores": {"store": "s"},
            "centers": [0, 1],
            "aggregate": "sum",
            "hops": 1,
            "include_self": True,
            "block": 1,
            "k": 2,
            "index_bytes": 1 << 20,
        }

    def test_zero_budget_task_reports_deadline_status(self):
        worker = self._worker_with_store()
        header, arrays = worker.handle(
            {
                "type": "task",
                "task_id": "t-dl",
                "task": self._scan_task(),
                "ship": {"mode": "all"},
                "deadline": 0.0,
            },
            {},
        )
        assert header["status"] == "deadline"
        assert header["error"]["code"] == "deadline_exceeded"
        assert not arrays

    def test_task_without_budget_runs_to_completion(self):
        worker = self._worker_with_store()
        header, arrays = worker.handle(
            {
                "type": "task",
                "task_id": "t-ok",
                "task": self._scan_task(),
                "ship": {"mode": "all"},
            },
            {},
        )
        assert header["status"] == "ok"
        got = sorted(zip(arrays["nodes"].tolist(), arrays["values"].tolist()))
        assert got == [(0, 3.0), (1, 3.0)]

    def test_shipped_budget_enforced_end_to_end(self, cluster_net, monkeypatch):
        from repro.cluster import transport
        from repro.errors import DeadlineExceededError

        monkeypatch.setattr(transport, "_remaining_budget", lambda: 0.0)
        with pytest.raises(DeadlineExceededError):
            (
                cluster_net.query("dense").limit(5)
                .algorithm("base").backend("cluster").run()
            )

    def test_round_abort_recovers(self, cluster_net):
        # Runs after the aborted round above (same module-scoped engine):
        # abandoned task ids must not poison the next round.
        got = (
            cluster_net.query("dense").limit(6)
            .algorithm("base").backend("cluster").run()
        )
        ref = (
            cluster_net.query("dense").limit(6)
            .algorithm("base").backend("numpy").run()
        )
        assert _entries(got) == _entries(ref)

    def test_parity_under_generous_deadline(self, cluster_net):
        import time

        from repro.core.deadline import deadline_scope

        with deadline_scope(time.monotonic() + 60.0):
            got = (
                cluster_net.query("dense").limit(6)
                .algorithm("backward").backend("cluster").run()
            )
        ref = (
            cluster_net.query("dense").limit(6)
            .algorithm("backward").backend("numpy").run()
        )
        assert _entries(got) == _entries(ref)
