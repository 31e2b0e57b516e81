"""Route parity of the sharded coordinator, once, over both links.

``backend="parallel"`` (pipes + shared memory) and ``backend="cluster"``
(sockets + named stores) run one
:class:`~repro.parallel.coordinator.ShardedCoordinator`, so their route
contract is one matrix: link x route x aggregate x score shape x
``.where``, each cell required to have the *same outcome* as the numpy
backend — the same entries, exactly (scores are dyadic rationals, so no
summation order can change a value), or the same error (forward + MAX,
``.where`` on a pruning algorithm, a weighted AVG).  Coordinator decisions
that do not depend on the link — the decline rules, LONA-Backward running in
the session's process — are pinned here too, once per link.  What only one link has (reply buffers,
respawn, θ/quota volumes, socket timeouts...) stays in
``tests/test_parallel_backend.py`` / ``tests/test_cluster_backend.py``.

The graphs are far below the production ``min_nodes`` floor, so fixtures
force the sharded path with ``min_nodes=0``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core import executor
from repro.core.batch import BatchQuery
from repro.core.request import QueryRequest
from repro.errors import ReproError
from repro.session import Network
from tests.conftest import random_graph

np = pytest.importorskip("numpy")

#: Pool size of the pipe link; the CI sharded-smoke job raises it to 4.
WORKERS = int(os.environ.get("REPRO_PARALLEL_TEST_WORKERS", "2"))
LINKS = ("parallel", "cluster")
K = 7
#: Inverse distance at the fixture's radius (hops=2): dyadic, like the scores.
WEIGHTS = (1.0, 1.0, 0.5)
CANDIDATES = tuple(range(0, 400, 3))


def _configure(net, link, **options):
    workers = options.pop("workers", WORKERS if link == "parallel" else 2)
    return getattr(net, link)(workers=workers, **options)


@pytest.fixture(scope="module")
def net():
    rng = random.Random(1)
    g = random_graph(400, 0.015, seed=42)
    net = Network(g, hops=2)
    net.add_scores("dense", [rng.randrange(1, 64) / 64 for _ in range(400)])
    net.add_scores(
        "sparse",
        [rng.randrange(1, 64) / 64 if rng.random() < 0.03 else 0.0 for _ in range(400)],
    )
    net.add_scores("binary", [1.0 if u % 9 == 0 else 0.0 for u in range(400)])
    for link in LINKS:
        _configure(net, link, min_nodes=0)
    yield net
    net.close()


def _run(net, backend, route, aggregate, score, where):
    """The results of one cell on ``backend`` (a list; batch has two)."""
    if route.startswith("weighted-"):
        request = QueryRequest(
            k=K, aggregate=aggregate, backend=backend, score=score,
            algorithm=route[len("weighted-"):], weights=WEIGHTS,
        )
        return [executor.execute(net._ctx, net.scores_of(score), request)]
    if route == "batch":
        queries = [
            BatchQuery(scores=net.scores_of(score), k=K, aggregate=aggregate),
            BatchQuery(scores=net.scores_of("dense"), k=4, aggregate="avg"),
        ]
        return list(net._run_batch(queries, backend=backend))
    query = (
        net.query(score).limit(K).aggregate(aggregate)
        .algorithm(route).backend(backend)
    )
    return [query.where(CANDIDATES).run() if where else query.run()]


def _canonical(entries, route):
    """Entries as compared across backends.

    Base-shaped scans resolve rank-k ties by ascending node id on every
    backend, so they compare whole.  The pruning algorithms resolve a tie
    *at the k-th value* by their own visiting order (see
    :mod:`repro.parallel.merge`), so there the value sequence must agree
    and the nodes strictly above the boundary value.  (A batch's peeled
    sparse member is a backward request too; its cells still compare whole,
    which this fixture's "sparse" vector allows.)
    """
    if route not in ("forward", "backward"):
        return entries
    boundary = entries[-1][1]
    return [v for _, v in entries], [e for e in entries if e[1] > boundary]


def _outcome(net, backend, route, *cell):
    try:
        results = _run(net, backend, route, *cell)
    except ReproError as exc:
        return (type(exc), str(exc)), []
    return [_canonical(r.entries, route) for r in results], results


CELLS = [
    (route, aggregate, score, where)
    for route in (
        "base", "forward", "backward", "weighted-base", "weighted-backward", "batch",
    )
    for aggregate in ("sum", "avg", "count", "max")
    for score in ("dense", "sparse")
    # Weighted requests reject .where(); batch queries have no such verb.
    for where in ((False, True) if route in ("base", "forward", "backward") else (False,))
]


class TestRouteParity:
    @pytest.mark.parametrize("link", LINKS)
    @pytest.mark.parametrize("route,aggregate,score,where", CELLS)
    def test_same_outcome_as_numpy(self, net, link, route, aggregate, score, where):
        got, results = _outcome(net, link, route, aggregate, score, where)
        want, refs = _outcome(net, "numpy", route, aggregate, score, where)
        assert got == want
        for result, ref in zip(results, refs):
            stats = result.stats
            if route == "batch" and score == "sparse" and result is results[0]:
                # The executor peels a sparse member off as an ordinary
                # backward request.
                assert stats.algorithm == "backward"
            if stats.algorithm == "backward":
                assert stats.backend == "numpy"  # declined, see below
                continue
            assert stats.backend == link
            assert stats.extra["shards"] == float(getattr(net, link)().shards)
            if where:
                assert stats.extra["candidates"] == float(len(CANDIDATES))
            if stats.algorithm == "batch-base":
                assert stats.extra["batch_size"] == ref.stats.extra["batch_size"]

    @pytest.mark.parametrize("route", ["weighted-base", "weighted-backward"])
    @pytest.mark.parametrize("score", ["dense", "sparse"])
    def test_weighted_in_process_tiers(self, net, route, score):
        """The other in-process tier answers the weighted cells as numpy
        does."""
        got, results = _outcome(net, "python", route, "sum", score, False)
        want, refs = _outcome(net, "numpy", route, "sum", score, False)
        assert got == want
        assert results[0].stats.backend == "python"
        assert results[0].stats.algorithm == refs[0].stats.algorithm == route

    @pytest.mark.parametrize("link", LINKS)
    def test_base_min(self, net, link):
        got, _ = _outcome(net, link, "base", "min", "dense", False)
        assert got == _outcome(net, "numpy", "base", "min", "dense", False)[0]

    @pytest.mark.parametrize("link", LINKS)
    def test_backward_binary_shortcut_declines(self, net, link):
        # Binary scores fully distribute (auto-gamma 1.0, rest_bound 0): the
        # exact-shortcut regime declines like every backward request, and the
        # in-process run keeps its answers bit-identical to numpy's.
        engine = getattr(net, link)()
        declined = engine.stats()["declined"]
        got = net.query("binary").limit(K).algorithm("backward").backend(link).run()
        ref = net.query("binary").limit(K).algorithm("backward").backend("numpy").run()
        assert got.entries == ref.entries
        assert got.stats.backend == "numpy"
        assert got.stats.extra["exact_shortcut"] == 1.0
        assert engine.stats()["declined"] == declined + 1

    @pytest.mark.parametrize("link", LINKS)
    def test_directed_graph_backward(self, link):
        rng = random.Random(9)
        net = Network(random_graph(120, 0.03, seed=5, directed=True), hops=2)
        net.add_scores(
            "s", [rng.randrange(1, 64) / 64 if rng.random() < 0.1 else 0.0 for _ in range(120)]
        )
        engine = _configure(net, link, min_nodes=0)
        try:
            got = net.query("s").limit(5).algorithm("backward").backend(link).run()
            ref = net.query("s").limit(5).algorithm("backward").backend("numpy").run()
            assert got.entries == ref.entries
            assert got.stats.backend == "numpy"
            assert engine.stats()["declined"] == 1
        finally:
            net.close()


class TestBackwardRunsInProcess:
    """Both links decline LONA-Backward: the executor runs it in the
    session's process, over the session's phase-1 memo and ball index."""

    @pytest.mark.parametrize("shape", ["graded", "binary", "directed"])
    @pytest.mark.parametrize("aggregate", ["sum", "avg"])
    @pytest.mark.parametrize("link,started", [("parallel", "pool_started"), ("cluster", "started")])
    def test_same_bits_as_numpy_and_no_worker_starts(self, link, started, aggregate, shape):
        rng = random.Random(10)
        graph = random_graph(300, 0.02, seed=12, directed=shape == "directed")
        net = Network(graph, hops=2)
        # Non-dyadic graded scores: a different summation order would show
        # in the last bits.  0/1 scores take the exact shortcut.
        nonzero = [rng.random() < 0.3 for _ in range(300)]
        values = [1.0 if shape == "binary" else rng.random() for _ in range(300)]
        net.add_scores("s", [v if hit else 0.0 for v, hit in zip(values, nonzero)])
        engine = _configure(net, link, min_nodes=0)
        try:
            query = net.query("s").limit(K).aggregate(aggregate).algorithm("backward")
            declined = engine.stats()["declined"]
            got = query.backend(link).run()
            ref = query.backend("numpy").run()
            assert [(node, value.hex()) for node, value in got.entries] == [
                (node, value.hex()) for node, value in ref.entries
            ]
            assert got.stats.backend == "numpy"
            assert engine.stats()["declined"] == declined + 1
            assert engine.stats()[started] is False
        finally:
            net.close()


class TestGroupMembers:
    """``execute_batch`` on a sharded backend: a group is its members."""

    MEMBERS = (("sparse", K, "sum"), ("dense", 4, "avg"), ("sparse", 3, "avg"))

    @pytest.mark.parametrize("link", LINKS)
    def test_sparse_members_run_in_process_dense_share_the_sharded_scan(self, net, link):
        queries = [
            BatchQuery(scores=net.scores_of(s), k=k, aggregate=a)
            for s, k, a in self.MEMBERS
        ]
        got = list(net._run_batch(queries, backend=link))
        ref = list(net._run_batch(queries, backend="numpy"))
        assert [r.entries for r in got] == [r.entries for r in ref]
        shards = float(getattr(net, link)().shards)
        for (score, k, aggregate), result in zip(self.MEMBERS, got):
            alone = (
                net.query(score).limit(k).aggregate(aggregate).backend(link)
                .algorithm("backward" if score == "sparse" else "base").run()
            )
            assert result.entries == alone.entries
            assert result.stats.algorithm == (
                "backward" if score == "sparse" else "batch-base"
            )
            if score == "sparse":
                assert result.stats.backend == "numpy"
            else:
                assert result.stats.backend == link
                assert result.stats.extra["shards"] == shards


class TestDeclineRule:
    @pytest.mark.parametrize("link,started", [("parallel", "pool_started"), ("cluster", "started")])
    def test_small_graph_declines_without_starting_workers(self, link, started):
        rng = random.Random(8)
        net = Network(random_graph(100, 0.04, seed=30), hops=2)
        net.add_scores("s", [rng.randrange(64) / 64 for _ in range(100)])
        engine = _configure(net, link)  # default min_nodes floor
        try:
            result = net.query("s").limit(4).backend(link).run()
            ref = net.query("s").limit(4).backend("numpy").run()
            assert result.entries == ref.entries
            assert result.stats.backend == "numpy"
            assert engine.stats()["declined"] >= 1
            assert engine.stats()[started] is False
        finally:
            net.close()

    @pytest.mark.parametrize("link", LINKS)
    def test_single_worker_declines(self, link):
        rng = random.Random(9)
        net = Network(random_graph(100, 0.04, seed=31), hops=2)
        net.add_scores("s", [rng.randrange(64) / 64 for _ in range(100)])
        _configure(net, link, workers=1, min_nodes=0)
        try:
            assert net.query("s").limit(4).backend(link).run().stats.backend == "numpy"
        finally:
            net.close()
