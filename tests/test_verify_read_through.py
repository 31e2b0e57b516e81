"""LONA-Backward's verification read through the session ball index.

``verify_blocked`` is the one phase-3 loop; the numpy provider reads each
block through the session's one :class:`~repro.graph.csr.CSRBallIndex`,
as scans do: present balls are gathered, absent ones expanded in one
batched call, appended and merged back in block order, and the block is
reduced with ``bincount`` either way.  A hit must therefore return the
*bits* of its miss — and not only on the dyadic scores the parity suites
use, where summation order cannot show.  Scores here are arbitrary floats
drawn from a small pool, so many balls hold the same values in different
member orders and the k-th value is crowded with near- and exact ties.
Every numpy comparison is ``==`` on entries or on the raw bytes of a value
array.  The python backend adds a ball's members in ``set`` order, so on
these scores it agrees on the nodes and to the last few ulps on the values
(ROADMAP item 5 owns that contract); on the 0/1 copy it is compared with
``==`` too.

Covered: SUM / AVG / COUNT and footnote 1's weighted sums over hops 1-3,
both ball conventions, directed and undirected, isolated nodes; cold, warm
(all hits), partial blocks (values of the whole expansion, only the absent
balls charged) and no index at all, for ``ball_values``,
``weighted_ball_sums`` and ``fused_ball_values``; hop labels written by a
weighted read over a scan-filled ball, once, and a cap that leaves no room
for them; a stop that falls exactly on a block boundary, one candidate
before and one past it, and the exact shortcut's one-pass top k; racing
threads through one index; ``add_edge`` forgetting only the balls it changed.
"""

from __future__ import annotations

import os
import random
import sys
import threading

import pytest

from repro import Network
from repro.aggregates.functions import AggregateKind
from repro.aggregates.weighted import inverse_distance, precompute_weights
from repro.core.backward import backward_topk
from repro.core.query import QuerySpec
from repro.core.results import QueryStats
from repro.core.topk import TopKAccumulator
from repro.core.weighted import weighted_backward_topk
from repro.dynamic.graph import DynamicGraph
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter

np = pytest.importorskip("numpy")

from repro.core import vectorized  # noqa: E402
from repro.core.vectorized import NumpyKernels, verify_blocked  # noqa: E402
from repro.graph.csr import (  # noqa: E402
    CSRBallIndex,
    batched_hop_balls,
    batched_hop_balls_with_distances,
    edge_write_reach,
)

THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "4"))
N = 400
K = 12
VIEWS = [
    (directed, hops, include_self)
    for directed in (False, True)
    for hops in (1, 2, 3)
    for include_self in (True, False)
]
KINDS = (AggregateKind.SUM, AggregateKind.AVG, AggregateKind.MAX, AggregateKind.MIN)


def _graph(directed: bool, seed: int = 3, n: int = N) -> Graph:
    """About two edges a node; the last 20 nodes touch none."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 2 * n:
        u, v = rng.randrange(n - 20), rng.randrange(n - 20)
        if u != v:
            edges.add((u, v) if directed else (min(u, v), max(u, v)))
    return Graph.from_edges(sorted(edges), num_nodes=n, directed=directed)


def _scores(seed: int, n: int = N):
    """Non-dyadic floats from a pool of nine values, a third zero: equal
    values meet in many balls, in different member orders."""
    rng = random.Random(seed)
    pool = [rng.random() for _ in range(9)]
    return [rng.choice(pool) if rng.random() < 0.67 else 0.0 for _ in range(n)]


def _session(graph, hops, include_self, budget="default"):
    net = Network(graph, hops=hops, include_self=include_self, backend="numpy")
    if budget != "default":
        net._ctx.ball_cache_bytes = budget  # read when the index is made
    net.add_scores("s", _scores(41, graph.num_nodes))
    net.add_scores("bits", [float(v > 0.5) for v in _scores(41, graph.num_nodes)])
    return net


def _ball_stats(net):
    return net._ctx.cache_stats()["ball_cache"]


def _index_reads(result, directed, memo_hit=False):
    """Balls a backward read takes from the index: every verified candidate,
    plus, on an undirected graph, every distributed node (phase 1) unless
    the session's phase-1 memo held that phase."""
    phase1 = not (directed or memo_hit)
    distributed = int(result.stats.extra["distributed_nodes"]) if phase1 else 0
    return result.stats.candidates_verified + distributed


def _close(entries, reference):
    """Same nodes, values to a few ulps (the python backend's set order)."""
    assert [node for node, _ in entries] == [node for node, _ in reference]
    assert [value for _, value in entries] == pytest.approx(
        [value for _, value in reference], rel=1e-13, abs=0.0
    )


# ---------------------------------------------------------------------------
# Through the session: cold == warm == mixed == no index == python
# ---------------------------------------------------------------------------
class TestColdWarmMixed:
    @pytest.mark.parametrize("directed,hops,include_self", VIEWS)
    @pytest.mark.parametrize("aggregate", ["sum", "avg", "count"])
    def test_backward(self, directed, hops, include_self, aggregate):
        graph = _graph(directed)
        net = _session(graph, hops, include_self)
        scores = net.scores_of("s")
        query = net.query("s").algorithm("backward").aggregate(aggregate)
        cold = query.limit(K).run()
        after_cold = _ball_stats(net)
        warm = query.limit(K).run()
        after_warm = _ball_stats(net)
        spec = QuerySpec(K, aggregate, hops, include_self, "numpy")
        off = backward_topk(graph, scores, spec)  # no index at all
        assert cold.entries == warm.entries == off.entries
        # Same candidates, every one a hit: nothing expanded for verification,
        # and on an undirected graph nothing for distribution either.  SUM and
        # AVG take phase 1 from the memo; COUNT folds this non-binary vector
        # into a fresh array, which the memo does not keep, so its phase 1
        # reads the same runs again (a directed one walks the reverse view).
        memo_hit = aggregate != "count"
        assert after_warm["misses"] == after_cold["misses"]
        assert after_warm["hits"] - after_cold["hits"] == _index_reads(
            warm, directed, memo_hit
        )
        assert net._ctx.cache_stats()["phase1"]["hits"] == int(memo_hit)
        assert warm.stats.candidates_verified == cold.stats.candidates_verified
        if not directed:
            assert warm.stats.edges_scanned == 0
        if cold.stats.candidates_verified:
            assert warm.stats.balls_expanded < cold.stats.balls_expanded
        # Mixed blocks: a session that has verified a smaller k holds some
        # of the larger k's candidates and expands the rest.
        mixed_net = _session(graph, hops, include_self)
        mixed_query = mixed_net.query("s").algorithm("backward").aggregate(aggregate)
        mixed_query.limit(2).run()
        primed = _ball_stats(mixed_net)
        mixed = mixed_query.limit(K).run()
        assert mixed.entries == off.entries
        if cold.stats.extra["exact_shortcut"] == 0.0 and primed["covered"]:
            after = _ball_stats(mixed_net)
            assert after["hits"] > primed["hits"]
        python = backward_topk(
            graph, scores.values(), QuerySpec(K, aggregate, hops, include_self, "python")
        )
        _close(cold.entries, python.entries)

    @pytest.mark.parametrize("directed,hops,include_self", VIEWS)
    def test_backward_on_binary_scores_is_the_python_backend_exactly(
        self, directed, hops, include_self
    ):
        graph = _graph(directed)
        net = _session(graph, hops, include_self)
        for aggregate in ("sum", "avg", "count"):
            query = net.query("bits").algorithm("backward").aggregate(aggregate).limit(K)
            python = backward_topk(
                graph,
                net.scores_of("bits").values(),
                QuerySpec(K, aggregate, hops, include_self, "python"),
            )
            assert query.run().entries == query.run().entries == python.entries

    @pytest.mark.parametrize("directed,hops,include_self", VIEWS)
    def test_weighted_backward(self, directed, hops, include_self):
        graph = _graph(directed)
        net = _session(graph, hops, include_self)
        scores = net.scores_of("s").values()
        cold = net.topk_weighted("s", K, algorithm="backward")
        after_cold = _ball_stats(net)
        warm = net.topk_weighted("s", K, algorithm="backward")
        after_warm = _ball_stats(net)
        spec = QuerySpec(K, "sum", hops, include_self, "numpy")
        off = weighted_backward_topk(graph, scores, spec)
        assert cold.entries == warm.entries == off.entries
        assert after_warm["misses"] == after_cold["misses"]
        assert after_warm["hits"] - after_cold["hits"] == _index_reads(warm, directed)
        mixed_net = _session(graph, hops, include_self)
        mixed_net.topk_weighted("s", 2, algorithm="backward")
        assert mixed_net.topk_weighted("s", K, algorithm="backward").entries == off.entries
        python = weighted_backward_topk(
            graph, scores, QuerySpec(K, "sum", hops, include_self, "python")
        )
        _close(cold.entries, python.entries)


# ---------------------------------------------------------------------------
# At the seam: the hit path and the miss path return the same bytes
# ---------------------------------------------------------------------------
def _work(call, centers):
    """What ``call(kernels, centers, counter)`` charges on a provider with
    no index: the cost of expanding exactly ``centers``."""
    counter = TraversalCounter()
    call(NumpyKernels(), centers, counter)
    return counter.snapshot()


@pytest.mark.parametrize("directed,hops,include_self", VIEWS)
class TestHitBytesEqualMissBytes:
    def _centers(self):
        rng = random.Random(9)  # unsorted, repeated, isolated nodes included
        return np.asarray(
            [rng.randrange(N) for _ in range(90)] + [N - 1, N - 1, 0], dtype=np.int64
        )

    def _cold_warm_partial(self, csr, hops, include_self, call):
        """``call`` with no index, then on a cold index, the warm one and a
        half-filled one: the first result, the other three, the index."""
        centers = self._centers()
        plain = call(NumpyKernels(), centers, TraversalCounter())
        index = CSRBallIndex(csr, hops, include_self=include_self)
        cold_work, warm_work, partial_work = (TraversalCounter() for _ in range(3))
        cold = call(NumpyKernels(index), centers, cold_work)
        # Every center a miss; repeated centers miss together: expanded twice.
        assert cold_work.snapshot() == _work(call, centers)
        assert index.covered == len(set(centers.tolist()))
        assert (index.hits, index.misses) == (0, centers.size)
        warm = call(NumpyKernels(index), centers, warm_work)
        assert warm_work.snapshot() == TraversalCounter().snapshot()  # hits are free
        assert (index.hits, index.misses) == (centers.size, centers.size)
        half = CSRBallIndex(csr, hops, include_self=include_self)
        primed = np.unique(centers)[::2]
        call(NumpyKernels(half), primed, TraversalCounter())
        partial = call(NumpyKernels(half), centers, partial_work)
        # Only the absent balls are expanded and charged.
        absent = centers[~np.isin(centers, primed)]
        assert partial_work.snapshot() == _work(call, absent)
        assert half.covered == index.covered
        return plain, (cold, warm, partial), index

    @pytest.mark.parametrize("kind", KINDS)
    def test_ball_values(self, directed, hops, include_self, kind):
        csr = _graph(directed).csr()
        scores = np.asarray(_scores(42))

        def read(kernels, centers, counter):
            return kernels.ball_values(
                np, csr, centers, scores, kind, hops, include_self, counter,
                want_sizes=True,
            )

        (values, sizes), reads, index = self._cold_warm_partial(
            csr, hops, include_self, read
        )
        for got_values, got_sizes in reads:
            assert got_values.dtype == np.float64
            assert got_values.tobytes() == np.asarray(values, dtype=np.float64).tobytes()
            assert got_sizes.tolist() == sizes.tolist()
        # Each ball stored once, decoding to its expansion, and the byte
        # count is theirs: 2 bytes a pair (no step here needs the side table).
        present = np.flatnonzero(index._start >= 0)
        want = batched_hop_balls(csr, present, hops, include_self=include_self)[:2]
        for column, expected in zip(index.pairs(present), want):
            assert column.tobytes() == expected.tobytes()
        stats = index.stats()
        assert (stats["pairs"], stats["wide"]) == (int(index._size[present].sum()), 0)
        assert stats["bytes"] == 2 * stats["pairs"]

    def test_weighted_ball_sums(self, directed, hops, include_self):
        csr = _graph(directed).csr()
        scores = np.asarray(_scores(43))
        weights = np.asarray(precompute_weights(inverse_distance, hops))

        def read(kernels, centers, counter):
            return kernels.weighted_ball_sums(
                np, csr, centers, scores, weights, hops, include_self, counter,
            )

        values, reads, index = self._cold_warm_partial(csr, hops, include_self, read)
        for got in reads:
            assert got.tobytes() == np.asarray(values, dtype=np.float64).tobytes()
        labelled = np.flatnonzero(index._labelled)
        assert labelled.size == index.covered and index._dists.itemsize == 1
        assert index.stats()["bytes"] == 3 * int(index._size[labelled].sum())
        assert int(index._dists[: index._used].max(initial=0)) <= hops

    def test_fused_ball_values(self, directed, hops, include_self):
        csr = _graph(directed).csr()
        node_scores = np.stack([np.asarray(_scores(s)) for s in (44, 45, 46)], axis=1)
        avg_rows = np.asarray([False, True, False])

        def read(kernels, centers, counter):
            return kernels.fused_ball_values(
                np, csr, centers, node_scores, avg_rows, hops, include_self, counter,
            )

        values, reads, _ = self._cold_warm_partial(csr, hops, include_self, read)
        for got in reads:
            assert got.tobytes() == values.tobytes()

    def test_a_scan_filled_ball_is_labelled_once(self, directed, hops, include_self):
        csr = _graph(directed).csr()
        scores = np.asarray(_scores(47))
        weights = np.asarray(precompute_weights(inverse_distance, hops))
        centers = np.arange(N, dtype=np.int64)

        def weighted(index, counter):
            return NumpyKernels(index).weighted_ball_sums(
                np, csr, centers, scores, weights, hops, include_self, counter
            )

        def scan(index):
            NumpyKernels(index).ball_values(
                np, csr, centers, scores, AggregateKind.SUM, hops, include_self,
                TraversalCounter(),
            )

        want = weighted(None, TraversalCounter())
        edges = batched_hop_balls_with_distances(
            csr, centers, hops, include_self=include_self
        )[3]
        index = CSRBallIndex(csr, hops, include_self=include_self)
        scan(index)  # an unweighted scan fills it, without labels
        filled = index.stats()
        assert index._dists is None and filled["bytes"] == 2 * index._used
        labelling, repeat = TraversalCounter(), TraversalCounter()
        assert weighted(index, labelling).tobytes() == want.tobytes()
        # Expanded once more, with distances, and labelled in place.
        assert labelling.edges_scanned == edges and labelling.balls_expanded == N
        after = index.stats()
        assert (after["covered"], after["appended"]) == (N, filled["appended"])
        assert after["bytes"] == 3 * index._used == 3 * filled["bytes"] // 2
        assert weighted(index, repeat).tobytes() == want.tobytes()
        assert repeat.snapshot() == TraversalCounter().snapshot()
        # A cap the pairs fill leaves no room for labels: every weighted
        # read expands, nothing is labelled, and the answer is the same.
        tight = CSRBallIndex(
            csr, hops, include_self=include_self, max_bytes=filled["bytes"]
        )
        scan(tight)
        for _ in range(2):
            work = TraversalCounter()
            assert weighted(tight, work).tobytes() == want.tobytes()
            assert work.edges_scanned == edges
        assert tight._dists is None and tight.stats()["bytes"] == filled["bytes"]


# ---------------------------------------------------------------------------
# The stop against the block boundary
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("stop", [1, 31, 32, 33, 63, 64, 65, 200])
def test_stop_on_and_around_a_block_boundary(stop):
    """``k = 1``: candidate 0 holds the answer and exactly ``stop``
    candidates carry a bound above it.  Stopping before every candidate
    verifies ``stop``; a 32-block verifies the first block whole, then cuts
    every later block at the threshold: no candidate past the stop unless it
    shares the first block."""
    block = 32
    bounds = np.linspace(9.0, 1.0, N)
    exact = np.full(N, 0.25)
    exact[0] = float(bounds[stop - 1] + bounds[stop]) / 2 if stop < N else 0.5
    order = vectorized.descending_prefixes(np, bounds, 64)
    acc = TopKAccumulator(1)
    stats = QueryStats(algorithm="backward", aggregate="sum")
    calls = []

    def verify(chunk):
        calls.append(chunk.tolist())
        return exact[chunk]

    offered = verify_blocked(np, order, bounds, acc, stats, block, verify)
    assert acc.entries() == [(0, float(exact[0]))]
    assert offered == stats.candidates_verified == max(stop, block)
    assert [i for call in calls for i in call] == list(range(max(stop, block)))
    assert all(len(call) <= block for call in calls)
    assert stats.early_terminated
    # Under the exact shortcut the values are read, not verified, and the
    # first k of their order are taken in one pass: one offer, no walk.
    acc = TopKAccumulator(1)
    stats = QueryStats(algorithm="backward", aggregate="sum")
    order = vectorized.descending_prefixes(np, bounds, 64)
    offered = verify_blocked(np, order, bounds, acc, stats, block, None, exact)
    assert acc.entries() == [(0, float(exact[0]))]
    assert (offered, stats.candidates_verified) == (1, 0)
    assert stats.early_terminated


def _walk(bounds, values, k):
    """The shortcut as a walk: offer in descending bound order, stop before
    the first candidate whose bound cannot beat a full top-k."""
    acc = TopKAccumulator(k)
    offered = 0
    for chunk in vectorized.descending_prefixes(np, bounds, max(2 * k, 64)):
        for node, bound, value in zip(
            chunk.tolist(), bounds[chunk].tolist(), values[chunk].tolist()
        ):
            if acc.is_full and bound <= acc.threshold:
                return acc.entries(), offered, True
            acc.offer(node, value)
            offered += 1
    return acc.entries(), offered, False


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("vector", ["graded", "bits"])
@pytest.mark.parametrize("shape", ["sum", "count", "avg", "weighted"])
def test_the_shortcut_takes_in_one_pass_what_the_walk_took(
    monkeypatch, directed, vector, shape
):
    """Full distribution (``gamma = 0``: ``rest_bound == 0``), AVG over exact
    sizes: Eq. 3's bound is the exact value, so the first ``k`` of its order
    are the walk's offers, ties at rank ``k`` included (the 0/1 copy)."""
    from repro.graph.neighborhood import NeighborhoodSizeIndex

    graph = _graph(directed)
    values = _scores(41)
    if vector == "bits":
        values = [float(v > 0.5) for v in values]
    sizes = NeighborhoodSizeIndex.exact(graph, 2) if shape == "avg" else None
    calls = []
    one_pass = vectorized.verify_blocked

    def spy(np_, order, bounds, acc, stats, block, verify, shortcut_values=None):
        offered = one_pass(np_, order, bounds, acc, stats, block, verify, shortcut_values)
        calls.append((bounds, shortcut_values, acc, stats, offered))
        return offered

    monkeypatch.setattr(vectorized, "verify_blocked", spy)
    tied = 0
    for k in (1, 5, 12, 40, 100, N):  # k = N: nothing left to stop before
        spec = QuerySpec(k, "sum" if shape == "weighted" else shape, 2, True, "numpy")
        if shape == "weighted":
            vectorized.weighted_backward_topk_numpy(graph, values, spec, gamma=0.0)
        else:
            vectorized.backward_topk_numpy(graph, values, spec, gamma=0.0, sizes=sizes)
        bounds, exact, acc, stats, offered = calls[-1]
        assert exact is not None and bounds.tobytes() == exact.tobytes()
        assert (acc.entries(), offered, stats.early_terminated) == _walk(bounds, exact, k)
        assert stats.candidates_verified == 0
        ranked = np.sort(exact)[::-1]
        tied += bool(k < N and ranked[k - 1] == ranked[k])
    if vector == "bits":
        assert tied  # ties at rank k were exercised


# ---------------------------------------------------------------------------
# Threads, budgets, writes
# ---------------------------------------------------------------------------
def _race(target, count=THREADS):
    errors = []

    def guarded(i):
        try:
            target(i)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch mid-get/put, not once a block
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "a verifying thread hung"
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors


def _stored_once(index) -> bool:
    """Every present ball is one run, the runs tile the stored pairs, and
    the byte count is theirs."""
    present = np.flatnonzero(index._start >= 0)
    order = present[np.argsort(index._start[present])]
    starts, sizes = index._start[order], index._size[order]
    tiled = bool((starts == np.cumsum(sizes) - sizes).all())
    stats = index.stats()
    return (
        tiled
        and stats["wide"] == 0
        and stats["bytes"] == 2 * stats["pairs"] == 2 * int(sizes.sum()) == 2 * index._used
    )


class TestSharedStore:
    @pytest.mark.parametrize("budget", [None, 6_000])
    def test_racing_threads_verify_through_one_store(self, budget):
        graph = _graph(False)
        shapes = [(aggregate, k) for aggregate in ("sum", "avg") for k in (3, K, 40)]
        alone = _session(graph, 2, True, budget)
        expected = {
            shape: alone.query("s").algorithm("backward").aggregate(shape[0])
            .limit(shape[1]).run().entries
            for shape in shapes
        }
        single = _ball_stats(alone)
        net = _session(graph, 2, True, budget)
        start = threading.Barrier(THREADS)

        def worker(i):
            start.wait(timeout=30)
            for step in range(len(shapes) * 3):
                shape = shapes[(i + step) % len(shapes)]
                got = net.query("s").algorithm("backward").aggregate(shape[0])
                assert got.limit(shape[1]).run().entries == expected[shape], shape

        _race(worker)
        index = net._ctx.ball_index()
        stats = index.stats()
        assert _stored_once(index)
        if budget is None:
            # Exactly the balls the single-threaded run stored, each once.
            assert (stats["covered"], stats["bytes"]) == (single["covered"], single["bytes"])
            assert stats["hits"] > 0
        else:
            # Closed when full: the balls past the cap are expanded per read.
            assert index._full and 0 < stats["bytes"] <= budget // 2

    def test_racing_threads_on_the_bare_store(self):
        csr = _graph(True).csr()
        scores = np.asarray(_scores(44))
        index = CSRBallIndex(csr, 2, max_bytes=4_000)
        centers = np.arange(N, dtype=np.int64)
        want, _ = NumpyKernels().ball_values(
            np, csr, centers, scores, AggregateKind.SUM, 2, True, TraversalCounter()
        )

        def worker(i):
            kernels = NumpyKernels(index)
            rng = random.Random(i)
            for _ in range(30):
                block = np.asarray(rng.sample(range(N), 32), dtype=np.int64)
                got, _ = kernels.ball_values(
                    np, csr, block, scores, AggregateKind.SUM, 2, True,
                    TraversalCounter(),
                )
                assert got.tobytes() == want[block].tobytes()

        _race(worker)
        stats = index.stats()
        assert _stored_once(index)
        assert 0 < stats["bytes"] <= 4_000 and index._full
        assert stats["hits"] + stats["misses"] == THREADS * 30 * 32

    def test_add_edge_forgets_only_what_it_changed_and_reads_as_a_fresh_session(self):
        base = _graph(False)
        net = _session(DynamicGraph.from_graph(base), 2, True)
        query = net.query("s").algorithm("backward").aggregate("avg").limit(K)
        query.run()
        net.topk_weighted("s", K, algorithm="backward")
        kept = net._ctx.ball_index()
        assert kept.covered > 0 and kept._labelled.any()
        u, v = next(
            (u, v) for u in range(N) for v in range(u + 1, N) if not base.has_edge(u, v)
        )
        reach = edge_write_reach(DynamicGraph.from_graph(base).csr(), u, v, 2)
        present = kept._start >= 0
        net.add_edge(u, v)
        reach = np.union1d(reach, edge_write_reach(net.graph.csr(), u, v, 2))
        # The same index, bound to the patched CSR: the balls within one hop
        # of an endpoint are gone (labels too), every other one stayed.
        assert net._ctx.ball_index() is kept and kept.csr is net.graph.csr()
        assert not (kept._start[reach] >= 0).any() and not kept._labelled[reach].any()
        survivors = present.copy()
        survivors[reach] = False
        assert np.array_equal(kept._start >= 0, survivors)
        assert _ball_stats(net)["covered"] == int(survivors.sum())
        after = query.run()
        after_weighted = net.topk_weighted("s", K, algorithm="backward")
        assert net._ctx.ball_index() is kept
        fresh = _session(net.graph.snapshot(), 2, True)
        fresh_query = fresh.query("s").algorithm("backward").aggregate("avg").limit(K)
        assert after.entries == fresh_query.run().entries
        assert after_weighted.entries == fresh.topk_weighted(
            "s", K, algorithm="backward"
        ).entries
        # Every ball the kept index holds, and every label, is the fresh
        # graph's.
        held = np.flatnonzero(kept._start >= 0)
        labelled = held[kept._labelled[held]]
        for centers, labels in ((held, False), (labelled, True)):
            want = batched_hop_balls_with_distances(net.graph.csr(), centers, 2)[:-1]
            got = kept.pairs(centers, labels=labels)
            for column, expected in zip(got, want):
                assert np.array_equal(column, expected)
