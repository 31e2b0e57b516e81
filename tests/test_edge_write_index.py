"""An edge write keeps the session's ball index and forgets only what it changed.

``Network.add_edge`` / ``remove_edge`` run the write through
``GraphContext.edge_write``: the node-keyed
:class:`~repro.graph.csr.CSRBallIndex` stays, rebound to the patched CSR,
with ``start[w] = -1`` (labels cleared) for every ``w`` within ``h - 1`` hops
of an endpoint on the CSR that has the arc
(:func:`~repro.graph.csr.edge_write_reach`); the differential index is
dropped and read off that ball index at the next forward read; and the
estimated ``N(v)`` table is patched row by row
(:func:`~repro.graph.neighborhood.patch_csr_estimates`).

Covered, after *every* step of random insert/delete sequences over hops 1-3,
both ball conventions, directed and undirected: every present ball (and
every hop label a weighted read wrote) equals a fresh expansion over the
current CSR; answers equal a fresh session's; the differential index a
forward read rebuilds equals a fresh Python build, delta for delta and N
for N; the patched estimates equal
``csr_estimates`` of the current CSR (also chained over hypothesis-drawn
sequences, with nothing in between to repair a wrong row).  Compaction keeps
resident bytes at most twice the live pairs and reopens a closed index.  A
context that missed a mutation falls back to a full invalidation; a write
that fails keeps everything.  Readers — base, backward and forward — race
writers under the write guard; a dense ``auto`` read after a write equals
``base``.
Scores are arbitrary floats; answers compare with ``==``.
"""

from __future__ import annotations

import os
import random
import sys
import threading

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro import Network  # noqa: E402
from repro.dynamic.graph import DynamicGraph  # noqa: E402
from repro.graph.csr import (  # noqa: E402
    CSRBallIndex,
    batched_hop_balls,
    batched_hop_balls_with_distances,
    edge_write_reach,
)
from repro.graph.diffindex import _set_build  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402
from repro.graph.neighborhood import csr_estimates, patch_csr_estimates  # noqa: E402

THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "4"))
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "3"))
N = 160
VIEWS = [
    (directed, hops, include_self)
    for directed in (False, True)
    for hops in (1, 2, 3)
    for include_self in (True, False)
]


def _graph(directed: bool, seed: int = 3, n: int = N) -> DynamicGraph:
    """About two edges a node; the last 10 nodes touch none."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 2 * n:
        u, v = rng.randrange(n - 10), rng.randrange(n - 10)
        if u != v:
            edges.add((u, v) if directed else (min(u, v), max(u, v)))
    return DynamicGraph.from_edges(sorted(edges), num_nodes=n, directed=directed)


def _scores(seed: int, n: int = N):
    """Non-dyadic floats, a third zero."""
    rng = random.Random(seed)
    return [rng.random() if rng.random() < 0.67 else 0.0 for _ in range(n)]


def _session(graph, hops, include_self):
    net = Network(graph, hops=hops, include_self=include_self, backend="numpy")
    net.add_scores("s", _scores(41, graph.num_nodes))
    return net


def _fresh(net):
    graph = Graph.from_edges(
        list(net.graph.edges()), num_nodes=net.graph.num_nodes, directed=net.graph.directed
    )
    return _session(graph, net.hops, net.include_self)


def _reads(net):
    return (
        net.query("s").algorithm("base").limit(8).run().entries,
        net.query("s").algorithm("backward").aggregate("avg").limit(8).run().entries,
        net.topk_weighted("s", 8, algorithm="backward").entries,
    )


def _check_index(index, csr, hops, include_self):
    """Every present ball, and every label, is the current graph's."""
    assert index.csr is csr
    held = np.flatnonzero(index._start >= 0)
    assert index.covered == held.size
    assert index._live == int(index._size[held].sum())
    if held.size:
        owners, members, _ = batched_hop_balls(csr, held, hops, include_self=include_self)
        got = index.pairs(held)
        assert np.array_equal(got[0], owners) and np.array_equal(got[1], members)
    if index._labelled is not None:
        labelled = np.flatnonzero(index._labelled)
        assert (index._start[labelled] >= 0).all()
        if labelled.size:
            want = batched_hop_balls_with_distances(
                csr, labelled, hops, include_self=include_self
            )
            got = index.pairs(labelled, labels=True)
            for column, expected in zip(got, want[:-1]):
                assert np.array_equal(column, expected)


def _random_edit(net, rng):
    """Insert a missing edge or delete a present one; returns ``(u, v)``."""
    graph = net.graph
    if rng.random() < 0.5:
        u, v = rng.choice(list(graph.edges()))
        net.remove_edge(u, v)
    else:
        u, v = rng.randrange(N), rng.randrange(N)
        while u == v or graph.has_edge(u, v):
            u, v = rng.randrange(N), rng.randrange(N)
        net.add_edge(u, v)
    return u, v


# ---------------------------------------------------------------------------
# Through the session
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("directed,hops,include_self", VIEWS)
def test_every_kept_ball_is_the_current_graphs_after_every_write(
    directed, hops, include_self
):
    net = _session(_graph(directed), hops, include_self)
    rng = random.Random(hops * 10 + include_self + 2 * directed)
    _reads(net)
    index = net._ctx.ball_index()
    views = net.graph.rev_csr if directed else net.graph.csr
    for step in range(25):
        before = views()
        u, v = _random_edit(net, rng)
        csr = net.graph.csr()
        assert net._ctx.ball_index() is index
        _check_index(index, csr, hops, include_self)
        # Every ball within reach of the write is gone.
        reach = np.union1d(
            edge_write_reach(views(), u, v, hops), edge_write_reach(before, u, v, hops)
        )
        assert not (index._start[reach] >= 0).any()
        upper, lower = csr_estimates(csr, hops, include_self=include_self)
        sizes = net._ctx.estimated_sizes()
        assert np.array_equal(sizes.upper_values(), upper)
        assert np.array_equal(sizes.lower_values(), lower)
        if step % 5 == 4:
            assert _reads(net) == _reads(_fresh(net))
            _check_index(index, csr, hops, include_self)


def test_a_write_charges_only_the_forgotten_balls():
    net = _session(_graph(False), 2, True)
    scan = net.query("s").algorithm("base").limit(8)
    cold = scan.run()
    assert cold.stats.balls_expanded == N
    u, v = next((u, v) for u in range(N) for v in range(u + 1, N) if not net.graph.has_edge(u, v))
    net.add_edge(u, v)
    forgotten = N - net._ctx.cache_stats()["ball_cache"]["covered"]
    assert forgotten == edge_write_reach(net.graph.csr(), u, v, 2).size
    warm = scan.run()
    assert warm.stats.balls_expanded == forgotten < N
    assert warm.entries == _fresh(net).query("s").algorithm("base").limit(8).run().entries


def test_a_context_that_missed_a_write_is_invalidated_whole():
    graph = _graph(False)
    net = _session(graph, 2, True)
    view = net.maintain("s")
    _reads(net)
    index = net._ctx.ball_index()
    node = view.add_node()  # behind the context's back: it is now stale
    net.add_scores("s", view.scores)
    net.add_edge(node, 0)
    assert net._ctx._ball_index is None and net._ctx._estimated_sizes is None
    assert net._ctx.ball_index() is not index
    assert _reads(net) == _reads(_fresh(net))


def test_a_failed_write_keeps_everything():
    net = _session(_graph(False), 2, True)
    _reads(net)
    index, sizes = net._ctx.ball_index(), net._ctx.estimated_sizes()
    u, v = next(iter(net.graph.edges()))
    with pytest.raises(Exception):
        net.add_edge(u, v)  # already present
    assert net._ctx.ball_index() is index and net._ctx.estimated_sizes() is sizes
    _check_index(index, net.graph.csr(), 2, True)


# ---------------------------------------------------------------------------
# The differential index: dropped, and read off the ball index again
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("directed,hops,include_self", VIEWS)
def test_the_differential_index_is_rebuilt_off_the_ball_index_after_every_write(
    directed, hops, include_self
):
    net = _session(_graph(directed), hops, include_self)
    net.build_indexes()
    rng = random.Random(hops * 10 + include_self + 2 * directed)
    forward = net.query("s").algorithm("forward").limit(8)
    for step in range(25):
        _random_edit(net, rng)
        assert net.diff_index is None
        got = forward.run().entries
        index = net.diff_index
        index.check_compatible(net.graph, hops, include_self)
        want = _set_build(net.graph, hops, include_self=include_self)
        assert index.deltas.tolist() == list(want.deltas)
        assert index.sizes.upper_values().tolist() == list(want.sizes.upper_values())
        if step % 5 == 4:
            assert got == _fresh(net).query("s").algorithm("forward").limit(8).run().entries


def test_a_dense_auto_read_after_a_write_equals_base():
    net = Network(_graph(False), hops=2, backend="numpy")
    rng = random.Random(8)
    net.add_scores("dense", [0.05 + 0.95 * rng.random() for _ in range(N)])
    net.build_indexes()
    for _ in range(6):
        _random_edit(net, rng)
        auto = net.query("dense").limit(8).run()
        assert auto.entries == net.query("dense").algorithm("base").limit(8).run().entries


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("capped", [False, True])
def test_compaction_keeps_bytes_within_twice_live_and_reopens(capped):
    graph = _graph(False)
    csr = graph.csr()
    everything = np.arange(N, dtype=np.int64)
    full_pairs = batched_hop_balls(csr, everything, 2)[1].size
    cap = (5 * full_pairs) // 4 if capped else None  # ~60 % fits: it closes
    index = CSRBallIndex(csr, 2, max_bytes=cap)

    def expand(block, labels=False):
        kernel = batched_hop_balls_with_distances if labels else batched_hop_balls
        return kernel(csr, block, 2)[:-1]

    index.pairs(everything, expand)
    index.pairs(everything[:40], lambda b: expand(b, True), labels=True)
    if capped:
        assert index._full and index.covered < N
    rng = random.Random(4)
    reopened = 0
    for _ in range(30):
        closed = index._full
        forgotten = np.asarray(rng.sample(range(N), 12), dtype=np.int64)
        index.forget(forgotten, csr)
        stats = index.stats()
        assert stats["bytes"] <= 2 * index._live * index._pair_bytes()
        assert not (index._start[forgotten] >= 0).any()
        _check_index(index, csr, 2, True)
        reopened += closed and not index._full
        # Refill: an open index (never closed, or reopened by compaction)
        # takes balls again; a closed one takes none.
        covered, was_open = index.covered, not index._full
        index.pairs(everything, expand)
        index.pairs(everything[:40], lambda b: expand(b, True), labels=True)
        assert index.covered > covered if was_open else index.covered == covered
        if not capped:
            assert index.covered == N
        _check_index(index, csr, 2, True)
    if capped:
        assert reopened and index.stats()["bytes"] <= cap


def test_forgetting_rebinds_and_compacts_in_buffer_order():
    graph = _graph(False)
    csr = graph.csr()
    index = CSRBallIndex(csr, 2)
    centers = np.arange(N, dtype=np.int64)
    index.pairs(centers, lambda b: batched_hop_balls(csr, b, 2)[:-1])
    graph.add_edge(N - 1, 0)
    index.forget(edge_write_reach(graph.csr(), N - 1, 0, 2), graph.csr())
    assert index.serves(graph.csr(), 2, True) and not index.serves(csr, 2, True)
    index.forget(np.arange(N // 2, dtype=np.int64), graph.csr())  # compacts
    assert index._used == index._live
    held = np.flatnonzero(index._start >= 0)
    starts = index._start[held]
    # The survivors keep their relative order, packed from zero.
    assert starts[0] == 0 and (np.diff(starts) == index._size[held][:-1]).all()
    _check_index(index, graph.csr(), 2, True)


# ---------------------------------------------------------------------------
# The estimates, chained write after write
# ---------------------------------------------------------------------------
STEPS = st.lists(
    st.tuples(
        st.booleans(), st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(
    steps=STEPS,
    nodes=st.integers(min_value=2, max_value=12),
    directed=st.booleans(),
    hops=st.integers(min_value=1, max_value=3),
    include_self=st.booleans(),
)
def test_patched_estimates_equal_a_rebuild_after_every_step(
    steps, nodes, directed, hops, include_self
):
    graph = DynamicGraph([[] for _ in range(nodes)], directed=directed)
    upper, lower = csr_estimates(graph.csr(), hops, include_self=include_self)
    for insert, a, b in steps:
        edges = list(graph.edges())
        old = graph.csr()
        if insert or not edges:
            u, v = a % nodes, b % nodes
            if u == v or graph.has_edge(u, v):
                continue
            graph.add_edge(u, v)
        else:
            u, v = edges[a % len(edges)]
            graph.remove_edge(u, v)
        upper, lower = patch_csr_estimates(
            upper, lower, old, graph.csr(), u, v, hops, include_self=include_self
        )
        want_upper, want_lower = csr_estimates(graph.csr(), hops, include_self=include_self)
        assert np.array_equal(upper, want_upper) and np.array_equal(lower, want_lower)


# ---------------------------------------------------------------------------
# Readers against writers
# ---------------------------------------------------------------------------
def test_racing_reads_and_writes_leave_every_ball_current():
    """Readers run under the service's read lock and edge writes take the
    write guard, so a read sees the index bound to the CSR it reads: every
    answer is the graph's with or without the toggled edge, and every ball
    kept at the end is the final graph's."""
    net = _session(_graph(False), 2, True)
    reads = {
        "base": net.query("s").algorithm("base").limit(8),
        "backward": net.query("s").algorithm("backward").limit(8),
        "avg": net.query("s").algorithm("backward").aggregate("avg").limit(8),
    }

    def answers():
        return {tag: builder.run().entries for tag, builder in reads.items()}

    without = answers()
    u, v = next((u, v) for u in range(N) for v in range(u + 1, N) if not net.graph.has_edge(u, v))
    net.add_edge(u, v)
    with_edge = answers()
    net.remove_edge(u, v)
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
        for _ in range(ROUNDS * 6):
            handles = [
                (tag, builder.submit(cached=False))
                for tag, builder in reads.items()
                for _ in range(THREADS)
            ]
            for tag, handle in handles:
                assert handle.result(timeout=30).entries in (without[tag], with_edge[tag]), tag
    finally:
        stop.set()
        writer.join(timeout=10)
        sys.setswitchinterval(interval)
        net.service().shutdown()
    assert not writer.is_alive() and not errors, errors
    if net.graph.has_edge(u, v):
        net.remove_edge(u, v)
    assert answers() == without
    _check_index(net._ctx.ball_index(), net.graph.csr(), 2, True)


def test_forward_reads_racing_writes_read_one_side_of_the_edge():
    """A forward read builds or takes the differential index under the
    context lock and an edge write drops it under the write guard: every
    answer is the graph's with or without the toggled edge."""
    net = _session(_graph(False), 2, True)
    net.build_indexes()
    forward = net.query("s").algorithm("forward").limit(8)
    base = net.query("s").algorithm("base").limit(8)
    u, v = next((u, v) for u in range(N) for v in range(u + 1, N) if not net.graph.has_edge(u, v))
    without = forward.run().entries
    assert without == base.run().entries
    net.add_edge(u, v)
    with_edge = forward.run().entries
    assert with_edge == base.run().entries
    net.remove_edge(u, v)

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
        for _ in range(ROUNDS * 6):
            handles = [forward.submit(cached=False) for _ in range(THREADS)]
            for handle in handles:
                assert handle.result(timeout=30).entries in (without, with_edge)
    finally:
        stop.set()
        writer.join(timeout=10)
        sys.setswitchinterval(interval)
        net.service().shutdown()
    assert not writer.is_alive() and not errors, errors
    if net.graph.has_edge(u, v):
        net.remove_edge(u, v)
    assert forward.run().entries == without
    want = _set_build(net.graph, 2)
    assert net.diff_index.deltas.tolist() == list(want.deltas)
