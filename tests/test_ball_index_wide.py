"""The ball index's escape path: balls with a step of 2**16 or more.

:class:`~repro.graph.csr.CSRBallIndex` stores a ball as ``uint16`` steps
between consecutive members; a ball with a step that does not fit is kept
whole, as int32, in a side table.  Dense test graphs never have such a step
(it needs more than 65,536 nodes), so the graphs here are sparse ones of
about 70,000 nodes whose few hundred edges join low and high node ids: most
touched balls straddle 2**16, the rest are narrow, and untouched nodes have
singleton or empty balls.  Scores are arbitrary floats and every comparison
is on raw bytes.  Covered: every aggregate and weighted sums, warm against
cold, over hops 1-3, both ball conventions, directed and undirected; the
exact byte count (2 a pair, 4 more for a side-table pair); a block that
mixes wide, narrow and absent balls; ``forget`` of a wide ball and its
refill; compaction while wide balls are live; racing fills; and a property
round trip of random sorted runs whose steps straddle 2**16.
"""

from __future__ import annotations

import functools
import os
import random
import sys
import threading

import pytest

from repro import Network
from repro.aggregates.functions import AggregateKind
from repro.aggregates.weighted import inverse_distance, precompute_weights
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter

np = pytest.importorskip("numpy")

from repro.core.vectorized import NumpyKernels  # noqa: E402
from repro.graph.csr import (  # noqa: E402
    CSRBallIndex,
    CSRGraph,
    batched_hop_balls,
    batched_hop_balls_with_distances,
    to_csr,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - exercised without hypothesis
    given = settings = st = None

THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "4"))
#: Past 2**16 by enough that a low node and a high node are a wide step apart.
N = 70_000
LOW, HIGH = 400, N - 400
#: Edges whose one step is exactly the largest narrow one and the smallest
#: wide one (from their low endpoint's ball, with the center in it).
EDGE_NARROW, EDGE_WIDE = (1_000, 1_000 + 0xFFFF), (1_001, 1_001 + 0x10000)
KINDS = tuple(AggregateKind)
VIEWS = [
    (directed, hops, include_self)
    for directed in (False, True)
    for hops in (1, 2, 3)
    for include_self in (True, False)
]


def _graph(directed: bool, seed: int = 5) -> Graph:
    """~300 edges: within the low ids, within the high ids, and across."""
    rng = random.Random(seed)
    edges = {EDGE_NARROW, EDGE_WIDE}
    while len(edges) < 300:
        u = rng.randrange(LOW)
        v = rng.randrange(LOW) if rng.random() < 0.3 else rng.randrange(HIGH, N)
        if u != v:
            edges.add((u, v) if directed or u < v else (v, u))
    if directed:  # some arcs from high to low, so high balls straddle too
        edges |= {(v, u) for u, v in sorted(edges)[::3] if v >= HIGH}
    return Graph.from_edges(sorted(edges), num_nodes=N, directed=directed)


@functools.lru_cache(maxsize=None)
def _csr(directed: bool):
    """The graph's CSR view, built once a direction (it is never written)."""
    return to_csr(_graph(directed), use_numpy=True)


def _centers(csr, seed: int = 1):
    """Every touched node, the boundary ends and a few untouched ones, shuffled."""
    touched = np.flatnonzero(np.diff(csr.indptr))
    if csr.directed:  # nodes only reached are touched too
        touched = np.union1d(touched, csr.indices)
    lonely = np.arange(LOW + 5, HIGH, 4_000, dtype=np.int64)
    centers = np.concatenate([touched, lonely]).astype(np.int64)
    return np.random.default_rng(seed).permutation(centers)


def _scores(seed: int):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(N) < 0.6, rng.random(N), 0.0)


def _expand(csr, hops, include_self, labels=False):
    kernel = batched_hop_balls_with_distances if labels else batched_hop_balls
    return lambda block: kernel(csr, block, hops, include_self=include_self)[:-1]


def _fill(index, csr, centers, block=64):
    expand = _expand(csr, index.hops, index.include_self)
    for lo in range(0, centers.size, block):
        index.pairs(centers[lo : lo + block], expand)


def _side_pairs(index) -> int:
    return sum(int(ball.size) for ball in index._side.values())


def _check(index, csr, centers, labels=False):
    """``centers`` read back exactly as a fresh expansion returns them."""
    want = _expand(csr, index.hops, index.include_self, labels)(centers)
    got = index.pairs(centers, labels=labels)
    assert got is not None
    for column, expected in zip(got, want):
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# The graphs really exercise the side table
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("directed", [False, True])
def test_the_boundary_steps_land_on_either_side(directed):
    csr = _csr(directed)
    index = CSRBallIndex(csr, 1)
    _fill(index, csr, np.asarray([EDGE_NARROW[0], EDGE_WIDE[0]], dtype=np.int64))
    assert not index._wide[EDGE_NARROW[0]] and index._wide[EDGE_WIDE[0]]
    stats = index.stats()
    assert (stats["covered"], stats["pairs"], stats["wide"]) == (2, 4, 1)
    assert stats["bytes"] == 2 * 4 + 4 * 2
    _check(index, csr, np.asarray([EDGE_WIDE[0], EDGE_NARROW[0]], dtype=np.int64))


@pytest.mark.parametrize("directed,hops,include_self", VIEWS)
def test_bytes_are_two_a_pair_plus_the_side_table(directed, hops, include_self):
    csr = _csr(directed)
    centers = _centers(csr)
    index = CSRBallIndex(csr, hops, include_self=include_self)
    _fill(index, csr, centers)
    stats = index.stats()
    members = batched_hop_balls(csr, centers, hops, include_self=include_self)[1]
    assert stats["covered"] == centers.size and stats["pairs"] == members.size
    assert 0 < stats["wide"] < stats["covered"]
    assert stats["bytes"] == 2 * stats["pairs"] + 4 * _side_pairs(index)
    _check(index, csr, centers)
    _check(index, csr, np.sort(centers))


# ---------------------------------------------------------------------------
# Warm reads equal cold ones, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("directed,hops,include_self", VIEWS)
def test_ball_values_warm_equal_cold(directed, hops, include_self, kind):
    csr = _csr(directed)
    centers = _centers(csr)
    scores = _scores(7)
    if kind is AggregateKind.COUNT:  # COUNT callers pass the 0/1 indicator
        scores = (scores > 0).astype(np.float64)
    index = CSRBallIndex(csr, hops, include_self=include_self)

    def read(kernels, block, counter):
        return kernels.ball_values(
            np, csr, block, scores, kind, hops, include_self, counter, want_sizes=True
        )

    cold_values, cold_sizes = read(NumpyKernels(), centers, TraversalCounter())
    for block in (64, 1_000):
        for lo in range(0, centers.size, block):
            part = centers[lo : lo + block]
            counter = TraversalCounter()
            values, sizes = read(NumpyKernels(index), part, counter)
            assert values.tobytes() == cold_values[lo : lo + block].tobytes()
            assert sizes.tobytes() == cold_sizes[lo : lo + block].tobytes()
            if block == 1_000:  # the second pass: every ball is a hit
                assert counter.edges_scanned == 0 and counter.balls_expanded == 0
    assert index.stats()["wide"] > 0


@pytest.mark.parametrize("directed,hops,include_self", VIEWS)
def test_weighted_sums_warm_equal_cold(directed, hops, include_self):
    csr = _csr(directed)
    centers = _centers(csr)
    scores = _scores(8)
    weights = np.asarray(precompute_weights(inverse_distance, hops))
    index = CSRBallIndex(csr, hops, include_self=include_self)
    _fill(index, csr, centers[: centers.size // 2])  # half stored without labels

    def read(kernels, block, counter):
        return kernels.weighted_ball_sums(
            np, csr, block, scores, weights, hops, include_self, counter
        )

    cold = read(NumpyKernels(), centers, TraversalCounter())
    for _ in range(2):
        warm = read(NumpyKernels(index), centers, TraversalCounter())
        assert warm.tobytes() == cold.tobytes()
    stats = index.stats()
    assert stats["wide"] > 0 and int(index._labelled.sum()) == stats["covered"]
    assert stats["bytes"] == 3 * stats["pairs"] + 4 * _side_pairs(index)
    _check(index, csr, centers, labels=True)


# ---------------------------------------------------------------------------
# Mixed blocks, forget, compaction, racing fills
# ---------------------------------------------------------------------------
def _wide_and_narrow(index, csr, centers):
    """Fill ``centers`` and split them into the wide and the narrow ones."""
    _fill(index, csr, centers)
    wide = centers[index._wide[centers]]
    narrow = centers[~index._wide[centers]]
    assert wide.size >= 8 and narrow.size >= 8
    return wide, narrow


@pytest.mark.parametrize("directed", [False, True])
def test_a_block_mixes_wide_narrow_and_absent_balls(directed):
    csr = _csr(directed)
    centers = _centers(csr)
    probe = CSRBallIndex(csr, 2)
    wide, narrow = _wide_and_narrow(probe, csr, centers)
    index = CSRBallIndex(csr, 2)
    present = np.concatenate([wide[::2], narrow[::2]])
    _fill(index, csr, present)
    absent = np.concatenate([wide[1::2], narrow[1::2]])
    block = np.random.default_rng(3).permutation(np.concatenate([present, absent]))
    before = index.stats()
    got = index.pairs(block, _expand(csr, 2, True))
    want = batched_hop_balls(csr, block, 2)[:2]
    for column, expected in zip(got, want):
        assert column.tobytes() == expected.tobytes()
    after = index.stats()
    assert after["hits"] - before["hits"] == present.size
    assert after["misses"] - before["misses"] == absent.size
    assert after["wide"] == probe.stats()["wide"] == wide.size
    # Every ball is a hit now, and a wide one first or last in a block reads
    # back as well as one in the middle.
    _check(index, csr, block)
    _check(index, csr, np.concatenate([wide[:1], narrow[:3], wide[1:2]]))


@pytest.mark.parametrize("include_self", [True, False])
def test_forget_a_wide_ball_then_refill(include_self):
    csr = _csr(False)
    centers = _centers(csr)
    index = CSRBallIndex(csr, 2, include_self=include_self)
    wide, narrow = _wide_and_narrow(index, csr, centers)
    full = index.stats()
    gone = wide[:3]
    index.forget(gone, csr)
    dropped = index.stats()
    assert dropped["wide"] == full["wide"] - 3 and not index._wide[gone].any()
    assert dropped["covered"] == full["covered"] - 3
    assert index.pairs(gone) is None
    _check(index, csr, np.concatenate([wide[3:], narrow]))
    counter = TraversalCounter()
    scores = _scores(9)
    values, _ = NumpyKernels(index).ball_values(
        np, csr, centers, scores, AggregateKind.SUM, 2, include_self, counter
    )
    cold, _ = NumpyKernels().ball_values(
        np, csr, centers, scores, AggregateKind.SUM, 2, include_self, TraversalCounter()
    )
    assert values.tobytes() == cold.tobytes() and counter.balls_expanded == 3
    refilled = index.stats()
    assert (refilled["covered"], refilled["wide"]) == (full["covered"], full["wide"])
    assert refilled["bytes"] == 2 * index._used + 4 * _side_pairs(index)
    _check(index, csr, centers)


def test_compaction_while_wide_balls_are_live():
    csr = _csr(False)
    centers = _centers(csr)
    index = CSRBallIndex(csr, 3)
    wide, narrow = _wide_and_narrow(index, csr, centers)
    live = np.concatenate([wide[:6], narrow[-4:]])
    side = {node: index._side[node] for node in wide[:6].tolist()}
    # Drop all other balls: garbage outweighs the live pairs, so it compacts.
    index.forget(np.setdiff1d(centers, live), csr)
    assert index._used == index._live == int(index._size[live].sum())
    held = np.flatnonzero(index._start >= 0)
    starts = np.sort(index._start[held])
    assert starts[0] == 0 and index.covered == live.size
    # The side table is per node: compaction moved runs, not wide balls.
    assert index._side.keys() == side.keys()
    assert all(index._side[node] is side[node] for node in side)
    stats = index.stats()
    assert stats["bytes"] == 2 * stats["pairs"] + 4 * _side_pairs(index)
    _check(index, csr, np.random.default_rng(4).permutation(live))
    _fill(index, csr, centers)
    assert index.covered == centers.size
    _check(index, csr, centers)


def test_a_capped_index_counts_the_side_table():
    csr = _csr(False)
    centers = _centers(csr)
    everything = CSRBallIndex(csr, 2)
    _fill(everything, csr, centers)
    total = everything.stats()["bytes"]
    index = CSRBallIndex(csr, 2, max_bytes=total // 2)
    _fill(index, csr, centers)
    stats = index.stats()
    assert index._full and 0 < stats["covered"] < centers.size
    assert stats["wide"] > 0 and stats["bytes"] <= total // 2
    assert stats["bytes"] == 2 * index._used + 4 * _side_pairs(index)
    held = centers[index._start[centers] >= 0]
    _check(index, csr, held)


def test_racing_fills_encode_and_append_side_table_balls():
    csr = _csr(True)
    centers = _centers(csr)
    index = CSRBallIndex(csr, 2)
    errors = []

    def fill(seed, block):
        try:
            order = np.random.default_rng(seed).permutation(centers)
            _fill(index, csr, order, block)
            _check(index, csr, order)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    blocks = (7, 16, 33, 64)
    threads = [
        threading.Thread(target=fill, args=(seed, blocks[seed % len(blocks)]))
        for seed in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors, errors
    alone = CSRBallIndex(csr, 2)
    _fill(alone, csr, centers)
    stats, single = index.stats(), alone.stats()
    for key in ("covered", "pairs", "wide", "bytes"):
        assert stats[key] == single[key], key
    assert index._side.keys() == alone._side.keys()
    _check(index, csr, centers)


def test_a_session_scan_reads_wide_balls_back():
    graph = _graph(False)
    net = Network(graph, hops=2)
    net.add_scores("s", _scores(10).tolist())
    query = net.query("s").algorithm("base").limit(20)
    cold = query.run()
    warm = query.run()
    assert warm.entries == cold.entries
    assert warm.stats.edges_scanned == 0 < cold.stats.edges_scanned
    stats = net._ctx.cache_stats()["ball_cache"]
    assert stats["covered"] == N and stats["wide"] > 0
    assert stats["bytes"] == 2 * stats["pairs"] + 4 * _side_pairs(net._ctx.ball_index())
    net.close()


# ---------------------------------------------------------------------------
# Property: any sorted runs round-trip
# ---------------------------------------------------------------------------
#: Steps at and around the uint16 limit, and ordinary ones.
STEPS = [1, 2, 3, 0xFFFE, 0xFFFF, 0x10000, 0x10001, 0x2FFFF]


def _round_trip_property(data):
    count = data.draw(st.integers(1, 12), label="balls")
    runs = []
    for i in range(count):
        head = data.draw(st.integers(0, 1 << 20), label=f"head{i}")
        steps = data.draw(
            st.lists(
                st.one_of(st.sampled_from(STEPS), st.integers(1, 0x20000)), max_size=6
            ),
            label=f"steps{i}",
        )
        empty = data.draw(st.booleans(), label=f"empty{i}") and not steps
        runs.append([] if empty else np.cumsum([head] + steps).tolist())
    nodes = count + 3
    csr = CSRGraph(
        indptr=np.zeros(nodes + 1, dtype=np.int64),
        indices=np.empty(0, dtype=np.int32),
        weights=None,
        directed=False,
    )
    centers = np.asarray(
        data.draw(st.permutations(range(nodes)), label="centers")[:count], dtype=np.int64
    )
    owners = np.repeat(np.arange(count), [len(run) for run in runs])
    members = np.asarray([m for run in runs for m in run], dtype=np.intp)
    dists = np.asarray([d % 3 for d in range(members.size)], dtype=np.intp)
    index = CSRBallIndex(csr, 2)
    split = data.draw(st.integers(0, count), label="split")
    head_part = slice(0, int(owners.searchsorted(split)))
    index.extend(centers[:split], owners[head_part], members[head_part], dists[head_part])
    index.extend(
        centers[split:], owners[head_part.stop :] - split,
        members[head_part.stop :], dists[head_part.stop :],
    )
    wide = sum(1 for run in runs if any(b - a > 0xFFFF for a, b in zip(run, run[1:])))
    side = sum(len(run) for run in runs if any(b - a > 0xFFFF for a, b in zip(run, run[1:])))
    stats = index.stats()
    assert (stats["covered"], stats["pairs"], stats["wide"]) == (count, members.size, wide)
    assert stats["bytes"] == 3 * members.size + 4 * side
    order = np.asarray(data.draw(st.permutations(range(count)), label="order"))
    got_owners, got_members, got_dists = index.pairs(centers[order], labels=True)
    assert got_members.dtype == np.intp and got_owners.dtype == np.intp
    want = [runs[i] for i in order.tolist()]
    assert got_members.tolist() == [m for run in want for m in run]
    assert got_owners.tolist() == [i for i, run in enumerate(want) for _ in run]
    labels = [dists[owners == i].tolist() for i in order.tolist()]
    assert got_dists.tolist() == [d for run in labels for d in run]


if st is not None:
    test_sorted_runs_round_trip = settings(max_examples=150, deadline=None)(
        given(data=st.data())(_round_trip_property)
    )
else:  # pragma: no cover - exercised without hypothesis

    @pytest.mark.skip(reason="hypothesis not installed")
    def test_sorted_runs_round_trip():
        pass
