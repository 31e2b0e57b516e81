"""The ball index's high runs: balls whose members' high parts differ.

:class:`~repro.graph.csr.CSRBallIndex` stores each pair's low 16 bits and,
a ball at a time, the runs of its members' high parts (``member >> 16``):
the first high value and one count a value up to the last, 0 for a value
the ball skips.  Dense test graphs never have a member past 2**16 (that
needs more than 65,536 nodes), so the graphs here are sparse: one of 70,000
nodes whose few hundred edges join low ids to ids past 2**16 (balls of one
or two runs), and one of 200,000 nodes whose edges also reach past
2 * 2**16 and 3 * 2**16 (balls of up to four runs, most far ones skipping
a value), with the boundary members 0xFFFF, 0x10000 and 0x1FFFF.
Untouched nodes have singleton or empty balls.  Scores are arbitrary floats
and every comparison is on raw bytes.  Covered: the exact run layout of the
boundary balls; every ball read back, without and with hop labels, as
:func:`batched_hop_balls` and :func:`batched_hop_balls_with_distances`
return it over hops 1-3, both ball conventions, directed and undirected;
labels added in place; every aggregate and weighted sums, warm against
cold; the exact byte count (2 a pair, 4 a run) and a cap the run table
alone closes; a block that mixes single-run, multi-run and absent balls;
``forget`` of multi-run balls and their refill; compaction while they are
live; racing fills; and a property round trip of random sorted runs around
multiples of 2**16.
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
#: Node ids the random edges join, per graph size: every edge has one end
#: in the first band (high part 0) and the other in it or a later band.
BANDS = {
    70_000: ((0, 400), (69_600, 70_000)),
    200_000: ((0, 400), (0xFFFF - 200, 0x10000 + 200), (0x20000, 0x20040), (199_600, 200_000)),
}
#: Band weights of the far ends: high part 2 is rare, so most balls that
#: reach high part 3 skip it (a zero count).
WEIGHTS = {70_000: (3, 7), 200_000: (3, 4, 1, 4)}
SIZES = tuple(BANDS)
#: Arcs that pin runs at the boundaries, from centers no random edge
#: touches: high parts (0, 0, 1), (0, 1, 2), (0, 3) and (1, 1) with the
#: center in its ball.
BOUNDARY = {
    40_000: (0xFFFF, 0x10000),
    40_001: (0x1FFFF, 0x20000),
    40_002: (199_999,),
    0x10000: (0x1FFFF,),
}
KINDS = tuple(AggregateKind)
VIEWS = [
    (directed, hops, include_self)
    for directed in (False, True)
    for hops in (1, 2, 3)
    for include_self in (True, False)
]


def _graph(n: int, directed: bool, seed: int = 5) -> Graph:
    """~300 random edges out of the first band, plus the boundary arcs
    whose ends exist in a graph of ``n`` nodes."""
    rng = random.Random(seed)
    bands = BANDS[n]
    edges = set()
    while len(edges) < 300:
        u = rng.randrange(*bands[0])
        v = rng.randrange(*rng.choices(bands, WEIGHTS[n])[0])
        if u != v:
            edges.add((u, v) if directed or u < v else (v, u))
    if directed:  # some arcs back from the far ends, so far balls straddle too
        edges |= {(v, u) for u, v in sorted(edges)[::3] if v >= bands[0][1]}
    edges |= {(c, m) for c, ms in BOUNDARY.items() for m in ms if max(c, m) < n}
    return Graph.from_edges(sorted(edges), num_nodes=n, directed=directed)


@functools.lru_cache(maxsize=None)
def _csr(n: int, directed: bool):
    """The graph's CSR view, built once a size and direction (never written)."""
    return to_csr(_graph(n, directed), use_numpy=True)


def _centers(csr, seed: int = 1):
    """Every touched node and a few untouched ones, shuffled."""
    touched = np.flatnonzero(np.diff(csr.indptr))
    if csr.directed:  # nodes only reached are touched too
        touched = np.union1d(touched, csr.indices)
    lonely = np.arange(405, csr.num_nodes, 9_001, dtype=np.int64)
    centers = np.union1d(touched, lonely).astype(np.int64)
    return np.random.default_rng(seed).permutation(centers)


def _scores(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(n) < 0.6, rng.random(n), 0.0)


def _expand(csr, hops, include_self, labels=False):
    kernel = batched_hop_balls_with_distances if labels else batched_hop_balls
    return lambda block: kernel(csr, block, hops, include_self=include_self)[:-1]


def _fill(index, csr, centers, block=64, labels=False):
    expand = _expand(csr, index.hops, index.include_self, labels)
    for lo in range(0, centers.size, block):
        index.pairs(centers[lo : lo + block], expand, labels=labels)


def _spans(csr, centers, hops, include_self):
    """High values each ball's members run over, first to last, counted
    from a fresh expansion."""
    owners, members, _ = batched_hop_balls(csr, centers, hops, include_self=include_self)
    sizes = np.bincount(owners, minlength=centers.size)
    ends = np.cumsum(sizes)
    held = sizes > 0
    spans = np.zeros(centers.size, dtype=np.int64)
    spans[held] = (members[ends[held] - 1] >> 16) - (members[(ends - sizes)[held]] >> 16) + 1
    return spans


def _check(index, csr, centers, labels=False):
    """``centers`` read back exactly as a fresh expansion returns them."""
    want = _expand(csr, index.hops, index.include_self, labels)(centers)
    got = index.pairs(centers, labels=labels)
    assert got is not None
    for column, expected in zip(got, want):
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes()


def _bytes(index, per_pair=2) -> int:
    return per_pair * index._used + 4 * index._runs_used


# ---------------------------------------------------------------------------
# The layout at the boundaries
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "include_self,highs,counts",
    [
        (True, [0, 0, 0, 1], [2, 1, 1, 1, 1, 1, 0, 0, 1, 2]),
        (False, [0, 1, 3, 1], [1, 1, 1, 1, 1, 1]),
    ],
)
def test_the_boundary_members_lay_out_their_runs(include_self, highs, counts):
    csr = _csr(200_000, True)
    centers = np.asarray(sorted(BOUNDARY), dtype=np.int64)
    index = CSRBallIndex(csr, 1, include_self=include_self)
    _fill(index, csr, centers)
    spans = _spans(csr, centers, 1, include_self)
    assert index._high[centers].tolist() == highs
    assert index._span[centers].tolist() == spans.tolist()
    assert index._counts[: index._runs_used].tolist() == counts
    pairs = sum(len(ms) + include_self for ms in BOUNDARY.values())
    stats = index.stats()
    assert (stats["covered"], stats["pairs"], stats["runs"]) == (4, pairs, len(counts))
    assert stats["bytes"] == 2 * pairs + 4 * len(counts)
    _check(index, csr, centers[::-1])
    _check(index, csr, centers[[2, 0, 3, 1]])


# ---------------------------------------------------------------------------
# Every ball reads back as a fresh expansion, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("directed,hops,include_self", VIEWS)
@pytest.mark.parametrize("n", SIZES)
def test_balls_read_back_as_fresh_expansions(n, directed, hops, include_self):
    csr = _csr(n, directed)
    centers = _centers(csr)
    index = CSRBallIndex(csr, hops, include_self=include_self)
    _fill(index, csr, centers)
    spans = _spans(csr, centers, hops, include_self)
    stats = index.stats()
    members = batched_hop_balls(csr, centers, hops, include_self=include_self)[1]
    assert (stats["covered"], stats["pairs"]) == (centers.size, members.size)
    assert stats["runs"] == int(spans.sum()) == index._runs_used
    assert index._span[centers].tolist() == spans.tolist()
    assert stats["bytes"] == 2 * stats["pairs"] + 4 * stats["runs"]
    # The graphs exercise what they are for: single- and multi-run balls,
    # and in the larger one balls of three or more runs, some skipping one.
    assert (spans == 1).any() and (spans >= 2).any()
    if n > 2 * 0x10000:
        assert (spans >= 3).any() and (index._counts[: index._runs_used] == 0).any()
    _check(index, csr, centers)
    _check(index, csr, np.sort(centers))
    # One labelled read labels every ball in place; both reads still agree.
    _fill(index, csr, centers, block=1_000, labels=True)
    assert int(index._labelled.sum()) == centers.size and index.covered == centers.size
    assert index.stats()["bytes"] == _bytes(index, 3) == 3 * members.size + 4 * spans.sum()
    _check(index, csr, centers, labels=True)
    _check(index, csr, centers[::-1], labels=True)
    _check(index, csr, centers)


# ---------------------------------------------------------------------------
# Warm reads equal cold ones, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("directed,hops,include_self", VIEWS)
@pytest.mark.parametrize("n", SIZES)
def test_ball_values_warm_equal_cold(n, directed, hops, include_self, kind):
    csr = _csr(n, directed)
    centers = _centers(csr)
    scores = _scores(n, 7)
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
    assert index.stats()["runs"] > index.stats()["covered"] - (cold_sizes == 0).sum()


@pytest.mark.parametrize("directed,hops,include_self", VIEWS)
@pytest.mark.parametrize("n", SIZES)
def test_weighted_sums_warm_equal_cold(n, directed, hops, include_self):
    csr = _csr(n, directed)
    centers = _centers(csr)
    scores = _scores(n, 8)
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
    assert int(index._labelled.sum()) == stats["covered"] == centers.size
    assert stats["runs"] == int(_spans(csr, centers, hops, include_self).sum())
    assert stats["bytes"] == 3 * stats["pairs"] + 4 * stats["runs"] == _bytes(index, 3)
    _check(index, csr, centers, labels=True)


# ---------------------------------------------------------------------------
# Mixed blocks, forget, compaction, caps, racing fills
# ---------------------------------------------------------------------------
def _single_and_multi(index, csr, centers):
    """Fill ``centers`` and split them into the multi-run and the other ones."""
    _fill(index, csr, centers)
    multi = centers[index._span[centers] >= 2]
    single = centers[index._span[centers] < 2]
    assert multi.size >= 8 and single.size >= 8
    return multi, single


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_a_block_mixes_single_multi_run_and_absent_balls(n, directed):
    csr = _csr(n, directed)
    centers = _centers(csr)
    probe = CSRBallIndex(csr, 2)
    multi, single = _single_and_multi(probe, csr, centers)
    index = CSRBallIndex(csr, 2)
    present = np.concatenate([multi[::2], single[::2]])
    _fill(index, csr, present)
    absent = np.concatenate([multi[1::2], single[1::2]])
    block = np.random.default_rng(3).permutation(np.concatenate([present, absent]))
    before = index.stats()
    got = index.pairs(block, _expand(csr, 2, True))
    want = batched_hop_balls(csr, block, 2)[:2]
    for column, expected in zip(got, want):
        assert column.tobytes() == expected.tobytes()
    after = index.stats()
    assert after["hits"] - before["hits"] == present.size
    assert after["misses"] - before["misses"] == absent.size
    assert after["runs"] == probe.stats()["runs"]
    # Every ball is a hit now, and a multi-run one first or last in a block
    # reads back as well as one in the middle.
    _check(index, csr, block)
    _check(index, csr, np.concatenate([multi[:1], single[:3], multi[1:2]]))


@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("n", SIZES)
def test_forget_multi_run_balls_then_refill(n, include_self):
    csr = _csr(n, False)
    centers = _centers(csr)
    index = CSRBallIndex(csr, 2, include_self=include_self)
    multi, single = _single_and_multi(index, csr, centers)
    full = index.stats()
    gone = multi[:3]
    index.forget(gone, csr)
    dropped = index.stats()
    assert dropped["runs"] == full["runs"] - int(index._span[gone].sum())
    assert dropped["covered"] == full["covered"] - 3
    assert dropped["bytes"] == full["bytes"]  # garbage until it compacts
    assert index.pairs(gone) is None
    _check(index, csr, np.concatenate([multi[3:], single]))
    counter = TraversalCounter()
    scores = _scores(n, 9)
    values, _ = NumpyKernels(index).ball_values(
        np, csr, centers, scores, AggregateKind.SUM, 2, include_self, counter
    )
    cold, _ = NumpyKernels().ball_values(
        np, csr, centers, scores, AggregateKind.SUM, 2, include_self, TraversalCounter()
    )
    assert values.tobytes() == cold.tobytes() and counter.balls_expanded == 3
    refilled = index.stats()
    assert (refilled["covered"], refilled["runs"]) == (full["covered"], full["runs"])
    assert refilled["bytes"] == _bytes(index) > full["bytes"]
    _check(index, csr, centers)


@pytest.mark.parametrize("n", SIZES)
def test_compaction_while_multi_run_balls_are_live(n):
    csr = _csr(n, False)
    centers = _centers(csr)
    index = CSRBallIndex(csr, 3)
    multi, single = _single_and_multi(index, csr, centers)
    live = np.concatenate([multi[:6], single[-4:]])
    highs = index._high[live].copy()
    # Drop all other balls: garbage outweighs the live bytes, so it compacts.
    index.forget(np.setdiff1d(centers, live), csr)
    assert index._used == index._live == int(index._size[live].sum())
    assert index._runs_used == index._runs_live == int(index._span[live].sum())
    order = live[np.argsort(index._start[live])]
    starts, rstarts = index._start[order], index._rstart[order]
    sizes, spans = index._size[order], index._span[order]
    # Pairs and counts both moved to the front, in one order, tiled.
    assert (starts == np.cumsum(sizes) - sizes).all()
    assert (rstarts == np.cumsum(spans) - spans).all()
    assert index.covered == live.size and (index._high[live] == highs).all()
    stats = index.stats()
    assert stats["bytes"] == 2 * stats["pairs"] + 4 * stats["runs"]
    _check(index, csr, np.random.default_rng(4).permutation(live))
    _fill(index, csr, centers)
    assert index.covered == centers.size
    _check(index, csr, centers)


@pytest.mark.parametrize("n", SIZES)
def test_a_capped_index_counts_the_run_table(n):
    csr = _csr(n, False)
    centers = _centers(csr)
    everything = CSRBallIndex(csr, 2)
    _fill(everything, csr, centers)
    total = everything.stats()["bytes"]
    index = CSRBallIndex(csr, 2, max_bytes=total // 2)
    _fill(index, csr, centers)
    stats = index.stats()
    assert index._full and 0 < stats["covered"] < centers.size
    assert stats["runs"] > stats["covered"] - np.count_nonzero(index._size == 0)
    assert stats["bytes"] == _bytes(index) <= total // 2
    held = centers[index._start[centers] >= 0]
    _check(index, csr, held)


def test_the_run_table_alone_can_close_a_capped_index():
    """Two balls of two pairs each after one of three pairs and two runs
    (14 bytes): with its one run the narrow ball fits a 22-byte cap, the
    one that skips two high values needs four runs, 34 bytes, and closes
    the index although its pairs (18 bytes) would fit."""
    csr = CSRGraph(
        indptr=np.zeros(9, dtype=np.int64),
        indices=np.empty(0, dtype=np.int32),
        weights=None,
        directed=False,
    )
    balls = {0: [1, 0xFFFF, 0x10000], 1: [9, 10], 2: [2, 199_999]}

    def offer(index, center):
        members = np.asarray(balls[center], dtype=np.intp)
        index.extend(np.asarray([center]), np.zeros(members.size, dtype=np.intp), members)

    narrow, far = CSRBallIndex(csr, 2, max_bytes=22), CSRBallIndex(csr, 2, max_bytes=22)
    for index, second in ((narrow, 1), (far, 2)):
        offer(index, 0)
        assert index.stats()["bytes"] == 14 and not index._full
        offer(index, second)
    assert narrow.stats()["bytes"] == 22 and narrow.covered == 2 and not narrow._full
    assert far.stats()["bytes"] == 14 and far.covered == 1 and far._full
    assert 14 + 2 * len(balls[2]) <= 22 < 14 + 2 * len(balls[2]) + 4 * 4
    assert far.pairs(np.asarray([2])) is None
    assert far.pairs(np.asarray([0]))[1].tolist() == balls[0]


@pytest.mark.parametrize("n", SIZES)
def test_racing_fills_encode_and_append_multi_run_balls(n):
    csr = _csr(n, True)
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
        for seed in range(max(THREADS, len(blocks)))
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
    for key in ("covered", "pairs", "runs", "bytes"):
        assert stats[key] == single[key], key
    assert (index._span == alone._span).all() and (index._high == alone._high).all()
    assert (index._span >= 2).any()
    _check(index, csr, centers)


@pytest.mark.parametrize("n", SIZES)
def test_a_session_scan_reads_multi_run_balls_back(n):
    graph = _graph(n, False)
    net = Network(graph, hops=2)
    net.add_scores("s", _scores(n, 10).tolist())
    query = net.query("s").algorithm("base").limit(20)
    cold = query.run()
    warm = query.run()
    assert warm.entries == cold.entries
    assert warm.stats.edges_scanned == 0 < cold.stats.edges_scanned
    stats = net._ctx.cache_stats()["ball_cache"]
    assert stats["covered"] == n and stats["runs"] > n
    assert stats["bytes"] == _bytes(net._ctx.ball_index())
    net.close()


# ---------------------------------------------------------------------------
# Property: any sorted runs round-trip
# ---------------------------------------------------------------------------
#: Steps that stay inside a high value, cross into the next, or skip some.
STEPS = [1, 2, 3, 0xFFFE, 0xFFFF, 0x10000, 0x10001, 0x20000, 0x2FFFF, 0x30001]


def _round_trip_property(data):
    count = data.draw(st.integers(1, 12), label="balls")
    runs = []
    for i in range(count):
        near = data.draw(st.integers(0, 5), label=f"multiple{i}") << 16
        head = max(0, near + data.draw(st.integers(-4, 4), label=f"head{i}"))
        steps = data.draw(
            st.lists(
                st.one_of(st.sampled_from(STEPS), st.integers(1, 0x30000)), max_size=6
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
    spans = sum((run[-1] >> 16) - (run[0] >> 16) + 1 for run in runs if run)
    stats = index.stats()
    assert (stats["covered"], stats["pairs"], stats["runs"]) == (count, members.size, spans)
    assert stats["bytes"] == 3 * members.size + 4 * spans
    order = np.asarray(data.draw(st.permutations(range(count)), label="order"))
    got_owners, got_members, got_dists = index.pairs(centers[order], labels=True)
    assert got_members.dtype == np.intp and got_owners.dtype == np.intp
    want = [runs[i] for i in order.tolist()]
    assert got_members.tolist() == [m for run in want for m in run]
    assert got_owners.tolist() == [i for i, run in enumerate(want) for _ in run]
    labels = [dists[owners == i].tolist() for i in order.tolist()]
    assert got_dists.tolist() == [d for run in labels for d in run]
    assert index.pairs(centers[order])[1].tolist() == got_members.tolist()


if st is not None:
    test_sorted_runs_round_trip = settings(max_examples=150, deadline=None)(
        given(data=st.data())(_round_trip_property)
    )
else:  # pragma: no cover - exercised without hypothesis

    @pytest.mark.skip(reason="hypothesis not installed")
    def test_sorted_runs_round_trip():
        pass
