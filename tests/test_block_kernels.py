"""The kernel-provider seam: a block evaluates as the Python reference does.

The route drivers in :mod:`repro.core.vectorized` ask a *provider* only to
evaluate a block of balls.  The parity suites compare final top-k entries
through ``Network``, which cannot see a below-the-cut value or a work
counter drifting — and the access counters are part of the contract (they
are what the paper's cost argument is stated in).  So this file pins the
seam itself: every :class:`NumpyKernels` primitive against the Python
reference (:func:`~repro.graph.traversal.hop_ball` /
:func:`~repro.graph.traversal.hop_ball_with_distances` with a
:class:`TraversalCounter`, each ball summed in ascending member order — the
order ``bincount`` adds in), bit-identical values on non-dyadic floats and
identical ``(edges_scanned, nodes_visited, balls_expanded)``, on directed
and undirected graphs with isolated nodes, ``hops`` 0-3 and both ball
conventions.  A second provider plugged into the seam must pass the same
file.
"""

from __future__ import annotations

import random

import pytest

from repro.aggregates.functions import AggregateKind
from repro.aggregates.weighted import inverse_distance, precompute_weights
from repro.core.query import QuerySpec
from repro.core.results import QueryStats
from repro.core.topk import TopKAccumulator
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter, hop_ball, hop_ball_with_distances

np = pytest.importorskip("numpy")

from repro.core import vectorized  # noqa: E402
from repro.core.vectorized import (  # noqa: E402
    NumpyKernels,
    descending_prefixes,
    in_blocks,
)
from repro.graph.csr import CSRBallIndex, to_csr  # noqa: E402
from repro.graph.diffindex import build_differential_index  # noqa: E402

N = 36  # nodes 30..35 touch no edge: isolated, empty open balls
CASES = [
    (directed, hops, include_self)
    for directed in (False, True)
    for hops in (0, 1, 2, 3)
    for include_self in (True, False)
]


def _graph(directed: bool, seed: int = 5) -> Graph:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 70:
        u, v = rng.randrange(30), rng.randrange(30)
        if u != v:
            edges.add((u, v) if directed else (min(u, v), max(u, v)))
    return Graph.from_edges(sorted(edges), num_nodes=N, directed=directed)


def _scores(seed: int, n: int = N):
    rng = random.Random(seed)  # non-dyadic floats: summation order shows
    return np.asarray(
        [rng.random() if rng.random() < 0.7 else 0.0 for _ in range(n)]
    )


def _centers(seed: int = 9):
    """Unsorted, repeated, isolated nodes included."""
    rng = random.Random(seed)
    return np.asarray(
        [rng.randrange(N) for _ in range(50)] + [33, 33, 0], dtype=np.int64
    )


def _same_bits(a, b) -> bool:
    # Cast first: ``np.bincount`` over zero pairs (every ball empty) hands
    # back integer zeros whatever its weights.
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference(graph, centers, hops, include_self, value):
    """``value(sorted ball)`` per center off the Python BFS, and its work."""
    counter = TraversalCounter()
    values = [
        value(sorted(hop_ball(graph, int(c), hops, include_self=include_self, counter=counter)))
        for c in centers
    ]
    return values, counter.snapshot()


def _ascending_sum(terms) -> float:
    total = 0.0
    for term in terms:
        total += term
    return total


def _aggregate(kind, scores):
    """The reference aggregate of one sorted ball (empty balls: 0.0)."""

    def value(ball):
        terms = [float(scores[m]) for m in ball]
        if not terms:
            return 0.0
        if kind is AggregateKind.MAX:
            return max(terms)
        if kind is AggregateKind.MIN:
            return min(terms)
        total = _ascending_sum(terms)
        return total / len(terms) if kind is AggregateKind.AVG else total

    return value


def _numpy(call):
    """Run ``call(kernels, counter)`` on a fresh provider; return its result
    and the work it charged."""
    counter = TraversalCounter()
    out = call(NumpyKernels(), counter)
    assert counter.balls_expanded > 0
    return out, counter.snapshot()


@pytest.mark.parametrize("directed,hops,include_self", CASES)
class TestBlockPrimitives:
    @pytest.mark.parametrize(
        "kind",
        [AggregateKind.SUM, AggregateKind.AVG, AggregateKind.MAX, AggregateKind.MIN],
    )
    def test_ball_values(self, directed, hops, include_self, kind):
        graph = _graph(directed)
        csr = to_csr(graph, use_numpy=True)
        scores, centers = _scores(1), _centers()
        want, want_work = _reference(
            graph, centers, hops, include_self, _aggregate(kind, scores)
        )
        sizes, _ = _reference(graph, centers, hops, include_self, len)
        for want_sizes in (False, True):
            (values, got_sizes), work = _numpy(
                lambda kernels, counter, want_sizes=want_sizes: kernels.ball_values(
                    np, csr, centers, scores, kind, hops, include_self, counter,
                    want_sizes=want_sizes,
                )
            )
            assert work == want_work
            assert _same_bits(values, want)
            if want_sizes:
                assert got_sizes.tolist() == sizes
                if not include_self:  # the isolated center 33: an empty ball
                    assert got_sizes[-2] == 0 and values[-2] == 0.0
            else:
                assert got_sizes is None

    def test_weighted_ball_sums(self, directed, hops, include_self):
        graph = _graph(directed)
        csr = to_csr(graph, use_numpy=True)
        scores, centers = _scores(2), _centers()
        weights = np.asarray(precompute_weights(inverse_distance, hops))
        counter = TraversalCounter()
        want = []
        for c in centers.tolist():
            dists = hop_ball_with_distances(
                graph, c, hops, include_self=include_self, counter=counter
            )
            want.append(_ascending_sum(
                weights[d] * scores[m] for m, d in sorted(dists.items())
            ))
        values, work = _numpy(
            lambda kernels, counter: kernels.weighted_ball_sums(
                np, csr, centers, scores, weights, hops, include_self, counter
            )
        )
        assert work == counter.snapshot()
        assert _same_bits(values, want)

    def test_fused_ball_values(self, directed, hops, include_self):
        graph = _graph(directed)
        csr = to_csr(graph, use_numpy=True)
        centers = _centers()
        columns = [_scores(3), _scores(4), _scores(5)]
        node_scores = np.ascontiguousarray(np.stack(columns, axis=1))
        avg_rows = np.asarray([False, True, False])
        values, work = _numpy(
            lambda kernels, counter: kernels.fused_ball_values(
                np, csr, centers, node_scores, avg_rows, hops, include_self, counter
            )
        )
        assert values.shape == (3, centers.size)
        for row, (column, avg) in enumerate(zip(columns, avg_rows)):
            kind = AggregateKind.AVG if avg else AggregateKind.SUM
            want, want_work = _reference(
                graph, centers, hops, include_self, _aggregate(kind, column)
            )
            assert work == want_work
            # The one value contract that is not bit-level: ``np.add.reduceat``
            # over a 2-d slab may re-associate a segment's additions, the
            # reference adds strictly left to right — a last-ulp difference,
            # which is why batch parity has always been asserted to 1e-9.
            np.testing.assert_allclose(values[row], want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("is_avg", [False, True])
    def test_prune_step(self, directed, hops, include_self, is_avg):
        graph = _graph(directed)
        csr = to_csr(graph, use_numpy=True)
        deltas = np.asarray(
            build_differential_index(graph, hops, include_self=include_self).deltas
        )
        rng = random.Random(11)
        evaluated = np.asarray([rng.random() < 0.3 for _ in range(N)])
        pruned = ~evaluated & np.asarray([rng.random() < 0.2 for _ in range(N)])
        sources = np.flatnonzero(evaluated)
        source_sums = _scores(6)[sources] * 4.0
        ubound = _scores(7) * 6.0 + 1.0
        inv_size = 1.0 / np.arange(1, N + 1) if is_avg else None
        threshold = 2.5 * (0.2 if is_avg else 1.0)
        # The reference: Eq. 1 arc by arc, then one cut over touched nodes.
        want_bound, want_cut = ubound.tolist(), pruned.tolist()
        bound_evals, touched = 0, set()
        indptr, indices = csr.indptr.tolist(), csr.indices.tolist()
        for u, fu in zip(sources.tolist(), source_sums.tolist()):
            for p in range(indptr[u], indptr[u + 1]):
                v = indices[p]
                if evaluated[v] or pruned[v]:
                    continue
                bound_evals += 1
                want_bound[v] = min(want_bound[v], fu + float(deltas[p]))
                touched.add(v)
        newly = 0
        for v in touched:
            scale = inv_size[v] if is_avg else 1.0
            if want_bound[v] * scale <= threshold:
                want_cut[v] = True
                newly += 1
        bound, cut = ubound.copy(), pruned.copy()
        counts = NumpyKernels().prune_step(
            np, csr, deltas, sources, source_sums, threshold, bound,
            inv_size, evaluated, cut,
        )
        assert counts == (bound_evals, newly)
        assert _same_bits(bound, want_bound)
        assert cut.tolist() == want_cut
        assert not (cut & evaluated).any()  # only open nodes are cut


@pytest.mark.parametrize("directed,hops,include_self", CASES)
def test_verify_backward_same_entries_different_loop_shape(
    directed, hops, include_self
):
    """One loop (``verify_blocked``): same entries as stopping before every
    candidate, every offer a verification, and never a full block verified
    past that stop — at the provider's own verify block and at a pinned
    one."""
    graph = _graph(directed)
    csr = to_csr(graph, use_numpy=True)
    scores = _scores(8)
    spec = QuerySpec(k=4, hops=hops, include_self=include_self)
    exact, _ = NumpyKernels().ball_values(
        np, csr, np.arange(N), scores, AggregateKind.SUM, hops, include_self,
        TraversalCounter(),
    )
    bounds = exact + 0.25  # any sound bound
    # The per-candidate stop of the python backend, over the full order.
    reference = TopKAccumulator(spec.k)
    stop = 0
    for node in _full_order(bounds).tolist():
        if reference.is_full and bounds[node] <= reference.threshold:
            break
        reference.offer(node, float(exact[node]))
        stop += 1
    own = NumpyKernels().block_size(None, N, int(csr.num_arcs), role="verify")
    for block in (own, 5):
        acc = TopKAccumulator(spec.k)
        stats = QueryStats(algorithm="backward", aggregate="sum")
        counter = TraversalCounter()
        kernels = NumpyKernels(CSRBallIndex(csr, hops, include_self=include_self))
        offered = vectorized.verify_blocked(
            np, descending_prefixes(np, bounds, 2 * spec.k), bounds, acc,
            stats, block,
            lambda chunk: kernels.ball_values(
                np, csr, chunk, scores, AggregateKind.SUM, hops,
                include_self, counter,
            )[0],
        )
        assert stats.candidates_verified == offered == counter.balls_expanded
        assert acc.entries() == reference.entries()
        assert stop <= offered < stop + block
        assert stats.early_terminated == (offered < N)


def test_block_profile_by_role():
    n, arcs = 100_000, 600_000
    kernels = NumpyKernels()
    assert kernels.block_size(None, n, arcs) == 1024
    assert kernels.block_size(None, n, arcs, role="prune") == 256
    # A verification block is a measured constant (the stop is tested
    # between blocks), never above the scan block.
    assert kernels.block_size(None, n, arcs, role="verify") == 32
    assert kernels.block_size(None, n, 100 * 1024 * n, role="verify") == 10
    assert kernels.block_size(7, n, arcs, role="verify") == 7


_WORK = ("nodes_evaluated", "edges_scanned", "nodes_visited", "balls_expanded")


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("aggregate", ["sum", "avg", "count", "max"])
def test_scan_driver_charges_the_python_scan_work(directed, aggregate):
    """A block-scanned Base does the Python loop's work, ball for ball, and
    finds its answer (the loop sums in set order: values agree to ulps)."""
    from repro.core.base import base_topk
    from repro.core.weighted import weighted_base_topk

    graph = _graph(directed)
    scores = _scores(13).tolist()
    spec = QuerySpec(k=5, hops=2, aggregate=aggregate)
    pairs = [(
        vectorized.base_topk_numpy(graph, scores, spec, block_size=7),
        base_topk(graph, scores, QuerySpec(k=5, hops=2, aggregate=aggregate, backend="python")),
    )]
    if aggregate == "sum":
        weights = precompute_weights(inverse_distance, 2)
        pairs.append((
            vectorized.base_topk_numpy(graph, scores, spec, block_size=7, weights=weights),
            weighted_base_topk(graph, scores, QuerySpec(k=5, hops=2, backend="python")),
        ))
    for got, want in pairs:
        assert [u for u, _ in got.entries] == [u for u, _ in want.entries]
        assert [v for _, v in got.entries] == pytest.approx(
            [v for _, v in want.entries], rel=1e-13, abs=0.0
        )
        for field in _WORK:
            assert getattr(got.stats, field) == getattr(want.stats, field), field


# ---------------------------------------------------------------------------
# The lazy candidate order: descending_prefixes / in_blocks
# ---------------------------------------------------------------------------
def _full_order(keys):
    return np.lexsort((np.arange(keys.size), -keys))


def _check_prefixes(keys, first):
    """Chunks concatenate to the full ``lexsort`` order, the first holds at
    least ``first`` ids (or everything), and regrouping keeps the order."""
    keys = np.asarray(keys, dtype=np.float64)
    want = _full_order(keys).tolist()
    chunks = list(descending_prefixes(np, keys, first))
    assert np.concatenate(chunks).tolist() == want
    assert chunks[0].size >= min(first, keys.size)
    assert all(chunk.dtype == np.int64 for chunk in chunks)
    for size in (1, 3, 64):
        blocks = list(in_blocks(np, descending_prefixes(np, keys, first), size))
        assert [b.size for b in blocks[:-1]] == [size] * (len(blocks) - 1)
        assert all(0 < b.size <= size for b in blocks[-1:])
        assert [i for b in blocks for i in b.tolist()] == want


@pytest.mark.parametrize(
    "keys,first",
    [
        ([], 1),  # n = 0
        ([0.5], 1),  # n = 1
        ([0.5] * 300, 64),  # all equal: the first cut takes everything
        ([0.0] * 300, 1),  # all zero
        ([0.0, -0.0, 0.0, -0.0, 1.0, -0.0], 2),  # -0.0 ties with 0.0, by id
        ([3.0, 1.0, 2.0, 0.0] * 90, 1),  # first = 1: a cut per distinct value
        ([3.0, 1.0, 2.0, 0.0] * 90, 360),  # first = n
        ([3.0, 1.0, 2.0, 0.0] * 90, 10_000),  # first > n
        (list(range(700)), 64),  # no ties: cuts of 64, 256, the rest
    ],
)
def test_prefixes_pinned(keys, first):
    _check_prefixes(keys, first)


def test_prefixes_sort_no_further_than_they_are_read():
    class CountingNumpy:
        """``np`` with ``partition`` / ``argsort`` input sizes recorded."""

        def __init__(self):
            self.calls = []

        def __getattr__(self, name):
            fn = getattr(np, name)
            if name not in ("partition", "argsort"):
                return fn

            def counted(array, *args, **kwargs):
                self.calls.append((name, int(array.size)))
                return fn(array, *args, **kwargs)

            return counted

    counting = CountingNumpy()
    keys = np.random.default_rng(3).permutation(10_000).astype(np.float64)
    order = descending_prefixes(counting, keys, 64)
    assert counting.calls == []  # nothing until the first chunk is asked for
    assert next(order).tolist() == list(np.argsort(-keys)[:64])
    assert counting.calls == [("partition", 10_000), ("argsort", 64)]
    assert next(order).size == 256
    assert counting.calls[2:] == [("partition", 10_000 - 64), ("argsort", 256)]


# Guarded import, NOT a module-level importorskip: a missing hypothesis must
# skip only the property test, never the suites above it.
try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - exercised without hypothesis
    given = settings = st = None

if st is not None:
    #: Tie-heavy keys: a handful of distinct values (``-0.0`` beside ``0.0``),
    #: constant vectors, and dyadic values with few repeats.
    _KEYS = st.one_of(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]), max_size=400),
        st.builds(lambda x, n: [x] * n, st.sampled_from([0.0, 0.75]), st.integers(0, 400)),
        st.lists(st.integers(0, 1 << 12).map(lambda i: i / 1024.0), max_size=400),
    )

    @settings(max_examples=200, deadline=None)
    @given(keys=_KEYS, first=st.integers(min_value=1, max_value=500))
    def test_prefixes_property(keys, first):
        _check_prefixes(keys, first)

else:  # pragma: no cover - exercised without hypothesis

    @pytest.mark.skip(reason="hypothesis not installed")
    def test_prefixes_property():
        pass


# ---------------------------------------------------------------------------
# LONA-Backward over the lazy order: the parent's full-order run, chunk by chunk
# ---------------------------------------------------------------------------
CROSS_N = 900
#: (non-zero share of the 0/1 scores, k, aggregate, chunks the loop pulls).
#: AVG over 0/1 scores verifies through hundreds of bounds tied at 1.0.
CROSSINGS = [
    (0.08, 4, "avg", 1),  # stops inside the first chunk
    (0.2, 4, "avg", 2),  # crosses one chunk boundary
    (0.3, 4, "avg", 3),  # crosses two
    (0.02, 30, "sum", 1),  # k > non-zero count (exact shortcut, zeros tie)
    (0.02, 30, "count", 1),
    (0.3, CROSS_N + 100, "avg", 1),  # k > n: nothing is pruned
]
#: Timings, provenance and byte counts: what two equal runs may differ in.
_NOT_WORK = ("_sec", "bytes", "backend", "kernel")


def _facts(result):
    """Entries plus every ``QueryStats`` counter and ``extra`` value."""
    stats = {
        key: value
        for key, value in result.stats.as_dict().items()
        if not any(mark in key for mark in _NOT_WORK)
    }
    return result.entries, stats


def _binary_scores(share):
    rng = random.Random(5)
    return [1.0 if rng.random() < share else 0.0 for _ in range(CROSS_N)]


def _eager_order(np_, keys, first):
    """The parent's candidate order: one full sort, handed out whole."""
    yield np_.lexsort((np_.arange(keys.size), -keys))


@pytest.fixture(scope="module")
def cross_graph():
    from tests.conftest import random_graph

    return random_graph(CROSS_N, 0.004, seed=77)


def _counting_prefixes(monkeypatch):
    """Patch ``descending_prefixes`` to record the size of each chunk pulled."""
    pulled = []
    real = vectorized.descending_prefixes

    def counting(np_, keys, first):
        for chunk in real(np_, keys, first):
            pulled.append(int(chunk.size))
            yield chunk

    monkeypatch.setattr(vectorized, "descending_prefixes", counting)
    return pulled


def _check_depth(kernels, stats, pulled, chunks, arcs):
    """How far one in-process run dug into the lazy order.  ``chunks`` is
    what stopping before every candidate needs: the shortcut walk pulls
    exactly that on every route, a blocked verification pulls
    a further chunk only to fill a block that starts at or before its stop."""
    assert sum(pulled) >= CROSS_N - stats["pruned_nodes"]
    if stats["exact_shortcut"] == 1.0:
        assert len(pulled) == chunks, (kernels.name, pulled)
        return
    block = kernels.block_size(None, CROSS_N, arcs, role="verify")
    assert len(pulled) >= chunks, (kernels.name, pulled)
    assert sum(pulled[:-1]) < stats["candidates_verified"] + block, (kernels.name, pulled)


@pytest.mark.parametrize("share,k,aggregate,chunks", CROSSINGS)
def test_backward_chunked_equals_full_order_in_process(
    monkeypatch, cross_graph, share, k, aggregate, chunks
):
    from repro.core.backward import backward_topk

    scores = _binary_scores(share)
    spec = QuerySpec(k=k, hops=2, aggregate=aggregate)
    kernels = NumpyKernels()

    def run():
        return _facts(vectorized.backward_topk_numpy(
            cross_graph, scores, spec, kernels=NumpyKernels()
        ))

    pulled = _counting_prefixes(monkeypatch)
    arcs = int(cross_graph.csr().num_arcs)
    entries, stats = run()
    _check_depth(kernels, stats, pulled, chunks, arcs)
    monkeypatch.setattr(vectorized, "descending_prefixes", _eager_order)
    assert (entries, stats) == run()
    reference = _facts(backward_topk(
        cross_graph, scores, QuerySpec(k=k, hops=2, aggregate=aggregate, backend="python")
    ))
    assert entries == reference[0]
    if stats["exact_shortcut"] == 1.0:
        # The shortcut walk is the python backend's, candidate for candidate.
        assert stats == reference[1]
        return
    # Verification stops per block: at least the python backend's
    # candidates, less than one block more.
    block = kernels.block_size(None, CROSS_N, arcs, role="verify")
    want = reference[1]["candidates_verified"]
    assert want <= stats["candidates_verified"] < want + block
    assert stats["pruned_nodes"] == CROSS_N - stats["candidates_verified"]
    assert stats["distribution_pushes"] == reference[1]["distribution_pushes"]
    assert stats["early_terminated"] == reference[1]["early_terminated"]


#: Weighted rounds: (0/1 scores?, non-zero share, k, chunks stopping per
#: candidate needs).  Footnote 1's sums over 0/1 scores take the exact
#: shortcut, whose walk reads the lazy chunks as they come; regrouped into
#: 1,024-id blocks it pulled every chunk (an O(n) partition each) before its
#: first stop test.
WEIGHTED_CROSSINGS = [
    (True, 0.02, 4, 1),
    (True, 0.3, 60, 1),
    (False, 0.3, 4, 3),  # graded scores: no shortcut, weak bounds, 797 verified
]


@pytest.mark.parametrize("binary,share,k,chunks", WEIGHTED_CROSSINGS)
def test_weighted_backward_digs_no_deeper_than_its_stop(
    monkeypatch, cross_graph, binary, share, k, chunks
):
    from repro.core.weighted import weighted_backward_topk

    scores = _binary_scores(share)
    if not binary:
        rng = random.Random(6)
        scores = [value * rng.random() for value in scores]
    spec = QuerySpec(k=k, hops=2)
    arcs = int(cross_graph.csr().num_arcs)
    pulled = _counting_prefixes(monkeypatch)
    reference = _facts(weighted_backward_topk(
        cross_graph, scores, QuerySpec(k=k, hops=2, backend="python")
    ))
    del pulled[:]
    entries, stats = _facts(vectorized.weighted_backward_topk_numpy(
        cross_graph, scores, spec, kernels=NumpyKernels()
    ))
    _check_depth(NumpyKernels(), stats, pulled, chunks, arcs)
    # The python backend adds a ball's members in dict order: the same
    # nodes, and on graded scores the values to the last ulps.
    assert [node for node, _ in entries] == [node for node, _ in reference[0]]
    assert [value for _, value in entries] == pytest.approx(
        [value for _, value in reference[0]], rel=1e-13, abs=0.0
    )
    assert stats["exact_shortcut"] == float(binary)
    if binary:  # the python backend's walk, candidate for candidate
        assert stats["pruned_nodes"] == reference[1]["pruned_nodes"]
        assert stats["candidates_verified"] == 0


@pytest.fixture(scope="module")
def cross_net(cross_graph):
    from repro.session import Network

    net = Network(cross_graph, hops=2)
    for share in sorted({case[0] for case in CROSSINGS}):
        net.add_scores(f"s{share}", _binary_scores(share))
    net.parallel(workers=2, min_nodes=0)
    net.cluster(workers=2, min_nodes=0)
    yield net
    net.close()


@pytest.mark.parametrize("link", ["parallel", "cluster"])
@pytest.mark.parametrize("share,k,aggregate,chunks", CROSSINGS)
def test_backward_chunked_equals_full_order_sharded(
    monkeypatch, cross_net, link, share, k, aggregate, chunks
):
    # Both links decline LONA-Backward: it runs in the session's process,
    # over the session's phase-1 memo, and reads the same lazy order.
    engine = getattr(cross_net, link)()

    def run(backend):
        query = cross_net.query(f"s{share}").limit(k).aggregate(aggregate)
        return query.algorithm("backward").backend(backend).run()

    run(link)  # the session's memo and ball cache warm: later runs are equal
    declined = engine.stats()["declined"]
    lazy = run(link)
    monkeypatch.setattr(vectorized, "descending_prefixes", _eager_order)
    eager = run(link)
    assert _facts(lazy) == _facts(eager) == _facts(run("numpy"))
    assert lazy.entries == run("python").entries
    assert lazy.stats.backend == eager.stats.backend == "numpy"
    assert engine.stats()["declined"] == declined + 2
