"""LONA-Backward's phase-1 memo: a repeated read pays only for its ``k``.

Phases 1-2 (partial distribution and the Eq. 3 bound of every node) depend
on the score vector, gamma, ``distribution_fraction``, the size index and
the graph view, never on ``k``; SUM and COUNT of a 0/1 vector fold to one
array.  A session keeps them per live vector and family
(:class:`~repro.core.context.Phase1Memo`), so a hit runs only verification.

Checked here, every value compared by its bytes (``float.hex``) on
non-dyadic scores: a hit equals its miss and a context-free
``backward_topk`` over k, aggregate, gamma, size index, ball convention and
direction; the exact shortcut's values equal Eq. 3's bounds bit for bit,
which is why one array serves as both; a write shifts a 0/1 vector's counts
byte for byte as a rebuild would, drops a graded vector's slot where a
partial sum moved, and reads no more balls than the write changed; an
entry dies with its vector; racing readers see one of the writer's states;
the Python backend never makes an entry or reaches for numpy.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import textwrap
import threading

import pytest

from repro import Network
from repro.core.backends import numpy_available
from repro.core.backward import backward_topk
from repro.core.query import QuerySpec
from repro.dynamic.graph import DynamicGraph
from repro.graph.graph import Graph
from repro.graph.neighborhood import NeighborhoodSizeIndex

THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "4"))
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "3"))
N = 240
KS = (1, 10, 200)
AGGREGATES = ("sum", "count", "avg")
VIEWS = [
    (directed, include_self)
    for directed in (False, True)
    for include_self in (True, False)
]
EMPTY = {"entries": 0, "bytes": 0, "hits": 0, "misses": 0, "repaired": 0, "dropped": 0}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="the memo is numpy's")


def _edges(directed: bool, seed: int = 7, n: int = N):
    """About two edges a node; the last 10 nodes touch none."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 2 * n:
        u, v = rng.randrange(n - 10), rng.randrange(n - 10)
        if u != v:
            edges.add((u, v) if directed else (min(u, v), max(u, v)))
    return sorted(edges)


def _graph(directed: bool, dynamic: bool = False) -> Graph:
    cls = DynamicGraph if dynamic else Graph
    return cls.from_edges(_edges(directed), num_nodes=N, directed=directed)


def _scores(seed: int, n: int = N):
    """Non-dyadic floats from a pool of nine values, about a third non-zero."""
    rng = random.Random(seed)
    pool = [rng.random() for _ in range(9)]
    return [rng.choice(pool) if rng.random() < 0.35 else 0.0 for _ in range(n)]


def _bits(entries):
    return [(node, value.hex()) for node, value in entries]


def _extra(result):
    """``stats.extra`` without the executor's ``kernel`` tag."""
    return {k: v for k, v in result.stats.extra.items() if k != "kernel"}


def _memo(net):
    return net._ctx.cache_stats()["phase1"]


def _session(graph, include_self=True, backend="numpy"):
    net = Network(graph, hops=2, include_self=include_self, backend=backend)
    net.add_scores("s", _scores(11))
    net.add_scores("bits", [float(x > 0.5) for x in _scores(11)])
    return net


# ---------------------------------------------------------------------------
# The exact shortcut's values are Eq. 3's bounds
# ---------------------------------------------------------------------------
@needs_numpy
@pytest.mark.parametrize("directed,include_self", VIEWS)
@pytest.mark.parametrize("vector", ["bits", "s"])
@pytest.mark.parametrize("is_avg", [False, True])
def test_shortcut_values_equal_eq3_bounds_under_full_distribution(
    directed, include_self, vector, is_avg
):
    import numpy as np

    from repro.core import vectorized as vec
    from repro.graph.traversal import TraversalCounter

    graph = _graph(directed)
    net = _session(graph, include_self)
    scores = net.scores_of(vector)
    arr = scores.array()
    distributed, _, rest_bound = vec.backward_distribution_split(
        np, scores, arr, 0.0, 0.1
    )
    assert rest_bound == 0.0 and distributed.size == len(scores.nonzero_nodes)
    partial, covered, _ = vec.distribute_scores(
        np, graph.rev_csr() or graph.csr(), distributed, arr, 2, include_self,
        32, TraversalCounter(), vec.NumpyKernels(),
    )
    self_distributed = np.zeros(N, dtype=bool)
    if include_self:
        self_distributed[distributed] = True
    sizes = NeighborhoodSizeIndex.exact(graph, 2, include_self=include_self)
    bounds = vec.backward_eq3_bounds(
        np, arr, partial, covered, self_distributed, sizes, rest_bound,
        include_self=include_self, is_avg=is_avg,
    )
    values = vec.backward_shortcut_values(
        np, arr, partial, self_distributed, sizes,
        include_self=include_self, is_avg=is_avg,
    )
    assert np.array_equal(bounds, values)
    assert bounds.tobytes() == values.tobytes()


@needs_numpy
def test_the_shortcut_builds_one_array_and_still_counts_every_bound(monkeypatch):
    from repro.core import vectorized as vec

    net = _session(_graph(False))
    calls = []
    real = vec.backward_eq3_bounds
    monkeypatch.setattr(
        vec, "backward_eq3_bounds", lambda *a, **kw: calls.append(1) or real(*a, **kw)
    )
    exact = net.query("s").algorithm("backward").gamma(0.0).limit(10).run()
    assert exact.stats.extra["exact_shortcut"] == 1.0 and calls == []
    assert exact.stats.bound_evaluations == N
    net.query("s").algorithm("backward").aggregate("avg").limit(10).run()
    assert calls == [1]  # estimated AVG sizes: Eq. 3 proper


# ---------------------------------------------------------------------------
# Hit == miss == context-free, byte for byte
# ---------------------------------------------------------------------------
@needs_numpy
@pytest.mark.parametrize("directed,include_self", VIEWS)
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("gamma", ["auto", 0.4])
def test_hit_equals_miss_equals_context_free(directed, include_self, exact, gamma):
    graph = _graph(directed)
    warm = _session(graph, include_self)
    seen = set()
    for vector in ("s", "bits"):
        scores = warm.scores_of(vector)
        for aggregate in AGGREGATES:
            builder = (
                warm.query(vector).algorithm("backward").aggregate(aggregate)
                .gamma(gamma).exact_sizes(exact)
            )
            folded = aggregate != "count" or scores.is_binary
            for k in KS:
                before = _memo(warm)
                hit = builder.limit(k).run()
                after = _memo(warm)
                cold = _session(graph, include_self)
                miss = (
                    cold.query(vector).algorithm("backward").aggregate(aggregate)
                    .gamma(gamma).exact_sizes(exact).limit(k).run()
                )
                assert _memo(cold)["hits"] == 0
                spec = QuerySpec(k, aggregate, 2, include_self, "numpy")
                sizes = (
                    NeighborhoodSizeIndex.exact(graph, 2, include_self=include_self)
                    if exact else None
                )
                off = backward_topk(graph, scores, spec, gamma=gamma, sizes=sizes)
                assert _bits(hit.entries) == _bits(miss.entries) == _bits(off.entries)
                for name in ("distribution_pushes", "bound_evaluations", "pruned_nodes"):
                    assert getattr(hit.stats, name) == getattr(off.stats, name), name
                assert _extra(hit) == _extra(off)
                # A family's first read misses and every later one hits; COUNT
                # of graded scores folds to a fresh array and skips the memo.
                family = (vector, aggregate == "avg")
                want = (0, 0) if not folded else (1, 0) if family in seen else (0, 1)
                seen.add(family)
                got = (after["hits"] - before["hits"], after["misses"] - before["misses"])
                assert got == want, (vector, aggregate, k)
    # One entry per vector and family: s/SUM, s/AVG, bits/SUM+COUNT, bits/AVG.
    assert _memo(warm)["entries"] == len(seen) == 4


@needs_numpy
def test_every_key_field_separates_entries():
    graph = _graph(False)
    net = _session(graph)
    # One field moves a step: fraction (under gamma "auto"), gamma, sizes
    # (the first exact read builds the differential index, whose exact sizes
    # then serve every read).
    reads = [("auto", 0.1, False), ("auto", 0.5, False), (0.0, 0.5, False), (0.0, 0.5, True)]
    for gamma, fraction, exact in reads + reads[::-1]:
        got = (
            net.query("s").algorithm("backward").aggregate("avg").gamma(gamma)
            .distribution_fraction(fraction).exact_sizes(exact).limit(10).run()
        )
        want = backward_topk(
            graph, net.scores_of("s"), QuerySpec(10, "avg", 2, True, "numpy"),
            gamma=gamma, distribution_fraction=fraction,
            sizes=net._ctx.size_index(exact=exact),
        )
        assert _bits(got.entries) == _bits(want.entries)
        assert got.stats.candidates_verified == want.stats.candidates_verified
        assert _extra(got) == _extra(want)
    # One slot per vector and family: each new key replaced the last entry.
    assert _memo(net)["entries"] == 1


@needs_numpy
def test_a_hit_expands_nothing_for_phase_one():
    graph = _graph(True)  # distribution walks the reverse view: never indexed
    net = _session(graph)
    query = net.query("s").algorithm("backward").limit(10)
    first, second = query.run(), query.run()
    assert first.stats.edges_scanned > 0
    assert second.stats.edges_scanned == 0  # verified balls are in the index
    assert second.stats.distribution_pushes == first.stats.distribution_pushes > 0
    assert _bits(second.entries) == _bits(first.entries)


@needs_numpy
def test_weighted_and_filtered_reads_make_no_entry():
    net = _session(_graph(False))
    net.topk_weighted("s", 5, algorithm="backward")
    net.query("s").where(range(0, N, 3)).limit(5).run()
    net.query("s").algorithm("base").limit(5).run()
    assert _memo(net) == EMPTY


# ---------------------------------------------------------------------------
# Every write is seen
# ---------------------------------------------------------------------------
def _fresh_answer(net, vector, aggregate, k, gamma="auto"):
    graph = net.graph
    fresh = Network(
        Graph.from_edges(
            list(graph.edges()), num_nodes=graph.num_nodes, directed=graph.directed
        ),
        hops=2, include_self=net.include_self, backend="numpy",
    )
    fresh.add_scores(vector, net.scores_of(vector).values())
    return (
        fresh.query(vector).algorithm("backward").aggregate(aggregate).gamma(gamma)
        .limit(k).run()
    )


@needs_numpy
@pytest.mark.parametrize("directed", [False, True])
def test_every_write_is_seen_by_the_next_read(directed):
    net = _session(_graph(directed, dynamic=True))
    rng = random.Random(5)
    reads = [(v, a, k) for v in ("s", "bits") for a in AGGREGATES for k in (1, 25)]

    def check():
        for vector, aggregate, k in reads:
            got = net.query(vector).algorithm("backward").aggregate(aggregate).limit(k)
            want = _fresh_answer(net, vector, aggregate, k)
            assert _bits(got.run().entries) == _bits(want.entries), (vector, aggregate, k)

    def absent():
        while True:
            u, v = rng.randrange(N), rng.randrange(N)
            if u != v and not net.graph.has_edge(u, v):
                return u, v

    check()
    for step in range(8):
        held = _memo(net)["entries"]
        assert held > 0
        write = step % 4
        if write < 2:
            if write == 0:
                net.add_edge(*absent())
            else:
                net.remove_edge(*rng.choice(list(net.graph.edges())))
            # Undirected: every slot is repaired over the write's reach (these
            # writes cross no distributed ball of the graded vector); a
            # directed graph distributes over the reverse view: all dropped.
            kept = _memo(net)
            assert kept["entries"] == (0 if directed else held)
        elif write == 2:
            net.update_score("s", rng.randrange(N), rng.choice([0.0, 0.3, 0.77, 1.0]))
        else:
            net.add_scores("bits", [float(rng.random() < 0.2) for _ in range(N)])
        check()


@needs_numpy
def test_an_outside_mutation_drops_the_memo():
    net = _session(_graph(False, dynamic=True))
    query = net.query("s").algorithm("backward").limit(10)
    query.run()
    net.query("bits").algorithm("backward").limit(10).run()
    u, v = next(
        (u, v) for u in range(N) for v in range(u + 1, N) if not net.graph.has_edge(u, v)
    )
    net.graph.add_edge(u, v)  # not through the session: the version moves
    assert _bits(query.run().entries) == _bits(_fresh_answer(net, "s", "sum", 10).entries)
    assert _memo(net)["hits"] == 0
    assert _memo(net)["entries"] == 1  # the 0/1 vector's went with the version


# ---------------------------------------------------------------------------
# Lifetime: an entry dies with its vector
# ---------------------------------------------------------------------------
@needs_numpy
def test_a_replaced_vector_takes_its_entries_with_it():
    net = _session(_graph(False, dynamic=True))
    for aggregate in AGGREGATES:
        net.query("s").algorithm("backward").aggregate(aggregate).limit(5).run()
        net.query("bits").algorithm("backward").aggregate(aggregate).limit(5).run()
    full = _memo(net)
    assert full["entries"] == 4
    assert full["bytes"] >= 4 * N * 8
    net.add_scores("bits", _scores(12))
    gc.collect()
    halved = _memo(net)
    assert halved["entries"] == 2 and halved["bytes"] < full["bytes"]
    # A score write that keeps the cut hands the entries to the successor
    # vector, and the old vector's die with it.
    old = net.scores_of("s")
    node = next(x for x in range(N) if old[x] == 0.0)
    net.update_score("s", node, old[next(iter(old.nonzero_nodes))] / 2)
    del old
    gc.collect()
    carried = _memo(net)
    assert carried["entries"] == 2 and carried["repaired"] == 2
    net.add_scores("s", _scores(13))
    gc.collect()
    assert _memo(net)["entries"] == 0 and _memo(net)["bytes"] == 0
    net.query("s").algorithm("backward").limit(5).run()
    net.close()
    assert _memo(net)["entries"] == 0


# ---------------------------------------------------------------------------
# Writes repair what they moved, byte for byte
# ---------------------------------------------------------------------------
def _fresh_state(net, vector, family, key):
    """A context-free phases 1-2 over a freshly built copy of the graph."""
    import numpy as np

    from repro.core import vectorized as vec
    from repro.graph.traversal import TraversalCounter

    graph = Graph.from_edges(list(net.graph.edges()), num_nodes=net.graph.num_nodes)
    gamma, fraction, _ = key
    sizes = NeighborhoodSizeIndex.estimated_from_csr(
        graph.csr(), net.hops, include_self=net.include_self
    )
    spec = QuerySpec(1, "avg" if family else "sum", net.hops, net.include_self, "numpy")
    return vec._backward_state(
        np, graph, vector, vector.array(), spec, None, gamma, fraction, sizes,
        vec.NumpyKernels(), TraversalCounter(),
    )


def _assert_slots_fresh(net):
    """Every kept slot is keyed to the session's size estimate and holds,
    byte for byte, what a fresh build over the current inputs holds."""
    memo = net._ctx.phase1_memo()
    slots = [
        (vector, family, key, state)
        for vector, slot in list(memo._slots.items())
        for family, (key, state) in slot.items()
    ]
    for vector, family, key, state in slots:
        assert key[2] is net._ctx.estimated_sizes()
        fresh = _fresh_state(net, vector, family, key)
        assert state.distributed.tobytes() == fresh.distributed.tobytes()
        assert state.distributed.dtype == fresh.distributed.dtype
        assert (state.gamma, state.rest_bound, state.pushes, state.exact) == (
            fresh.gamma, fresh.rest_bound, fresh.pushes, fresh.exact,
        )
        # An exact SUM slot keeps one array for both, repaired or not.
        assert (state.partial is state.bounds) == (fresh.partial is fresh.bounds)
        for name in ("bounds", "partial", "covered"):
            mine, theirs = getattr(state, name), getattr(fresh, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
            assert not mine.flags.writeable
    return len(slots)


def _pool_scores(rng, n, pool, share):
    return [rng.choice(pool) if rng.random() < share else 0.0 for _ in range(n)]


@needs_numpy
@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("seed", [1, 2])
def test_repaired_slots_equal_fresh_builds(include_self, seed):
    rng = random.Random(seed)
    pool = [rng.random() for _ in range(9)]  # non-dyadic
    net = Network(
        DynamicGraph.from_edges(_edges(False, seed), num_nodes=N),
        hops=2, include_self=include_self, backend="numpy",
    )
    net.add_scores("s", _pool_scores(rng, N, pool, 0.35))
    net.add_scores("bits", [float(rng.random() < 0.2) for _ in range(N)])
    # gamma: auto (its cut moves with the scores), a fixed cut with a
    # rest_bound, and everything (the exact shortcut).
    gammas = ("auto", 0.4, 0.0)

    def read_all():
        for vector in ("s", "bits"):
            for aggregate in ("sum", "avg"):
                gamma = rng.choice(gammas)
                got = (
                    net.query(vector).algorithm("backward").aggregate(aggregate)
                    .gamma(gamma).limit(12).run()
                )
                want = _fresh_answer(net, vector, aggregate, 12, gamma)
                assert _bits(got.entries) == _bits(want.entries), (vector, aggregate, gamma)

    read_all()
    kept = 0
    for step in range(40):
        write = rng.randrange(5)
        if write == 0:
            u, v = rng.sample(range(N), 2)
            if not net.graph.has_edge(u, v):
                net.add_edge(u, v)
        elif write == 1:
            net.remove_edge(*rng.choice(list(net.graph.edges())))
        elif write == 2:  # graded: may move gamma "auto" or the rest_bound
            net.update_score("s", rng.randrange(N), rng.choice(pool + [0.0, 1.0, 0.39]))
        elif write == 3:
            net.update_score("bits", rng.randrange(N), float(rng.random() < 0.5))
        else:
            read_all()
        kept += _assert_slots_fresh(net)
    read_all()
    stats = _memo(net)
    assert kept > 0 and stats["repaired"] > 0
    assert stats["hits"] > 0


@needs_numpy
def test_a_write_that_moves_the_cut_drops_the_slot():
    net = _session(_graph(False, dynamic=True))
    scores = net.scores_of("s").values()
    top = max(scores)
    query = net.query("s").algorithm("backward").gamma(0.4).limit(10)
    query.run()
    rest = query.run().stats.extra["rest_bound"]
    assert 0.0 < rest < 0.4 and _memo(net)["repaired"] == 0
    zero = next(x for x in range(N) if scores[x] == 0.0)
    net.update_score("s", zero, (rest + 0.4) / 2)  # the new rest_bound
    assert _memo(net)["dropped"] == 1 and _memo(net)["repaired"] == 0
    query.run()
    net.update_score("s", zero, 0.0)  # and back: rest_bound moves again
    assert _memo(net)["dropped"] == 2
    # Below the rest_bound the written node is not distributed: no partial
    # sum moves, only its own bound, and the slot is repaired.
    query.run()
    net.update_score("s", zero, rest / 2)
    assert _memo(net)["repaired"] == 1 and _assert_slots_fresh(net) == 1
    net.update_score("s", zero, 0.0)
    auto = net.query("s").algorithm("backward").limit(10)
    auto.run()
    # gamma "auto" keeps its depth's score, so the cut holds, but the node
    # now deposits a graded score on its ball: those partial sums moved and
    # would have to be re-added in distribution order.  The slot goes.
    before = _memo(net)
    net.update_score("s", zero, top)
    after = _memo(net)
    assert after["dropped"] == before["dropped"] + 1
    assert after["repaired"] == before["repaired"] and _assert_slots_fresh(net) == 0
    got = auto.run()
    assert _memo(net)["misses"] == after["misses"] + 1
    assert _bits(got.entries) == _bits(_fresh_answer(net, "s", "sum", 10).entries)


@needs_numpy
def test_repairs_past_one_distribution_block():
    # More than 1,024 distributed nodes, so a fresh build adds over several
    # distribution blocks: the 0/1 vector's shifted counts must still be its
    # bytes, and the graded vector's reads (dropped and rebuilt where a
    # partial sum moved) a fresh session's.
    n = 1500
    rng = random.Random(3)
    edges = sorted({
        (min(u, v), max(u, v))
        for u, v in ((rng.randrange(n), rng.randrange(n)) for _ in range(3 * n))
        if u != v
    })
    pool = [rng.random() for _ in range(13)]
    net = Network(DynamicGraph.from_edges(edges, num_nodes=n), hops=2, backend="numpy")
    net.add_scores("bits", [float(rng.random() < 0.9) for _ in range(n)])
    net.add_scores("s", _pool_scores(rng, n, pool, 0.9))
    reads = [
        (vector, aggregate, net.query(vector).algorithm("backward").aggregate(aggregate)
         .gamma(0.0).limit(30))
        for vector in ("bits", "s")
        for aggregate in ("sum", "avg")
    ]

    def read_all():
        for vector, aggregate, read in reads:
            got = read.run()
            assert got.stats.extra["distributed_nodes"] > 1024
            fresh = Network(Graph.from_edges(list(net.graph.edges()), num_nodes=n), hops=2)
            fresh.add_scores(vector, net.scores_of(vector).values())
            want = fresh.query(vector).algorithm("backward").aggregate(aggregate).gamma(0.0)
            assert _bits(got.entries) == _bits(want.limit(30).run().entries), vector

    read_all()
    for step in range(12):
        if step % 3 == 0:
            node = rng.randrange(n)
            net.update_score("bits", node, 1.0 - net.scores_of("bits")[node])
            net.update_score("s", rng.randrange(n), rng.choice(pool))
        elif step % 3 == 1:
            u, v = rng.sample(range(n), 2)
            if not net.graph.has_edge(u, v):
                net.add_edge(u, v)
        else:
            net.remove_edge(*rng.choice(list(net.graph.edges())))
        # The 0/1 vector's two slots are always kept; the graded one's only
        # where no partial sum moved.
        kept = _assert_slots_fresh(net)
        assert 2 <= kept <= 4
        assert len(net._ctx.phase1_memo()._slots.get(net.scores_of("bits"), {})) == 2
        before = _memo(net)["hits"]
        read_all()
        assert _memo(net)["hits"] >= before + 2


@needs_numpy
def test_directed_writes_drop_every_slot():
    net = _session(_graph(True, dynamic=True))
    for vector in ("s", "bits"):
        net.query(vector).algorithm("backward").limit(5).run()
    assert _memo(net)["entries"] == 2
    net.update_score("s", 0, 0.5)
    gc.collect()
    assert _memo(net)["entries"] == 1 and _memo(net)["dropped"] == 1
    u, v = next(
        (u, v) for u in range(N) for v in range(N) if u != v and not net.graph.has_edge(u, v)
    )
    net.add_edge(u, v)
    assert _memo(net)["entries"] == 0 and _memo(net)["dropped"] == 2
    assert _memo(net)["repaired"] == 0


@needs_numpy
def test_a_repair_wider_than_the_pushes_keeps_the_slot():
    # One distributed leaf; the write joins it to a hub, so the rows whose
    # coverage moves are the hub's neighbors, whose own balls hold the whole
    # star: more pairs than the leaf ever pushed.  The repair shifts their
    # counts and reads none of those balls, so the slot is kept.
    hub, leaf, n = 0, 40, 41
    edges = [(hub, x) for x in range(1, 30)] + [(leaf - 1, leaf)]
    net = Network(DynamicGraph.from_edges(edges, num_nodes=n), hops=2, backend="numpy")
    net.add_scores("one", [1.0 if x == leaf else 0.0 for x in range(n)])
    net.add_scores("many", [1.0 if x % 2 else 0.0 for x in range(n)])
    for vector in ("one", "many"):
        net.query(vector).algorithm("backward").limit(3).run()
    pushed = net.query("one").algorithm("backward").limit(3).run().stats.distribution_pushes
    net.add_edge(hub, leaf)
    stats = _memo(net)
    assert (stats["entries"], stats["repaired"], stats["dropped"]) == (2, 2, 0)
    assert _assert_slots_fresh(net) == 2
    got = net.query("one").algorithm("backward").limit(3).run()
    assert got.stats.distribution_pushes > pushed
    assert _memo(net)["hits"] == stats["hits"] + 1
    assert _bits(got.entries) == _bits(_fresh_answer(net, "one", "sum", 3).entries)


# ---------------------------------------------------------------------------
# A repair costs what the write changed
# ---------------------------------------------------------------------------
@needs_numpy
def test_a_binary_score_write_reads_one_ball():
    net = _session(_graph(False, dynamic=True))
    for aggregate in ("sum", "avg"):
        net.query("bits").algorithm("backward").aggregate(aggregate).limit(10).run()

    def balls_read():
        stats = net._ctx.cache_stats()["ball_cache"]
        return stats["hits"] + stats["misses"]

    bits = net.scores_of("bits").values()
    zero = next(x for x in range(N) if bits[x] == 0.0)
    one = next(x for x in range(N) if bits[x] == 1.0)
    for node, value in ((zero, 1.0), (zero, 0.0), (one, 0.0), (one, 1.0), (one, 1.0)):
        before, held = balls_read(), _memo(net)
        net.update_score("bits", node, value)
        gc.collect()
        after = _memo(net)
        # Both slots are carried and shift over the one ball of the node.
        assert after["repaired"] == held["repaired"] + 2 and after["dropped"] == held["dropped"]
        assert balls_read() - before <= 1
        assert _assert_slots_fresh(net) == 2


@needs_numpy
def test_an_edge_write_expands_each_crossed_ball_twice(monkeypatch):
    import repro.graph.csr as csr_module

    net = _session(_graph(False, dynamic=True))
    for aggregate in ("sum", "avg"):
        net.query("bits").algorithm("backward").aggregate(aggregate).limit(10).run()
    calls = []
    real = csr_module.batched_hop_balls

    def counted(view, centers, hops, **kw):
        if hops == net.hops:  # the reach is one hop shorter
            calls.append((view, centers.tolist()))
        return real(view, centers, hops, **kw)

    monkeypatch.setattr(csr_module, "batched_hop_balls", counted)
    bits = net.scores_of("bits").values()
    ones = [x for x in range(N) if bits[x] == 1.0]
    crossing = next(
        (u, v) for u in ones for v in range(N - 10, N) if not net.graph.has_edge(u, v)
    )
    isolated = (N - 2, N - 1)  # no distributed ball holds either
    for write in (crossing, isolated):
        calls.clear()
        old_csr = net.graph.csr()
        net.add_edge(*write)
        if write is crossing:
            # The old view and the new one, over the crossed distributed
            # nodes, once for both of the vector's slots.
            assert len(calls) == 2
            assert calls[0][0] is old_csr and calls[1][0] is net.graph.csr()
            assert calls[0][1] == calls[1][1] and write[0] in calls[0][1]
            assert set(calls[0][1]) <= set(ones)
        else:
            assert calls == []
        assert _memo(net)["dropped"] == 0 and _assert_slots_fresh(net) == 2


@needs_numpy
def test_a_churn_replay_reads_phase_one_from_the_memo():
    from bench import churn

    net = churn.build_session(1.0, 21, None)
    stream = churn.op_stream(21, net.graph)
    before = _memo(net)
    for _ in range(20 * churn.CYCLE):
        churn.call(net, next(stream))
    after = _memo(net)
    hits = after["hits"] - before["hits"]
    assert hits / (hits + after["misses"] - before["misses"]) >= 0.9
    assert after["repaired"] > after["dropped"]
    failed, problems = churn.check_final_state(net, [])
    assert failed == 0, problems


# ---------------------------------------------------------------------------
# Readers racing a writer
# ---------------------------------------------------------------------------
@needs_numpy
def test_racing_readers_see_one_of_the_writers_states():
    net = _session(_graph(False, dynamic=True))
    u, v = next(
        (u, v) for u in range(N) for v in range(u + 1, N) if not net.graph.has_edge(u, v)
    )
    node = next(x for x in range(N) if net.scores_of("s")[x] == 0.0)
    # The graded write drops the slots of "s"; the 0/1 write repairs those
    # of "bits", so readers race repaired slots too.
    bit = next(x for x in range(N) if net.scores_of("bits")[x] == 0.0)
    reads = {
        (vector, aggregate, k): net.query(vector).algorithm("backward")
        .aggregate(aggregate).limit(k)
        for vector in ("s", "bits")
        for aggregate in AGGREGATES
        for k in (1, 10, 60)
    }

    def answers():
        return {key: _bits(builder.run().entries) for key, builder in reads.items()}

    # Every state the writer passes through: edge absent/present, score
    # 0/0.77, bit 0/1.
    states = []
    for edge in (False, True):
        for value in (0.0, 0.77):
            net.update_score("s", node, value)
            for flag in (0.0, 1.0):
                net.update_score("bits", bit, flag)
                states.append(answers())
            net.update_score("bits", bit, 0.0)
        net.update_score("s", node, 0.0)
        if not edge:
            net.add_edge(u, v)
    net.remove_edge(u, v)
    repaired = _memo(net)["repaired"]

    net.service(workers=THREADS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    stop = threading.Event()
    errors = []

    def write():
        try:
            while not stop.is_set():
                net.update_score("s", node, 0.77)
                net.update_score("bits", bit, 1.0)
                net.add_edge(u, v)
                net.update_score("s", node, 0.0)
                net.update_score("bits", bit, 0.0)
                net.update_score("s", node, 0.77)
                net.update_score("bits", bit, 1.0)
                net.remove_edge(u, v)
                net.update_score("s", node, 0.0)
                net.update_score("bits", bit, 0.0)
        except Exception as exc:  # pragma: no cover - must not happen
            errors.append(exc)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        for _ in range(ROUNDS * 4):
            handles = [
                (key, builder.submit(cached=False))
                for key, builder in reads.items()
                for _ in range(max(1, THREADS // 2))
            ]
            for key, handle in handles:
                got = _bits(handle.result(timeout=30).entries)
                assert got in [state[key] for state in states], key
    finally:
        stop.set()
        writer.join(timeout=10)
        sys.setswitchinterval(interval)
        net.service().shutdown()
    assert not writer.is_alive() and not errors, errors
    assert _memo(net)["repaired"] > repaired


# ---------------------------------------------------------------------------
# The Python backend
# ---------------------------------------------------------------------------
def test_python_backend_makes_no_entry():
    net = _session(_graph(False), backend="python")
    for aggregate in AGGREGATES:
        for _ in range(2):
            net.query("bits").algorithm("backward").aggregate(aggregate).limit(5).run()
    assert _memo(net) == EMPTY


def test_python_backend_never_reaches_for_numpy():
    script = textwrap.dedent(
        """
        import sys

        attempts = []

        class Block:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    attempts.append(name)
                    raise ImportError("numpy is blocked")
                return None

        sys.meta_path.insert(0, Block())
        from repro import DynamicGraph, Network
        from repro.core.backends import numpy_available

        assert not numpy_available()
        attempts.clear()
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        net = Network(graph, hops=2, backend="python")
        net.add_scores("s", [0.0, 1.0, 0.3, 0.0, 1.0])
        for aggregate in ("sum", "count", "avg", "sum"):
            net.query("s").algorithm("backward").aggregate(aggregate).limit(2).run()
        net.add_edge(0, 4)
        net.update_score("s", 0, 0.5)
        net.query("s").algorithm("backward").limit(2).run()
        phase1 = net._ctx.cache_stats()["phase1"]
        assert phase1 == {
            "entries": 0, "bytes": 0, "hits": 0, "misses": 0, "repaired": 0,
            "dropped": 0,
        }, phase1
        assert attempts == [] and "numpy" not in sys.modules, attempts
        print("ok")
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
