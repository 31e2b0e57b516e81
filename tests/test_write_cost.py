"""A write costs what it changes.

A score write patches its vector (:meth:`ScoreVector.with_value`): one
validated value, a copy of the list and of the array if built, one bisect
into ``nonzero_nodes``; the successor must be indistinguishable from a vector
built from its values.  An edge write re-evaluates only the nodes within
``h - 1`` hops of an endpoint, one reach shared by the ball index and every
maintained view: no node outside it may have changed its ball, and the views
must equal fresh ones.  Readers racing the writes see the old state or the
new one, never a half-patched vector.
"""

from __future__ import annotations

import math
import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Network
from repro.core.backends import numpy_available
from repro.dynamic import DynamicGraph, MaintainedAggregateView
from repro.errors import RelevanceError
from repro.relevance.base import ScoreVector
from tests.conftest import ref_ball

THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "4"))
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "3"))
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
N = 48


# ---------------------------------------------------------------------------
# Score writes: the successor vector
# ---------------------------------------------------------------------------
#: 0/1, dyadic and non-dyadic values: chains mix them, so a vector turns
#: binary and back.
VALUES = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(min_value=0, max_value=16).map(lambda i: i / 16),
    st.floats(min_value=0.0, max_value=1.0),
)


def _assert_same(got: ScoreVector, values) -> None:
    want = ScoreVector(values)
    assert got.values() == want.values()
    assert got.nonzero_nodes == want.nonzero_nodes
    assert got.is_binary == want.is_binary
    assert got.density == want.density
    assert got.descending_nonzero() == want.descending_nonzero()
    if numpy_available():
        np = pytest.importorskip("numpy")
        assert np.array_equal(got.array(), want.array())
        assert not got.array().flags.writeable
        for column, expected in zip(got.sorted_access(), want.sorted_access()):
            assert np.array_equal(column, expected)


@settings(max_examples=60, deadline=None)
@given(
    start=st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=24),
    writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000), VALUES, st.booleans()),
        max_size=40,
    ),
)
def test_a_chain_of_writes_equals_a_vector_built_from_its_values(start, writes):
    vector = ScoreVector(start)
    values = list(start)
    for slot, value, built in writes:
        if built and numpy_available():
            vector.array()  # the successor then copies the array
        node = slot % len(values)
        held = vector.values()
        successor = vector.with_value(node, value)
        assert vector.values() == held  # the predecessor is untouched
        values[node] = value
        _assert_same(successor, values)
        vector = successor


def test_a_vector_turns_binary_and_back_without_a_scan():
    vector = ScoreVector([0.0, 1.0, 0.0, 1.0])
    graded = vector.with_value(2, 0.3)
    assert vector.is_binary and not graded.is_binary
    again = graded.with_value(2, 1.0)
    assert again.is_binary and again.nonzero_nodes == (1, 2, 3)
    assert again.with_value(1, 0.0).nonzero_nodes == (2, 3)


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
def test_a_bad_value_raises_and_changes_nothing(bad):
    vector = ScoreVector([0.25, 0.0, 1.0])
    with pytest.raises(RelevanceError):
        vector.with_value(1, bad)
    assert vector.values() == [0.25, 0.0, 1.0] and vector.nonzero_nodes == (0, 2)
    with pytest.raises(RelevanceError):
        vector.with_value(3, 0.5)  # no such node (nor a negative one)
    with pytest.raises(RelevanceError):
        vector.with_value(-1, 0.5)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
def test_a_bad_session_write_leaves_vector_and_view_unchanged(backend, bad):
    net = _dynamic_session(backend)
    view = net.maintain("s")
    vector, epoch = net.scores_of("s"), net._score_epoch("s")
    scores, sums = list(view.scores), list(view._sums)
    with pytest.raises(RelevanceError):
        net.update_score("s", 3, bad)
    assert net.scores_of("s") is vector and net._score_epoch("s") == epoch
    assert view.scores == scores and list(view._sums) == sums
    assert net.query("s").algorithm("view").limit(5).run().entries == (
        net.query("s").algorithm("base").limit(5).run().entries
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_update_score_never_rebuilds_a_vector(backend, monkeypatch):
    net = _dynamic_session(backend)
    net.maintain("s")
    net.add_scores("t", _dyadic(7))
    built = []
    real = ScoreVector.__init__
    monkeypatch.setattr(
        ScoreVector, "__init__", lambda self, values: built.append(1) or real(self, values)
    )
    for node in range(0, N, 5):
        net.update_score("s", node, 0.5)  # through the view
        net.update_score("t", node, 1.0)  # no view
    assert built == []
    assert net.scores_of("s")[5] == 0.5 and net.scores_of("t")[5] == 1.0


# ---------------------------------------------------------------------------
# Edge writes: the reach
# ---------------------------------------------------------------------------
def _graph(directed: bool, seed: int = 5) -> DynamicGraph:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 2 * N:
        u, v = rng.randrange(N - 4), rng.randrange(N - 4)
        if u != v:
            edges.add((u, v) if directed else (min(u, v), max(u, v)))
    return DynamicGraph.from_edges(sorted(edges), num_nodes=N, directed=directed)


def _dyadic(seed: int):
    rng = random.Random(seed)
    return [rng.randrange(0, 9) / 8 if rng.random() < 0.6 else 0.0 for _ in range(N)]


def _dynamic_session(backend, directed=False, hops=2, include_self=True):
    net = Network(_graph(directed), hops=hops, include_self=include_self, backend=backend)
    net.add_scores("s", _dyadic(3))
    return net


def _reach(graph, u, v, hops):
    """Reference: the nodes within ``hops - 1`` hops of an endpoint (on a
    directed graph, of the nodes reaching ``u``)."""
    if hops == 0:
        return set()
    if graph.directed:
        return ref_ball(graph.reversed(), u, hops - 1)
    return ref_ball(graph, u, hops - 1) | ref_ball(graph, v, hops - 1)


def _balls(graph, hops, include_self):
    return [ref_ball(graph, x, hops, include_self=include_self) for x in graph.nodes()]


def _assert_fresh(view):
    graph = view.graph
    fresh = MaintainedAggregateView(
        DynamicGraph.from_edges(
            list(graph.edges()), num_nodes=graph.num_nodes, directed=graph.directed
        ),
        view.scores, hops=view.hops, include_self=view.include_self, backend="python",
    )
    assert [float(x) for x in view._sums] == fresh._sums
    assert [int(x) for x in view._sizes] == fresh._sizes


CONFIGS = [
    (directed, hops, include_self)
    for directed in (False, True)
    for hops in (1, 2, 3)
    for include_self in (True, False)
]


@pytest.mark.parametrize("directed,hops,include_self", CONFIGS)
def test_only_the_reach_changes_and_every_view_repairs_it(directed, hops, include_self):
    sessions = [
        _dynamic_session(backend, directed, hops, include_self) for backend in BACKENDS
    ]
    views = [net.maintain("s") for net in sessions]
    for net in sessions:
        net.query("s").limit(5).run()  # a numpy session keeps its ball index
    standalone = [
        MaintainedAggregateView(
            _graph(directed), _dyadic(3), hops=hops, include_self=include_self,
            backend=backend,
        )
        for backend in BACKENDS
    ]
    rng = random.Random(hops * 10 + include_self + 2 * directed)
    graph = sessions[0].graph
    for step in range(20):
        before = _balls(graph, hops, include_self)
        if rng.random() < 0.5:
            u, v = rng.choice(list(graph.edges()))
            kind = "remove_edge"
        else:
            u, v = rng.randrange(N), rng.randrange(N)
            while u == v or graph.has_edge(u, v):
                u, v = rng.randrange(N), rng.randrange(N)
            kind = "add_edge"
        reach = _reach(graph, u, v, hops)  # the same with or without the arc
        counts = [getattr(target, kind)(u, v) for target in sessions + standalone]
        assert counts == [len(reach)] * len(counts)
        assert reach == _reach(graph, u, v, hops)
        after = _balls(graph, hops, include_self)
        assert {x for x in graph.nodes() if before[x] != after[x]} <= reach
        node = rng.randrange(N)
        value = rng.randrange(0, 9) / 8
        for net in sessions:
            net.update_score("s", node, value)
        for view in standalone:
            view.update_score(node, value)
        for view in views + standalone:
            _assert_fresh(view)
        if numpy_available() and step % 5 == 4:
            index = sessions[-1]._ctx._ball_index
            assert index is not None and index.csr is sessions[-1].graph.csr()


@pytest.mark.skipif(not numpy_available(), reason="the ball index needs numpy")
def test_one_reach_per_write_serves_the_index_and_every_view(monkeypatch):
    import repro.core.context as context
    import repro.dynamic.maintenance as maintenance

    net = _dynamic_session("numpy")
    net.add_scores("t", _dyadic(9))
    views = [net.maintain("s"), net.maintain("t")]
    net.query("s").limit(5).run()
    calls = []
    for module in (context, maintenance):
        real = module.edge_write_reach
        monkeypatch.setattr(
            module, "edge_write_reach",
            lambda *args, real=real: calls.append(1) or real(*args),
        )
    u, v = next((u, v) for u in range(N) for v in range(u + 1, N) if not net.graph.has_edge(u, v))
    assert net.add_edge(u, v) == 2 * len(_reach(net.graph, u, v, 2))
    assert net.remove_edge(u, v) == 2 * len(_reach(net.graph, u, v, 2))
    assert len(calls) == 2
    for view in views:
        _assert_fresh(view)


# ---------------------------------------------------------------------------
# Readers against writers
# ---------------------------------------------------------------------------
def _consistent(vector: ScoreVector) -> bool:
    values = vector.values()
    return (
        vector.nonzero_nodes == tuple(i for i, x in enumerate(values) if x > 0.0)
        and vector.is_binary == all(x in (0.0, 1.0) for x in values)
        and (vector._array is None or vector._array.tolist() == values)
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_racing_readers_see_the_old_state_or_the_new(backend):
    net = _dynamic_session(backend)
    net.maintain("s")
    u, v = next((u, v) for u in range(N) for v in range(u + 1, N) if not net.graph.has_edge(u, v))
    node = next(x for x in range(N) if net.scores_of("s")[x] == 0.0)
    reads = {
        "view": net.query("s").algorithm("view").limit(6),
        "base": net.query("s").algorithm("base").limit(6),
        "backward": net.query("s").algorithm("backward").aggregate("avg").limit(6),
    }

    def answers():
        return {tag: builder.run().entries for tag, builder in reads.items()}

    # Every state the writer passes through: edge absent/present, score 0/1.
    states = []
    for edge in (False, True):
        for value in (0.0, 1.0):
            net.update_score("s", node, value)
            states.append(answers())
            net.update_score("s", node, 0.0)
        if not edge:
            net.add_edge(u, v)
    net.remove_edge(u, v)

    net.service(workers=THREADS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    stop = threading.Event()
    errors = []

    def write():
        try:
            while not stop.is_set():
                net.update_score("s", node, 1.0)
                net.add_edge(u, v)
                net.update_score("s", node, 0.0)
                net.update_score("s", node, 1.0)
                net.remove_edge(u, v)
                net.update_score("s", node, 0.0)
        except Exception as exc:  # pragma: no cover - must not happen
            errors.append(exc)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        for _ in range(ROUNDS * 4):
            assert _consistent(net.scores_of("s"))
            handles = [
                (tag, builder.submit(cached=False))
                for tag, builder in reads.items()
                for _ in range(THREADS)
            ]
            for tag, handle in handles:
                got = handle.result(timeout=30).entries
                assert got in [state[tag] for state in states], tag
    finally:
        stop.set()
        writer.join(timeout=10)
        sys.setswitchinterval(interval)
        net.service().shutdown()
    assert not writer.is_alive() and not errors, errors
    assert _consistent(net.scores_of("s"))
    _assert_fresh(net.view("s"))
