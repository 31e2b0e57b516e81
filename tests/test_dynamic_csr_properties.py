"""Property tests: the graph-owned CSR, the CSR-derived size bounds and the
numpy maintained view follow a mutating graph exactly.

Random interleavings of ``add_edge`` / ``remove_edge`` / ``add_node`` (plus
score updates for the views) on directed and undirected graphs that start
anywhere from empty.  After *every* step:

* ``graph.csr()`` / ``graph.rev_csr()`` equal a fresh ``to_csr(...)`` in
  ``indptr`` and ``indices`` — element for element, so also in within-slice
  order, which the differential index is position-aligned to;
* the ``CSRGraph`` taken before the step is bit-unchanged (a reader or ball
  cache holding it keeps a consistent snapshot);
* ``csr_estimates`` equals ``upper_estimate`` / ``lower_estimate`` for hops
  0-4 and both ball conventions;
* the numpy view's ``(sums, sizes)`` and ``topk`` entries equal the python
  view's and a from-scratch ``base_topk`` (dyadic scores: sums are exact).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.base import base_topk  # noqa: E402
from repro.core.query import QuerySpec  # noqa: E402
from repro.dynamic import DynamicGraph, MaintainedAggregateView  # noqa: E402
from repro.graph.csr import to_csr  # noqa: E402
from repro.graph.neighborhood import (  # noqa: E402
    csr_estimates,
    lower_estimate,
    upper_estimate,
)

#: (kind, a, b): ``a`` / ``b`` pick nodes, an existing edge or a score, modulo
#: whatever exists when the step runs.
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["add_edge", "remove_edge", "readd_edge", "add_node", "score"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=40,
)
#: Few distinct dyadic values: exact sums in any order, and plenty of ties.
DYADIC = (0.0, 0.25, 0.5, 1.0)


def start_graph(nodes: int, seed_edges, directed: bool) -> DynamicGraph:
    graph = DynamicGraph([[] for _ in range(nodes)], directed=directed)
    for a, b in seed_edges:
        if nodes >= 2:
            u, v = a % nodes, b % nodes
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return graph


def apply(step, graph: DynamicGraph, targets) -> None:
    """Run one step through every object in ``targets`` (graphs or views over
    equal graphs); steps that do not apply to the current state are skipped."""
    kind, a, b = step
    n = graph.num_nodes
    if kind == "add_node":
        for target in targets:
            target.add_node()
    elif kind == "score":
        if n and hasattr(targets[0], "update_score"):
            for target in targets:
                target.update_score(a % n, DYADIC[b % len(DYADIC)])
    elif kind == "add_edge":
        if n >= 2 and a % n != b % n and not graph.has_edge(a % n, b % n):
            for target in targets:
                target.add_edge(a % n, b % n)
    else:
        edges = list(graph.edges())
        if edges:
            u, v = edges[a % len(edges)]
            if b % 2 and not graph.directed:
                u, v = v, u  # an undirected edge leaves by either name
            for target in targets:
                target.remove_edge(u, v)
                if kind == "readd_edge":
                    target.add_edge(u, v)


def same_arrays(got, want) -> bool:
    """``want`` is a from-scratch ``to_csr(graph, use_numpy=True)``: a patched
    view must match it dtype for dtype, whatever index width it hands out."""
    return (
        got.directed == want.directed
        and got.indptr.dtype == want.indptr.dtype == np.int64
        and got.indices.dtype == want.indices.dtype
        and np.array_equal(got.indptr, want.indptr)
        and np.array_equal(got.indices, want.indices)
    )


@settings(deadline=None, max_examples=60)
@given(
    nodes=st.integers(min_value=0, max_value=7),
    seed_edges=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=8),
    directed=st.booleans(),
    steps=STEPS,
)
def test_patched_csr_and_bounds_follow_every_mutation(nodes, seed_edges, directed, steps):
    graph = start_graph(nodes, seed_edges, directed)
    graph.csr(), graph.rev_csr()  # from here on the graph patches, never rebuilds
    for step in steps:
        held = graph.csr()
        frozen = (held.indptr.copy(), held.indices.copy())
        version = graph.version
        apply(step, graph, [graph])
        assert np.array_equal(held.indptr, frozen[0])
        assert np.array_equal(held.indices, frozen[1])
        if graph.version != version:
            assert graph.csr() is not held
        assert same_arrays(graph.csr(), to_csr(graph, use_numpy=True))
        if directed:
            assert same_arrays(graph.rev_csr(), to_csr(graph.reversed(), use_numpy=True))
        else:
            assert graph.rev_csr() is None
        for hops in range(5):
            for include_self in (True, False):
                upper, lower = csr_estimates(graph.csr(), hops, include_self=include_self)
                assert upper.tolist() == upper_estimate(graph, hops, include_self=include_self)
                assert lower.tolist() == lower_estimate(graph, hops, include_self=include_self)


def test_inserts_sharing_one_slot_keep_their_rows_order():
    # Rows 1..3 are empty, so both arcs of (3, 1) land on flat position 0;
    # row 1's must come out first whichever endpoint the caller named first.
    graph = DynamicGraph([[] for _ in range(4)])
    graph.csr()
    graph.add_edge(3, 1)
    assert graph.csr().indices.tolist() == [3, 1]
    assert same_arrays(graph.csr(), to_csr(graph, use_numpy=True))


def test_estimates_do_not_wrap_on_a_dense_hub():
    # 1 hub x 300 leaves, h = 12: the reference's Python ints reach
    # 300 * 299**10 before its cap check; the int64 table must clamp first.
    hub = DynamicGraph.from_edges([(0, leaf) for leaf in range(1, 301)])
    upper, _ = csr_estimates(hub.csr(), 12)
    assert upper.tolist() == upper_estimate(hub, 12)


@settings(deadline=None, max_examples=40)
@given(
    nodes=st.integers(min_value=0, max_value=7),
    seed_edges=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=8),
    directed=st.booleans(),
    include_self=st.booleans(),
    hops=st.integers(min_value=0, max_value=3),
    score_picks=st.lists(st.integers(0, 3), min_size=7, max_size=7),
    steps=STEPS,
)
def test_numpy_view_equals_python_view_and_scratch(
    nodes, seed_edges, directed, include_self, hops, score_picks, steps
):
    scores = [DYADIC[pick] for pick in score_picks[:nodes]]
    views = [
        MaintainedAggregateView(
            start_graph(nodes, seed_edges, directed), scores,
            hops=hops, include_self=include_self, backend=backend,
        )
        for backend in ("numpy", "python")
    ]
    fast, reference = views
    assert isinstance(fast._sums, np.ndarray) and isinstance(reference._sums, list)
    for step in [None] + steps:
        if step is not None:
            apply(step, reference.graph, views)
        n = reference.graph.num_nodes
        assert fast._sums.tolist() == reference._sums
        assert fast._sizes.tolist() == reference._sizes
        assert fast.scores == reference.scores
        for aggregate in ("sum", "avg"):
            # k = 1 and 3 cut through ties; n + 2 asks for more than exists.
            for k in (1, 3, n + 2):
                got = fast.topk(k, aggregate).entries
                assert got == reference.topk(k, aggregate).entries
                assert all(type(u) is int and type(x) is float for u, x in got)
                scratch = base_topk(
                    reference.graph, reference.scores,
                    QuerySpec(k=k, aggregate=aggregate, hops=hops,
                              include_self=include_self, backend="python"),
                )
                assert got == scratch.entries
            for node in range(n):
                assert fast.value(node, aggregate) == reference.value(node, aggregate)


def test_view_topk_cuts_through_a_long_tie():
    # Three scored pairs above 200 isolated nodes tied at 0.0: the prefix
    # the numpy view sorts ends inside the tie for most k, and the lowest
    # ids must still win it.
    scores = [DYADIC[1 + u % 3] if u < 6 else 0.0 for u in range(206)]
    views = []
    for backend in ("numpy", "python"):
        graph = DynamicGraph([[] for _ in range(206)])
        for u in (0, 2, 4):
            graph.add_edge(u, u + 1)
        views.append(MaintainedAggregateView(graph, scores, hops=1, backend=backend))
    fast, reference = views
    for aggregate in ("sum", "avg"):
        for k in (1, 2, 6, 7, 64, 205, 206, 300):
            got = fast.topk(k, aggregate).entries
            assert got == reference.topk(k, aggregate).entries
            scratch = base_topk(
                reference.graph, scores,
                QuerySpec(k=k, aggregate=aggregate, hops=1, backend="python"),
            )
            assert got == scratch.entries
            assert len(got) == min(k, 206)
