"""Ablation: pure-Python vs vectorized-numpy execution backend.

Two parts:

* pytest-benchmark cells timing every (algorithm, backend) pair on the
  fig1 (collaboration, SUM) and fig2 (citation, SUM) workloads at the
  bench scale, so backend regressions show up in the recorded timings;
* a speedup gate at the full seed scale (``scale=1.0``, independent of
  ``REPRO_BENCH_SCALE``): the numpy backend must answer the fig1 top-k SUM
  query at least 3x faster than the Python backend for *every* vectorized
  route — Base, LONA-Forward, LONA-Backward, and the weighted base /
  backward variants — with identical node selections.  Offline artifacts
  (differential index, size index, CSR view, flat deltas) are excluded
  from the timed region, matching the paper's treatment of precomputation.
  LONA-Backward routes run on the workload that actually exercises them:
  the sparse binary fig1 scores take the exact-distribution shortcut, so
  the weighted gate uses the dense mixture variant (real verification).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_backend.py -v
"""

from __future__ import annotations

import time

import pytest

from repro.core.backward import backward_topk
from repro.core.base import base_topk
from repro.core.forward import forward_topk
from repro.core.query import QuerySpec
from repro.core.weighted import weighted_backward_topk, weighted_base_topk

numpy = pytest.importorskip("numpy")

BACKENDS = ("python", "numpy")
ALGORITHMS = ("base", "forward", "backward")

#: Routes the full-scale 3x gate covers (superset of the bench cells).
GATED_ROUTES = (
    "base",
    "forward",
    "backward",
    "weighted-base",
    "weighted-backward",
)


@pytest.mark.parametrize("figure_id", ["fig1", "fig2"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_backend_ablation(benchmark, fig_ctx, run_algorithm, bench_k, figure_id, backend, algorithm):
    ctx = fig_ctx(figure_id)
    spec = QuerySpec(k=bench_k, aggregate="sum", hops=2, backend=backend)
    result = benchmark.pedantic(
        lambda: run_algorithm(algorithm, ctx, spec), rounds=3, iterations=1
    )
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["nodes_evaluated"] = result.stats.nodes_evaluated
    benchmark.extra_info["graph_nodes"] = ctx.graph.num_nodes
    assert result.stats.backend == backend
    assert len(result) == bench_k


@pytest.fixture(scope="module")
def full_scale_fig1():
    """fig1 at the full seed scale with all offline artifacts prebuilt."""
    from repro.bench.workloads import figure
    from repro.graph.diffindex import build_differential_index
    from repro.relevance.mixture import MixtureRelevance

    spec = figure("fig1")
    graph = spec.build_graph(1.0)
    scores = spec.build_scores(graph).values()
    dense_scores = (
        MixtureRelevance(0.01, zero_fraction=0.0, seed=7).scores(graph).values()
    )
    diff_index = build_differential_index(graph, spec.hops, include_self=True)
    graph.csr()  # offline, like the index: built once, outside the timings
    return graph, scores, dense_scores, diff_index


def _best_of(fn, reps=3):
    best_time = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        candidate = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best_time:
            best_time, result = elapsed, candidate
    return best_time, result


def route_runner(route, graph, scores, dense_scores, diff_index):
    """``(run(spec), exact)`` for one gated route.

    ``exact`` flags workloads whose values are exact small rationals (so
    the backends must agree entry-for-entry, bit-for-bit); the dense
    continuous workloads compare node selections instead.
    """
    if route == "forward":
        return (
            lambda spec: forward_topk(graph, scores, spec, diff_index=diff_index),
            True,
        )
    if route == "backward":
        return (
            lambda spec: backward_topk(
                graph, scores, spec, sizes=diff_index.sizes
            ),
            True,
        )
    if route == "base":
        return (
            lambda spec: base_topk(graph, scores, spec),
            True,
        )
    if route == "weighted-base":
        return (
            lambda spec: weighted_base_topk(graph, dense_scores, spec),
            False,
        )
    if route == "weighted-backward":
        return (
            lambda spec: weighted_backward_topk(
                graph, dense_scores, spec, sizes=diff_index.sizes
            ),
            False,
        )
    raise ValueError(route)


@pytest.mark.parametrize("route", GATED_ROUTES)
def test_numpy_backend_3x_speedup_at_full_scale(full_scale_fig1, route):
    """Acceptance gate: >= 3x on the fig1 collaboration workloads."""
    graph, scores, dense_scores, diff_index = full_scale_fig1
    spec_py = QuerySpec(k=100, aggregate="sum", hops=2, backend="python")
    spec_np = spec_py.with_backend("numpy")
    run, exact = route_runner(route, graph, scores, dense_scores, diff_index)

    python_time, python_result = _best_of(lambda: run(spec_py))
    numpy_time, numpy_result = _best_of(lambda: run(spec_np))

    if exact:
        # Binary relevance makes every aggregate an exact small rational,
        # so the two backends must agree entry-for-entry, bit-for-bit.
        assert python_result.entries == numpy_result.entries
    else:
        assert python_result.nodes == numpy_result.nodes
    speedup = python_time / numpy_time
    assert speedup >= 3.0, (
        f"{route}: numpy backend only {speedup:.2f}x faster "
        f"({python_time * 1000:.1f}ms python vs {numpy_time * 1000:.1f}ms numpy)"
    )
