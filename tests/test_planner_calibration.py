"""Planner calibration: ``planned`` must agree with measured reality.

``BACKEND_COST_FACTORS`` is calibrated from a fresh
``benchmarks/bench_backend_coverage.py`` run (see the committed baseline
``benchmarks/BENCH_backend_coverage.json``).  These tests pin the *outcome*
of that calibration on the two canonical workloads — the fig1
collaboration-like and fig2 citation-like graphs with the paper's mixture
relevance — where the measured numpy route timings rank backward well
ahead of base and forward (sparse mixture scores; backward's cost tracks
the non-zero count).  A kernel change that shifts the measured ordering
should re-run the bench, update the factors, and then update these pins in
the same commit.

Timing inside a unit test would be flaky on shared runners, so the tests
assert the planner's *choice*, which is a pure function of the factors and
the workload statistics.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import figure
from repro.core.planner import (
    BACKEND_COST_FACTORS,
    BACKEND_FIXED_COSTS,
    QueryPlanner,
)
from repro.core.query import QuerySpec

pytest.importorskip("numpy")

#: Route measured fastest under numpy on both canonical workloads
#: (benchmarks/BENCH_backend_coverage.json: backward 6.1x over python vs
#: base 4.2x / forward 3.7x, and absolute numpy timings ~20x apart).
MEASURED_FASTEST = "backward"


@pytest.fixture(scope="module", params=["fig1", "fig2"])
def workload(request):
    spec = figure(request.param)
    graph = spec.build_graph(0.5)
    scores = spec.build_scores(graph).values()
    return request.param, spec, graph, scores


def test_planned_picks_measured_fastest_route(workload) -> None:
    _fig, spec, graph, scores = workload
    planner = QueryPlanner(
        graph,
        scores,
        hops=spec.hops,
        index_available=True,
        backend="numpy",
    )
    plan = planner.plan(QuerySpec(k=100, hops=spec.hops))
    assert plan.chosen == MEASURED_FASTEST


def test_parallel_plan_keeps_the_same_route_ordering(workload) -> None:
    # The parallel factors are the numpy factors scaled by nominal worker
    # parallelism; they must not reorder the canonical workloads' routes.
    _fig, spec, graph, scores = workload
    plan = QueryPlanner(
        graph,
        scores,
        hops=spec.hops,
        index_available=True,
        backend="parallel",
    ).plan(QuerySpec(k=100, hops=spec.hops))
    assert plan.chosen == MEASURED_FASTEST


def test_factor_tables_cover_every_backend_and_route() -> None:
    for backend in ("python", "numpy", "parallel", "cluster"):
        assert set(BACKEND_COST_FACTORS[backend]) == {
            "base",
            "forward",
            "backward",
        }
        assert backend in BACKEND_FIXED_COSTS
    # Calibration sanity: vectorized execution is a discount, never a
    # markup, and parallel discounts the sharded scans more deeply per
    # expansion.  LONA-Backward runs in process on the sharded backends.
    for route in ("base", "forward", "backward"):
        assert 0 < BACKEND_COST_FACTORS["numpy"][route] < 1
    for route in ("base", "forward"):
        assert (
            0
            < BACKEND_COST_FACTORS["parallel"][route]
            < BACKEND_COST_FACTORS["numpy"][route]
        )
    for backend in ("parallel", "cluster"):
        assert (
            BACKEND_COST_FACTORS[backend]["backward"]
            == BACKEND_COST_FACTORS["numpy"]["backward"]
        )


def test_fixed_costs_rank_process_tiers() -> None:
    # Warm-tier fixed costs: in-process backends pay none; the process
    # pool pays spawn/IPC; the socket cluster pays more.
    assert BACKEND_FIXED_COSTS["python"] == 0.0
    assert BACKEND_FIXED_COSTS["numpy"] == 0.0
    assert 0 < BACKEND_FIXED_COSTS["parallel"] < BACKEND_FIXED_COSTS["cluster"]
