"""Ablation abl-batch: shared scans for heavy query workloads.

Sec. II motivates LONA with "heavy query workloads"; this benchmark
measures the multi-query optimization along two axes:

* shared scan vs q sequential Base runs (per backend) — the traversal
  amortization;
* the *fused* numpy batch kernel vs q per-query numpy Base runs — the
  vectorized batch must beat even vectorized single-query execution,
  because each node block is expanded once and every query scores against
  it in a single segmented reduction.

``Network.batch`` routing (dense shared, sparse peeled to backward) is
timed on the mixed workload.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import figure
from repro.core.backends import numpy_available
from repro.core.base import base_topk
from repro.core.batch import BatchQuery, batch_base_topk
from repro.core.query import QuerySpec
from repro.relevance.mixture import MixtureRelevance
from repro.session import Network

_CACHE = {}
NUM_QUERIES = 6

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)


def _context():
    if not _CACHE:
        spec = figure("fig1")
        graph = spec.build_graph(scale=0.25)
        dense = [
            MixtureRelevance(0.01, zero_fraction=0.0, seed=40 + i).scores(graph)
            for i in range(NUM_QUERIES)
        ]
        sparse = [
            MixtureRelevance(0.01, binary=True, seed=80 + i).scores(graph)
            for i in range(NUM_QUERIES // 2)
        ]
        _CACHE["graph"] = graph
        _CACHE["dense"] = dense
        _CACHE["sparse"] = sparse
        if numpy_available():
            graph.csr()  # offline: built once, outside the timed rounds
    return _CACHE


@pytest.mark.parametrize("backend", BACKENDS)
def test_sequential_base_runs(benchmark, backend):
    ctx = _context()

    def run():
        return [
            base_topk(
                ctx["graph"],
                vector.values(),
                QuerySpec(k=20, hops=2, backend=backend),
            )
            for vector in ctx["dense"]
        ]

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["backend"] = backend
    assert len(results) == NUM_QUERIES


@pytest.mark.parametrize("backend", BACKENDS)
def test_shared_scan_batch(benchmark, backend):
    ctx = _context()
    queries = [BatchQuery(vector, k=20) for vector in ctx["dense"]]

    def run():
        return batch_base_topk(
            ctx["graph"],
            queries,
            hops=2,
            backend=backend,
        )

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["backend"] = backend
    assert len(results) == NUM_QUERIES


def test_mixed_workload_engine(benchmark):
    ctx = _context()
    queries = [BatchQuery(vector, k=20) for vector in ctx["dense"]] + [
        BatchQuery(vector, k=20) for vector in ctx["sparse"]
    ]
    net = Network(ctx["graph"], hops=2)

    def run():
        return net.batch(queries)

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == len(queries)
