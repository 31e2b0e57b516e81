"""Bench: the serving scheduler must amortize concurrent identical-shape queries.

The acceptance gate for the serving layer: N concurrent queries of the
same shape (different relevance functions — the paper's "heavy query
workloads"), submitted through ``Network.service(workers=...)``, must run
**>= 2x faster** than the same N queries as sequential ``.run()`` calls at
full seed scale, with entry-for-entry identical results.  The speedup is
*coalescing*, not thread parallelism: a held worker pool lets the queue
fill, then one worker drains all compatible requests into a single fused
batch shared scan (PR 3's ``np.add.reduceat`` kernel), so each node block
is expanded once for the whole group.

The fig1 workload uses binary blacking relevance, so every aggregate is an
exact small-integer float and reduction order cannot introduce last-ULP
drift — "identical" means ``==``, not approx.

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_service_coalescing.py
"""

from __future__ import annotations

import time

import pytest

from repro.bench.workloads import figure
from repro.core.backends import numpy_available
from repro.relevance.mixture import MixtureRelevance
from repro.session import Network

_CACHE = {}
NUM_QUERIES = 8
K = 100
#: Full seed scale: the gate must hold on the paper-sized workload.
GATE_SCALE = 1.0
SPEEDUP_GATE = 2.0


def _context():
    if not _CACHE:
        spec = figure("fig1")
        graph = spec.build_graph(scale=GATE_SCALE)
        net = Network(graph, hops=spec.hops)
        for i in range(NUM_QUERIES):
            # Dense binary relevance: density 0.5 routes auto to Base (the
            # shape shared scans amortize), and every aggregate is an exact
            # small-integer float, so coalesced == sequential bit-for-bit.
            net.add_scores(
                f"q{i}", MixtureRelevance(0.5, binary=True, seed=300 + i)
            )
        # Warm the shared artifacts (CSR view, size index) so both sides
        # measure query execution, not one-time cache builds.
        net.query("q0").limit(K).run()
        _CACHE["net"] = net
    return _CACHE


def _sequential(net):
    return [net.query(f"q{i}").limit(K).run() for i in range(NUM_QUERIES)]


def _concurrent(net):
    # cached=False: the gate measures scheduling + execution, never the
    # result cache (which would trivialize repeat rounds).
    handles = [
        net.query(f"q{i}").limit(K).submit(cached=False)
        for i in range(NUM_QUERIES)
    ]
    return [handle.result(timeout=120) for handle in handles]


@pytest.mark.skipif(not numpy_available(), reason="fused shared scan needs numpy")
def test_concurrent_coalesced_2x_over_sequential():
    net = _context()["net"]
    sequential_times = []
    concurrent_times = []
    service = net.service(workers=2)
    try:
        baseline = _sequential(net)
        # Interleave rounds so drift (thermal, GC) hits both paths evenly.
        for _ in range(3):
            start = time.perf_counter()
            seq_results = _sequential(net)
            sequential_times.append(time.perf_counter() - start)

            start = time.perf_counter()
            con_results = _concurrent(net)
            concurrent_times.append(time.perf_counter() - start)

            # Entry-for-entry identity, every query, every round.
            for a, b, c in zip(baseline, seq_results, con_results):
                assert a.entries == b.entries == c.entries
        assert service.stats()["coalesced_queries"] > 0, (
            "scheduler never coalesced — the gate would be measuring threads"
        )
    finally:
        service.shutdown()
    sequential = min(sequential_times)
    concurrent = min(concurrent_times)
    speedup = sequential / concurrent
    assert speedup >= SPEEDUP_GATE, (
        f"coalesced serving too slow: {NUM_QUERIES} concurrent queries took "
        f"{concurrent * 1e3:.1f} ms vs {sequential * 1e3:.1f} ms sequential "
        f"({speedup:.2f}x < {SPEEDUP_GATE}x)"
    )

