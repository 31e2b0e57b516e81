"""Backend-coverage bench: per-route speedups + batch fusion, as one JSON.

Measures, on the fig1 collaboration workload at the full seed scale, the
python-vs-numpy speedup of every vectorized route — Base, LONA-Forward,
LONA-Backward, weighted base, weighted backward — plus the *batch fusion
gain*: one fused shared scan answering q dense queries vs q per-query
**numpy** Base runs (the fusion must beat even vectorized single-query
execution).  Offline artifacts (differential/size index, CSR views) are
excluded from every timed region.

Two modes:

* ``--write``  — run and (re)write the committed baseline,
  ``benchmarks/BENCH_backend_coverage.json``.
* ``--check``  — run and compare against the committed baseline, emitting
  a GitHub-annotation warning for every number that regressed by more than
  ``--tolerance`` (default 20%), and for every route where numpy is less
  than 3x faster than python.  Exit code stays 0 unless ``--strict``:
  shared CI runners make timings indicative, not gating.

Every timed pair also checks the two backends' answers: entry for entry on
the binary fig1 scores (exact small rationals), node for node on the dense
continuous scores the weighted routes run on (real verification, where
LONA-Backward's exact shortcut does not apply).

Run with::

    PYTHONPATH=src python benchmarks/bench_backend_coverage.py --write
    PYTHONPATH=src python benchmarks/bench_backend_coverage.py --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_backend_coverage.json"

BATCH_QUERIES = 6
K = 100
#: numpy must answer every gated route at least this much faster than python.
SPEEDUP_GATE = 3.0


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


def measure(scale: float = 1.0) -> dict:
    """Run every timed cell and return the report dict."""
    from repro.bench.workloads import figure
    from repro.core.backward import backward_topk
    from repro.core.base import base_topk
    from repro.core.batch import BatchQuery, batch_base_topk
    from repro.core.forward import forward_topk
    from repro.core.query import QuerySpec
    from repro.core.weighted import weighted_backward_topk, weighted_base_topk
    from repro.graph.diffindex import build_differential_index
    from repro.relevance.mixture import MixtureRelevance

    spec = figure("fig1")
    graph = spec.build_graph(scale)
    scores = spec.build_scores(graph).values()
    dense = [
        MixtureRelevance(0.01, zero_fraction=0.0, seed=7 + i).scores(graph)
        for i in range(BATCH_QUERIES)
    ]
    diff_index = build_differential_index(graph, spec.hops, include_self=True)
    sizes = diff_index.sizes
    graph.csr()  # offline, like the index: built once, outside the timings
    py = QuerySpec(k=K, aggregate="sum", hops=2, backend="python")
    np_ = py.with_backend("numpy")

    # Every vectorized route the speedup gate covers.  The binary scores
    # make every value an exact small rational, so those routes must agree
    # entry for entry; the weighted routes run on dense continuous scores
    # (real verification) and compare node selections.
    weighted_scores = dense[0].values()
    routes = {
        "base": lambda q: base_topk(graph, scores, q),
        "forward": lambda q: forward_topk(graph, scores, q, diff_index=diff_index),
        "backward": lambda q: backward_topk(graph, scores, q, sizes=sizes),
        "weighted-base": lambda q: weighted_base_topk(graph, weighted_scores, q),
        "weighted-backward": lambda q: weighted_backward_topk(
            graph, weighted_scores, q, sizes=sizes
        ),
    }
    timings: dict = {}
    speedups: dict = {}
    for route, run in routes.items():
        t_py, r_py = _best_of(partial(run, py))
        t_np, r_np = _best_of(partial(run, np_))
        assert r_py.nodes == r_np.nodes, f"{route}: backend answers diverged"
        if not route.startswith("weighted-"):
            assert r_py.entries == r_np.entries, f"{route}: backend values diverged"
        timings[route] = {"python": t_py, "numpy": t_np}
        speedups[route] = t_py / t_np

    batch = [BatchQuery(vector, k=K) for vector in dense]
    t_per_query, _ = _best_of(
        lambda: [base_topk(graph, vector.values(), np_) for vector in dense]
    )
    t_fused, fused_results = _best_of(
        lambda: batch_base_topk(graph, batch, hops=2, backend="numpy")
    )
    assert len(fused_results) == BATCH_QUERIES

    return {
        "figure": "fig1",
        "scale": scale,
        "k": K,
        "speedups": {route: round(value, 3) for route, value in speedups.items()},
        "batch_fusion": {
            "queries": BATCH_QUERIES,
            "per_query_numpy_sec": round(t_per_query, 4),
            "fused_numpy_sec": round(t_fused, 4),
            "gain": round(t_per_query / t_fused, 3),
        },
        "timings_sec": {
            route: {k: round(v, 4) for k, v in cell.items()}
            for route, cell in timings.items()
        },
    }


def check(report: dict, baseline: dict, tolerance: float) -> list:
    """Compare a fresh report against the committed baseline; list warnings."""
    warnings = []
    if report["scale"] != baseline.get("scale"):
        warnings.append(
            f"scale mismatch (baseline {baseline.get('scale')}, "
            f"run {report['scale']}): ratios compared anyway"
        )
    for route, current in report["speedups"].items():
        if current < SPEEDUP_GATE:
            warnings.append(
                f"{route}: numpy only {current:.2f}x faster than python "
                f"(< {SPEEDUP_GATE:.0f}x gate)"
            )
    for route, recorded in baseline.get("speedups", {}).items():
        current = report["speedups"].get(route)
        if current is None:
            warnings.append(f"route {route!r} missing from this run")
        elif current < recorded * (1.0 - tolerance):
            warnings.append(
                f"{route}: speedup regressed {recorded:.2f}x -> {current:.2f}x "
                f"(> {tolerance:.0%} drop)"
            )
    recorded_gain = baseline.get("batch_fusion", {}).get("gain")
    current_gain = report["batch_fusion"]["gain"]
    if recorded_gain is not None and current_gain < recorded_gain * (1.0 - tolerance):
        warnings.append(
            f"batch fusion gain regressed {recorded_gain:.2f}x -> "
            f"{current_gain:.2f}x (> {tolerance:.0%} drop)"
        )
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the baseline")
    mode.add_argument("--check", action="store_true", help="compare to the baseline")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tolerance", type=float, default=0.2)
    parser.add_argument("--strict", action="store_true", help="exit 1 on regression")
    args = parser.parse_args(argv)

    report = measure(scale=args.scale)
    print(json.dumps(report, indent=2))

    if args.write:
        BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"::warning::no committed baseline at {BASELINE_PATH}")
        return 0
    baseline = json.loads(BASELINE_PATH.read_text())
    warnings = check(report, baseline, args.tolerance)
    for message in warnings:
        print(f"::warning::backend-coverage bench: {message}")
    if not warnings:
        print("backend-coverage bench: no regression beyond tolerance")
    return 1 if (warnings and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
