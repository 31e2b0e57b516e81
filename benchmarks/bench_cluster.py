"""Cluster-backend comm bench: θ-shipping volume vs naive and vs the forecast.

The socket cluster's claim is not wall-clock on one box (two localhost
workers cannot beat one process on one core) — it is **bytes on the
wire**.  Candidate entries ship as flat int64+float64 pairs, 16 bytes
each, so shipped volume is deterministic and measurable on any machine,
including single-CPU CI runners; both gates below are byte-based and are
therefore always evaluated (``gate_evaluated`` is always true).

On the fig1 collaboration graph with zipf-skewed scores (the regime the
paper's threshold algorithms target — a few hub neighborhoods hold most
of the mass), one base scan at ``k=10`` over 4 bfs shards is run twice:

* ``ship_policy="threshold"`` — per-round θ-shipping plus adaptive
  per-peer quotas (the default);
* ``ship_policy="all"`` — the naive baseline: every shard ships its full
  local top-k (the every-peer-returns-its-k merge of Akbarinia et al.).

Gates:

1. **θ-reduction >= 2x** — the threshold run must ship at most half the
   candidate bytes of the naive run on this skewed workload.
2. **Forecast within 1.5x** — the naive run's measured candidate bytes
   must land within 1.5x (either side) of
   ``comm_forecast(SHARDS, K)["predicted_candidate_bytes"]``, the number
   ``.explain()`` prints for a cluster plan (``shards * k * 16``).  If the
   socket path ships a materially different volume than the planner tells
   users, one of the two is wrong.

Two modes::

    PYTHONPATH=src python benchmarks/bench_cluster.py --write   # baseline
    PYTHONPATH=src python benchmarks/bench_cluster.py --check   # compare

``--check`` warns (GitHub annotations) when a gate fails or the θ
reduction regresses more than ``--tolerance`` against
``benchmarks/BENCH_cluster.json``; ``--strict`` turns warnings into exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
BASELINE_PATH = _BENCH_DIR / "BENCH_cluster.json"

SCALE = 1.0
K = 10
WORKERS = 2
SHARDS = 4
THETA_GATE = 2.0
FORECAST_GATE = 1.5


def _zipf_scores(n: int, *, exponent: float = 1.1, seed: int = 7) -> list:
    """Zipf-ranked positive scores assigned to a random node permutation."""
    rng = random.Random(seed)
    ranked = [1.0 / (rank + 1.0) ** exponent for rank in range(n)]
    nodes = list(range(n))
    rng.shuffle(nodes)
    scores = [0.0] * n
    for rank, node in enumerate(nodes):
        scores[node] = ranked[rank]
    return scores


def _run_cluster_scan(graph, scores, hops: int, ship_policy: str) -> dict:
    from repro.session import Network

    net = Network(graph, hops=hops)
    net.add_scores("bench", scores)
    net.cluster(
        workers=WORKERS,
        shards=SHARDS,
        min_nodes=0,
        ship_policy=ship_policy,
    )
    try:
        result = (
            net.query("bench").limit(K).algorithm("base")
            .backend("cluster").run()
        )
        reference = (
            net.query("bench").limit(K).algorithm("base")
            .backend("numpy").run()
        )
        assert [e[0] for e in result.entries] == [
            e[0] for e in reference.entries
        ], f"ship_policy={ship_policy}: cluster and numpy answers diverged"
        extra = result.stats.extra
        return {
            "candidates_shipped": extra["candidates_shipped"],
            "candidates_pruned": extra["candidates_pruned"],
            "shipped_candidate_bytes": extra["shipped_candidate_bytes"],
            "comm_rounds": extra["comm_rounds"],
            "bytes_sent": extra["bytes_sent"],
            "bytes_received": extra["bytes_received"],
        }
    finally:
        net.close()


def measure(scale: float = SCALE) -> dict:
    from repro.bench.workloads import figure
    from repro.cluster.comm import comm_forecast

    spec = figure("fig1")
    graph = spec.build_graph(scale)
    scores = _zipf_scores(graph.num_nodes)

    threshold = _run_cluster_scan(graph, scores, spec.hops, "threshold")
    naive = _run_cluster_scan(graph, scores, spec.hops, "all")
    forecast = comm_forecast(SHARDS, K, workers=WORKERS)

    theta_reduction = (
        naive["shipped_candidate_bytes"] / threshold["shipped_candidate_bytes"]
        if threshold["shipped_candidate_bytes"]
        else float("inf")
    )
    forecast_ratio = (
        naive["shipped_candidate_bytes"] / forecast["predicted_candidate_bytes"]
    )
    return {
        "scale": scale,
        "k": K,
        "workers": WORKERS,
        "shards": SHARDS,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "theta_gate": THETA_GATE,
        "forecast_gate": FORECAST_GATE,
        # Byte counters need no spare cores — always judged, even on 1 CPU.
        "gate_evaluated": True,
        "threshold": threshold,
        "naive": naive,
        "forecast": forecast,
        "theta_reduction": round(theta_reduction, 3),
        "forecast_ratio": round(forecast_ratio, 3),
    }


def check(report: dict, baseline: dict, tolerance: float) -> list:
    """Gate + baseline comparison; returns warning strings."""
    warnings = []
    reduction = report["theta_reduction"]
    if reduction < THETA_GATE:
        warnings.append(
            f"θ-shipping shipped only {reduction:.2f}x fewer candidate "
            f"bytes than ship_policy='all' (gate {THETA_GATE:.0f}x): "
            f"{report['threshold']['shipped_candidate_bytes']:.0f} vs "
            f"{report['naive']['shipped_candidate_bytes']:.0f}"
        )
    ratio = report["forecast_ratio"]
    if not (1.0 / FORECAST_GATE <= ratio <= FORECAST_GATE):
        warnings.append(
            f"measured naive candidate bytes are {ratio:.2f}x the planner's "
            f"forecast (gate: within {FORECAST_GATE:.1f}x): "
            f"{report['naive']['shipped_candidate_bytes']:.0f} measured vs "
            f"{report['forecast']['predicted_candidate_bytes']:.0f} predicted"
        )
    recorded = baseline.get("theta_reduction")
    if recorded and reduction < recorded * (1 - tolerance):
        warnings.append(
            f"θ reduction regressed {recorded:.2f}x -> {reduction:.2f}x "
            f"(> {tolerance:.0%} drop vs committed baseline)"
        )
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the baseline")
    mode.add_argument("--check", action="store_true", help="compare + gate")
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--tolerance", type=float, default=0.2)
    parser.add_argument("--strict", action="store_true", help="exit 1 on warnings")
    args = parser.parse_args(argv)

    report = measure(scale=args.scale)
    print(json.dumps(report, indent=2))

    if args.write:
        BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    )
    if not baseline:
        print(f"::warning::no committed baseline at {BASELINE_PATH}")
    warnings = check(report, baseline, args.tolerance)
    for message in warnings:
        print(f"::warning::cluster bench: {message}")
    if not warnings:
        print("cluster bench: all gates passed")
    return 1 if (warnings and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
