"""Fault-injection bench: disabled-hook overhead, hedging, recovery latency.

Three measurements back the resilience layer's claims
(``repro/faults/``, PR "robustness"):

1. **Disabled-hook overhead < 1%** — fault points stay in production code
   permanently, so the disabled path (one global load + ``None`` check)
   must be invisible.  Measured as ``crossings x per_call / query_time``
   for one cluster scan on the fig1 workload: per-call cost from a tight
   disabled-path loop, crossing count from an empty counting
   :class:`~repro.faults.FaultPlan` (no rules — counts hits, injects
   nothing), scaled 3x to conservatively cover worker-side crossings the
   coordinator cannot count.
2. **Hedging >= 2x** — with one of two workers delayed 10x (a seeded
   ``delay`` rule matched to ``peer: 1``), round completion with
   ``hedge=True`` must beat ``hedge=False`` by the gate factor: the late
   task is re-issued to the idle fast peer and first-reply-wins.
3. **Recovery latency** (recorded, no gate) — wall-clock cost of
   absorbing ``preset:crash-heavy`` worker deaths across a query burst,
   relative to the same burst fault-free.

All three are sleep/counter-based, not core-count-sensitive, so the gates
are always judged (``gate_evaluated`` is always true).

Two modes::

    PYTHONPATH=src python benchmarks/bench_faults.py --write   # baseline
    PYTHONPATH=src python benchmarks/bench_faults.py --check   # compare

``--check`` warns (GitHub annotations) when a gate fails or hedging
regresses more than ``--tolerance`` against ``benchmarks/BENCH_faults.json``;
``--strict`` turns warnings into exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
BASELINE_PATH = _BENCH_DIR / "BENCH_faults.json"

WORKERS = 2
K = 10
SEED = 2010
OVERHEAD_GATE = 0.01
HEDGE_GATE = 2.0

#: The slow peer's injected per-task delay (seconds) — ~10x a typical
#: worker task on this workload, and 4x the transport's minimum hedge
#: threshold so the hedger has unambiguous prey.
SLOW_TASK_DELAY = 1.0


def _scores(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]


# ----------------------------------------------------------------------
# 1. Disabled-hook overhead
# ----------------------------------------------------------------------
def _disabled_per_call_seconds(iterations: int = 200_000) -> float:
    from repro.faults import clear_plan, fault_point

    clear_plan()
    fault_point("bench.disabled", peer=0)  # warm the import path
    started = time.perf_counter()
    for _ in range(iterations):
        fault_point("bench.disabled", peer=0)
    return (time.perf_counter() - started) / iterations


def measure_overhead(scale: float) -> dict:
    from repro.bench.workloads import figure
    from repro.faults import FaultPlan, clear_plan, install_plan
    from repro.session import Network

    spec = figure("fig1")
    graph = spec.build_graph(scale)
    scores = _scores(graph.num_nodes, 11)

    per_call = _disabled_per_call_seconds()

    net = Network(graph, hops=spec.hops)
    net.add_scores("bench", scores)
    net.cluster(workers=WORKERS, min_nodes=0)
    try:
        # Warm-up spawns workers and ships stores off the clock.
        net.query("bench").limit(K).backend("cluster").run()
        counting = FaultPlan([])  # no rules: counts crossings, injects nothing
        install_plan(counting)
        started = time.perf_counter()
        net.query("bench").limit(K).backend("cluster").run()
        elapsed = time.perf_counter() - started
        clear_plan()
        coordinator_crossings = sum(counting.hits().values())
    finally:
        clear_plan()
        net.close()

    # Workers cross their own hooks (task + frame recv) — unobservable
    # from here, so charge 3x the coordinator count as a conservative
    # ceiling on total crossings.
    crossings = 3 * coordinator_crossings
    overhead_fraction = (crossings * per_call) / elapsed if elapsed else 0.0
    return {
        "per_call_ns": round(per_call * 1e9, 2),
        "coordinator_crossings": coordinator_crossings,
        "charged_crossings": crossings,
        "query_seconds": round(elapsed, 6),
        "overhead_fraction": round(overhead_fraction, 8),
        "gate": OVERHEAD_GATE,
    }


# ----------------------------------------------------------------------
# 2. Hedging vs a straggler peer
# ----------------------------------------------------------------------
def _straggler_round_seconds(hedge: bool, scale: float) -> dict:
    """Median round time with peer 1 delayed; one engine per setting."""
    from repro.bench.workloads import figure
    from repro.faults import ENV_VAR
    from repro.session import Network

    spec = figure("fig1")
    graph = spec.build_graph(scale)
    scores = _scores(graph.num_nodes, 12)

    plan_spec = json.dumps(
        {
            "seed": SEED,
            "rules": [
                {
                    "point": "cluster.worker.task",
                    "kind": "delay",
                    "delay": SLOW_TASK_DELAY,
                    "match": {"peer": 1},
                }
            ],
        }
    )
    saved = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = plan_spec
    try:
        net = Network(graph, hops=spec.hops)
        net.add_scores("bench", scores)
        net.cluster(workers=WORKERS, min_nodes=0, hedge=hedge)
        try:
            # Warm-up: spawn + store shipping + latency history (the
            # hedger needs a few samples per peer before it computes a
            # threshold).  The straggler is already slow here — that is
            # exactly the history the quantile tracker should see.
            for _ in range(3):
                net.query("bench").limit(K).backend("cluster").run()
            timings = []
            for _ in range(3):
                started = time.perf_counter()
                net.query("bench").limit(K).backend("cluster").run()
                timings.append(time.perf_counter() - started)
            engine_stats = net.cluster().stats()
            return {
                "median_seconds": round(sorted(timings)[len(timings) // 2], 4),
                "timings": [round(t, 4) for t in timings],
                "hedges": engine_stats.get("hedges", 0),
                "hedge_wins": engine_stats.get("hedge_wins", 0),
            }
        finally:
            net.close()
    finally:
        if saved is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = saved


def measure_hedging(scale: float) -> dict:
    baseline = _straggler_round_seconds(hedge=False, scale=scale)
    hedged = _straggler_round_seconds(hedge=True, scale=scale)
    speedup = (
        baseline["median_seconds"] / hedged["median_seconds"]
        if hedged["median_seconds"]
        else float("inf")
    )
    return {
        "slow_task_delay": SLOW_TASK_DELAY,
        "no_hedge": baseline,
        "hedge": hedged,
        "speedup": round(speedup, 3),
        "gate": HEDGE_GATE,
    }


# ----------------------------------------------------------------------
# 3. Recovery latency under crash chaos
# ----------------------------------------------------------------------
def _burst_seconds(chaos: bool, scale: float) -> dict:
    from repro.bench.workloads import figure
    from repro.faults import ENV_VAR, clear_plan, install_plan, preset_plan
    from repro.session import Network

    spec = figure("fig1")
    graph = spec.build_graph(scale)
    scores = _scores(graph.num_nodes, 13)

    saved = os.environ.get(ENV_VAR)
    if chaos:
        os.environ[ENV_VAR] = "preset:crash-heavy,seed=0"
        install_plan(preset_plan("crash-heavy", seed=0))
    else:
        os.environ.pop(ENV_VAR, None)
    try:
        net = Network(graph, hops=spec.hops)
        net.add_scores("bench", scores)
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            net.query("bench").limit(K).backend("cluster").run()  # spawn
            # crash-heavy kills *every* worker generation at its 4th task
            # (fresh process, fresh plan), so a multi-query burst absorbs
            # several deaths; lift the systematic-crash budget so the
            # bench measures recovery cost, not budget policy.
            net.cluster()._resources["transport"].respawn_budget = 64
            started = time.perf_counter()
            for _ in range(6):
                net.query("bench").limit(K).backend("cluster").run()
            elapsed = time.perf_counter() - started
            stats = net.cluster().stats()
            return {
                "burst_seconds": round(elapsed, 4),
                "respawns": stats.get("respawns", 0),
                "transients": stats.get("transients", 0),
            }
        finally:
            net.close()
    finally:
        clear_plan()
        if saved is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = saved


def measure_recovery(scale: float) -> dict:
    clean = _burst_seconds(chaos=False, scale=scale)
    chaos = _burst_seconds(chaos=True, scale=scale)
    return {
        "preset": "crash-heavy,seed=0",
        "clean": clean,
        "chaos": chaos,
        "recovery_overhead_seconds": round(
            max(0.0, chaos["burst_seconds"] - clean["burst_seconds"]), 4
        ),
    }


# ----------------------------------------------------------------------
def measure(scale: float = 0.5) -> dict:
    overhead = measure_overhead(scale)
    hedging = measure_hedging(scale)
    recovery = measure_recovery(scale)
    return {
        "scale": scale,
        "k": K,
        "workers": WORKERS,
        # Sleep/counter-based: no spare cores required, always judged.
        "gate_evaluated": True,
        "disabled_overhead": overhead,
        "hedging": hedging,
        "recovery": recovery,
    }


def check(report: dict, baseline: dict, tolerance: float) -> list:
    warnings = []
    fraction = report["disabled_overhead"]["overhead_fraction"]
    if fraction >= OVERHEAD_GATE:
        warnings.append(
            f"disabled fault points cost {fraction:.2%} of the seed query "
            f"(gate < {OVERHEAD_GATE:.0%}): "
            f"{report['disabled_overhead']['charged_crossings']} crossings x "
            f"{report['disabled_overhead']['per_call_ns']:.0f}ns"
        )
    speedup = report["hedging"]["speedup"]
    if speedup < HEDGE_GATE:
        warnings.append(
            f"hedging sped the straggler round up only {speedup:.2f}x "
            f"(gate {HEDGE_GATE:.0f}x): "
            f"{report['hedging']['no_hedge']['median_seconds']:.2f}s -> "
            f"{report['hedging']['hedge']['median_seconds']:.2f}s"
        )
    if report["hedging"]["hedge"]["hedges"] < 1:
        warnings.append(
            "the hedged run never hedged a task — the straggler plan or "
            "latency tracking is not doing its job"
        )
    if report["recovery"]["chaos"]["respawns"] < 1:
        warnings.append(
            "the crash-heavy burst absorbed no worker death — the chaos "
            "schedule injected nothing"
        )
    recorded = baseline.get("hedging", {}).get("speedup")
    if recorded and speedup < recorded * (1 - tolerance):
        warnings.append(
            f"hedging speedup regressed {recorded:.2f}x -> {speedup:.2f}x "
            f"(> {tolerance:.0%} drop vs committed baseline)"
        )
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the baseline")
    mode.add_argument("--check", action="store_true", help="compare + gate")
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--tolerance", type=float, default=0.3)
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
        print(f"::warning::faults bench: {message}")
    if not warnings:
        print("faults bench: all gates passed")
    return 1 if (warnings and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
