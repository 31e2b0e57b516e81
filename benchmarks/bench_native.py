"""Native-tier bench: jitted-vs-numpy route speedups.

One gate, one JSON (``benchmarks/BENCH_native.json``):

* **jit speedup gate** — ``backend="native"`` must be >= 2x over numpy on
  every covered route (base, LONA-Forward, LONA-Backward, weighted base,
  weighted backward) on the fig1 collaboration workload at full seed
  scale.  Compile time is excluded by an untimed warm-up call per route
  (the on-disk numba cache makes later processes skip it entirely).  The
  gate only evaluates where numba actually compiled the kernels
  (``repro.native.kernels.KERNEL_MODE == "compiled"``); on machines
  without numba the report records ``gate_evaluated: false`` with the
  reason — the interpreted escape hatch is a correctness shim, not a
  performance tier, and timing it would be dishonest either way.

(The parallel round's pipe traffic is no longer A/B-tested here: shared
reply buffers and work stealing are simply how the pipe link works, and
``bench/run.py --workload shard-100k`` reports ``parallel.pipe_bytes_per_op``
and ``parallel.tasks_per_op`` for every run.)

Two modes, mirroring the other committed baselines:

* ``--write``  — run and (re)write ``benchmarks/BENCH_native.json``.
* ``--check``  — run and compare against the committed baseline, emitting
  a GitHub-annotation warning for each gate failure or >``--tolerance``
  regression.  Exit code stays 0 unless ``--strict``.

Run with::

    PYTHONPATH=src python benchmarks/bench_native.py --write
    PYTHONPATH=src python benchmarks/bench_native.py --check
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
BASELINE_PATH = _BENCH_DIR / "BENCH_native.json"

K = 100
SPEEDUP_GATE = 2.0


def measure_speedups(scale: float) -> dict:
    """Per-route native-vs-numpy timings, or an honest decline."""
    from repro.native import kernels

    if kernels.KERNEL_MODE != "compiled":
        return {
            "gate_evaluated": False,
            "reason": (
                "numba not importable; native kernels run interpreted "
                "(correctness hatch only) — install the 'native' extra "
                "to evaluate the jit gate"
            ),
            "gate": SPEEDUP_GATE,
        }

    sys.path.insert(0, str(_BENCH_DIR))
    from bench_ablation_backend import GATED_ROUTES, _best_of, route_runner

    from repro.bench.workloads import figure
    from repro.core.query import QuerySpec
    from repro.graph.diffindex import build_differential_index
    from repro.relevance.mixture import MixtureRelevance

    spec = figure("fig1")
    graph = spec.build_graph(scale)
    scores = spec.build_scores(graph).values()
    dense = MixtureRelevance(0.01, zero_fraction=0.0, seed=7).scores(graph)
    diff_index = build_differential_index(graph, spec.hops, include_self=True)
    diff_index.flat_deltas()
    graph.csr()  # offline, like the index: built once, outside the timings
    np_spec = QuerySpec(k=K, aggregate="sum", hops=2, backend="numpy")
    native_spec = np_spec.with_backend("native")

    timings: dict = {}
    speedups: dict = {}
    for route in GATED_ROUTES:
        run, exact = route_runner(
            route, graph, scores, dense.values(), diff_index
        )
        run(native_spec)  # untimed warm-up: jit compile excluded
        t_np, r_np = _best_of(lambda: run(np_spec))
        t_nat, r_nat = _best_of(lambda: run(native_spec))
        assert r_np.nodes == r_nat.nodes, f"{route}: backend answers diverged"
        if exact:
            assert r_np.entries == r_nat.entries, f"{route}: entries diverged"
        timings[route] = {"numpy": round(t_np, 4), "native": round(t_nat, 4)}
        speedups[route] = round(t_np / t_nat, 3)

    return {
        "gate_evaluated": True,
        "gate": SPEEDUP_GATE,
        "gate_passed": all(v >= SPEEDUP_GATE for v in speedups.values()),
        "figure": "fig1",
        "scale": scale,
        "k": K,
        "speedups": speedups,
        "timings_sec": timings,
    }


def measure(scale: float = 1.0) -> dict:
    return {
        "scale": scale,
        "jit_speedup": measure_speedups(scale),
    }


def check(report: dict, baseline: dict, tolerance: float) -> list:
    """Gate failures + regressions against the committed baseline."""
    warnings = []

    jit = report["jit_speedup"]
    if jit["gate_evaluated"]:
        for route, value in jit["speedups"].items():
            if value < jit["gate"]:
                warnings.append(
                    f"jit gate: {route} {value:.2f}x < {jit['gate']:.1f}x"
                )
        for route, recorded in (
            baseline.get("jit_speedup", {}).get("speedups", {}).items()
        ):
            current = jit["speedups"].get(route)
            if current is not None and current < recorded * (1.0 - tolerance):
                warnings.append(
                    f"jit speedup regressed on {route}: "
                    f"{recorded:.2f}x -> {current:.2f}x (> {tolerance:.0%} drop)"
                )
    else:
        print(f"jit gate not evaluated: {jit['reason']}")
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
        print(f"::warning::native bench: {message}")
    if not warnings:
        print("native bench: gates hold, no regression beyond tolerance")
    return 1 if (warnings and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
