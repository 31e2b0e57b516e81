"""One benchmark for the whole request path.

    python3 bench/run.py                       # all four workloads, untraced then traced
    python3 bench/run.py --workload serve-16k --seed 3 --seconds 15 --trace 1
    python3 bench/run.py --smoke               # tiny graphs, a handful of ops
    python3 bench/run.py --runs 10 --out bench/out/a.json
    python3 bench/run.py --compare bench/out/a.json bench/out/b.json

Each workload runs in its own process, builds its inputs from ``--seed``,
checks every answer and prints every metric by name with its unit; the last
line of standard output is one JSON object.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` repeats the same seeded op sequence with
span wrappers on and reports the per-layer metrics.  See ``README.md``.
"""

from __future__ import annotations

import sys
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
# Run as a script, sys.path starts with bench/, where trace.py would shadow
# the standard library's; import through the ``bench`` package instead.
sys.path[:] = [p for p in sys.path if p and Path(p).resolve() != _HERE]
for _entry in (str(_HERE.parent / "src"), str(_HERE.parent)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from bench import common  # noqa: E402

common.pin_threads()

WORKLOADS = {
    "scan-100k": "bench.scan",
    "shard-100k": "bench.shard",
    "serve-16k": "bench.serve",
    "churn-16k": "bench.churn",
}
SMOKE_SECONDS = 0.3


def contract() -> dict:
    with open(common.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in this process; returns its record as a dict."""
    import numpy  # noqa: F401  (import cost belongs to set-up)

    import repro  # noqa: F401
    from bench.trace import Tracer

    boot_s = time.perf_counter() - T0
    tracer = Tracer() if trace else None
    common.OUT_DIR.mkdir(exist_ok=True)
    module = importlib.import_module(WORKLOADS[workload])
    common.adopt_orphans()
    try:
        record = module.run(seed, seconds, tracer, smoke, boot_s)
    finally:
        # Whatever path the workload left by, no process outlives this one.
        leftovers = common.sweep()
    record.problems += leftovers
    spec = contract()
    names = spec["per_layer"] if trace else spec["end_to_end"]
    measured = record.per_layer if trace else record.end_to_end
    if trace:
        measured["repo.src_lines"] = common.count_lines("src")
        measured["repo.tests_lines"] = common.count_lines("tests")
    unknown = sorted(set(measured) - {m["name"] for m in names})
    if unknown:
        record.problems.append(f"metrics missing from BENCHMARK.json: {unknown}")
    # A layer off this workload's path did no work and took no time: 0.
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in names
    }
    out = {
        "workload": workload,
        "trace": int(trace),
        "smoke": smoke,
        "seconds": seconds,
        "correct": record.correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "failed_share": record.failed / max(1, record.attempted),
        "problems": record.problems,
        "metrics": metrics,
        "fingerprint": record.fingerprint,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(common.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    if tracer is not None:
        tracer.dump(common.OUT_DIR / f"{stem}-spans.json")
    return out


def show(record: dict) -> None:
    mode = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']}  seed {record['fingerprint'].get('seed')}  {mode}")
    for name, metric in record["metrics"].items():
        print(f"{name:44s} {metric['value']:16.6f} {metric['unit']}")
    print(
        f"{'failed_share':44s} {record['failed_share']:16.6f} share"
        f"   ({record['failed']} of {record['attempted']} ops;"
        f" samples {record['fingerprint'].get('samples')})"
    )
    for problem in record["problems"][:20]:
        print(f"PROBLEM {problem}")


def final_line(record: dict) -> str:
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload in a process of its own and echo what it printed."""
    command = [
        sys.executable, str(_HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    try:
        with open(common.OUT_DIR / f"{stem}.json", "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except OSError:
        record = None
    if done.returncode != 0 or record is None:
        print(f"PROBLEM {workload} exited with code {done.returncode}")
        return {"workload": workload, "trace": trace, "correct": False,
                "attempted": 1, "failed": 1, "metrics": {}, "fingerprint": {"seed": seed}}
    return record


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def _medians(records: list) -> dict:
    """``{(workload, metric): (median, relative IQR, runs)}`` of end-to-end runs."""
    table: dict = {}
    for record in records:
        if record.get("trace"):
            continue
        for name, metric in record["metrics"].items():
            table.setdefault((record["workload"], name), []).append(metric["value"])
    out = {}
    for key, values in table.items():
        mid = statistics.median(values)
        spread = 0.0
        if len(values) >= 2 and mid:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(mid)
        out[key] = (mid, spread, len(values))
    return out


def compare(path_a: str, path_b: str) -> int:
    """Print each workload x end-to-end metric of B against A; 1 if any is worse."""
    with open(path_a, "r", encoding="utf-8") as fh:
        a = _medians(json.load(fh))
    with open(path_b, "r", encoding="utf-8") as fh:
        b = _medians(json.load(fh))
    spec = {m["name"]: m for m in contract()["end_to_end"]}
    worse = 0
    print(f"{'workload':12s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for (workload, name), (mid_a, spread_a, _) in sorted(a.items()):
        if (workload, name) not in b:
            continue
        mid_b, spread_b, _ = b[(workload, name)]
        bound = spec[name]["bound"]
        gain = (mid_b - mid_a) / mid_a if mid_a else 0.0
        if spec[name]["better"] == "lower":
            gain = -gain
        spread = max(spread_a, spread_b)
        if spread > bound:
            verdict = "unresolved"
        elif gain < -bound:
            verdict = "worse"
            worse += 1
        elif gain > spread:
            verdict = "better"
        else:
            verdict = "same"
        print(f"{workload:12s} {name:18s} {mid_a:12.4f} {mid_b:12.4f} "
              f"{gain:+8.1%} {spread:7.1%} {bound:6.0%}  {verdict}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1, help="seeds to run, from --seed up")
    parser.add_argument("--out", help="write every record of this invocation to one file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(contract()["run_seconds"])
    if args.workload and args.runs == 1 and not args.out:
        record = run_one(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        show(record)
        print(final_line(record), flush=True)
        return 0 if record["correct"] else 1
    records = []
    common.adopt_orphans()
    try:
        for seed in range(args.seed, args.seed + args.runs):
            for workload in [args.workload] if args.workload else list(WORKLOADS):
                for trace in (0, 1) if args.trace is None else (args.trace,):
                    records.append(run_child(workload, seed, seconds, trace, args.smoke))
    finally:
        common.sweep()  # a child killed at its time limit cannot sweep for itself
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "runs": len(records),
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
