"""Smoke test of the benchmark harness: tiny graphs, a handful of ops.

Checks the harness, not performance: every named metric is emitted with its
unit, nothing fails or leaks, the oracle rejects a wrong answer, a seed fixes
the op sequence, and a traced run yields well-nested spans.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import churn, common, serve  # noqa: E402
from bench.oracle import Oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke_runs():
    """All four workloads, untraced and traced, two processes at a time."""
    jobs = [(w, t) for t in ("0", "1") for w in WORKLOADS]
    results = {}
    for pair in (jobs[i : i + 2] for i in range(0, len(jobs), 2)):
        running = [
            (job, subprocess.Popen(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
                 "--workload", job[0], "--seed", "5", "--trace", job[1]],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
            for job in pair
        ]
        for job, process in running:
            out, err = process.communicate(timeout=120)
            assert process.returncode == 0, f"{job}: {out[-2000:]}\n{err[-2000:]}"
            results[job] = json.loads(out.strip().splitlines()[-1])
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_and_nothing_failed(smoke_runs, workload):
    result = smoke_runs[workload, "0"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_emit_every_per_layer_metric(smoke_runs):
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    moved = set()
    for workload in WORKLOADS:
        result = smoke_runs[workload, "1"]
        assert result["correct"] is True and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == names
        moved |= {n for n, m in result["metrics"].items() if m["value"] != 0}
    # Each per-layer metric is measured by at least one workload.  Nothing is
    # shed at the seed commit, and in a 50 ms stage two requests may never
    # meet in the queue.
    assert set(names) - moved <= {"serving.shed_share", "service.coalesced_share"}


def test_trace_spans_are_well_nested_and_self_times_add_up(smoke_runs):
    assert smoke_runs["churn-16k", "1"]["correct"]
    rows = json.loads(
        (common.OUT_DIR / "churn-16k-seed5-trace1-spans.json").read_text(encoding="utf-8")
    )["spans"]
    assert rows, "a traced run recorded no spans"
    own = {r["id"]: r["end"] - r["start"] for r in rows}
    root_of = {}
    for row in rows:
        parent = row["parent"]
        if parent is None:
            root_of[row["id"]] = row["id"]
            continue
        up = rows[parent]
        assert up["start"] <= row["start"] and row["end"] <= up["end"], (row, up)
        own[parent] -= row["end"] - row["start"]
        root_of[row["id"]] = root_of[parent]  # parents are recorded first
    ops = [r for r in rows if r["name"] == "op"]
    assert len(ops) >= churn.CYCLE
    for op in ops:
        total = sum(own[i] for i, root in root_of.items() if root == op["id"])
        assert total == pytest.approx(op["end"] - op["start"], rel=0.05)
        assert all(own[i] >= -1e-9 for i, root in root_of.items() if root == op["id"])


def test_sweep_leaves_no_process_behind():
    """A straggler is killed and reported; the resource tracker is stopped, unreported."""
    script = (
        "import subprocess, sys\n"
        "from multiprocessing import shared_memory\n"
        f"sys.path.insert(0, {str(ROOT)!r})\n"
        "from bench import common\n"
        "common.adopt_orphans()\n"
        "segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker\n"
        "segment.close(); segment.unlink()\n"
        # The shell exits at once and orphans the sleeper, which only a reaper can wait for.
        "subprocess.run(['sh', '-c', 'sleep 60 & sleep 60 &'])\n"
        "before = len(common.descendants())\n"
        "found = common.sweep()\n"
        "print(before, len(found), len(common.descendants()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, timeout=60
    )
    assert done.returncode == 0
    assert done.stdout.split() == ["3", "2", "0"]


def test_oracle_catches_a_corrupted_answer():
    from repro import Network

    graph = common.build_graph(0.05, seed=3)
    scores = common.binary_scores(graph, 3, 0).values()
    entries = Network(graph, hops=2).add_scores("s", scores).query("s").limit(5).run().entries
    oracle = Oracle(graph)

    def value_of(node):
        return oracle.value(node, scores, "sum")

    assert oracle.check(entries, 5, value_of, sample=graph.num_nodes) == []
    wrong_value = [(entries[0][0], entries[0][1] + 1.0)] + list(entries[1:])
    assert oracle.check(wrong_value, 5, value_of)
    worst = min(range(graph.num_nodes), key=value_of)
    wrong_node = list(entries[:-1]) + [(worst, value_of(worst))]
    assert value_of(worst) < entries[-1][1]
    assert oracle.check(wrong_node, 5, value_of, sample=graph.num_nodes)
    assert oracle.check(entries[:-1], 5, value_of)


def test_a_seed_fixes_the_op_sequence():
    def head(stream):
        return list(itertools.islice(stream, 200))

    assert head(serve.op_stream(7, 0)) == head(serve.op_stream(7, 0))
    assert head(serve.op_stream(7, 0)) != head(serve.op_stream(8, 0))
    assert head(serve.op_stream(7, 0)) != head(serve.op_stream(7, 1))
    from repro import DynamicGraph

    graph = DynamicGraph.from_graph(common.build_graph(0.05, seed=7))
    assert head(churn.op_stream(7, graph)) == head(churn.op_stream(7, graph))
    assert head(churn.op_stream(7, graph)) != head(churn.op_stream(8, graph))


def test_benchmark_json_names_the_workloads_and_metrics():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert WORKLOADS == ["scan-100k", "shard-100k", "serve-16k", "churn-16k"]
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "latency_p50_ms", "latency_p95_ms", "throughput_ops_s", "peak_rss_mb",
    ]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_compare_reports_each_workload_and_metric(tmp_path):
    def record(workload, scale):
        return {
            "workload": workload, "trace": 0,
            "metrics": {
                m["name"]: {"value": 10.0 * scale, "unit": m["unit"]} for m in SPEC["end_to_end"]
            },
        }

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([record("scan-100k", 1.0 + i / 1000) for i in range(5)]))
    b.write_text(json.dumps([record("scan-100k", 2.0 + i / 1000) for i in range(5)]))
    done = run_bench("--compare", str(a), str(b))
    lines = [line for line in done.stdout.splitlines() if line.startswith("scan-100k")]
    verdicts = {line.split()[1]: line.split()[-1] for line in lines}
    assert verdicts["latency_p50_ms"] == "worse" and verdicts["throughput_ops_s"] == "better"
    assert done.returncode == 1
