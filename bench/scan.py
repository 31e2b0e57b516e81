"""``scan-100k``: full-graph scans on the in-process numpy backend.

One closed-loop caller runs exhaustive ``base`` scans (sum, avg, max, count)
and fused batches of six score vectors over a 100,000-node graph.  The
expansion and aggregation kernels are nearly all of the time and no serving
layer is on the path, so a kernel change moves this workload about 1:1.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, List, Sequence, Tuple

from bench import common
from bench.common import Record, Sample
from bench.oracle import Oracle
from bench.trace import END, NAME, PARENT, START

SETUP_REPEATS = 2
#: Share of a traced run spent untraced first, to price the wrappers.
REFERENCE_SHARE = 0.25

#: ("query", score, algorithm, aggregate, k)
SINGLES = (
    ("query", "b0", "base", "sum", 100),
    ("query", "b0", "base", "avg", 100),
    ("query", "b0", "base", "max", 10),
    ("query", "b0", "base", "count", 10),
)
GRADED = tuple(f"g{i}" for i in range(6))
#: ("batch", scores, k): dense vectors, so the batch engine fuses one scan.
BATCH = ("batch", GRADED, 10)

#: (ops, share of the run, backend): one closed-loop pass after another
#: over the fixed list.
PLAN = ((SINGLES + (BATCH,), 1.0, "numpy"),)


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def build_session(scale: float, seed: int, tracer, backend: str = "numpy"):
    """Graph, scores and a warm ``Network``; returns ``(net, scores by name)``."""
    from repro import Network

    with span(tracer, "graph.generate"):
        graph = common.build_graph(scale, seed)
    with span(tracer, "relevance.scores"):
        vectors = {"b0": common.binary_scores(graph, seed, 0).values()}
        vectors.update(zip(GRADED, common.graded_scores(graph, seed, len(GRADED))))
    net = Network(graph, hops=2, backend=backend)
    for name, values in vectors.items():
        net.add_scores(name, values)
    call(net, SINGLES[0] + (backend,))  # builds the CSR view every later op reuses
    return net, vectors


def call(net, op: tuple):
    """Issue one op on the session's current backend (``op[-1]`` names it)."""
    if op[0] == "query":
        _, score, algorithm, aggregate, k, _ = op
        return net.query(score).algorithm(algorithm).aggregate(aggregate).limit(k).run()
    _, scores, k, _ = op
    return net.batch([net.query(score).limit(k) for score in scores])


def answers(op: tuple, result) -> List[Tuple[str, str, int, list]]:
    """``(score, aggregate, k, entries)`` for each top-k an op returned."""
    if op[0] == "query":
        return [(op[1], op[3], op[4], result.entries)]
    return [(score, "sum", op[2], r.entries) for score, r in zip(op[1], result.results)]


def timed_setups(repeats: int, build, tracer) -> Tuple[object, float]:
    """Set up ``repeats`` times; keep the last, report the median time."""
    times, built = [], None
    for i in range(repeats):
        if built is not None:
            built[0].close()
        start = time.perf_counter()
        built = build(tracer if i == repeats - 1 else None)
        times.append(time.perf_counter() - start)
    return built, common.median(times)


def stages(net, plan, seconds: float, tracer, *, full_pass: bool = True) -> List[List[Sample]]:
    """Run each stage of ``plan`` for its share of ``seconds``.

    With ``full_pass`` a stage issues each of its ops at least once, so the
    work counters of the first pass exist whatever the run length.
    """
    out = []
    for ops, share, backend in plan:
        net.backend = backend
        out.append(common.closed_loop(
            common.cycle([op + (backend,) for op in ops]),
            lambda op: call(net, op),
            seconds * share,
            min_ops=len(ops) if full_pass else 1,
            tracer=tracer,
        ))
    net.backend = "numpy"
    return out


def list_throughput(staged: Sequence[List[Sample]], plan) -> float:
    """Ops per second of one pass over each stage's list, every op at the
    median cost of its kind.

    With a dozen one-second ops in a run, ops / wall-clock moves by several
    per cent with which op the deadline cuts and with every host stall;
    medians per kind ignore a stall that hits fewer than half of them.
    """
    ops, cost = 0, 0.0
    for samples, (stage_ops, _, _) in zip(staged, plan):
        for kind in sorted({op[0] for op in stage_ops}):
            count = sum(1 for op in stage_ops if op[0] == kind)
            took = [s.latency for s in samples if s.error is None and s.op[0] == kind]
            ops += count
            cost += count * common.median(took)
    return ops / cost if cost else 0.0


def check_answers(
    samples: Sequence[Sample], oracle: Oracle, vectors: Dict[str, list], seed: int
) -> Tuple[int, List[str]]:
    """Failed-op count and what was wrong, by the sampled oracle check.

    One process, one caller: the same op must return the same entries every
    time, so each distinct op is re-derived once.
    """
    failed, problems = 0, []
    first: Dict[tuple, Sample] = {}
    bad_ops = set()
    for sample in samples:
        if sample.error is not None:
            failed += 1
            problems.append(f"{sample.op}: {sample.error}")
            continue
        seen = first.setdefault(sample.op, sample)
        if seen is sample:
            for score, aggregate, k, entries in answers(sample.op, sample.result):
                found = oracle.check(
                    entries, k,
                    lambda node, s=vectors[score], a=aggregate: oracle.value(node, s, a),
                    seed=seed,
                )
                if found:
                    bad_ops.add(sample.op)
                    problems += [f"{sample.op} {score}: {p}" for p in found]
        elif answers(sample.op, sample.result) != answers(seen.op, seen.result):
            bad_ops.add(sample.op)
            problems.append(f"{sample.op}: answer changed between repeats")
        if sample.op in bad_ops:
            failed += 1
    return failed, problems


def reference_check(net, oracle: Oracle, vectors: Dict[str, list], seed: int) -> List[str]:
    """One shape against the pure-Python reference implementation."""
    query = net.query("b0").algorithm("backward").limit(10)
    fast, slow = query.run(), query.backend("python").run()
    problems = []
    if fast.entries != slow.entries:
        problems.append("numpy backward k=10 differs from the python reference")
    problems += oracle.check(
        slow.entries, 10, lambda node: oracle.value(node, vectors["b0"], "sum"), seed=seed
    )
    return problems


def work_counters(results: Sequence, num_nodes: int) -> Dict[str, float]:
    """Deterministic work per op over a fixed list of results."""
    stats = [r.stats for r in results]
    return {
        "core.edges_scanned_per_op": sum(s.edges_scanned for s in stats) / len(stats),
        "core.candidates_verified_per_op": sum(s.candidates_verified for s in stats) / len(stats),
        "core.pruned_share": sum(s.pruned_nodes for s in stats) / (len(stats) * num_nodes),
    }


def first_pass(samples: Sequence[Sample], plan) -> List:
    """The first result of each op of ``plan``: a fixed list, whatever the run length."""
    found = {}
    for sample in samples:
        if sample.error is None:
            found.setdefault(sample.op, sample.result)
    wanted = [op + (backend,) for ops, _, backend in plan for op in ops]
    return [found[op] for op in wanted if op in found]


def kernel_layers(tracer, samples: Sequence[Sample]) -> Dict[str, float]:
    """Per-layer numbers any in-process traced stage can report."""
    expand = tracer.total("graph.csr.expand")
    base = tracer.total("core.vectorized.base")
    run = tracer.total("session.run")
    batch_ops = [s for s in samples if s.op[0] == "batch"]
    return {
        "graph.generate_s": tracer.total("graph.generate"),
        "graph.csr_build_s": common.median(tracer.durations("graph.csr.build")),
        "relevance.scores_s": tracer.total("relevance.scores"),
        "graph.csr.expand_medges_s":
            tracer.counts("graph.csr.expand") / expand / 1e6 if expand else 0.0,
        "core.planner.plan_us_p50": common.median(tracer.durations("core.planner.plan")) * 1e6,
        "core.executor.execute_ms_p50":
            common.median(tracer.durations("core.executor.execute")) * 1e3,
        "session.overhead_share":
            1.0 - tracer.total("core.executor.execute") / run if run else 0.0,
        "core.vectorized.base_ms_p50":
            common.median(tracer.durations("core.vectorized.base")) * 1e3,
        "core.vectorized.backward_ms_p50":
            common.median(tracer.durations("core.vectorized.backward")) * 1e3,
        "core.vectorized.aggregate_share":
            _inside(tracer, "core.vectorized.aggregate", "core.vectorized.base") / base
            if base else 0.0,
        "core.batch.shared_scan_ms_p50":
            common.median(tracer.durations("core.batch.shared_scan")) * 1e3,
        "core.batch.ms_per_query":
            common.median([s.latency / len(s.op[1]) for s in batch_ops]) * 1e3,
    }


def _inside(tracer, name: str, ancestor: str) -> float:
    """Total time of ``name`` spans that run below an ``ancestor`` span."""
    total = 0.0
    for s in tracer.spans:
        if s[NAME] != name:
            continue
        up = s[PARENT]
        while up is not None and up[NAME] != ancestor:
            up = up[PARENT]
        if up is not None:
            total += s[END] - s[START]
    return total


def trace_overhead(reference: Sequence[List[Sample]], traced: Sequence[List[Sample]]) -> float:
    """1 - traced/untraced throughput over the ops both slices ran, stage by stage."""
    plain = slow = 0.0
    for before, after in zip(reference, traced):
        shared = min(len(before), len(after))
        plain += sum(s.latency for s in before[:shared])
        slow += sum(s.latency for s in after[:shared])
    return 1.0 - plain / slow if slow else 0.0


def run_plan(
    plan, seed: int, seconds: float, tracer, smoke: bool, boot_s: float,
    *, repeats: int = SETUP_REPEATS, configure=None, side=None,
) -> Record:
    """Set up, run ``plan``, check every answer, tear down.

    ``configure(net)`` finishes set-up (engines, warm-up ops) and is timed
    with it.  ``side(net, samples, tracer, guard)`` runs after the timed
    stages and returns further samples to check, its own problems and, when
    traced, its own per-layer numbers.
    """
    scale = common.SMOKE_SCALE if smoke else common.SCALE_100K
    record = Record()
    guard = common.LeakGuard()
    net = None

    def build(t):
        built = build_session(scale, seed, t)
        if configure is not None:
            configure(built[0])
        return built

    try:
        if tracer is not None:
            tracer.install()
        (net, vectors), setup_s = timed_setups(
            1 if smoke or tracer is not None else repeats, build, tracer
        )
        reference = None
        if tracer is not None:
            tracer.uninstall()
            reference = stages(net, plan, seconds * REFERENCE_SHARE, None, full_pass=False)
            tracer.install()
            seconds *= 1.0 - REFERENCE_SHARE
        staged = stages(net, plan, seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
        samples = [s for stage in staged for s in stage]
        good = [s for s in samples if s.error is None]
        record.end_to_end = common.end_to_end(
            boot_s + setup_s, [s.latency for s in good], list_throughput(staged, plan)
        )
        if tracer is not None:
            record.per_layer = kernel_layers(tracer, samples)
            record.per_layer.update(
                work_counters(first_pass(samples, plan), net.graph.num_nodes)
            )
            record.per_layer["trace.overhead_share"] = trace_overhead(reference, staged)
        if side is not None:
            extra, record.problems, layers = side(net, samples, tracer, guard)
            samples = samples + extra
            record.per_layer.update(layers)
        oracle = Oracle(net.graph)
        record.attempted = len(samples)
        failed, problems = check_answers(samples, oracle, vectors, seed)
        record.failed = failed
        record.problems += problems + reference_check(net, oracle, vectors, seed)
        record.fingerprint = common.fingerprint(seed, net.graph, len(good))
    finally:
        if tracer is not None:
            tracer.uninstall()
        if net is not None:
            net.close()
        record.problems += guard.problems()
    return record


def run(seed: int, seconds: float, tracer, smoke: bool, boot_s: float) -> Record:
    return run_plan(PLAN, seed, seconds, tracer, smoke, boot_s)
