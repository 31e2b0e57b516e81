"""``churn-16k``: writes beside reads on a dynamic graph.

In process, ``Network(DynamicGraph, backend="numpy")`` over the 16,000-node
graph of ``serve-16k`` with 4 sparse score vectors, one of them maintained
as a view.  One caller repeats a fixed 20-op cycle: an edge insert, a score
update, the edge's removal and another score update, each followed by four
reads.  It crosses the query path of ``serve-16k`` the other way round: a
cache or index that speeds reads but makes invalidation, CSR re-export or
view repair dearer shows here.  One read in eight follows an edge write and
pays the rebuild (about 50 ms against 3 ms warm), which puts the median
firmly in the warm mode and the 95th percentile firmly in the rebuild mode.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple

from bench import common, scan
from bench.common import Record, Sample
from bench.oracle import Oracle

SETUP_REPEATS = 3
SCORES = tuple(f"b{i}" for i in range(4))
VIEW = SCORES[0]

#: The 16 read slots of a cycle: (score, aggregate, k, algorithm).  avg keeps
#: to k=10: over 0/1 scores a large-k avg verifies thousands of tied nodes
#: (hundreds of ms) and would be a workload of its own.
READS = (
    ("b1", "sum", 10, "auto"), ("b2", "count", 100, "auto"),
    ("b0", "sum", 10, "view"), ("b3", "avg", 10, "auto"),
    ("b0", "sum", 100, "auto"), ("b1", "count", 10, "auto"),
    ("b2", "avg", 10, "auto"), ("b3", "sum", 100, "auto"),
    ("b2", "sum", 10, "auto"), ("b3", "count", 100, "auto"),
    ("b0", "avg", 10, "view"), ("b1", "avg", 10, "auto"),
    ("b1", "sum", 100, "auto"), ("b0", "count", 10, "auto"),
    ("b3", "sum", 10, "auto"), ("b2", "sum", 100, "auto"),
)
CYCLE = 20


def op_stream(seed: int, graph) -> Iterator[tuple]:
    """The cycle, for ever: nodes, edges and score values come from ``seed``.

    Every inserted edge is removed within its cycle, so the topology is the
    seed's at each cycle boundary; scores drift.
    """
    rng = random.Random(seed * 104729 + 5)
    n = graph.num_nodes
    reads = [("read",) + slot for slot in READS]
    while True:
        u, v = rng.randrange(n), rng.randrange(n)
        while u == v or graph.has_edge(u, v):
            u, v = rng.randrange(n), rng.randrange(n)
        yield ("add_edge", u, v)
        yield from reads[0:4]
        yield ("update_score", VIEW, rng.randrange(n), float(rng.randrange(2)))
        yield from reads[4:8]
        yield ("remove_edge", u, v)
        yield from reads[8:12]
        yield ("update_score", SCORES[1], rng.randrange(n), float(rng.randrange(2)))
        yield from reads[12:16]


def call(net, op: tuple):
    if op[0] == "read":
        _, score, aggregate, k, algorithm = op
        return net.query(score).aggregate(aggregate).algorithm(algorithm).limit(k).run()
    if op[0] == "update_score":
        return net.update_score(op[1], op[2], op[3])
    return getattr(net, op[0])(op[1], op[2])


def build_session(scale: float, seed: int, tracer):
    from repro import DynamicGraph, Network

    with scan.span(tracer, "graph.generate"):
        graph = DynamicGraph.from_graph(common.build_graph(scale, seed))
    with scan.span(tracer, "relevance.scores"):
        vectors = [common.binary_scores(graph, seed, i) for i in range(len(SCORES))]
    net = Network(graph, hops=2, backend="numpy")
    for name, vector in zip(SCORES, vectors):
        net.add_scores(name, vector)
    net.maintain(VIEW)
    for slot in READS:  # planner statistics, CSR view, ball caches
        call(net, ("read",) + slot)
    return net


def run_cycles(net, seed: int, seconds: float, tracer) -> List[Sample]:
    """Whole cycles until ``seconds`` have passed."""
    return common.closed_loop(
        op_stream(seed, net.graph), lambda op: call(net, op), seconds,
        min_ops=CYCLE, boundary=CYCLE, tracer=tracer,
    )


def cycle_throughput(samples: Sequence[Sample]) -> float:
    """Median over cycles of successful ops per second of the cycle."""
    rates = []
    for i in range(0, len(samples) - CYCLE + 1, CYCLE):
        chunk = samples[i : i + CYCLE]
        took = chunk[-1].done - (chunk[0].done - chunk[0].latency)
        rates.append(sum(1 for s in chunk if s.error is None) / took)
    return common.median(rates)


def check_final_state(net, samples: Sequence[Sample]) -> Tuple[int, List[str]]:
    """Ops that raised, and every read shape re-run after the last write
    against all nodes' re-derived values."""
    import numpy as np

    problems = [f"{s.op}: {s.error}" for s in samples if s.error is not None]
    failed = len(problems)
    oracle = Oracle(net.graph)
    truth = oracle.all_values(np.asarray([net.scores_of(name).values() for name in SCORES]))
    for slot in READS:
        score, aggregate, k, _ = slot
        every = truth[aggregate][SCORES.index(score)]
        found = oracle.check(
            call(net, ("read",) + slot).entries, k, every.__getitem__,
            ranked=np.sort(every)[::-1],
        )
        if found:
            failed += sum(1 for s in samples if s.op[1:] == slot)
            problems += [f"{slot}: {p}" for p in found]
    return failed, problems


def _after(samples: Sequence[Sample], writes: Tuple[str, ...]) -> List[float]:
    """Latencies of the reads that directly follow one of ``writes``."""
    return [
        b.latency for a, b in zip(samples, samples[1:])
        if a.op[0] in writes and b.op[0] == "read" and b.error is None
    ]


def dynamic_layers(net, tracer, samples: Sequence[Sample]) -> Dict[str, float]:
    def p50(kind: str) -> float:
        return common.median([s.latency for s in samples if s.op[0] == kind]) * 1e3

    layers = {
        "dynamic.add_edge_ms_p50": p50("add_edge"),
        "dynamic.remove_edge_ms_p50": p50("remove_edge"),
        "dynamic.update_score_ms_p50": p50("update_score"),
        "dynamic.requery_after_edge_ms_p50":
            common.median(_after(samples, ("add_edge", "remove_edge"))) * 1e3,
        "dynamic.requery_after_score_ms_p50":
            common.median(_after(samples, ("update_score",))) * 1e3,
        "dynamic.view_read_ms_p50": common.median(
            [s.latency for s in samples if s.op[0] == "read" and s.op[4] == "view"]
        ) * 1e3,
    }
    layers["graph.csr.ballcache_hit_share"] = common.ballcache_hit_share(
        net.service().stats()["session_caches"]
    )
    # The differential index and the forward route it feeds are too dear at
    # 100,000 nodes for a run's time cap, so they are probed here.
    # Reads take the default density policy ("auto"); the cost-based planner
    # rebuilds its statistics after every write (~70 ms), so it is probed warm.
    tracer.install()
    try:
        for _ in range(3):
            net.query(SCORES[1]).algorithm("forward").limit(10).run()
        for _ in range(20):
            net.query(SCORES[2]).limit(10).explain()
    finally:
        tracer.uninstall()
    layers["core.planner.plan_us_p50"] = common.median(tracer.durations("core.planner.plan")) * 1e6
    layers["graph.diffindex_build_s"] = tracer.total("graph.diffindex.build")
    layers["core.vectorized.forward_ms_p50"] = (
        common.median(tracer.durations("core.vectorized.forward")) * 1e3
    )
    return layers


def run(seed: int, seconds: float, tracer, smoke: bool, boot_s: float) -> Record:
    scale = common.SMOKE_SCALE if smoke else common.SCALE_16K
    record = Record()
    guard = common.LeakGuard()
    net = None
    try:
        if tracer is not None:
            tracer.install()
        (net,), setup_s = scan.timed_setups(
            1 if smoke or tracer is not None else SETUP_REPEATS,
            lambda t: (build_session(scale, seed, t),), tracer,
        )
        reference = None
        if tracer is not None:
            tracer.uninstall()
            reference = run_cycles(net, seed, seconds * scan.REFERENCE_SHARE, None)
            tracer.install()
            seconds *= 1.0 - scan.REFERENCE_SHARE
        samples = run_cycles(net, seed, seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
        reads = [s.latency for s in samples if s.op[0] == "read" and s.error is None]
        record.end_to_end = common.end_to_end(
            boot_s + setup_s, reads, cycle_throughput(samples)
        )
        record.attempted = len(samples)
        record.failed, record.problems = check_final_state(net, samples)
        if tracer is not None:
            first_reads = [s.result for s in samples[:CYCLE] if s.op[0] == "read"]
            record.per_layer = scan.kernel_layers(tracer, samples)
            record.per_layer.update(scan.work_counters(first_reads, net.graph.num_nodes))
            record.per_layer["trace.overhead_share"] = (
                1.0 - cycle_throughput(samples) / cycle_throughput(reference)
            )
            record.per_layer.update(dynamic_layers(net, tracer, samples))
        record.fingerprint = common.fingerprint(seed, net.graph, len(reads))
    finally:
        if tracer is not None:
            tracer.uninstall()
        if net is not None:
            net.close()
        record.problems += guard.problems()
    return record
