"""``shard-100k``: the scans of ``scan-100k`` on two worker processes.

Same graph and score seeds.  The end-to-end stage runs the four single scans
on ``net.parallel(workers=2)``: each worker's kernels do about half the
wall-clock work and pool dispatch, shared-memory replies, work stealing and
the merge do the rest.

Fused batches and ``net.cluster(workers=2)`` give each worker a fixed half
of the graph, so the slower of the two vCPUs sets their time, and on this
host either vCPU drops to 60 % speed for minutes at a time: the same op
takes 1.0 s or 1.8 s, whole runs long.  Work stealing hides that from the
parallel singles.  Batches and the cluster engine are therefore run, checked
and, in a traced run, measured after the timed stage, not inside it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from bench import common, scan
from bench.common import Record, Sample
from bench.scan import BATCH, SINGLES

WORKERS = 2
PLAN = ((SINGLES, 1.0, "parallel"),)
#: After the timed stage: (ops, backend, passes untraced, passes traced).
SIDE = (
    ((BATCH,), "parallel", 1, 3),
    (SINGLES, "cluster", 1, 2),
    ((BATCH,), "cluster", 1, 2),
    (SINGLES[:1], "numpy", 1, 3),
    # Cheap backward queries expose the fixed cost of a round.
    ((("query", "b0", "backward", "sum", 10),), "parallel", 1, 20),
    ((("query", "b0", "backward", "sum", 10),), "cluster", 1, 20),
)


def configure(net) -> None:
    """Start the pool and export graph and scores once; part of set-up."""
    net.parallel(workers=WORKERS, min_nodes=0)
    net.backend = "parallel"
    for op in (SINGLES[0], BATCH):
        scan.call(net, op + ("parallel",))
    net.backend = "numpy"


def side_stages(net, tracer) -> List[Sample]:
    net.cluster(workers=WORKERS, min_nodes=0)
    net.backend = "cluster"
    scan.call(net, SINGLES[0] + ("cluster",))  # starts the workers, ships the stores
    samples: List[Sample] = []
    for ops, backend, plain, traced in SIDE:
        net.backend = backend
        passes = traced if tracer is not None else plain
        samples += common.closed_loop(
            [op + (backend,) for op in ops] * passes, lambda op: scan.call(net, op),
            seconds=600.0, tracer=tracer,
        )
    net.backend = "numpy"
    return samples


def compare_backends(samples: Sequence[Sample]) -> List[str]:
    """Every backend that answered a shape must return the same entries."""
    by_shape: Dict[tuple, Dict[str, list]] = {}
    for sample in samples:
        if sample.error is None:
            by_shape.setdefault(sample.op[:-1], {}).setdefault(
                sample.op[-1], scan.answers(sample.op, sample.result)
            )
    return [
        f"{shape}: backends {sorted(found)} disagree"
        for shape, found in by_shape.items()
        if len({repr(entries) for entries in found.values()}) > 1
    ]


def _mean_extra(samples: Sequence[Sample], key: str) -> float:
    values = [s.result.stats.extra.get(key, 0.0) for s in samples]
    return sum(values) / len(values) if values else 0.0


def shard_layers(tracer, samples: Sequence[Sample]) -> Dict[str, float]:
    """Per-layer numbers of the two engines, from spans and result stats."""
    def took(backend: str, shape: tuple) -> float:
        return common.median([
            s.latency for s in samples
            if s.error is None and s.op == shape + (backend,)
        ])

    backward = SIDE[-1][0][0]
    layers: Dict[str, float] = {}
    for backend in ("parallel", "cluster"):
        layers[f"{backend}.scan_ms_p50"] = common.median(tracer.durations(f"{backend}.scan")) * 1e3
        layers[f"{backend}.backward_ms_p50"] = took(backend, backward) * 1e3
        layers[f"{backend}.speedup_vs_numpy"] = took("numpy", SINGLES[0]) / took(backend, SINGLES[0])
    layers["parallel.scaling_efficiency"] = layers["parallel.speedup_vs_numpy"] / WORKERS
    # The engine spawns its pool inside its first query, so the price of the
    # start is that query's excess over a warm one (exports included).
    scans = tracer.durations("parallel.scan")
    layers["parallel.pool_start_s"] = scans[0] - common.median(scans)
    layers["parallel.export_s"] = tracer.total("parallel.export")
    scans = {
        backend: [s for s in samples if s.error is None and s.op[-1] == backend
                  and s.op[:-1] in SINGLES]
        for backend in ("parallel", "cluster")
    }
    layers["parallel.pipe_bytes_per_op"] = (
        _mean_extra(scans["parallel"], "pipe_bytes_sent")
        + _mean_extra(scans["parallel"], "pipe_bytes_received")
    )
    layers["parallel.tasks_per_op"] = _mean_extra(scans["parallel"], "tasks")
    cluster = scans["cluster"] + [
        s for s in samples if s.error is None and s.op == backward + ("cluster",)
    ]
    shipped = _mean_extra(cluster, "candidates_shipped")
    pruned = _mean_extra(cluster, "candidates_pruned")
    layers["cluster.worker_start_s"] = max(tracer.durations("cluster.worker_start"), default=0.0)
    layers["cluster.ship_stores_s"] = tracer.total("cluster.ship_stores")
    layers["cluster.candidate_bytes_per_op"] = _mean_extra(cluster, "shipped_candidate_bytes")
    layers["cluster.comm_rounds_per_op"] = _mean_extra(cluster, "comm_rounds")
    layers["cluster.pruned_candidate_share"] = (
        pruned / (pruned + shipped) if pruned + shipped else 0.0
    )
    for direction in ("encode", "decode"):
        spent = tracer.total(f"cluster.frames.{direction}")
        layers[f"cluster.frames.{direction}_mb_s"] = (
            tracer.counts(f"cluster.frames.{direction}") / spent / 1e6 if spent else 0.0
        )
    batches = [s for s in samples if s.error is None and s.op[0] == "batch"]
    layers["core.batch.ms_per_query"] = common.median(
        [s.latency / len(s.op[1]) for s in batches]
    ) * 1e3
    return layers


def side(net, samples, tracer, guard) -> Tuple[List[Sample], List[str], Dict[str, float]]:
    if tracer is not None:
        tracer.install()
    try:
        extra = side_stages(net, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    guard.ports += [int(w["peer"].rsplit(":", 1)[1]) for w in net.cluster().worker_stats()]
    layers = shard_layers(tracer, list(samples) + extra) if tracer is not None else {}
    return extra, compare_backends(list(samples) + extra), layers


def run(seed: int, seconds: float, tracer, smoke: bool, boot_s: float) -> Record:
    return scan.run_plan(
        PLAN, seed, seconds, tracer, smoke, boot_s,
        repeats=1, configure=configure, side=side,
    )
