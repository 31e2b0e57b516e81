"""``serve-16k``: the whole request path over HTTP.

A ``QueryServer`` (default config, 2 replica lanes, one worker each) runs in
a child process over a 16,000-node graph with 8 sparse score vectors;
``RemoteNetwork`` clients in this process drive it.  A query's kernel takes
about 3 ms, so HTTP parse, admission, lane routing, the scheduler, the result
cache and wire encoding are most of a request.

The end-to-end stage ``closed1`` is one closed-loop connection sending
single queries, 30 % of them from a hot set the result cache answers.

What a coalescer is for, concurrent callers and fused groups, is measured
by traced runs only, because neither repeats on this host.  Whether two
free-running callers' requests meet in the queue and fuse is a race that
locks in for minutes: the same code and seed gave p50 7.7 ms at 178
queries/s after the CPUs had been busy and 17.9 ms at 106 queries/s after
they had idled.  A fused group rebuilds the CSR once per query, which is
allocation-bound, and a ``/v1/batch`` of three took 47 ms or 80 ms in runs
whose single queries differed by a quarter.  Traced stages: ``batch1``
(one connection, batches of three fresh queries), ``closed2`` (two
free-running connections) and ``open20`` (Poisson arrivals at 20 requests/s
over 2 connections, latency timed from each request's due time).
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from bench import common, scan
from bench.common import Record, Sample
from bench.oracle import Oracle
from bench.trace import Tracer

SETUP_REPEATS = 3
SCORES = tuple(f"b{i}" for i in range(8))
AGGREGATES = (("sum", 0.7), ("count", 0.2), ("avg", 0.1))
HOT_SHAPES = 32
HOT_SHARE = 0.3
BATCH_SIZE = 3
OPEN_RATE = 20.0
SLO_S = 0.050
SLICE_S = 1.0
PROBES = 50


# ---------------------------------------------------------------------------
# Inputs and ops
# ---------------------------------------------------------------------------
def build_session(scale: float, seed: int, tracer):
    """Graph, scores and a ``Network``; parent and child build the same one."""
    from repro import Network

    with scan.span(tracer, "graph.generate"):
        graph = common.build_graph(scale, seed)
    with scan.span(tracer, "relevance.scores"):
        vectors = {
            name: common.binary_scores(graph, seed, i).values()
            for i, name in enumerate(SCORES)
        }
    net = Network(graph, hops=2, backend="numpy")
    for name, values in vectors.items():
        net.add_scores(name, values)
    return net, vectors


def _draw(rng: random.Random) -> Tuple[str, str, int]:
    """One shape: Zipf-skewed score, 70/20/10 aggregate, k 1-200 (avg 1-20)."""
    score = rng.choices(SCORES, weights=[1.0 / (i + 1) for i in range(len(SCORES))])[0]
    aggregate = rng.choices([a for a, _ in AGGREGATES], weights=[w for _, w in AGGREGATES])[0]
    # avg over 0/1 scores ties thousands of nodes at 1.0; a large k makes
    # backward verify them all (hundreds of ms), a different workload.
    k = rng.randint(1, 20 if aggregate == "avg" else 200)
    return score, aggregate, k


def hot_shapes(seed: int) -> List[Tuple[str, str, int]]:
    rng = random.Random(seed * 7919 + 1)
    return [_draw(rng) for _ in range(HOT_SHAPES)]


def op_stream(seed: int, connection: int) -> Iterator[tuple]:
    """``("query", score, aggregate, k, cached)`` ops of one connection.

    30 % come from the hot set with the result cache on; the rest are fresh
    draws sent ``cached=False``, which pins the hit share whatever the run
    length.
    """
    rng = random.Random(seed * 7919 + 100 + connection)
    hot = hot_shapes(seed)
    while True:
        if rng.random() < HOT_SHARE:
            yield ("query",) + rng.choice(hot) + (True,)
        else:
            yield ("query",) + _draw(rng) + (False,)


def batch_stream(seed: int) -> Iterator[tuple]:
    """``("batch", ((score, aggregate, k), ...))``: ``BATCH_SIZE`` fresh draws
    each, which the lane fuses into one coalesced group every time."""
    rng = random.Random(seed * 7919 + 50)
    while True:
        yield ("batch", tuple(_draw(rng) for _ in range(BATCH_SIZE)))


def warmup_ops(seed: int) -> List[tuple]:
    """Every hot shape once (fills the cache) and every score x aggregate."""
    ops = [("query",) + shape + (True,) for shape in hot_shapes(seed)]
    ops += [("query", s, a, 10, False) for s in SCORES for a, _ in AGGREGATES]
    return ops


# ---------------------------------------------------------------------------
# The server child
# ---------------------------------------------------------------------------
class Child:
    """The server process; ``stop`` always leaves it dead."""

    def __init__(self, scale: float, seed: int, spans: Optional[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(common.ROOT / "src"), str(common.ROOT)])
        command = [sys.executable, "-m", "bench.serve_child",
                   "--seed", str(seed), "--scale", str(scale)]
        if spans:
            command += ["--spans", spans]
        self.process = subprocess.Popen(
            command, cwd=str(common.ROOT), env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        ready = self.process.stdout.readline()
        if not ready:
            self.stop()
            raise RuntimeError("server child exited before it served")
        self.port = int(json.loads(ready)["port"])
        self.url = f"http://127.0.0.1:{self.port}"

    def tell(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        self.process.stdout.readline()  # acknowledged: in effect from here on

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                self.process.stdin.write("stop\n")
                self.process.stdin.flush()
                self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
        finally:
            self.process.wait()
            self.process.stdin.close()
            self.process.stdout.close()


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------
def connect(url: str):
    from repro import RemoteNetwork

    remote = RemoteNetwork(url)
    remote.health()  # fetches the session defaults every request lowers with
    return remote


def send(remote, op: tuple):
    if op[0] == "batch":
        return remote.batch(
            [remote.query(score).aggregate(aggregate).limit(k) for score, aggregate, k in op[1]]
        )
    _, score, aggregate, k, cached = op
    request = remote.query(score).aggregate(aggregate).limit(k).request()
    return remote.run(request, cached=cached)


def answers(op: tuple, result) -> List[Tuple[str, str, int, list]]:
    """``(score, aggregate, k, entries)`` for each top-k an op returned."""
    if op[0] == "batch":
        return [shape + (r.entries,) for shape, r in zip(op[1], result)]
    return [(op[1], op[2], op[3], result.entries)]


def closed(url: str, streams: Sequence[Iterator[tuple]], seconds: float, tracer) -> List[Sample]:
    """One closed-loop caller per stream, a keep-alive connection each."""
    results: List[List[Sample]] = [[] for _ in streams]

    def caller(index: int) -> None:
        remote = connect(url)
        try:
            results[index] = common.closed_loop(
                streams[index], lambda op: send(remote, op), seconds, tracer=tracer
            )
        finally:
            remote.close()

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [s for samples in results for s in samples]


def open_loop(url: str, seed: int, seconds: float) -> Tuple[List[Sample], List[float]]:
    """Poisson arrivals at ``OPEN_RATE`` over 2 connections.

    Latency runs from the moment a request was due, so a stall is charged to
    every request it delays; returns the samples and how late each was sent.
    """
    rng = random.Random(seed * 7919 + 999)
    due, t = [], 0.0
    while t < seconds:
        t += rng.expovariate(OPEN_RATE)
        due.append(t)
    ops = list(itertools.islice(op_stream(seed, 9), len(due)))
    samples: List[Sample] = []
    late: List[float] = []
    turn = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def caller() -> None:
        remote = connect(url)
        try:
            while True:
                with lock:
                    i = next(turn)
                if i >= len(due):
                    return
                wait = start + due[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    result, error = send(remote, ops[i]), None
                except Exception as exc:
                    result, error = None, f"{type(exc).__name__}: {exc}"
                done = time.perf_counter()
                samples.append(Sample(ops[i], done - (start + due[i]), done, result, error))
                late.append(sent - (start + due[i]))
        finally:
            remote.close()

    threads = [threading.Thread(target=caller) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, late


def qps(samples: Sequence[Sample]) -> float:
    """Median over one-second slices of requests answered per second."""
    good = [s for s in samples if s.error is None]
    if not good:
        return 0.0
    start = min(s.done - s.latency for s in good)
    return common.sliced_throughput([s.done for s in good], start, max(s.done for s in good), SLICE_S)


def mean_qps(samples: Sequence[Sample]) -> float:
    """Requests answered per second of the whole stage (a 2 s slice has too
    few one-second slices for a median)."""
    start = min(s.done - s.latency for s in samples)
    return len(samples) / (max(s.done for s in samples) - start)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def check_answers(samples: Sequence[Sample], graph, vectors: Dict[str, list]) -> Tuple[int, List[str]]:
    """Every answer against all 16k nodes' re-derived values."""
    import numpy as np

    oracle = Oracle(graph)
    truth = oracle.all_values(np.asarray([vectors[name] for name in SCORES]))
    ranked: Dict[Tuple[str, str], object] = {}
    failed, problems = 0, []
    for sample in samples:
        if sample.error is not None:
            failed += 1
            problems.append(f"{sample.op}: {sample.error}")
            continue
        found = []
        for score, aggregate, k, entries in answers(sample.op, sample.result):
            every = truth[aggregate][SCORES.index(score)]
            if (score, aggregate) not in ranked:
                ranked[score, aggregate] = np.sort(every)[::-1]
            found += oracle.check(entries, k, every.__getitem__, ranked=ranked[score, aggregate])
        if found:
            failed += 1
            problems += [f"{sample.op}: {p}" for p in found]
    return failed, problems


# ---------------------------------------------------------------------------
# Traced-run probes
# ---------------------------------------------------------------------------
def _timed(fn, repeats: int = PROBES) -> float:
    took = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        took.append(time.perf_counter() - start)
    return common.median(took)


def client_probes(url: str) -> Dict[str, float]:
    """The HTTP floor, and what ``RemoteNetwork.run`` adds to a raw POST."""
    remote = connect(url)
    raw = http.client.HTTPConnection("127.0.0.1", int(url.rsplit(":", 1)[1]), timeout=30)
    try:
        request = remote.query(SCORES[0]).aggregate("sum").limit(10).request()
        body = json.dumps({"request": request.to_dict(), "cached": False}).encode("utf-8")

        def post() -> None:
            raw.request("POST", "/v1/query", body, {"Content-Type": "application/json"})
            raw.getresponse().read()

        floor = _timed(remote.health)
        through_client = _timed(lambda: remote.run(request, cached=False))
        return {
            "serving.http_floor_ms_p50": floor * 1e3,
            "client.overhead_ms_p50": (through_client - _timed(post)) * 1e3,
        }
    finally:
        raw.close()
        remote.close()


def service_probes(net) -> Dict[str, float]:
    """In process, one worker: what ``submit().result()`` adds to ``execute``."""
    net.service(workers=1)
    query = net.query(SCORES[0]).aggregate("sum").limit(10)
    query.run()
    tracer = Tracer()
    tracer.install()
    try:
        through_service = _timed(lambda: query.submit(cached=False).result(timeout=30))
        query.submit(cached=True).result(timeout=30)
        hit = _timed(lambda: query.submit(cached=True).result(timeout=30))
    finally:
        tracer.uninstall()
    executes = tracer.durations("core.executor.execute")
    return {
        "service.submit_overhead_ms_p50": (through_service - common.median(executes)) * 1e3,
        "service.cache_hit_ms_p50": hit * 1e3,
    }


def server_layers(before: dict, after: dict, attempted: int) -> Dict[str, float]:
    """Shares read off the server's own ``/v1/stats`` across the ``closed2`` stage."""
    lanes = [
        count - before["requests"].get(key, 0)
        for key, count in after["requests"].items() if key.startswith("lane_")
    ]
    shed = after["admission"]["shed"] - before["admission"]["shed"]

    def lane_sum(key: str) -> float:
        return sum(
            a.get(key, 0) - b.get(key, 0)
            for a, b in zip(after["replicas"]["lanes"], before["replicas"]["lanes"])
        )

    submitted = lane_sum("submitted")
    return {
        "service.cache_hit_share": lane_sum("cache_hits") / submitted if submitted else 0.0,
        "service.coalesced_share": lane_sum("coalesced_queries") / submitted if submitted else 0.0,
        "serving.shed_share": shed / max(1, attempted),
        "serving.lane_imbalance": max(lanes) / sum(lanes) if lanes and sum(lanes) else 0.0,
        "graph.csr.ballcache_hit_share":
            common.ballcache_hit_share(after["replicas"]["lanes"][0]["session_caches"]),
    }


# ---------------------------------------------------------------------------
def start_child(scale: float, seed: int, spans: Optional[str]) -> Child:
    """A serving child with a warm cache: what ``setup_s`` times."""
    child = Child(scale, seed, spans)
    try:
        remote = connect(child.url)
        try:
            for op in warmup_ops(seed):
                send(remote, op)
        finally:
            remote.close()
    except BaseException:
        child.stop()
        raise
    return child


def run(seed: int, seconds: float, tracer, smoke: bool, boot_s: float) -> Record:
    scale = common.SMOKE_SCALE if smoke else common.SCALE_16K
    record = Record()
    guard = common.LeakGuard()
    child = net = None
    spans = str(common.OUT_DIR / f"serve-16k-seed{seed}-child-spans.json") if tracer else None
    try:
        times = []
        for _ in range(1 if smoke or tracer is not None else SETUP_REPEATS):
            if child is not None:
                child.stop()
            start = time.perf_counter()
            child = start_child(scale, seed, spans)
            times.append(time.perf_counter() - start)
        guard.ports.append(child.port)
        if tracer is not None:
            reference = closed(child.url, [op_stream(seed, 0)], seconds / 6.0, None)
            child.tell("install")
            tracer.install()
            seconds /= 3.0
        samples = closed(child.url, [op_stream(seed, 0)], seconds, tracer)
        good = [s for s in samples if s.error is None]
        record.end_to_end = common.end_to_end(
            boot_s + common.median(times), [s.latency for s in good], qps(samples)
        )
        layers: Dict[str, float] = {}
        if tracer is not None:
            monitor = connect(child.url)
            try:
                batches = closed(child.url, [batch_stream(seed)], seconds / 3.0, tracer)
                before = monitor.stats()
                closed2 = closed(
                    child.url, [op_stream(seed, i) for i in (1, 2)], seconds / 2.0, tracer
                )
                layers = server_layers(before, monitor.stats(), len(closed2))
            finally:
                monitor.close()
            opened, late = open_loop(child.url, seed, seconds)
            tracer.uninstall()
            child.tell("uninstall")
            waits = [s.latency for s in opened if s.error is None]
            solo_qps = qps(samples)
            layers.update(client_probes(child.url))
            layers.update({
                "trace.overhead_share": 1.0 - mean_qps(samples) / mean_qps(reference),
                "client.closed1.qps": solo_qps,
                "serving.concurrency_scaling": qps(closed2) / solo_qps if solo_qps else 0.0,
                "client.open20.p50_ms": common.median(waits) * 1e3,
                "client.open20.p95_ms": common.percentile(waits, 0.95) * 1e3,
                "client.open20.p99_ms": common.percentile(waits, 0.99) * 1e3,
                "client.open20.slo50_share":
                    sum(1 for w in waits if w <= SLO_S) / max(1, len(opened)),
                "client.open20.late_p95_ms": common.percentile(late, 0.95) * 1e3,
                "serving.protocol.decode_us_p50":
                    common.median(tracer.durations("serving.protocol.decode")) * 1e6,
            })
            samples = samples + batches + closed2 + opened
        child.stop()
        net, vectors = build_session(scale, seed, None)
        record.attempted = len(samples)
        record.failed, record.problems = check_answers(samples, net.graph, vectors)
        if tracer is not None:
            served = Tracer.load(spans)
            layers.update(scan.kernel_layers(served, []))
            layers.update({
                "core.batch.ms_per_query": common.median(
                    [s.latency / BATCH_SIZE for s in batches if s.error is None]
                ) * 1e3,
                "serving.protocol.encode_us_p50":
                    common.median(served.durations("serving.protocol.encode")) * 1e6,
                "serving.admission.admit_us_p50":
                    common.median(served.durations("serving.admission.admit")) * 1e6,
            })
            layers.update(service_probes(net))
            record.per_layer = layers
        record.fingerprint = common.fingerprint(seed, net.graph, len(good))
    finally:
        if tracer is not None:
            tracer.uninstall()
        if child is not None:
            child.stop()
        if net is not None:
            net.close()
        record.problems += guard.problems()
    return record
