"""Spans recorded from outside the program, around its public functions.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper that
records a span, wherever ``repro`` has bound it; ``uninstall`` puts the
originals back.  Nothing under ``src/`` knows it is being traced.  A span is
``[name, start, end, parent, op_id, count]``; nesting is per thread, so a
span's parent is the span open on the same thread when it began.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, OP, COUNT = range(6)


def _edges(out, *_args):
    return out[2]


def _encoded_bytes(out, *_args):
    return len(out)


def _decoded_bytes(_out, body, *_args):
    return len(body)


#: (module, attribute, span name, count taken from the call or None)
TARGETS = (
    ("repro.graph.csr", "to_csr", "graph.csr.build", None),
    ("repro.graph.csr", "batched_hop_balls", "graph.csr.expand", _edges),
    ("repro.graph.csr", "SharedCSR.export", "parallel.export", None),
    ("repro.graph.diffindex", "build_differential_index", "graph.diffindex.build", None),
    ("repro.core.planner", "QueryPlanner.plan", "core.planner.plan", None),
    ("repro.core.executor", "execute", "core.executor.execute", None),
    ("repro.session", "QueryBuilder.run", "session.run", None),
    ("repro.session", "Network.batch", "session.batch", None),
    ("repro.core.vectorized", "base_topk_numpy", "core.vectorized.base", None),
    ("repro.core.vectorized", "forward_topk_numpy", "core.vectorized.forward", None),
    ("repro.core.vectorized", "backward_topk_numpy", "core.vectorized.backward", None),
    ("repro.core.vectorized", "aggregate_ball_segments", "core.vectorized.aggregate", None),
    ("repro.core.batch", "batch_base_topk", "core.batch.shared_scan", None),
    ("repro.service.service", "QueryService.submit", "service.submit", None),
    ("repro.service.cache", "ResultCache.get", "service.cache.get", None),
    ("repro.serving.protocol", "encode_result", "serving.protocol.encode", None),
    ("repro.serving.protocol", "decode_result", "serving.protocol.decode", None),
    ("repro.serving.admission", "AdmissionController.admit", "serving.admission.admit", None),
    ("repro.serving.replicas", "ReplicaSet.route", "serving.replicas.route", None),
    ("repro.client", "RemoteNetwork.run", "client.run", None),
    ("repro.parallel.pool", "ShardWorkerPool.run", "parallel.pool.run", None),
    ("repro.parallel.engine", "ParallelEngine.execute_scan", "parallel.scan", None),
    ("repro.parallel.engine", "ParallelEngine.execute_backward", "parallel.backward", None),
    ("repro.parallel.engine", "ParallelEngine.run_batch", "parallel.batch", None),
    ("repro.cluster.transport", "ClusterTransport.start", "cluster.worker_start", None),
    ("repro.cluster.transport", "ClusterTransport.ensure_stores", "cluster.ship_stores", None),
    ("repro.cluster.transport", "ClusterTransport.run", "cluster.transport.run", None),
    ("repro.cluster.engine", "ClusterEngine.execute_scan", "cluster.scan", None),
    ("repro.cluster.engine", "ClusterEngine.execute_backward", "cluster.backward", None),
    ("repro.cluster.engine", "ClusterEngine.run_batch", "cluster.batch", None),
    ("repro.cluster.frames", "encode_frame", "cluster.frames.encode", _encoded_bytes),
    ("repro.cluster.frames", "decode_payload", "cluster.frames.decode", _decoded_bytes),
    ("repro.dynamic.graph", "DynamicGraph.add_edge", "dynamic.graph.add_edge", None),
    ("repro.dynamic.graph", "DynamicGraph.remove_edge", "dynamic.graph.remove_edge", None),
    ("repro.dynamic.maintenance", "MaintainedAggregateView.repair_after_insert",
     "dynamic.view.repair_insert", None),
    ("repro.dynamic.maintenance", "MaintainedAggregateView.repair_after_delete",
     "dynamic.view.repair_delete", None),
    ("repro.dynamic.maintenance", "MaintainedAggregateView.update_score",
     "dynamic.view.update_score", None),
    ("repro.dynamic.maintenance", "MaintainedAggregateView.topk", "dynamic.view.topk", None),
)


class Tracer:
    """An in-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._undo: List[tuple] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str, op_id: Optional[int] = None) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op_id is None and parent is not None:
            op_id = parent[OP]
        span = [name, 0.0, 0.0, parent, op_id, 0]
        stack.append(span)
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                span[COUNT] = count(out, *args)
            return out

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        for module_name, path, name, count in TARGETS:
            module = importlib.import_module(module_name)
            owner, attr = module, path
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(module, cls)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(self.wrap(raw.__func__, name, count))
            else:
                wrapper = self.wrap(raw, name, count)
            # `from x import f` copies the binding, so rebind every copy.
            holders = [owner]
            if owner is module:
                holders += [
                    m for key, m in list(sys.modules.items())
                    if key.startswith("repro") and m is not module
                    and getattr(m, "__dict__", {}).get(attr) is raw
                ]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append((holder, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, raw = self._undo.pop()
            setattr(holder, attr, raw)

    # -- reading -------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def counts(self, name: str) -> int:
        return sum(s[COUNT] for s in self.spans if s[NAME] == name)

    def self_times(self) -> Dict[int, float]:
        """Per span (by ``id``): its duration minus what its children cover.

        Children of one span run on one thread, one after another, so their
        cover is the sum of their durations.
        """
        own = {id(s): s[END] - s[START] for s in self.spans}
        for s in self.spans:
            if s[PARENT] is not None:
                own[id(s[PARENT])] -= s[END] - s[START]
        return own

    def self_ms_by_name(self) -> Dict[str, float]:
        own = self.self_times()
        table: Dict[str, float] = {}
        for s in self.spans:
            table[s[NAME]] = table.get(s[NAME], 0.0) + own[id(s)] * 1e3
        return table

    def export(self) -> List[dict]:
        # A span still open on another thread has no end yet; it has no
        # finished children either, so leaving it out breaks no parent link.
        done = [s for s in self.spans if s[END] > 0.0]
        index = {id(s): i for i, s in enumerate(done)}
        return [
            {
                "id": i,
                "name": s[NAME],
                "start": s[START],
                "end": s[END],
                "parent": None if s[PARENT] is None else index[id(s[PARENT])],
                "op": s[OP],
                "count": s[COUNT],
            }
            for i, s in enumerate(done)
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.export(), "self_ms": self.self_ms_by_name()}, fh)

    @classmethod
    def load(cls, path) -> "Tracer":
        """Rebuild a recorder from ``dump`` output (another process's spans)."""
        with open(path, "r", encoding="utf-8") as fh:
            rows = json.load(fh)["spans"]
        tracer = cls()
        tracer.spans = [
            [r["name"], r["start"], r["end"], None, r["op"], r["count"]] for r in rows
        ]
        for span, row in zip(tracer.spans, rows):
            if row["parent"] is not None:
                span[PARENT] = tracer.spans[row["parent"]]
        return tracer
