"""The RDBMS-style baseline, measured.

Answers the same :class:`~repro.core.query.QuerySpec` as the graph
algorithms but through the relational plan of
:mod:`repro.relational.planner`, and reports both wall-clock and row-level
work so the "gigantic self-join" cost is visible in benchmark output
(ablation ``abl-rdbms`` in DESIGN.md).

The session facade reaches the same plan declaratively:
``Network.query(name).limit(k).algorithm("relational")`` (optionally with
``.where(...)``, which the plan executes as a selection on ``src``).
:func:`relational_topk` is the functional entry point for benchmarks and
the executor.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.query import QuerySpec
from repro.core.results import QueryStats, TopKResult
from repro.graph.graph import Graph
from repro.relational.operators import OperatorStats
from repro.relational.planner import topk_plan

__all__ = ["relational_topk"]


def relational_topk(
    graph: Graph,
    scores: Sequence[float],
    spec: QuerySpec,
    *,
    candidates: Optional[Sequence[int]] = None,
) -> TopKResult:
    """Functional entry point used by benchmarks, tests, and the executor.

    ``candidates`` optionally restricts the competitors (the builder's
    ``.where(...)``, executed as a relational selection on ``src``).
    """
    op_stats = OperatorStats()
    start = time.perf_counter()
    result_table = topk_plan(
        graph, scores, spec, stats=op_stats, candidates=candidates
    )
    elapsed = time.perf_counter() - start

    nodes = result_table.column("src")
    values = result_table.column("agg")
    entries = sorted(
        zip(nodes, (float(v) for v in values)),
        key=lambda pair: (-pair[1], pair[0]),
    )
    stats = QueryStats(
        algorithm="relational",
        aggregate=spec.aggregate.value,
        hops=spec.hops,
        k=spec.k,
        elapsed_sec=elapsed,
    )
    if candidates is not None:
        stats.extra["candidates"] = float(len(candidates))
    stats.extra.update(op_stats.as_dict())
    return TopKResult(entries=entries, stats=stats)
