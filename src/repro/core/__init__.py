"""The paper's contribution: LONA top-k neighborhood aggregation.

* :class:`~repro.core.context.GraphContext` — the shared per-graph caches
  (differential index, size index, CSR views) every execution path draws
  from.
* :class:`~repro.core.request.QueryRequest` — the lowered query the
  session builder produces and the executor consumes.
* :mod:`repro.core.executor` — the single dispatch point for base /
  forward / backward / relational / filtered / streamed execution.
* :func:`base_topk` — naive forward baseline ("Base").
* :func:`forward_topk` — LONA-Forward (differential-index pruning).
* :func:`backward_topk` — LONA-Backward (partial distribution).
* :class:`QuerySpec` / :class:`TopKResult` / :class:`QueryStats` — the query
  and result types shared by all execution paths.
* :mod:`repro.core.backends` — execution-backend selection (pure Python vs
  vectorized numpy CSR); every algorithm runs identically on either.
"""

from repro.core.backends import BACKENDS, numpy_available, resolve_backend
from repro.core.backward import backward_topk, resolve_gamma
from repro.core.base import base_topk
from repro.core.batch import BatchQuery, BatchResult, batch_base_topk
from repro.core.bounds import (
    avg_bound,
    backward_sum_bound,
    forward_sum_bound,
    static_sum_bound,
)
from repro.core.context import GraphContext
from repro.core.evaluate import evaluate_node, exact_sum_and_size
from repro.core.forward import forward_topk
from repro.core.materialized import MaterializedView
from repro.core.ordering import ORDERINGS, make_order
from repro.core.planner import CostEstimate, ExecutionPlan, QueryPlanner
from repro.core.provenance import Contribution, NodeExplanation, explain_node
from repro.core.query import QuerySpec
from repro.core.request import QueryRequest
from repro.core.results import (
    QueryStats,
    StreamUpdate,
    TopKResult,
    combine_query_stats,
)
from repro.core.topk import TopKAccumulator
from repro.core.weighted import weighted_backward_topk, weighted_base_topk

__all__ = [
    "BACKENDS",
    "numpy_available",
    "resolve_backend",
    "GraphContext",
    "QuerySpec",
    "QueryRequest",
    "TopKResult",
    "QueryStats",
    "StreamUpdate",
    "combine_query_stats",
    "TopKAccumulator",
    "base_topk",
    "forward_topk",
    "backward_topk",
    "resolve_gamma",
    "MaterializedView",
    "QueryPlanner",
    "ExecutionPlan",
    "CostEstimate",
    "weighted_base_topk",
    "weighted_backward_topk",
    "BatchQuery",
    "BatchResult",
    "batch_base_topk",
    "explain_node",
    "NodeExplanation",
    "Contribution",
    "evaluate_node",
    "exact_sum_and_size",
    "static_sum_bound",
    "forward_sum_bound",
    "backward_sum_bound",
    "avg_bound",
    "ORDERINGS",
    "make_order",
]
