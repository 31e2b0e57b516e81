"""repro — reproduction of "Top-K Aggregation Queries over Large Networks".

LONA (Yan, He, Zhu, Han; ICDE 2010) answers *neighborhood aggregation*
queries — find the k nodes whose h-hop neighborhoods have the highest
SUM/AVG of a per-node relevance score — with two pruning algorithms that
beat the naive scan by up to an order of magnitude.

Quickstart (the :class:`Network` session is the front door)::

    from repro import Graph, MixtureRelevance, Network

    graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    net = Network(graph, hops=2)
    net.add_scores("relevance", MixtureRelevance(0.25, seed=7))

    result = net.query("relevance").aggregate("sum").limit(2).run()
    for node, value in result.entries:
        print(node, value)

    # incremental (anytime) consumption, batches, plans, filters:
    for update in net.query("relevance").limit(2).stream():
        ...                                           # refining snapshots
    plan = net.query("relevance").limit(2).explain()  # cost-based plan
    subset = net.query("relevance").limit(2).where(lambda v: v > 0).run()

    # concurrent serving: async handles, a coalescing scheduler, and a
    # version-keyed result cache (see repro.service)
    net.service(workers=4)
    handle = net.query("relevance").limit(2).submit(priority=5)
    top2 = handle.result(timeout=1.0)

The algorithm functions (:func:`base_topk`, :func:`forward_topk`,
:func:`backward_topk`) stay importable as the reference implementations the
session's answers are checked against.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.aggregates import AggregateKind
from repro.config import ParallelConfig, ServiceConfig
from repro.core import (
    BatchQuery,
    BatchResult,
    QueryRequest,
    QuerySpec,
    QueryStats,
    StreamUpdate,
    TopKResult,
    backward_topk,
    base_topk,
    combine_query_stats,
    forward_topk,
)
from repro.dynamic import DynamicGraph, MaintainedAggregateView
from repro.errors import ReproError
from repro.graph import Graph, GraphBuilder, build_differential_index
from repro.relevance import (
    BinaryRelevance,
    IterativeClassifierRelevance,
    MixtureRelevance,
    RandomAssignmentRelevance,
    RandomWalkRelevance,
    ScoreVector,
    indicator_scores,
    uniform_scores,
)
from repro.errors import error_from_wire
from repro.faults import FaultPlan
from repro.service import QueryHandle, QueryService
from repro.session import Network, QueryBuilder

__version__ = "3.0.0"


def __getattr__(name: str):
    # The remote client brings http.client, ssl and the asyncio serving stack
    # with it (about 8 MB resident); a process that only queries in-process
    # should not carry them, so these two names resolve on first use.
    if name in ("RemoteNetwork", "RetryPolicy"):
        from repro import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "ReproError",
    "Graph",
    "GraphBuilder",
    "build_differential_index",
    "DynamicGraph",
    "MaintainedAggregateView",
    "Network",
    "QueryBuilder",
    "QueryService",
    "QueryHandle",
    "ServiceConfig",
    "ParallelConfig",
    "RemoteNetwork",
    "RetryPolicy",
    "FaultPlan",
    "error_from_wire",
    "QueryRequest",
    "StreamUpdate",
    "BatchQuery",
    "BatchResult",
    "combine_query_stats",
    "QuerySpec",
    "TopKResult",
    "QueryStats",
    "AggregateKind",
    "base_topk",
    "forward_topk",
    "backward_topk",
    "ScoreVector",
    "MixtureRelevance",
    "BinaryRelevance",
    "RandomAssignmentRelevance",
    "RandomWalkRelevance",
    "IterativeClassifierRelevance",
    "uniform_scores",
    "indicator_scores",
]
