"""Mini relational engine: the RDBMS self-join baseline (paper Sec. II).

* :class:`Table` — column-store storage.
* operators — hash join, distinct, group-by aggregation, order-by-limit.
* :func:`relational_topk` — the h-hop aggregation query evaluated the way
  a relational engine would.
"""

from repro.relational.engine import relational_topk
from repro.relational.operators import (
    OperatorStats,
    append_constant,
    distinct,
    filter_rows,
    group_aggregate,
    hash_join,
    order_by_limit,
    union_all,
)
from repro.relational.planner import (
    edges_table,
    neighborhood_pairs,
    nodes_table,
    scores_table,
    topk_plan,
)
from repro.relational.table import Table

__all__ = [
    "Table",
    "OperatorStats",
    "filter_rows",
    "hash_join",
    "distinct",
    "group_aggregate",
    "order_by_limit",
    "union_all",
    "append_constant",
    "edges_table",
    "nodes_table",
    "scores_table",
    "neighborhood_pairs",
    "topk_plan",
    "relational_topk",
]
