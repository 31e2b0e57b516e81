"""Exact global top-k from per-shard candidate state.

Correctness argument, once, for every sharded route:

* The library's :class:`~repro.core.topk.TopKAccumulator` offered nodes in
  ascending id order selects exactly the k best entries under the total
  order ``(-value, node id)`` — a *total* order, so the selection is
  deterministic and independent of how the node universe was split.
* Each shard returns its exact top-k **over its owned nodes** under that
  same order (worker scans offer ascending; bound-based pruning inside a
  shard only discards nodes that cannot reach the shard's own k-th value,
  which is >= the global k-th restricted to that shard).
* If a node is in the global top-k, then fewer than k nodes beat it
  *anywhere* — in particular within its own shard — so it appears in its
  shard's local top-k.  The union of local top-k lists therefore contains
  the global top-k, and merging is just re-selecting the k best under
  ``(-value, node)`` from ``num_shards * k`` candidates (the classic
  distributed top-k merge; only candidate lists ever cross the
  process boundary).

Rank-k *ties* are resolved by ascending node id — the canonical
ascending-scan order every in-process backend uses for its Base scans.
The bound-pruned route (forward) resolves boundary ties by its own pruning
order on any backend, so cross-backend tie identity is only
guaranteed for continuous scores (where exact rank-k ties do not occur);
this is the same caveat the in-process backends already carry.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.results import QueryStats
from repro.core.topk import TopKAccumulator

__all__ = ["merge_shard_entries", "merge_counters"]


def merge_shard_entries(
    shard_entries: Iterable[Sequence[Tuple[int, float]]], k: int
) -> List[Tuple[int, float]]:
    """The k best ``(node, value)`` pairs of all shards, canonical order."""
    candidates: List[Tuple[int, float]] = []
    for entries in shard_entries:
        candidates.extend(entries)
    candidates.sort(key=lambda pair: pair[0])
    acc = TopKAccumulator(k)
    for node, value in candidates:
        acc.offer(node, value)
    return acc.entries()


def merge_counters(stats: QueryStats, counter_dicts: Iterable[Dict[str, int]]) -> None:
    """Sum per-shard traversal counters into one query's stats."""
    for counters in counter_dicts:
        stats.edges_scanned += counters.get("edges_scanned", 0)
        stats.nodes_visited += counters.get("nodes_visited", 0)
        stats.balls_expanded += counters.get("balls_expanded", 0)
        stats.nodes_evaluated += counters.get("nodes_evaluated", 0)
