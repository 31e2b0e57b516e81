"""Analytic communication forecasts for cluster plans.

The cluster engine *measures* its communication (byte counters around
every round); this module *predicts* it from plan-time facts only, so
``.explain()`` can state the naive candidate volume a query would ship
without running anything, and the bench can compare measured bytes against
that forecast in one currency.

The naive volume is the classic distributed top-k bound: every shard ships
its full local top-k, ``num_shards * k`` entries of
:data:`~repro.cluster.engine.ENTRY_BYTES` bytes each.  θ-shipping and
adaptive quotas exist to land below it.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.engine import ENTRY_BYTES

__all__ = ["ENTRY_BYTES", "naive_candidate_volume", "comm_forecast"]


def naive_candidate_volume(num_shards: int, k: int) -> int:
    """Candidate entries shipped when every shard sends its full top-k."""
    return int(num_shards) * int(k)


def comm_forecast(
    num_shards: int, k: int, *, workers: Optional[int] = None
) -> dict:
    """The plan-time communication summary attached to cluster plans."""
    candidates = naive_candidate_volume(num_shards, k)
    forecast = {
        "shards": float(num_shards),
        "predicted_candidates": float(candidates),
        "predicted_candidate_bytes": float(candidates * ENTRY_BYTES),
        "entry_bytes": float(ENTRY_BYTES),
    }
    if workers is not None:
        forecast["workers"] = float(workers)
    return forecast
