"""Distance-weighted aggregation (the paper's footnote 1).

Footnote 1: *"If we introduce edge weights, F(u) could be
w(u, v1) f(v1) + ... + w(u, vm) f(vm), where w(u, v) measures the connection
strength between u and v, e.g., the inverse of the shortest distance between
u and v."*

This module implements that weighted SUM with pluggable hop-distance decay
profiles.  The weight of the center itself (distance 0) is 1.  Weighted
aggregation is evaluated by :func:`weighted_ball_sum` (forward, per node) and
by the backward distribution in :mod:`repro.core.backward` via
``weight_profile`` — both directions agree because hop distance is symmetric
on undirected graphs (the directed case distributes over the reversed graph).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter, hop_ball_with_distances

__all__ = [
    "DecayProfile",
    "inverse_distance",
    "exponential_decay",
    "uniform_weight",
    "weighted_ball_sum",
]

#: A decay profile maps hop distance (0, 1, 2, ...) to a weight in [0, 1].
DecayProfile = Callable[[int], float]


def inverse_distance(distance: int) -> float:
    """The paper's example: ``w = 1 / dist`` (distance-0 weight is 1)."""
    if distance <= 0:
        return 1.0
    return 1.0 / distance


def exponential_decay(factor: float = 0.5) -> DecayProfile:
    """``w = factor ** dist``; ``factor`` in (0, 1]."""
    if not 0.0 < factor <= 1.0:
        raise InvalidParameterError(f"factor must be in (0, 1], got {factor}")

    def profile(distance: int) -> float:
        return factor ** max(distance, 0)

    return profile


def uniform_weight(distance: int) -> float:
    """Weight 1 at every distance — reduces weighted SUM to plain SUM."""
    return 1.0


def precompute_weights(profile: DecayProfile, hops: int) -> List[float]:
    """Tabulate ``profile(0..hops)`` once, validating the [0, 1] range."""
    weights = []
    for d in range(hops + 1):
        w = profile(d)
        if not 0.0 <= w <= 1.0:
            raise InvalidParameterError(
                f"decay profile returned {w} at distance {d}; weights must "
                "be in [0, 1] for the pruning bounds to stay sound"
            )
        weights.append(w)
    return weights


def table_profile(weights: Sequence[float]) -> DecayProfile:
    """The profile a tabulated request carries: ``weights[d]``, 0 beyond it."""
    return lambda distance: weights[distance] if distance < len(weights) else 0.0


def weighted_ball_sum(
    graph: Graph,
    scores: Sequence[float],
    center: int,
    hops: int,
    profile: DecayProfile = inverse_distance,
    *,
    include_self: bool = True,
    counter: Optional[TraversalCounter] = None,
) -> float:
    """``F(center) = sum over ball of profile(dist) * f(v)``."""
    weights = precompute_weights(profile, hops)
    distances = hop_ball_with_distances(
        graph, center, hops, include_self=include_self, counter=counter
    )
    return sum(weights[d] * scores[v] for v, d in distances.items())
