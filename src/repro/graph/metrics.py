"""Structural graph statistics.

Used two ways in this repository:

* the dataset tests assert each stand-in matches its paper profile
  (degree shape, clustering, component structure);
* ``repro profile`` (:func:`profile_graph`) prints them for a dataset, the
  structure to read beside the figure harness's pruning counters
  (``python -m repro.bench.figures``, DESIGN §11).

The planner does not read them: its ball sizes come from
:mod:`repro.graph.neighborhood` (``upper_estimate``).

Everything here is exact and dependency-free; the sampled variants exist
for statistics whose exact computation would itself cost a full Base scan
(ball sizes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.traversal import hop_ball
from repro.graph.validation import connected_components

__all__ = [
    "DegreeStats",
    "degree_stats",
    "clustering_coefficient",
    "average_clustering",
    "sample_ball_sizes",
    "BallSizeStats",
    "ball_size_stats",
    "component_stats",
    "GraphProfile",
    "profile_graph",
]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a graph's degree distribution."""

    minimum: int
    maximum: int
    mean: float
    median: float
    gini: float

    def is_heavy_tailed(self) -> bool:
        """Heuristic: max degree an order of magnitude above the median."""
        return self.maximum >= 10 * max(self.median, 1.0)


def _median(sorted_values: Sequence[float]) -> float:
    n = len(sorted_values)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return float(sorted_values[mid])
    return (sorted_values[mid - 1] + sorted_values[mid]) / 2.0


def _gini(sorted_values: Sequence[float]) -> float:
    """Gini coefficient of a sorted non-negative sequence (0 = uniform)."""
    n = len(sorted_values)
    total = sum(sorted_values)
    if n == 0 or total == 0:
        return 0.0
    cumulative = 0.0
    weighted = 0.0
    for i, value in enumerate(sorted_values, start=1):
        cumulative += value
        weighted += i * value
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


def degree_stats(graph: Graph) -> DegreeStats:
    """Exact degree distribution summary."""
    degrees = sorted(graph.degree(u) for u in graph.nodes())
    if not degrees:
        return DegreeStats(0, 0, 0.0, 0.0, 0.0)
    return DegreeStats(
        minimum=degrees[0],
        maximum=degrees[-1],
        mean=sum(degrees) / len(degrees),
        median=_median(degrees),
        gini=_gini([float(d) for d in degrees]),
    )


def clustering_coefficient(graph: Graph, node: int) -> float:
    """Local clustering coefficient of ``node`` (0 for degree < 2)."""
    nbrs = list(graph.neighbors(node))
    k = len(nbrs)
    if k < 2:
        return 0.0
    nbr_set = set(nbrs)
    links = 0
    for v in nbrs:
        for w in graph.neighbors(v):
            if w in nbr_set:
                links += 1
    # each triangle edge counted twice (v->w and w->v)
    return links / (k * (k - 1))


def average_clustering(
    graph: Graph, *, sample: Optional[int] = None, seed: Optional[int] = None
) -> float:
    """Mean local clustering, optionally over a random node sample."""
    nodes: Sequence[int] = range(graph.num_nodes)
    if sample is not None:
        if sample < 1:
            raise InvalidParameterError(f"sample must be >= 1, got {sample}")
        rng = random.Random(seed)
        nodes = rng.sample(range(graph.num_nodes), min(sample, graph.num_nodes))
    if not nodes:
        return 0.0
    return sum(clustering_coefficient(graph, u) for u in nodes) / len(nodes)


@dataclass(frozen=True)
class BallSizeStats:
    """Summary of sampled h-hop ball sizes."""

    hops: int
    sample_size: int
    minimum: int
    maximum: int
    mean: float
    median: float
    gini: float


def sample_ball_sizes(
    graph: Graph,
    hops: int,
    *,
    sample: int = 200,
    seed: Optional[int] = None,
    include_self: bool = True,
) -> List[int]:
    """Ball sizes of a uniform node sample (exact per sampled node)."""
    if sample < 1:
        raise InvalidParameterError(f"sample must be >= 1, got {sample}")
    if graph.num_nodes == 0:
        return []
    rng = random.Random(seed)
    nodes = rng.sample(range(graph.num_nodes), min(sample, graph.num_nodes))
    return [
        len(hop_ball(graph, u, hops, include_self=include_self)) for u in nodes
    ]


def ball_size_stats(
    graph: Graph,
    hops: int,
    *,
    sample: int = 200,
    seed: Optional[int] = None,
) -> BallSizeStats:
    """Summary statistics of sampled h-hop ball sizes."""
    sizes = sorted(sample_ball_sizes(graph, hops, sample=sample, seed=seed))
    if not sizes:
        return BallSizeStats(hops, 0, 0, 0, 0.0, 0.0, 0.0)
    return BallSizeStats(
        hops=hops,
        sample_size=len(sizes),
        minimum=sizes[0],
        maximum=sizes[-1],
        mean=sum(sizes) / len(sizes),
        median=_median(sizes),
        gini=_gini([float(s) for s in sizes]),
    )


def component_stats(graph: Graph) -> Tuple[int, int, float]:
    """``(component_count, largest_size, largest_fraction)``."""
    components = connected_components(graph)
    if not components:
        return 0, 0, 0.0
    largest = len(components[0])
    return len(components), largest, largest / graph.num_nodes


@dataclass(frozen=True)
class GraphProfile:
    """One-stop structural profile used by the planner and reports."""

    num_nodes: int
    num_edges: int
    directed: bool
    degrees: DegreeStats
    clustering: float
    balls: BallSizeStats
    num_components: int
    largest_component_fraction: float

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        return "\n".join(
            [
                f"nodes={self.num_nodes} edges={self.num_edges} "
                f"directed={self.directed}",
                f"degree: min={self.degrees.minimum} "
                f"median={self.degrees.median:.1f} mean={self.degrees.mean:.1f} "
                f"max={self.degrees.maximum} gini={self.degrees.gini:.2f}",
                f"clustering≈{self.clustering:.3f}",
                f"{self.balls.hops}-hop balls (n={self.balls.sample_size}): "
                f"median={self.balls.median:.0f} mean={self.balls.mean:.0f} "
                f"max={self.balls.maximum} gini={self.balls.gini:.2f}",
                f"components={self.num_components} "
                f"(largest {self.largest_component_fraction:.0%})",
            ]
        )


def profile_graph(
    graph: Graph,
    hops: int = 2,
    *,
    sample: int = 200,
    seed: Optional[int] = 0,
) -> GraphProfile:
    """Compute the full structural profile (sampled where exactness is a scan)."""
    comp_count, _largest, largest_fraction = component_stats(graph)
    return GraphProfile(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        directed=graph.directed,
        degrees=degree_stats(graph),
        clustering=average_clustering(
            graph, sample=min(sample, max(graph.num_nodes, 1)), seed=seed
        ),
        balls=ball_size_stats(graph, hops, sample=sample, seed=seed),
        num_components=comp_count,
        largest_component_fraction=largest_fraction,
    )
