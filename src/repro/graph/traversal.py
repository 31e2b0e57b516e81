"""Breadth-first traversal primitives.

Everything in the paper reduces to enumerating ``S_h(u)``, the set of nodes
within ``h`` hops of ``u``.  This module implements that enumeration once,
carefully, and every algorithm (Base, LONA-Forward, LONA-Backward, the
distributed engine) reuses it, so correctness is concentrated in one place.

The closed-ball convention (see DESIGN.md Sec. 1): ``S_h(u)`` *includes* the
center ``u`` itself, which is 0 hops from itself.  Callers that need the open
ball pass ``include_self=False``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import InvalidParameterError
from repro.graph.graph import Graph

__all__ = [
    "hop_ball",
    "hop_ball_csr",
    "hop_ball_with_distances",
    "hop_frontiers",
    "ball_size",
    "TraversalCounter",
]


class TraversalCounter:
    """Mutable counter threaded through traversals for cost accounting.

    The paper's cost argument is in terms of *edges accessed* (Sec. II:
    "the number of edges to be accessed could be around m^h |V|").  Wall-clock
    time in pure Python is noisy; edge/node counters give a deterministic,
    machine-independent measure that the test-suite and benchmark reports both
    use alongside timings.
    """

    __slots__ = ("edges_scanned", "nodes_visited", "balls_expanded")

    def __init__(self) -> None:
        self.edges_scanned = 0
        self.nodes_visited = 0
        self.balls_expanded = 0

    def charge_block(
        self, edges: int, pairs: int, balls: int, include_self: bool
    ) -> None:
        """Charge one block expansion of ``balls`` centers.

        ``pairs`` counts ``(owner, member)`` pairs *after* the
        ``include_self`` filter; an open ball still visited the center the
        filter dropped, so it is added back per ball.
        """
        self.edges_scanned += int(edges)
        self.nodes_visited += int(pairs) + (0 if include_self else balls)
        self.balls_expanded += balls

    def merge(self, other: "TraversalCounter") -> None:
        """Accumulate another counter into this one."""
        self.edges_scanned += other.edges_scanned
        self.nodes_visited += other.nodes_visited
        self.balls_expanded += other.balls_expanded

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view for reports."""
        return {
            "edges_scanned": self.edges_scanned,
            "nodes_visited": self.nodes_visited,
            "balls_expanded": self.balls_expanded,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraversalCounter(edges={self.edges_scanned}, "
            f"nodes={self.nodes_visited}, balls={self.balls_expanded})"
        )


def _check_hops(hops: int) -> None:
    if hops < 0:
        raise InvalidParameterError(f"hops must be >= 0, got {hops}")


def hop_ball(
    graph: Graph,
    center: int,
    hops: int,
    *,
    include_self: bool = True,
    counter: Optional[TraversalCounter] = None,
) -> Set[int]:
    """Return ``S_h(center)``: all nodes within ``hops`` hops of ``center``.

    Runs a plain BFS truncated at depth ``hops``.  The result is a fresh set
    owned by the caller.

    Parameters
    ----------
    graph: the graph to traverse (out-edges are followed if directed).
    center: the ball's center node.
    hops: the radius ``h`` (0 gives ``{center}`` / the empty set).
    include_self: whether the center belongs to its own ball (default, and
        the convention used throughout the library).
    counter: optional :class:`TraversalCounter` for cost accounting.
    """
    _check_hops(hops)
    graph._check_node(center)
    visited: Set[int] = {center}
    if hops > 0:
        edges = 0
        frontier = [center]
        for _ in range(hops):
            next_frontier: List[int] = []
            for u in frontier:
                for v in graph._adj[u]:
                    edges += 1
                    if v not in visited:
                        visited.add(v)
                        next_frontier.append(v)
            if not next_frontier:
                break
            frontier = next_frontier
        if counter is not None:
            counter.edges_scanned += edges
    if counter is not None:
        counter.nodes_visited += len(visited)
        counter.balls_expanded += 1
    if not include_self:
        visited.discard(center)
    return visited


def hop_ball_csr(
    csr,
    center: int,
    hops: int,
    *,
    include_self: bool = True,
    counter: Optional[TraversalCounter] = None,
):
    """:func:`hop_ball` over a numpy-backed CSR view (numpy required).

    Returns a *sorted* numpy index array instead of a set (the one-center
    :func:`~repro.graph.csr.batched_hop_balls` call) and charges
    ``counter`` what :func:`hop_ball` charges.
    """
    import numpy as np

    from repro.graph.csr import batched_hop_balls

    _check_hops(hops)
    _owners, members, edges = batched_hop_balls(
        csr, np.array([center], dtype=np.int64), hops, include_self=include_self
    )
    if counter is not None:
        counter.charge_block(edges, members.size, 1, include_self)
    return members


def hop_ball_with_distances(
    graph: Graph,
    center: int,
    hops: int,
    *,
    include_self: bool = True,
    counter: Optional[TraversalCounter] = None,
) -> Dict[int, int]:
    """Like :func:`hop_ball` but mapping each node to its hop distance.

    Needed for distance-weighted aggregation (the paper's footnote 1 weights
    a neighbor's score by the inverse of the shortest distance).
    """
    _check_hops(hops)
    graph._check_node(center)
    dist: Dict[int, int] = {center: 0}
    if hops > 0:
        queue = deque([center])
        edges = 0
        while queue:
            u = queue.popleft()
            du = dist[u]
            if du == hops:
                continue
            for v in graph._adj[u]:
                edges += 1
                if v not in dist:
                    dist[v] = du + 1
                    queue.append(v)
        if counter is not None:
            counter.edges_scanned += edges
    if counter is not None:
        counter.nodes_visited += len(dist)
        counter.balls_expanded += 1
    if not include_self:
        del dist[center]
    return dist


def hop_frontiers(
    graph: Graph,
    center: int,
    hops: int,
) -> Iterator[Tuple[int, List[int]]]:
    """Yield ``(distance, frontier_nodes)`` pairs, distance 0 first.

    The distance-0 frontier is ``[center]``.  Iteration stops early when a
    frontier is empty (the ball has been exhausted before ``hops``).
    """
    _check_hops(hops)
    graph._check_node(center)
    visited: Set[int] = {center}
    frontier = [center]
    yield 0, frontier
    for d in range(1, hops + 1):
        next_frontier: List[int] = []
        for u in frontier:
            for v in graph._adj[u]:
                if v not in visited:
                    visited.add(v)
                    next_frontier.append(v)
        if not next_frontier:
            return
        frontier = next_frontier
        yield d, frontier


def ball_size(graph: Graph, center: int, hops: int, *, include_self: bool = True) -> int:
    """``N(center) = |S_h(center)|`` computed by direct BFS."""
    return len(hop_ball(graph, center, hops, include_self=include_self))
