"""An independent check of top-k answers.

Shares no code with ``repro``'s kernels: balls come from a set-based
breadth-first walk over ``graph.neighbors`` and aggregates from plain sums.
Scores in the benchmark are multiples of 2**-10, so every sum is exact and a
returned value must equal the re-derived one bit for bit.

Algorithms may break a tie at rank k differently (the accumulator keeps the
first node offered), so an answer is right when each returned value is that
node's true value, the entries are ordered, and no node left out beats the
k-th value - not when it names the same nodes as another algorithm's.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Oracle:
    """Re-derives neighbourhood aggregates of one graph."""

    def __init__(self, graph, hops: int = 2) -> None:
        self.hops = hops
        self.adjacency = [tuple(graph.neighbors(u)) for u in graph.nodes()]
        self._balls: Dict[int, Tuple[int, ...]] = {}

    def ball(self, node: int) -> Tuple[int, ...]:
        cached = self._balls.get(node)
        if cached is not None:
            return cached
        seen = {node}
        frontier = [node]
        for _ in range(self.hops):
            reached = []
            for u in frontier:
                for v in self.adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        reached.append(v)
            frontier = reached
        self._balls[node] = out = tuple(seen)
        return out

    def value(self, node: int, scores: Sequence[float], aggregate: str) -> float:
        members = [scores[v] for v in self.ball(node)]
        if aggregate == "sum":
            return float(sum(members))
        if aggregate == "avg":
            return float(sum(members)) / len(members)
        if aggregate == "count":
            return float(sum(1 for s in members if s > 0.0))
        if aggregate == "max":
            return float(max(members))
        raise ValueError(f"oracle has no aggregate {aggregate!r}")

    def all_values(self, matrix) -> Dict[str, object]:
        """Every node's aggregates for each row of ``matrix`` (vectors x nodes).

        One walk per node serves all vectors; affordable on the 16k graphs.
        numpy does only the arithmetic here, which is exact on dyadic scores.
        """
        import numpy as np

        vectors, n = matrix.shape
        sums = np.empty((vectors, n))
        counts = np.empty((vectors, n))
        peaks = np.empty((vectors, n))
        sizes = np.empty(n)
        for u in range(n):
            block = matrix[:, np.fromiter(self.ball(u), dtype=np.int64)]
            sums[:, u] = block.sum(axis=1)
            counts[:, u] = (block > 0.0).sum(axis=1)
            peaks[:, u] = block.max(axis=1)
            sizes[u] = block.shape[1]
        return {"sum": sums, "count": counts, "max": peaks, "avg": sums / sizes}

    def check(
        self,
        entries: Sequence[Tuple[int, float]],
        k: int,
        value_of: Callable[[int], float],
        *,
        ranked: Optional[Sequence[float]] = None,
        sample: int = 500,
        seed: int = 0,
    ) -> List[str]:
        """What is wrong with ``entries`` as the top ``k``; empty when right.

        ``value_of`` re-derives one node's aggregate.  With ``ranked`` (all
        nodes' values, largest first) the returned values must be exactly
        its head.  Without it, ``sample`` seeded nodes outside the answer
        are re-derived and none may beat the k-th value.
        """
        n = len(self.adjacency)
        if len(entries) != min(k, n):
            return [f"{len(entries)} entries for k={k} over {n} nodes"]
        problems: List[str] = []
        nodes = [node for node, _ in entries]
        if len(set(nodes)) != len(nodes):
            problems.append("a node is returned twice")
        keys = [(-value, node) for node, value in entries]
        if keys != sorted(keys):
            problems.append("entries are not ordered by value, then node")
        for node, value in entries:
            truth = value_of(node)
            if value != truth:
                problems.append(f"node {node}: returned {value!r}, true value {truth!r}")
                break
        kth = entries[-1][1]
        if ranked is not None:
            if [value for _, value in entries] != list(ranked[: len(entries)]):
                problems.append("returned values are not the k largest")
        else:
            chosen = set(nodes)
            for node in random.Random(seed).sample(range(n), min(sample, n)):
                if node not in chosen and value_of(node) > kth:
                    problems.append(f"node {node} beats the k-th value {kth!r} but is left out")
                    break
        return problems
