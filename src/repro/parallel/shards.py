"""Shard construction: locality-aware node ownership for the worker pool.

A *shard* is a set of nodes one worker process owns: the worker evaluates
exactly those nodes' aggregates (their balls may — and do — reach into
other shards; those reads are plain shared-memory loads of non-owned CSR
rows, so no halo copies or message rounds are needed for expansion).  The
paper's conclusion names the step: "We are currently developing an
infrastructure to partition large networks into subnetworks and distribute
them into multiple machines."  :func:`bfs_partition` grows balanced regions
from spread-out seeds, so h-hop balls mostly stay within the owner's region,
which keeps each worker's touched page set — and therefore its cache
footprint — close to ``1/num_shards`` of the graph even though every worker
maps the whole CSR.

The plan's owned-node arrays are themselves exported to shared memory by
the engine, so a task message names a shard by descriptor instead of
shipping a node list per query.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import InvalidParameterError, PartitionError
from repro.graph.graph import Graph

__all__ = ["Partition", "bfs_partition", "ShardPlan", "build_shard_plan"]


class Partition:
    """An assignment of nodes to ``num_parts`` workers.

    Immutable once constructed, which is what makes the two lazily built
    lookup structures safe without any invalidation protocol: the
    per-partition *members index* (:meth:`members` — one O(n) bucketing
    pass instead of an O(n) rescan per call) and the numpy
    :meth:`as_array` form the coordinator routes a ``.where`` scan's
    candidates to their owning shard with.
    """

    __slots__ = ("assignment", "num_parts", "_members_index", "_array")

    def __init__(self, assignment: List[int], num_parts: int) -> None:
        if num_parts < 1:
            raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
        for node, part in enumerate(assignment):
            if not (0 <= part < num_parts):
                raise PartitionError(
                    f"node {node} assigned to invalid partition {part}"
                )
        self.assignment = assignment
        self.num_parts = num_parts
        self._members_index: Optional[List[List[int]]] = None
        self._array = None

    def part_of(self, node: int) -> int:
        """The worker owning ``node``."""
        return self.assignment[node]

    def members(self, part: int) -> List[int]:
        """All nodes owned by ``part`` (ascending; do not mutate).

        Served from a lazily built index: the shard builder iterates
        every partition and pays one O(n) bucketing pass total instead of
        O(n * num_parts) rescans.
        """
        if not 0 <= part < self.num_parts:
            raise PartitionError(
                f"partition {part} out of range [0, {self.num_parts})"
            )
        if self._members_index is None:
            index: List[List[int]] = [[] for _ in range(self.num_parts)]
            for u, p in enumerate(self.assignment):
                index[p].append(u)
            self._members_index = index
        return self._members_index[part]

    def as_array(self):
        """The assignment as a cached numpy int64 array (None sans numpy)."""
        if self._array is None:
            from repro.core.backends import numpy_or_none

            np = numpy_or_none()
            if np is None:
                return None
            self._array = np.asarray(self.assignment, dtype=np.int64)
        return self._array


def bfs_partition(
    graph: Graph, num_parts: int, *, seed: Optional[int] = None
) -> Partition:
    """Balanced BFS region growing.

    Seeds are sampled uniformly; regions take turns claiming their frontier,
    skipping already-claimed nodes, so partitions stay near-balanced while
    keeping neighborhoods together.  Unreached nodes (other components) are
    assigned round-robin to the smallest partitions.
    """
    if num_parts < 1:
        raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
    n = graph.num_nodes
    if n == 0:
        return Partition([], num_parts)
    rng = random.Random(seed)
    work_graph = graph.as_undirected() if graph.directed else graph
    assignment = [-1] * n
    seeds = rng.sample(range(n), min(num_parts, n))
    queues = [deque([s]) for s in seeds]
    sizes = [0] * num_parts
    for part, s in enumerate(seeds):
        assignment[s] = part
        sizes[part] += 1
    target = n / num_parts

    active = True
    while active:
        active = False
        for part in range(len(queues)):
            if sizes[part] >= target * 1.05:
                continue  # let smaller regions catch up this round
            queue = queues[part]
            claimed = False
            while queue and not claimed:
                u = queue.popleft()
                for v in work_graph.neighbors(u):
                    if assignment[v] == -1:
                        assignment[v] = part
                        sizes[part] += 1
                        queue.append(v)
                        claimed = True
                if queue or claimed:
                    active = True
        if not active:
            # All frontiers stalled; allow over-target growth to mop up the
            # rest of the reached components.
            for part, queue in enumerate(queues):
                while queue:
                    u = queue.popleft()
                    for v in work_graph.neighbors(u):
                        if assignment[v] == -1:
                            assignment[v] = part
                            sizes[part] += 1
                            queue.append(v)
                            active = True
            if not active:
                break

    # Other connected components / isolated nodes: smallest partition first.
    for u in range(n):
        if assignment[u] == -1:
            part = min(range(num_parts), key=lambda p: sizes[p])
            # Flood u's whole component into this partition for locality.
            stack = [u]
            assignment[u] = part
            sizes[part] += 1
            while stack:
                x = stack.pop()
                for v in work_graph.neighbors(x):
                    if assignment[v] == -1:
                        assignment[v] = part
                        sizes[part] += 1
                        stack.append(v)
    return Partition(assignment, num_parts)


@dataclass(frozen=True)
class ShardPlan:
    """Node ownership for ``num_shards`` workers over one graph version.

    ``owned[s]`` is shard ``s``'s sorted int64 node array; ``partition`` is
    the underlying assignment (used to route a ``.where`` scan's candidates
    to their owning shard).
    """

    partition: Partition
    owned: Tuple[object, ...]  # numpy int64 arrays, one per shard
    version: Optional[int]

    @property
    def num_shards(self) -> int:
        return len(self.owned)

    def owner_of(self, node: int) -> int:
        """The shard owning ``node``."""
        return self.partition.part_of(node)

    def sizes(self) -> List[int]:
        """Owned-node count per shard."""
        return [int(arr.size) for arr in self.owned]


def build_shard_plan(
    graph: Graph,
    num_shards: int,
    *,
    seed: Optional[int] = 2010,
) -> ShardPlan:
    """Partition ``graph`` into ``num_shards`` locality-aware shards.

    Regions are grown by :func:`bfs_partition` so neighborhoods stay
    together.  Determinism: the default seed is fixed so repeated sessions
    over one graph build identical shards.
    """
    import numpy as np

    if num_shards < 1:
        raise InvalidParameterError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    partition = bfs_partition(graph, num_shards, seed=seed)
    owned = tuple(
        np.asarray(partition.members(shard), dtype=np.int64)
        for shard in range(num_shards)
    )
    return ShardPlan(
        partition=partition,
        owned=owned,
        version=getattr(graph, "version", None),
    )
