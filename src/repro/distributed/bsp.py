"""A Pregel-style BSP (bulk synchronous parallel) engine, simulated.

Vertex programs run in synchronous supersteps; messages sent in superstep
``s`` are delivered at ``s + 1``.  The engine simulates a cluster on one
machine but accounts for distribution faithfully through the partition:
every message is classified *local* (same worker) or *remote* (crosses the
partition boundary and would traverse the network), and per-superstep
traffic is recorded.  That accounting — not parallel speedup, which a
single-process simulation cannot honestly claim — is what the distributed
experiments report.

The programming model is the standard one:

* ``program.init(ctx)`` runs once per vertex at superstep 0.
* ``program.compute(ctx, messages)`` runs at every later superstep for
  vertices that received messages (halted vertices wake on delivery).
* A vertex halts by default after each superstep; the run ends when no
  messages are in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Protocol, Sequence, Tuple

from repro.distributed.partition import Partition
from repro.errors import DistributedError
from repro.graph.graph import Graph

__all__ = ["VertexContext", "VertexProgram", "MessageStats", "BSPEngine"]


@dataclass
class MessageStats:
    """Network accounting for one BSP run."""

    supersteps: int = 0
    messages_local: int = 0
    messages_remote: int = 0
    per_superstep: List[Tuple[int, int]] = field(default_factory=list)
    active_vertex_steps: int = 0

    @property
    def messages_total(self) -> int:
        """All messages, local + remote."""
        return self.messages_local + self.messages_remote

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric view for reports."""
        return {
            "supersteps": float(self.supersteps),
            "messages_local": float(self.messages_local),
            "messages_remote": float(self.messages_remote),
            "messages_total": float(self.messages_total),
            "active_vertex_steps": float(self.active_vertex_steps),
        }


class VertexContext:
    """Per-vertex API handed to the program's hooks."""

    __slots__ = ("vertex", "superstep", "_engine")

    def __init__(self, vertex: int, superstep: int, engine: "BSPEngine") -> None:
        self.vertex = vertex
        self.superstep = superstep
        self._engine = engine

    def neighbors(self) -> Sequence[int]:
        """Out-neighbors of this vertex in the engine's graph."""
        return self._engine.graph.neighbors(self.vertex)

    def send(self, target: int, payload: Any) -> None:
        """Send ``payload`` to ``target``, delivered next superstep."""
        self._engine._route(self.vertex, target, payload)

    def send_to_neighbors(self, payload: Any) -> None:
        """Broadcast ``payload`` to all out-neighbors.

        The whole-adjacency broadcast is the flood programs' hot path, so
        the engine classifies it with precomputed per-node local/remote arc
        counts instead of one partition lookup per message.
        """
        self._engine._route_neighbors(self.vertex, payload)

    def state(self) -> Dict[str, Any]:
        """This vertex's mutable state dictionary (persists across steps)."""
        return self._engine.vertex_state[self.vertex]


class VertexProgram(Protocol):
    """The two hooks a BSP computation implements."""

    def init(self, ctx: VertexContext) -> None:
        """Superstep-0 hook, runs once for every vertex."""
        ...  # pragma: no cover - protocol

    def compute(self, ctx: VertexContext, messages: List[Any]) -> None:
        """Per-superstep hook for vertices with pending messages."""
        ...  # pragma: no cover - protocol


class BSPEngine:
    """Synchronous message-passing execution over a partitioned graph."""

    def __init__(self, graph: Graph, partition: Partition) -> None:
        if len(partition.assignment) != graph.num_nodes:
            raise DistributedError(
                f"partition covers {len(partition.assignment)} nodes, "
                f"graph has {graph.num_nodes}"
            )
        self.graph = graph
        self.partition = partition
        self.vertex_state: List[Dict[str, Any]] = [
            {} for _ in range(graph.num_nodes)
        ]
        self.stats = MessageStats()
        self._inbox: Dict[int, List[Any]] = {}
        self._next_inbox: Dict[int, List[Any]] = {}
        # Lazily built numpy fast path for broadcast classification:
        # per-node counts of local vs remote out-arcs (see _arc_classes).
        self._local_arcs = None
        self._remote_arcs = None
        self._arc_classes_built = False

    # ------------------------------------------------------------------
    # Internal routing
    # ------------------------------------------------------------------
    def _route(self, source: int, target: int, payload: Any) -> None:
        if not (0 <= target < self.graph.num_nodes):
            raise DistributedError(f"message to unknown vertex {target}")
        if self.partition.part_of(source) == self.partition.part_of(target):
            self.stats.messages_local += 1
        else:
            self.stats.messages_remote += 1
        self._next_inbox.setdefault(target, []).append(payload)

    def _arc_classes(self):
        """``(local_arcs, remote_arcs)`` per node, classified in one pass.

        Vectorized over the CSR neighbor slab with the partition as an int
        array: every stored arc ``(u, v)`` is *remote* iff
        ``part[u] != part[v]``, so two ``bincount`` calls over the slab
        replace the per-message partition lookups of the scalar path.
        Returns ``(None, None)`` when numpy is unavailable — callers fall
        back to :meth:`_route`, and :class:`MessageStats` accounting is
        identical either way.
        """
        if not self._arc_classes_built:
            self._arc_classes_built = True
            parts = self.partition.as_array()
            if parts is not None:
                import numpy as np

                csr = self.graph.csr()
                n = csr.num_nodes
                degrees = np.diff(csr.indptr)
                src_parts = np.repeat(parts, degrees)
                remote_mask = src_parts != parts[csr.indices]
                owners = np.repeat(np.arange(n, dtype=np.int64), degrees)
                self._remote_arcs = np.bincount(
                    owners, weights=remote_mask, minlength=n
                ).astype(np.int64)
                self._local_arcs = degrees - self._remote_arcs
        return self._local_arcs, self._remote_arcs

    def _route_neighbors(self, source: int, payload: Any) -> None:
        """Broadcast ``payload`` to ``source``'s out-neighbors.

        Semantically identical to calling :meth:`_route` per neighbor —
        same deliveries, same local/remote totals — but the partition
        classification of the whole adjacency slab is two precomputed
        array lookups.
        """
        local_arcs, remote_arcs = self._arc_classes()
        neighbors = self.graph.neighbors(source)
        if local_arcs is None:
            for v in neighbors:
                self._route(source, v, payload)
            return
        self.stats.messages_local += int(local_arcs[source])
        self.stats.messages_remote += int(remote_arcs[source])
        inbox = self._next_inbox
        for v in neighbors:
            inbox.setdefault(v, []).append(payload)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, program: VertexProgram, *, max_supersteps: int = 64) -> MessageStats:
        """Run ``program`` to quiescence (or ``max_supersteps``)."""
        if max_supersteps < 1:
            raise DistributedError(
                f"max_supersteps must be >= 1, got {max_supersteps}"
            )
        # Superstep 0: init every vertex.
        self._next_inbox = {}
        before_local = self.stats.messages_local
        before_remote = self.stats.messages_remote
        for u in self.graph.nodes():
            program.init(VertexContext(u, 0, self))
            self.stats.active_vertex_steps += 1
        self.stats.supersteps = 1
        self.stats.per_superstep.append(
            (
                self.stats.messages_local - before_local,
                self.stats.messages_remote - before_remote,
            )
        )

        superstep = 1
        while self._next_inbox and superstep < max_supersteps:
            self._inbox, self._next_inbox = self._next_inbox, {}
            before_local = self.stats.messages_local
            before_remote = self.stats.messages_remote
            for u, messages in self._inbox.items():
                program.compute(VertexContext(u, superstep, self), messages)
                self.stats.active_vertex_steps += 1
            self.stats.supersteps += 1
            self.stats.per_superstep.append(
                (
                    self.stats.messages_local - before_local,
                    self.stats.messages_remote - before_remote,
                )
            )
            superstep += 1
        if self._next_inbox:
            raise DistributedError(
                f"BSP run did not quiesce within {max_supersteps} supersteps"
            )
        return self.stats
