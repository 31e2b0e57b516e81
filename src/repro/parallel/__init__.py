"""Process-parallel execution over shared-memory CSR shards.

The paper closes with "we are currently developing an infrastructure to
partition large networks into subnetworks and distribute them into multiple
machines"; this package is the single-machine, multi-core realization of
that plan.  The graph's flat CSR arrays (and every score vector touched)
are exported once into POSIX shared memory (:class:`~repro.graph.csr.SharedCSR`),
a :func:`~repro.parallel.shards.bfs_partition` assigns every node an
owning *shard* so h-hop balls mostly stay shard-local, and a persistent
pool of worker processes — each warm-attached to the same physical pages —
evaluates its shard's candidates with the numpy kernels.  Per-shard top-k
candidate state is merged into the exact global answer.  LONA-Backward is
not sharded: it runs in the session's process, where its phase-1 memo and
ball index live.

Selected with ``backend="parallel"`` anywhere a backend is accepted
(builder, CLI, ``QueryRequest``, or the session default ``Network(graph,
backend="parallel")``);
plugged in behind :func:`repro.core.executor.execute`, so the query surface
is untouched.  The engine declines graphs too small to amortize the
process/IPC fixed cost and runs them on the in-process numpy backend
instead (see :data:`~repro.parallel.engine.DEFAULT_MIN_NODES`).
"""

from repro.parallel.engine import DEFAULT_MIN_NODES, ParallelEngine
from repro.parallel.pool import ShardWorkerPool
from repro.parallel.shards import ShardPlan, build_shard_plan

__all__ = [
    "DEFAULT_MIN_NODES",
    "ParallelEngine",
    "ShardPlan",
    "ShardWorkerPool",
    "build_shard_plan",
]
