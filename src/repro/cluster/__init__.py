"""Multi-machine execution over a dependency-free socket transport.

The paper closes with the plan to "partition large networks into
subnetworks and distribute them into multiple machines"; where
:mod:`repro.parallel` realized that on one machine's cores, this package
runs it over sockets.  A :class:`~repro.cluster.engine.ClusterEngine` (the
coordinator) ships the bfs-partition shard plan to ``cluster-worker``
processes over length-prefixed JSON+binary frames
(:mod:`repro.cluster.frames`), the workers run the *same* partition-aware
numpy kernels as the parallel backend
(:data:`repro.parallel.worker._HANDLERS` — no kernel is duplicated), and
per-shard candidates merge through the same exact
:func:`~repro.parallel.merge.merge_shard_entries`.

Two communication optimizations keep bytes-on-wire below the naive
``num_shards * k`` candidate volume: per-round **θ-shipping** (workers
prune below the coordinator's current k-th bound before serializing) and
**ADiT-style adaptive per-peer k** (first-round quotas follow each shard's
score mass, with a resume protocol that retrieves parked remainders only
while they can still matter).  Exactness is never traded: θ only ever
tightens below the final threshold and the resume loop drains every
remainder whose bound could still beat it.

Selected with ``backend="cluster"`` anywhere a backend is accepted, or
with ``Network.cluster(workers=...)`` / ``serve --cluster``.  Workers are
either spawned locally (``workers=2``) or reached by address
(``workers=["host:port", ...]``).
"""

from repro.cluster.engine import DEFAULT_MIN_NODES, ClusterEngine
from repro.cluster.transport import ClusterTransport, spawn_local_worker
from repro.cluster.worker import ClusterWorker, cluster_worker_main

__all__ = [
    "DEFAULT_MIN_NODES",
    "ClusterEngine",
    "ClusterTransport",
    "ClusterWorker",
    "cluster_worker_main",
    "spawn_local_worker",
]
