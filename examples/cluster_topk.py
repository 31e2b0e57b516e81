#!/usr/bin/env python
"""Real multi-machine top-k: socket-transport cluster workers.

The paper's Sec. V plan — "partition large networks into subnetworks and
distribute them into multiple machines" — run for real: the session spawns
``cluster-worker`` processes — the same command you would start on other
machines — ships each one its bfs shard over length-prefixed JSON+binary
frames, and answers queries in candidate-shipping rounds with θ-pruning and
adaptive per-peer k quotas.  The byte counters printed at the end are
measured on actual sockets.

Run:  python examples/cluster_topk.py [num_workers]
"""

import random
import sys

from repro.datasets import load
from repro.session import Network


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    graph = load("collaboration_like", scale=0.5, seed=8)

    # Zipf-skewed relevance: a few hub neighborhoods hold most of the
    # mass — the regime where θ-shipping prunes hardest.
    rng = random.Random(17)
    nodes = list(range(graph.num_nodes))
    rng.shuffle(nodes)
    scores = [0.0] * graph.num_nodes
    for rank, node in enumerate(nodes):
        scores[node] = 1.0 / (rank + 1.0) ** 1.1

    # backend="cluster" routes every eligible query — including the
    # distance-weighted one below — through the socket workers.
    net = Network(graph, hops=2, backend="cluster")
    net.add_scores("relevance", scores)
    net.cluster(workers=workers, min_nodes=0)
    try:
        print(
            f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges; "
            f"{workers} socket workers (spawned via `repro.cli "
            f"cluster-worker`)\n"
        )

        k = 10
        result = (
            net.query("relevance").limit(k)
            .algorithm("base").backend("cluster").run()
        )
        reference = (
            net.query("relevance").limit(k)
            .algorithm("base").backend("numpy").run()
        )
        assert [e[0] for e in result.entries] == [
            e[0] for e in reference.entries
        ], "cluster answer must equal the single-machine answer"
        extra = result.stats.extra
        print(f"top-{k} (base scan, SUM over 2-hop neighborhoods):")
        for node, value in result.entries[:5]:
            print(f"  node {node:5d}   F(v) = {value:.4f}")
        print(
            f"  ... exact parity with numpy; "
            f"{int(extra['comm_rounds'])} comm round(s), "
            f"{int(extra['candidates_shipped'])} candidates shipped / "
            f"{int(extra['candidates_pruned'])} pruned worker-side by θ "
            f"({int(extra['shipped_candidate_bytes'])} candidate bytes)\n"
        )

        # The distance-weighted variant (paper footnote 1) rides the same
        # shards: hop-profile weights ship once, candidates per round.
        weighted = net.topk_weighted("relevance", k, algorithm="backward")
        print(f"top-{k} weighted (1/d profile, backward): "
              f"{[node for node, _ in weighted.entries[:5]]}... "
              f"via backend={weighted.stats.backend}\n")

        engine = net.cluster()
        print("per-worker wire counters (measured, not simulated):")
        for row in engine.worker_stats():
            print(
                f"  {row['peer']:>18}   alive={row['alive']}   "
                f"tasks={int(row['tasks'])}   "
                f"sent={int(row['bytes_sent'])}B   "
                f"received={int(row['bytes_received'])}B"
            )
        comm = engine.stats()["comm"]
        print(
            f"\ncoordinator totals: {int(comm['bytes_sent'])}B out, "
            f"{int(comm['bytes_received'])}B in over "
            f"{int(comm['frames_sent'])} frames"
        )
    finally:
        net.close()


if __name__ == "__main__":
    main()
