"""Command-line interface: run top-k aggregation queries from a shell.

Examples::

    # top-10 SUM over a bundled dataset stand-in
    python -m repro.cli query --dataset collaboration_like --k 10

    # top-5 AVG on your own edge list, 1-hop, explicit algorithm
    python -m repro.cli query --edge-list graph.txt --k 5 \
        --aggregate avg --hops 1 --algorithm backward

    # machine-readable output (entries + stats as one JSON object)
    python -m repro.cli query --dataset citation_like --k 10 --json

    # explain the planner's choice without executing
    python -m repro.cli explain --dataset citation_like --k 50 --json

    # structural profile of a graph
    python -m repro.cli profile --dataset intrusion_like

    # drive a concurrent workload through the serving scheduler
    python -m repro.cli serve --dataset collaboration_like --k 10 \
        --queries 16 --workers 4 --repeat 2 --json

Relevance comes from ``--blacking-ratio`` (the paper's mixture function;
``--binary`` for the 0/1 variant) or ``--scores FILE`` with one
``node score`` pair per line.

The CLI is a thin shell over the :class:`repro.session.Network` facade:
every command builds a session, registers the scores under the name
``"cli"``, and lowers the flags to one fluent query.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.datasets import available, load
from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.graph.metrics import profile_graph
from repro.relevance.base import ScoreVector
from repro.relevance.mixture import MixtureRelevance
from repro.session import Network

__all__ = ["main"]

#: Score name the CLI registers its vector under in the session.
_CLI_SCORE = "cli"


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset",
        choices=available(),
        help="bundled dataset stand-in",
    )
    source.add_argument("--edge-list", help="path to a whitespace edge list")
    parser.add_argument(
        "--scale", type=float, default=0.5, help="dataset scale factor"
    )
    parser.add_argument(
        "--directed", action="store_true", help="treat the edge list as directed"
    )
    parser.add_argument("--seed", type=int, default=2010, help="random seed")


def _add_relevance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--blacking-ratio",
        type=float,
        default=0.01,
        help="fraction of nodes assigned relevance 1.0 (paper's r)",
    )
    parser.add_argument(
        "--binary",
        action="store_true",
        help="0/1 relevance instead of the continuous mixture",
    )
    parser.add_argument(
        "--scores", help="path to a 'node score' file overriding the mixture"
    )


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object instead of text",
    )


def _build_graph(args: argparse.Namespace) -> Graph:
    if args.dataset:
        return load(args.dataset, scale=args.scale, seed=args.seed)
    return read_edge_list(args.edge_list, directed=args.directed)


def _build_scores(args: argparse.Namespace, graph: Graph) -> ScoreVector:
    if args.scores:
        values = [0.0] * graph.num_nodes
        with open(args.scores, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split()
                if len(parts) < 2:
                    raise ReproError(
                        f"{args.scores}:{lineno}: expected 'node score'"
                    )
                node = graph.id_of(parts[0]) if graph.has_labels else int(parts[0])
                values[node] = float(parts[1])
        return ScoreVector(values)
    relevance = MixtureRelevance(
        args.blacking_ratio, binary=args.binary, seed=args.seed + 1
    )
    return relevance.scores(graph)


def _build_session(args: argparse.Namespace) -> Network:
    graph = _build_graph(args)
    net = Network(graph, hops=args.hops, backend=args.backend)
    net.add_scores(_CLI_SCORE, _build_scores(args, graph))
    return net


def _cmd_query(args: argparse.Namespace) -> int:
    net = _build_session(args)
    if getattr(args, "index", None):
        net.load_index(args.index)
    try:
        result = (
            net.query(_CLI_SCORE)
            .limit(args.k)
            .aggregate(args.aggregate)
            .algorithm(args.algorithm)
            .run()
        )
    finally:
        net.close()  # worker processes / cluster connections, if any
    graph = net.graph
    stats = result.stats
    if args.json:
        payload = {
            "command": "query",
            "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
            "entries": [
                {
                    "rank": rank,
                    "node": node,
                    "label": str(graph.label_of(node)),
                    "value": value,
                }
                for rank, (node, value) in enumerate(result.entries, start=1)
            ],
            "stats": stats.as_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"# {graph.num_nodes} nodes, {graph.num_edges} edges; "
        f"algorithm={stats.algorithm}; backend={stats.backend}; "
        f"{stats.elapsed_sec * 1000:.1f} ms; "
        f"{stats.nodes_evaluated} balls evaluated"
    )
    for rank, (node, value) in enumerate(result.entries, start=1):
        label = graph.label_of(node)
        print(f"{rank}\t{label}\t{value:.6f}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    net = _build_session(args)
    plan = (
        net.query(_CLI_SCORE)
        .limit(args.k)
        .aggregate(args.aggregate)
        .explain(amortize_index=not args.cold)
    )
    if args.json:
        payload = {
            "command": "explain",
            "graph": {
                "nodes": net.graph.num_nodes,
                "edges": net.graph.num_edges,
            },
            "plan": plan.as_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(plan.explain())
    return 0


def _cmd_build_index(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    net = Network(graph, hops=args.hops)
    build_sec = net.build_indexes()
    net.save_index(args.out)
    print(
        f"# differential index for {graph.num_nodes} nodes / "
        f"{graph.num_edges} edges (h={args.hops}) built in {build_sec:.2f}s "
        f"-> {args.out}"
    )
    return 0


def _parse_cluster_workers(value: str):
    """``--cluster`` value: a spawn count or comma-separated addresses."""
    text = value.strip()
    try:
        return int(text)
    except ValueError:
        return [addr.strip() for addr in text.split(",") if addr.strip()]


def _cmd_serve(args: argparse.Namespace) -> int:
    """Concurrent serving driver: many queries through the scheduler."""
    import time

    graph = _build_graph(args)
    # --processes / --cluster name the session's default backend: every
    # unpinned query is lowered onto it.
    backend = (
        "cluster" if args.cluster else "parallel" if args.processes else args.backend
    )
    net = Network(graph, hops=args.hops, backend=backend)
    for i in range(args.queries):
        relevance = MixtureRelevance(
            args.blacking_ratio, binary=args.binary, seed=args.seed + 1 + i
        )
        net.add_scores(f"q{i}", relevance.scores(graph))
    if args.cluster:
        net.cluster(workers=_parse_cluster_workers(args.cluster))
    elif args.processes:
        # One worker process per scheduler thread; below two the engine's
        # cpu-count default (a 1-process pool could only decline).
        net.parallel(workers=args.workers if args.workers >= 2 else None)
    if args.listen is not None:
        return _serve_listen(args, net)
    service = net.service(
        workers=args.workers,
        coalesce=not args.no_coalesce,
        max_pending=max(args.queries * max(args.repeat, 1), 16),
    )
    try:
        start = time.perf_counter()
        results = []
        # Rounds are submitted concurrently *within* themselves and
        # sequentially across repeats, so repeat rounds exercise the
        # result cache instead of coalescing with their own first pass.
        for _ in range(max(args.repeat, 1)):
            handles = [
                net.query(f"q{i}").limit(args.k).submit()
                for i in range(args.queries)
            ]
            results.extend(handle.result(timeout=600) for handle in handles)
        elapsed = time.perf_counter() - start
        stats = service.stats()
    finally:
        net.close()  # serving threads, worker processes, shared memory
    total = len(results)
    if args.json:
        payload = {
            "command": "serve",
            "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
            "workers": args.workers,
            "queries": total,
            "elapsed_sec": elapsed,
            "throughput_qps": total / elapsed if elapsed else 0.0,
            "service": {
                key: value
                for key, value in stats.items()
                if not isinstance(value, dict)
            },
            "result_cache": stats["result_cache"],
            "top_nodes": {
                f"q{i}": [node for node, _ in results[i].entries[:3]]
                for i in range(min(args.queries, 4))
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"# served {total} queries over {graph.num_nodes} nodes with "
        f"{args.workers} workers in {elapsed * 1000:.1f} ms "
        f"({total / elapsed:.1f} q/s)"
    )
    print(
        f"# coalesced {stats['coalesced_queries']} queries into "
        f"{stats['coalesced_batches']} shared scans; "
        f"{stats['cache_hits']} cache hits / {stats['cache_misses']} misses"
    )
    for i in range(args.queries):
        entries = results[i].entries
        head = ", ".join(
            f"{graph.label_of(node)}={value:.4f}" for node, value in entries[:3]
        )
        print(f"q{i}\t{head}")
    return 0


def _serve_listen(args: argparse.Namespace, net: Network) -> int:
    """Network serving mode: bind the HTTP front door over this session.

    ``--config FILE`` loads a full :class:`repro.serving.ServerConfig`
    (JSON, nested ``service``/``parallel`` sections); the flags below
    override only what they name.  ``--duration 0`` serves until
    interrupted.
    """
    import time

    from repro.serving import QueryServer, ServerConfig

    host, _, port = args.listen.rpartition(":")
    if args.config:
        cfg = ServerConfig.from_file(args.config)
    else:
        cfg = ServerConfig(
            replicas=args.replicas,
            service={
                "workers": args.workers,
                "coalesce": not args.no_coalesce,
            },
        )
    cfg = cfg.replace(host=host or cfg.host, port=port or cfg.port)
    server = QueryServer(net, cfg)
    try:
        server.start()
        print(f"listening on {server.url}", flush=True)
        print(
            f"# {net.graph.num_nodes} nodes, {net.graph.num_edges} edges; "
            f"{len(server.replicas)} replicas x "
            f"{cfg.service.workers} workers; scores: "
            f"{', '.join(net.score_names())}",
            flush=True,
        )
        if args.duration > 0:
            time.sleep(args.duration)
        else:
            while True:  # until SIGINT
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        net.close()
    return 0


def _cmd_cluster_worker(args: argparse.Namespace) -> int:
    """Run one cluster worker process (the remote end of ``--backend
    cluster``).  Prints ``listening on host:port`` once bound; serves
    until its coordinator sends a shutdown frame or the process is
    interrupted."""
    from repro.cluster import cluster_worker_main

    try:
        cluster_worker_main(args.listen, ident=args.ident)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    profile = profile_graph(graph, hops=args.hops, seed=args.seed)
    print(profile.describe())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the repro-check static-analysis suite (see DESIGN.md §9).

    Thin shim over ``python -m repro.analysis`` so the suite is reachable
    from the installed entry point; both spellings share one argparse
    definition and exit-code contract (0 = no active findings).
    """
    from repro.analysis.__main__ import run as check_run

    return check_run(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Top-k neighborhood aggregation queries over networks (LONA).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="run a top-k query")
    _add_graph_arguments(query)
    _add_relevance_arguments(query)
    query.add_argument("--k", type=int, required=True, help="result size")
    query.add_argument(
        "--aggregate",
        default="sum",
        choices=("sum", "avg", "count", "max", "min"),
    )
    query.add_argument("--hops", type=int, default=2)
    query.add_argument(
        "--algorithm",
        default="auto",
        choices=("auto", "planned", "base", "forward", "backward", "relational"),
    )
    query.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "python", "numpy", "parallel", "cluster"),
        help="execution backend (auto = vectorized numpy when numpy is "
        "installed, else pure python; parallel = multi-process "
        "shared-memory shards; cluster = socket-connected cluster workers)",
    )
    query.add_argument(
        "--index", help="path to a persisted differential index (see build-index)"
    )
    _add_json_argument(query)
    query.set_defaults(func=_cmd_query)

    build_index = subparsers.add_parser(
        "build-index",
        help="precompute the differential index and store it on disk",
    )
    _add_graph_arguments(build_index)
    build_index.add_argument("--hops", type=int, default=2)
    build_index.add_argument(
        "--out", required=True, help="output path for the index file"
    )
    build_index.set_defaults(func=_cmd_build_index)

    explain = subparsers.add_parser(
        "explain", help="show the planner's cost estimates"
    )
    _add_graph_arguments(explain)
    _add_relevance_arguments(explain)
    explain.add_argument("--k", type=int, required=True)
    explain.add_argument(
        "--aggregate", default="sum", choices=("sum", "avg", "count")
    )
    explain.add_argument("--hops", type=int, default=2)
    explain.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "python", "numpy", "parallel", "cluster"),
        help="execution backend the plan will run on",
    )
    explain.add_argument(
        "--cold",
        action="store_true",
        help="charge the offline index build to this query",
    )
    _add_json_argument(explain)
    explain.set_defaults(func=_cmd_explain)

    serve = subparsers.add_parser(
        "serve",
        help="drive a concurrent query workload through the serving scheduler",
    )
    _add_graph_arguments(serve)
    # serve generates one mixture relevance per query (--queries distinct
    # seeds), so unlike the single-query commands it takes no --scores file.
    serve.add_argument(
        "--blacking-ratio",
        type=float,
        default=0.01,
        help="fraction of nodes assigned relevance 1.0 (paper's r)",
    )
    serve.add_argument(
        "--binary",
        action="store_true",
        help="0/1 relevance instead of the continuous mixture",
    )
    serve.add_argument("--k", type=int, required=True, help="result size")
    serve.add_argument("--hops", type=int, default=2)
    serve.add_argument(
        "--queries",
        type=int,
        default=8,
        help="number of distinct relevance functions to serve",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker threads in the serving pool (0 = inline)",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="submit the workload this many times (repeats hit the result cache)",
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable shared-scan coalescing (for comparison)",
    )
    serve.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "python", "numpy", "parallel", "cluster"),
        help="execution backend",
    )
    sharded = serve.add_mutually_exclusive_group()
    sharded.add_argument(
        "--processes",
        action="store_true",
        help="serve on the process-parallel backend: --workers worker "
        "processes over shared-memory CSR shards",
    )
    sharded.add_argument(
        "--cluster",
        metavar="N|HOST:PORT,...",
        help="serve on the socket-cluster backend: an integer spawns that "
        "many local cluster-worker processes; a comma-separated host:port "
        "list connects to workers already running (see the cluster-worker "
        "command)",
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="serve the session over HTTP instead of driving a local "
        "workload (port 0 binds an ephemeral port, printed on stdout)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="replica lanes behind the HTTP front door (with --listen)",
    )
    serve.add_argument(
        "--config",
        help="JSON ServerConfig file (with --listen); flags override "
        "host/port only",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="with --listen: serve for this many seconds then exit "
        "(0 = until interrupted)",
    )
    _add_json_argument(serve)
    serve.set_defaults(func=_cmd_serve)

    cluster_worker = subparsers.add_parser(
        "cluster-worker",
        help="run a cluster worker that executes shard tasks for a "
        "coordinator (the remote end of --backend cluster)",
    )
    cluster_worker.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address (port 0 picks an ephemeral port; the bound "
        "address is printed as 'listening on host:port')",
    )
    cluster_worker.add_argument(
        "--ident",
        type=int,
        default=-1,
        help="spawner-assigned peer identity (surfaced in stats; fault "
        "plans match their 'peer' label against it)",
    )
    cluster_worker.set_defaults(func=_cmd_cluster_worker)

    profile = subparsers.add_parser(
        "profile", help="structural statistics of a graph"
    )
    _add_graph_arguments(profile)
    profile.add_argument("--hops", type=int, default=2)
    profile.set_defaults(func=_cmd_profile)

    from repro.analysis.__main__ import build_parser as _check_parser

    check = subparsers.add_parser(
        "check",
        help="run the repro-check static-analysis suite",
        parents=[_check_parser(add_help=False)],
    )
    check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
