"""Command-line harness: regenerate any paper figure or ablation.

Usage::

    python -m repro.bench.figures --figure 1            # Fig. 1
    python -m repro.bench.figures --all                 # all six figures
    python -m repro.bench.figures --figure 2 --scale 0.5 --reps 3
    python -m repro.bench.figures --figure 1-mixture    # continuous relevance
    python -m repro.bench.figures --figure abl-gamma    # one ablation
    python -m repro.bench.figures --all --csv out/ --series out/

Prints the same runtime-vs-k series the paper plots (one table per figure,
or per call of an ablation) plus speedup-over-base summaries, and can emit
CSV / gnuplot data files.  Every cell is cross-checked against its table's
first algorithm, so a run that returns is also a correctness check.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.bench.harness import run_figure
from repro.bench.reporting import format_figure, write_csv, write_series
from repro.bench.workloads import ABLATIONS, FIGURES, AblationCall, figure
from repro.errors import ReproError

__all__ = ["main"]


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro.bench.figures",
        description="Regenerate the evaluation figures of the LONA paper.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--figure",
        help="figure id: 1..6, fig1..fig6, optionally with '-mixture' suffix; "
        f"or an ablation: {', '.join(sorted(ABLATIONS))}",
    )
    target.add_argument(
        "--all", action="store_true", help="run all six paper figures"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset scale factor (1.0 = default bench size); an ablation "
        "call's own scale multiplies it",
    )
    parser.add_argument(
        "--reps", type=int, default=1, help="timing repetitions per cell (best-of)"
    )
    parser.add_argument(
        "--ks",
        type=str,
        default="",
        help="comma-separated k values overriding the paper sweep",
    )
    parser.add_argument(
        "--algorithms",
        type=str,
        default="",
        help="comma-separated algorithm list (base,forward,backward,"
        "backward-indexfree,materialized,relational,weighted-base,"
        "weighted-backward; e.g. backward:gamma=0.5, forward:ordering=random, "
        "weighted-base:exp)",
    )
    parser.add_argument(
        "--backends",
        type=str,
        default="",
        help="comma-separated execution backends to sweep as extra columns "
        "(python,numpy); default runs each cell once on 'auto'",
    )
    parser.add_argument(
        "--counters",
        action="store_true",
        help="also print deterministic work counters",
    )
    parser.add_argument("--csv", type=str, default="", help="directory for CSV output")
    parser.add_argument(
        "--series", type=str, default="", help="directory for gnuplot .dat series"
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code (2, after an ``error:``
    line on stderr, when the library rejects the request)."""
    args = _parse_args(argv)
    try:
        return _run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.all:
        calls: List[AblationCall] = [AblationCall(FIGURES[f]) for f in sorted(FIGURES)]
    elif args.figure in ABLATIONS:
        calls = list(ABLATIONS[args.figure])
    else:
        calls = [AblationCall(figure(args.figure))]
    ks = tuple(int(x) for x in args.ks.split(",") if x) or None
    algorithms = tuple(a for a in args.algorithms.split(",") if a) or None
    backends = tuple(b for b in args.backends.split(",") if b) or None

    for spec, scale, call_backends in calls:
        run = run_figure(
            spec,
            scale=args.scale * scale,
            repetitions=args.reps,
            ks=ks,
            algorithms=algorithms,
            backends=backends or call_backends,
        )
        print(format_figure(run, show_counters=args.counters))
        print()
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, f"{spec.figure_id}.csv")
            write_csv(run, path)
            print(f"[csv] {path}")
        if args.series:
            for path in write_series(run, args.series):
                print(f"[series] {path}")
        if args.csv or args.series:
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
