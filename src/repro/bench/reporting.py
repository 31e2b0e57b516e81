"""Report writers: ASCII tables, CSV, and gnuplot-style series files.

The paper's figures are runtime-vs-k line plots; :func:`format_figure`
prints the same series as a table (one row per k, one column per
algorithm), which is the form EXPERIMENTS.md records.  :func:`write_series`
emits whitespace ``k runtime`` columns per algorithm — directly plottable
with gnuplot, matching the visual style of the original figures.
"""

from __future__ import annotations

import csv
import os
from typing import IO, List, Sequence, Union

from repro.bench.harness import FigureRun, base_of, cell_label

__all__ = ["format_figure", "write_csv", "write_series", "format_speedups"]

PathOrFile = Union[str, "os.PathLike[str]", IO[str]]


def _column_widths(rows: Sequence[Sequence[str]]) -> List[int]:
    widths = [0] * max(len(r) for r in rows)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return widths


def _render_table(rows: Sequence[Sequence[str]]) -> str:
    widths = _column_widths(rows)
    lines = []
    for idx, row in enumerate(rows):
        line = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines.append(line.rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_figure(run: FigureRun, *, show_counters: bool = False) -> str:
    """Human-readable report for one figure run."""
    spec = run.spec
    header = [
        f"{spec.figure_id}: {spec.paper_figure}",
        f"  dataset: {spec.dataset} (scale={run.scale}; "
        f"{run.num_nodes} nodes, {run.num_edges} edges)",
        f"  aggregate: {spec.aggregate.upper()}, hops={spec.hops}, "
        f"r={spec.blacking_ratio}, "
        f"relevance={'binary' if spec.binary_relevance else 'mixture'} "
        f"(density={run.score_density:.3f})",
        f"  offline index build: {run.index_build_sec:.3f}s "
        "(excluded from query times, as in the paper)",
        "",
    ]
    labels = list(dict.fromkeys(m.label for m in run.measurements))
    rows: List[List[str]] = [["k"] + [f"{lbl} (s)" for lbl in labels]]
    ks = sorted({m.k for m in run.measurements})
    by_cell = {(m.label, m.k): m for m in run.measurements}
    for k in ks:
        row = [str(k)]
        for lbl in labels:
            m = by_cell.get((lbl, k))
            row.append(f"{m.elapsed_sec:.4f}" if m else "-")
        rows.append(row)
    body = _render_table(rows)
    parts = header + [body]
    if show_counters:
        counter_rows: List[List[str]] = [
            ["k"] + [f"{lbl} evals" for lbl in labels]
        ]
        for k in ks:
            row = [str(k)]
            for lbl in labels:
                m = by_cell.get((lbl, k))
                row.append(str(m.nodes_evaluated) if m else "-")
            counter_rows.append(row)
        parts += ["", "exact ball evaluations per query:", _render_table(counter_rows)]
    parts += ["", format_speedups(run)]
    return "\n".join(parts)


def format_speedups(run: FigureRun) -> str:
    """Speedup-over-base (and numpy-over-python) summary lines."""
    cells = list(
        dict.fromkeys((m.algorithm, m.backend) for m in run.measurements)
    )
    lines = []
    for algorithm, backend in cells:
        if algorithm == base_of(algorithm):
            continue
        speedups = run.speedup_over_base(algorithm, backend)
        if not speedups:
            continue
        label = cell_label(algorithm, backend)
        best_k = max(speedups, key=lambda k: speedups[k])
        lines.append(
            f"speedup over {base_of(algorithm)} — {label}: "
            + ", ".join(f"k={k}: {s:.1f}x" for k, s in sorted(speedups.items()))
            + f"  (best {speedups[best_k]:.1f}x at k={best_k})"
        )
    backends = {m.backend for m in run.measurements}
    if {"python", "numpy"} <= backends:
        for algorithm in dict.fromkeys(m.algorithm for m in run.measurements):
            speedups = run.backend_speedup(algorithm)
            if not speedups:
                continue
            best_k = max(speedups, key=lambda k: speedups[k])
            lines.append(
                f"numpy over python — {algorithm}: "
                + ", ".join(
                    f"k={k}: {s:.1f}x" for k, s in sorted(speedups.items())
                )
                + f"  (best {speedups[best_k]:.1f}x at k={best_k})"
            )
    return "\n".join(lines) if lines else "(no base series; speedups unavailable)"


def write_csv(run: FigureRun, sink: PathOrFile) -> None:
    """Write every measurement as one CSV row."""
    own = isinstance(sink, (str, os.PathLike))
    handle = open(os.fspath(sink), "w", newline="", encoding="utf-8") if own else sink
    try:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "figure",
                "dataset",
                "aggregate",
                "r",
                "scale",
                "algorithm",
                "backend",
                "k",
                "elapsed_sec",
                "nodes_evaluated",
                "edges_scanned",
                "pruned_nodes",
                "top_value",
            ]
        )
        for m in run.measurements:
            writer.writerow(
                [
                    run.spec.figure_id,
                    run.spec.dataset,
                    run.spec.aggregate,
                    run.spec.blacking_ratio,
                    run.scale,
                    m.algorithm,
                    m.backend,
                    m.k,
                    f"{m.elapsed_sec:.6f}",
                    m.nodes_evaluated,
                    m.edges_scanned,
                    m.pruned_nodes,
                    f"{m.top_value:.6f}",
                ]
            )
    finally:
        if own:
            handle.close()


def write_series(run: FigureRun, directory: Union[str, "os.PathLike[str]"]) -> List[str]:
    """Write gnuplot-style ``<figure>_<algorithm>.dat`` files; returns paths.

    Backend-sweep runs get one file per (algorithm, backend) cell, suffixed
    ``_<backend>``.
    """
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    cells = dict.fromkeys((m.algorithm, m.backend) for m in run.measurements)
    for algorithm, backend in cells:
        stem = (
            f"{run.spec.figure_id}_{algorithm}"
            if backend == "auto"
            else f"{run.spec.figure_id}_{algorithm}_{backend}"
        )
        path = os.path.join(os.fspath(directory), f"{stem}.dat")
        label = cell_label(algorithm, backend)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# {run.spec.paper_figure} — {label}\n# k runtime_sec\n")
            for m in run.series(algorithm, backend):
                handle.write(f"{m.k} {m.elapsed_sec:.6f}\n")
        written.append(path)
    return written
