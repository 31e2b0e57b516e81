"""Experiment runner: execute a figure spec, collect per-point measurements.

The harness reproduces the paper's measurement discipline:

* the differential index (and the exact size index it yields) is built
  *once* per dataset and excluded from query timings — the paper treats it
  as a precomputed artifact;
* every (algorithm, k) cell is timed over the same graph and the same
  materialized score vector;
* results of all algorithms are cross-checked for equality at every cell —
  a benchmark of a wrong answer is worthless — and the deterministic work
  counters are captured next to the wall-clock numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.aggregates.weighted import exponential_decay, inverse_distance
from repro.bench.workloads import FigureSpec
from repro.core.backends import resolve_backend
from repro.core.backward import backward_topk
from repro.core.base import base_topk
from repro.core.forward import forward_topk
from repro.core.materialized import MaterializedView
from repro.core.ordering import ORDERINGS
from repro.core.query import QuerySpec
from repro.core.results import TopKResult
from repro.core.weighted import weighted_backward_topk, weighted_base_topk
from repro.errors import InvalidParameterError
from repro.graph.diffindex import DifferentialIndex, build_differential_index

__all__ = ["Measurement", "FigureRun", "base_of", "run_figure"]


#: Algorithms with a single (pure Python) implementation: backend sweeps
#: run them once instead of producing duplicate mislabeled cells.  Every
#: other algorithm dispatches on ``spec.backend``.
PYTHON_ONLY_ALGORITHMS = frozenset({"materialized", "relational"})

#: Algorithms that read the differential index (or the sizes it yields).
_INDEXED_ALGORITHMS = frozenset({"forward", "backward", "weighted-backward"})


def _split_algorithm(algorithm: str):
    """``"backward:gamma=0.3"`` -> ``("backward", 0.3)``; no parameter -> None."""
    name, colon, parameter = algorithm.partition(":")
    key, _, value = parameter.partition("=")
    if not colon:
        return name, None
    if name in ("weighted-base", "weighted-backward") and parameter == "exp":
        return name, exponential_decay()
    if name == "forward" and key == "ordering" and value in ORDERINGS:
        return name, value
    if name == "backward" and key == "gamma":
        try:
            return name, value if value == "auto" else float(value)
        except ValueError:
            pass
    raise InvalidParameterError(
        f"bad algorithm parameter in {algorithm!r}; expected "
        f"backward:gamma=<float|auto>, forward:ordering=<{'|'.join(ORDERINGS)}> "
        "or weighted-*:exp"
    )


def base_of(algorithm: str) -> str:
    """The series ``algorithm``'s speedups are measured against: the
    weighted scan with the same distance profile for a weighted route
    (``weighted-backward:exp`` -> ``weighted-base:exp``), Base otherwise."""
    name, colon, parameter = algorithm.partition(":")
    if name.startswith("weighted-"):
        return "weighted-base" + colon + parameter
    return "base"


def cell_label(algorithm: str, backend: str) -> str:
    """Display label of one cell: algorithm, backend-qualified when pinned."""
    if backend == "auto":
        return algorithm
    return f"{algorithm}[{backend}]"


@dataclass
class Measurement:
    """One (algorithm, backend, k) cell of a figure."""

    algorithm: str
    k: int
    elapsed_sec: float
    nodes_evaluated: int
    edges_scanned: int
    pruned_nodes: int
    top_value: float
    backend: str = "auto"
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Column label (see :func:`cell_label`)."""
        return cell_label(self.algorithm, self.backend)


@dataclass
class FigureRun:
    """All measurements for one figure, plus shared context."""

    spec: FigureSpec
    scale: float
    num_nodes: int
    num_edges: int
    score_density: float
    index_build_sec: float
    measurements: List[Measurement] = field(default_factory=list)

    def series(
        self, algorithm: str, backend: Optional[str] = None
    ) -> List[Measurement]:
        """The runtime-vs-k series of one algorithm, ascending k.

        ``backend`` narrows to one backend's cells (None = all backends,
        the right filter for single-backend runs).
        """
        points = [
            m
            for m in self.measurements
            if m.algorithm == algorithm
            and (backend is None or m.backend == backend)
        ]
        return sorted(points, key=lambda m: m.k)

    def speedup_over_base(
        self, algorithm: str, backend: Optional[str] = None
    ) -> Dict[int, float]:
        """Per-k speedup of ``algorithm`` relative to its base series
        (:func:`base_of`; same backend when that backend has one)."""
        base = base_of(algorithm)
        base_points = self.series(base, backend) or self.series(base)
        base = {m.k: m.elapsed_sec for m in base_points}
        out: Dict[int, float] = {}
        for m in self.series(algorithm, backend):
            if m.k in base and m.elapsed_sec > 0:
                out[m.k] = base[m.k] / m.elapsed_sec
        return out

    def backend_speedup(self, algorithm: str) -> Dict[int, float]:
        """Per-k speedup of the numpy backend over python, per algorithm.

        Only meaningful for runs that swept both backends (see
        ``run_figure(..., backends=...)``); empty otherwise.
        """
        python = {m.k: m.elapsed_sec for m in self.series(algorithm, "python")}
        out: Dict[int, float] = {}
        for m in self.series(algorithm, "numpy"):
            if m.k in python and m.elapsed_sec > 0:
                out[m.k] = python[m.k] / m.elapsed_sec
        return out


def _run_algorithm(
    algorithm: str,
    graph,
    scores,
    spec: QuerySpec,
    diff_index: Optional[DifferentialIndex],
    view: Optional[MaterializedView],
) -> TopKResult:
    name, value = _split_algorithm(algorithm)
    sizes = diff_index.sizes if diff_index is not None else None
    if name == "base":
        return base_topk(graph, scores, spec)
    if name == "forward":
        ordering = value or "ubound"
        return forward_topk(
            graph, scores, spec, diff_index=diff_index, ordering=ordering, seed=7
        )
    if name == "backward":
        gamma = "auto" if value is None else value
        return backward_topk(graph, scores, spec, gamma=gamma, sizes=sizes)
    if name == "backward-indexfree":
        return backward_topk(graph, scores, spec, sizes=None)
    if name in ("weighted-base", "weighted-backward"):
        profile = value or inverse_distance
        if name == "weighted-base":
            return weighted_base_topk(graph, scores, spec, profile)
        return weighted_backward_topk(graph, scores, spec, profile, sizes=sizes)
    if name == "relational":
        # Imported here: bench/ reads its inputs through this package, and
        # only the relational ablation needs the mini column store.
        from repro.relational.engine import relational_topk

        return relational_topk(graph, scores, spec)
    if name == "materialized":
        if view is None:
            raise InvalidParameterError("materialized view was not built")
        return view.topk(spec.k, spec.aggregate)
    raise InvalidParameterError(f"unknown algorithm {algorithm!r}")


def run_figure(
    figure_spec: FigureSpec,
    *,
    scale: float = 1.0,
    repetitions: int = 1,
    ks: Optional[Sequence[int]] = None,
    algorithms: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
    verify: bool = True,
) -> FigureRun:
    """Execute one figure's sweep and return all measurements.

    ``repetitions`` takes the minimum wall-clock over that many runs per
    cell (paper-style best-of timing; counters are identical across reps).
    ``ks`` / ``algorithms`` override the spec; an algorithm may carry one
    parameter (``backward:gamma=0.3``, ``forward:ordering=random``, seeded,
    or ``weighted-base:exp``, exponential decay for the paper's inverse
    distance), checked before anything is built.  ``backends``
    optionally sweeps execution backends as an extra cell dimension (e.g.
    ``("python", "numpy")`` for backend-ablation columns); the default runs
    each cell once on the ``"auto"`` backend.  Cross-checking covers every
    (algorithm, backend) cell, so a backend sweep doubles as a parity test.
    """
    if repetitions < 1:
        raise InvalidParameterError(
            f"repetitions must be >= 1, got {repetitions}"
        )
    sweep_ks = tuple(ks) if ks is not None else figure_spec.ks
    sweep_algorithms = (
        tuple(algorithms) if algorithms is not None else figure_spec.algorithms
    )
    names = {_split_algorithm(a)[0] for a in sweep_algorithms}
    graph = figure_spec.build_graph(scale)
    score_vector = figure_spec.build_scores(graph)
    scores = score_vector.values()
    sweep_backends = tuple(backends) if backends else ("auto",)
    if any(resolve_backend(b) != "python" for b in sweep_backends):
        # Offline artifacts like the indexes below: the graph builds its
        # flat arrays once, here, outside every per-cell timing.
        graph.csr()
        graph.rev_csr()

    # Offline artifacts, shared by every cell.
    index_build_sec = 0.0
    diff_index: Optional[DifferentialIndex] = None
    if names & _INDEXED_ALGORITHMS:
        start = time.perf_counter()
        diff_index = build_differential_index(
            graph, figure_spec.hops, include_self=True
        )
        index_build_sec = time.perf_counter() - start
    view: Optional[MaterializedView] = None
    if "materialized" in names:
        view = MaterializedView(graph, scores, hops=figure_spec.hops)
        index_build_sec += view.build_sec

    run = FigureRun(
        spec=figure_spec,
        scale=scale,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        score_density=score_vector.density,
        index_build_sec=index_build_sec,
    )

    for k in sweep_ks:
        reference_values: Optional[List[float]] = None
        for algorithm in sweep_algorithms:
            if _split_algorithm(algorithm)[0] not in PYTHON_ONLY_ALGORITHMS:
                algorithm_backends = sweep_backends
            elif sweep_backends == ("auto",):
                algorithm_backends = ("auto",)
            else:
                # Single-implementation algorithms run once per k during a
                # backend sweep, labeled with the backend they actually use.
                algorithm_backends = ("python",)
            for backend in algorithm_backends:
                qspec = QuerySpec(
                    k=k,
                    aggregate=figure_spec.aggregate,
                    hops=figure_spec.hops,
                    backend=backend,
                )
                best: Optional[TopKResult] = None
                best_time = float("inf")
                for _ in range(repetitions):
                    result = _run_algorithm(
                        algorithm, graph, scores, qspec, diff_index, view
                    )
                    if result.stats.elapsed_sec < best_time:
                        best = result
                        best_time = result.stats.elapsed_sec
                assert best is not None
                if verify:
                    values = [round(v, 9) for v in best.values]
                    if reference_values is None:
                        reference_values = values
                    elif values != reference_values:
                        raise AssertionError(
                            f"{figure_spec.figure_id} k={k}: "
                            f"{algorithm}[{backend}] returned different "
                            "top-k values than the first cell"
                        )
                run.measurements.append(
                    Measurement(
                        algorithm=algorithm,
                        k=k,
                        elapsed_sec=best_time,
                        nodes_evaluated=best.stats.nodes_evaluated,
                        edges_scanned=best.stats.edges_scanned,
                        pruned_nodes=best.stats.pruned_nodes,
                        top_value=best.values[0] if best.values else 0.0,
                        backend=backend,
                        extra=dict(best.stats.extra),
                    )
                )
    return run
