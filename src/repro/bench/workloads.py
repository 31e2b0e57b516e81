"""Workload definitions: one spec per paper figure, plus the ablations.

The paper's evaluation (Sec. V) is six runtime-vs-k figures:

=======  ==============  =========  =====  =====================
figure   dataset          aggregate  r      note
=======  ==============  =========  =====  =====================
Fig. 1   Collaboration    SUM        0.01
Fig. 2   Citation         SUM        0.01
Fig. 3   Intrusion        SUM        0.2    (higher blacking ratio)
Fig. 4   Collaboration    AVG        0.01
Fig. 5   Citation         AVG        0.01
Fig. 6   Intrusion        AVG        0.01
=======  ==============  =========  =====  =====================

All are 2-hop queries ("We tested 2-hop queries since they are much harder
than 1-hop queries and more popular than 3+ hop queries") over the
three algorithms Base / LONA-Forward / LONA-Backward.

Relevance regime: each figure is keyed by its blacking ratio alone, and
Sec. IV develops the zero-skipping argument for 0/1 relevance, so the
default workloads use the **binary** mixture (fraction ``r`` of nodes score
exactly 1, the rest 0).  The full continuous mixture (exponential ``fr`` +
random-walk ``fw``) is exercised by the ``mixture`` ablation variant of
every figure — see EXPERIMENTS.md for how the two regimes bracket the
paper's reported behaviour.

The ablations (:data:`ABLATIONS`, run with ``--figure abl-<id>``) are the
parameter studies around the figures: each is a short list of
:class:`AblationCall` s, one ``run_figure`` call apiece, that vary only the
figure (h, r or the mixture, through :func:`dataclasses.replace`), the
scale, the algorithms and the backends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Tuple

from repro.core.ordering import ORDERINGS
from repro.datasets import load as load_dataset
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.relevance.base import ScoreVector
from repro.relevance.mixture import MixtureRelevance

__all__ = [
    "AblationCall",
    "ABLATIONS",
    "FigureSpec",
    "FIGURES",
    "figure",
    "PAPER_KS",
]

#: The k values swept on the paper's x-axis (0..300).
PAPER_KS: Tuple[int, ...] = (10, 25, 50, 100, 200, 300)

#: Algorithms plotted in every paper figure.
PAPER_ALGORITHMS: Tuple[str, ...] = ("base", "forward", "backward")


@dataclass(frozen=True)
class FigureSpec:
    """Everything needed to regenerate one figure."""

    figure_id: str
    paper_figure: str
    dataset: str
    aggregate: str
    blacking_ratio: float
    ks: Tuple[int, ...] = PAPER_KS
    algorithms: Tuple[str, ...] = PAPER_ALGORITHMS
    hops: int = 2
    binary_relevance: bool = True
    seed: int = 2010  # ICDE 2010 — fixed so every run is reproducible
    description: str = ""

    def build_graph(self, scale: float = 1.0) -> Graph:
        """Instantiate the dataset stand-in."""
        return load_dataset(self.dataset, scale=scale, seed=self.seed)

    def build_scores(self, graph: Graph) -> ScoreVector:
        """Instantiate the relevance function and materialize scores."""
        if self.binary_relevance:
            relevance = MixtureRelevance(
                self.blacking_ratio, binary=True, seed=self.seed + 1
            )
        else:
            relevance = MixtureRelevance(
                self.blacking_ratio, zero_fraction=0.0, seed=self.seed + 1
            )
        return relevance.scores(graph)

    def with_mixture(self) -> "FigureSpec":
        """The continuous-mixture ablation variant of this figure."""
        return replace(
            self,
            figure_id=self.figure_id + "-mixture",
            binary_relevance=False,
            description=self.description + " (continuous fr+fw mixture)",
        )


FIGURES: Dict[str, FigureSpec] = {
    spec.figure_id: spec
    for spec in (
        FigureSpec(
            figure_id="fig1",
            paper_figure="Fig. 1 Collaboration (SUM)",
            dataset="collaboration_like",
            aggregate="sum",
            blacking_ratio=0.01,
            description="runtime vs k, SUM over 2-hop, collaboration network",
        ),
        FigureSpec(
            figure_id="fig2",
            paper_figure="Fig. 2 Citation (SUM)",
            dataset="citation_like",
            aggregate="sum",
            blacking_ratio=0.01,
            description="runtime vs k, SUM over 2-hop, citation network",
        ),
        FigureSpec(
            figure_id="fig3",
            paper_figure="Fig. 3 Intrusion (SUM)",
            dataset="intrusion_like",
            aggregate="sum",
            blacking_ratio=0.2,
            description="runtime vs k, SUM over 2-hop, intrusion network (r=0.2)",
        ),
        FigureSpec(
            figure_id="fig4",
            paper_figure="Fig. 4 Collaboration (AVG)",
            dataset="collaboration_like",
            aggregate="avg",
            blacking_ratio=0.01,
            description="runtime vs k, AVG over 2-hop, collaboration network",
        ),
        FigureSpec(
            figure_id="fig5",
            paper_figure="Fig. 5 Citation (AVG)",
            dataset="citation_like",
            aggregate="avg",
            blacking_ratio=0.01,
            description="runtime vs k, AVG over 2-hop, citation network",
        ),
        FigureSpec(
            figure_id="fig6",
            paper_figure="Fig. 6 Intrusion (AVG)",
            dataset="intrusion_like",
            aggregate="avg",
            blacking_ratio=0.01,
            description="runtime vs k, AVG over 2-hop, intrusion network",
        ),
    )
}


def figure(figure_id: str) -> FigureSpec:
    """Look up a figure spec; accepts ``"1"``, ``"fig1"``, ``"fig1-mixture"``."""
    key = figure_id if figure_id.startswith("fig") else f"fig{figure_id}"
    if key.endswith("-mixture"):
        base_key = key[: -len("-mixture")]
        if base_key in FIGURES:
            return FIGURES[base_key].with_mixture()
    if key not in FIGURES:
        raise InvalidParameterError(
            f"unknown figure {figure_id!r}; known: {', '.join(sorted(FIGURES))} "
            "(append '-mixture' for the continuous-relevance variant), "
            f"or an ablation: {', '.join(sorted(ABLATIONS))}"
        )
    return FIGURES[key]


class AblationCall(NamedTuple):
    """One ``run_figure`` call of an ablation: ``spec`` carries its k values
    and algorithms, ``scale`` multiplies ``--scale``, no ``backends`` means
    ``"auto"``."""

    spec: FigureSpec
    scale: float = 1.0
    backends: Tuple[str, ...] = ()


def _call(
    call_id: str, figure_id: str = "fig1", *, scale=1.0, backends=(), ks=(100,), **changes
) -> AblationCall:
    spec = replace(figure(figure_id), figure_id=call_id, ks=ks, **changes)
    return AblationCall(spec, scale, backends)


_BASE_BACKWARD = ("base", "backward")
_GAMMAS = ("0.1", "0.3", "0.5", "0.8", "1.0", "auto")
_REGIMES = (("binary", "fig1"), ("continuous", "fig1-mixture"))

#: Algorithm names may take one ``:name=value`` parameter, or ``:exp`` on
#: the weighted routes (see :func:`repro.bench.harness.run_figure`); each
#: call's first algorithm is the reference its other cells are
#: cross-checked against.
ABLATIONS: Dict[str, Tuple[AblationCall, ...]] = {
    # python vs numpy execution of every route on two figures.
    "abl-backend": tuple(
        _call(f"abl-backend-{f}", f, backends=("python", "numpy")) for f in ("fig1", "fig2")
    ),
    # LONA-Backward's distribution cost grows with r; Base's does not.
    "abl-blacking": tuple(
        _call(f"abl-blacking-r{r}", blacking_ratio=r, ks=(50,), algorithms=_BASE_BACKWARD,
              scale=0.25)
        for r in (0.005, 0.01, 0.05, 0.2, 0.5)
    ),
    # Sec. IV's distribution threshold, on continuous scores where it bites.
    "abl-gamma": (
        _call("abl-gamma", "fig1-mixture",
              algorithms=("base",) + tuple(f"backward:gamma={g}" for g in _GAMMAS)),
    ),
    # Query radius: Base grows with the ball volume (Sec. II's m^h |V|).
    "abl-hops": tuple(
        _call(f"abl-hops-h{h}", hops=h, ks=(50,), algorithms=_BASE_BACKWARD, scale=0.25)
        for h in (1, 2, 3)
    ),
    # Binary vs continuous relevance, the two regimes the figures bracket.
    "abl-mixture": tuple(_call(f"abl-mixture-{r}", f) for r, f in _REGIMES),
    # Exact N(v) vs the degree-based estimates in LONA-Backward's Eq. 3.
    "abl-nindex": tuple(
        _call(f"abl-nindex-{r}", f, algorithms=_BASE_BACKWARD + ("backward-indexfree",))
        for r, f in _REGIMES
    ),
    # LONA-Forward's queue order, which Algorithm 1 leaves open.
    "abl-order": (
        _call("abl-order", algorithms=("base",) + tuple(f"forward:ordering={o}" for o in ORDERINGS)),
    ),
    # Sec. II's relational self-join against the graph scan; small, since
    # the h=2 plan materializes one row per 2-hop walk.
    "abl-rdbms": tuple(
        _call(f"abl-rdbms-h{h}", hops=h, ks=(20,), algorithms=("base", "relational"), scale=0.1)
        for h in (1, 2)
    ),
    # The LONA-over-Base speedup as the graph grows, at fixed k.
    "abl-scale": tuple(
        _call(f"abl-scale-{s}", ks=(50,), algorithms=_BASE_BACKWARD, scale=s)
        for s in (0.25, 0.5, 1.0)
    ),
    # The offline/online spectrum, ending at a materialized view.
    "abl-views": (
        _call("abl-views", algorithms=("base", "forward", "backward", "materialized")),
    ),
    # Distance-weighted aggregation (footnote 1): scan vs distribution.
    "abl-weighted": tuple(
        _call(f"abl-weighted-{name}",
              algorithms=(f"weighted-base{param}", f"weighted-backward{param}"))
        for name, param in (("inverse", ""), ("exp-decay", ":exp"))
    ),
}
