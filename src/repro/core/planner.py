"""Cost-based algorithm selection with explainable plans.

The paper leaves "which algorithm should answer this query?" to the reader:
Base needs nothing, LONA-Forward amortizes an offline index, LONA-Backward
feeds on score sparsity.  This module makes the choice a first-class,
inspectable object — the database way: estimate costs from cheap statistics,
pick the cheapest plan, and be able to say why (``engine.explain(...)``).

Cost model
----------
All costs are in **expected ball expansions** (one truncated BFS = 1 unit),
the deterministic currency the whole library's stats use.  The model is
built from O(n log n) statistics only — no traversal:

* ``n``                — node count.
* ``N_ub(v)``          — degree-based ball-size upper estimates
  (:func:`repro.graph.neighborhood.upper_estimate`), sorted once.
* ``mu``               — mean score over all nodes.
* ``T``                — threshold proxy: the k-th largest ball estimate
  scaled by ``mu`` (what the k-th best SUM plausibly is).
* Base:     ``n``.
* Forward:  ``n - |{v : N_ub(v) <= T}|`` — the statically prunable nodes
  (Eq. 1's ``N(v)-1+f(v)`` arm); differential pruning is a bonus the model
  deliberately ignores (it under-promises).
* Backward: ``D + V`` where ``D`` is the auto-gamma distribution set and
  ``V = |{v : rest * N_ub(v) + f(v) > T}|`` the candidates whose Eq. 3
  bound (with empty partial sums — again under-promising) survives the
  threshold.  ``rest = 0`` (all non-zeros distributed) collapses ``V`` to
  ``~k``: the exact-shortcut fast path.

The model's absolute numbers are rough by construction; its *ordering* is
what the planner uses and what the tests pin (sparse-binary -> backward,
dense-continuous with index -> forward, tiny graphs -> base).

The ordering is **backend-sensitive**: a ball expansion does not cost the
same on every backend, and the vectorized backend does not speed every
algorithm up equally, so each estimate carries a per-expansion
``cost_multiplier`` (:data:`BACKEND_COST_FACTORS`) that the ranking
incorporates.  Under numpy a full vectorized Base scan can undercut a
prune-light LONA-Forward run that wins under python.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.aggregates.functions import AggregateKind
from repro.core.backends import resolve_backend
from repro.core.backward import resolve_gamma
from repro.core.query import QuerySpec
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.graph.neighborhood import upper_estimate

__all__ = [
    "BACKEND_COST_FACTORS",
    "BACKEND_FIXED_COSTS",
    "CostEstimate",
    "ExecutionPlan",
    "QueryPlanner",
]

#: Relative per-ball-expansion execution cost of each algorithm's *online*
#: phase, by concrete backend.  The vectorized backend does not speed every
#: route up equally — Base is the most array-shaped (multi-source BFS blocks
#: + one segmented reduction each), LONA-Forward interleaves bulk expansion
#: with per-block pruning bookkeeping, and LONA-Backward verifies its
#: candidates in blocks read off the session's ball index — so plan
#: *choice* can legitimately flip with the backend (a full vectorized scan
#: can undercut a prune-light forward run).  numpy factors were calibrated
#: against a ``benchmarks/bench_backend_coverage.py`` run (before blocked
#: verification and the ball index; not re-derived since), asserted against
#: the canonical fig1/fig2 workloads in ``tests/test_planner_calibration.py``.  The parallel factors
#: assume a nominal 4-worker pool over the numpy kernels: scans split
#: near-perfectly (Base/Forward).  LONA-Backward is not sharded: on
#: ``parallel`` and ``cluster`` it runs in the session's process, so it is
#: priced as numpy prices it.  The offline index build is python-side
#: construction either way and is never discounted.
BACKEND_COST_FACTORS = {
    "python": {"base": 1.0, "forward": 1.0, "backward": 1.0},
    # 1 / measured route speedup, benchmarks/BENCH_backend_coverage.json
    # (fig1, scale 1.0): base 4.19x, forward 3.67x, backward 6.09x.
    "numpy": {"base": 0.24, "forward": 0.27, "backward": 0.16},
    # numpy factor / nominal 4-worker scaling (scans split ~perfectly).
    "parallel": {"base": 0.06, "forward": 0.07, "backward": 0.16},
    # Same sharded kernels as parallel, but every round crosses a socket:
    # frame serialization and candidate shipping add a per-expansion tax on
    # top of the parallel factors.
    "cluster": {"base": 0.07, "forward": 0.08, "backward": 0.16},
}

#: Fixed per-query overhead of a backend's sharded routes (Base/Forward), in
#: the same ball-expansion currency, charged once on top of the
#: per-expansion cost.  In-process backends, and LONA-Backward on every
#: backend, have none; the parallel backend pays process dispatch + queue
#: IPC + merge every scan, which is why a small graph should route to
#: in-process numpy even when the per-expansion factor favors parallel.
#: The runtime twin of this term is the engine's ``min_nodes`` decline rule
#: (:data:`repro.parallel.engine.DEFAULT_MIN_NODES`).
BACKEND_FIXED_COSTS = {
    "python": 0.0,
    "numpy": 0.0,
    # Recalibrated for the leaner round (shared-memory reply buffers
    # replaced pickled pipe replies; bench/ reports the round's traffic as
    # parallel.pipe_bytes_per_op): a warm round measured ~50-105
    # expansion-equivalents of overhead vs ~1 ms (thousands) before.  Kept
    # conservative at 500 — multi-round plans pay it repeatedly and cold
    # exports cost more.
    "parallel": 500.0,
    # Socket rounds cost strictly more than queue IPC: connection fan-out,
    # frame encode/decode, and store shipping on cold peers.  The runtime
    # twin is the cluster engine's min_nodes decline rule.
    "cluster": 8000.0,
}


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one algorithm for one query.

    ``online_ball_expansions`` stays in the backend-independent currency
    (one truncated BFS = 1 unit); ``cost_multiplier`` is the backend's
    relative per-expansion cost (:data:`BACKEND_COST_FACTORS`), applied by
    the ``total_*`` methods the planner ranks with.
    """

    algorithm: str
    online_ball_expansions: float
    needs_offline_index: bool
    offline_ball_expansions: float
    note: str
    cost_multiplier: float = 1.0
    #: Per-query fixed overhead of the backend (process dispatch, IPC,
    #: merge — :data:`BACKEND_FIXED_COSTS`), charged once regardless of how
    #: much the algorithm prunes.  Zero for in-process backends; this term
    #: is why ``"parallel"`` plans on small graphs cost more than their
    #: numpy twins even with a lower per-expansion factor.
    fixed_cost: float = 0.0

    def total_first_query(self) -> float:
        """Cost of the first query, offline build included."""
        return (
            self.online_ball_expansions * self.cost_multiplier
            + self.fixed_cost
            + self.offline_ball_expansions
        )

    def total_amortized(self) -> float:
        """Cost per query once the offline index is sunk."""
        return self.online_ball_expansions * self.cost_multiplier + self.fixed_cost


@dataclass
class ExecutionPlan:
    """The ranked estimates and the planner's choice."""

    spec: QuerySpec
    chosen: str
    estimates: List[CostEstimate] = field(default_factory=list)
    amortize_index: bool = True
    #: Concrete execution backend the chosen algorithm will run on.  The
    #: cost model is phrased in ball expansions, but each estimate carries
    #: the backend's per-expansion cost factor
    #: (:data:`BACKEND_COST_FACTORS`), so the ranking — and therefore the
    #: chosen algorithm — is backend-sensitive.
    backend: str = "python"
    #: Communication forecast, set only for ``backend="cluster"`` plans:
    #: shard count and the naive candidate volume (``shards * k`` entries,
    #: 16 bytes each) that θ-shipping and adaptive quotas prune below.
    comm: "Optional[dict]" = None

    def estimate_for(self, algorithm: str) -> CostEstimate:
        """The estimate of one algorithm."""
        for est in self.estimates:
            if est.algorithm == algorithm:
                return est
        raise InvalidParameterError(f"no estimate for {algorithm!r}")

    def as_dict(self) -> dict:
        """Machine-readable plan view (the CLI's ``--json`` output)."""
        return {
            "query": self.spec.describe(),
            "k": self.spec.k,
            "aggregate": self.spec.aggregate.value,
            "hops": self.spec.hops,
            "chosen": self.chosen,
            "amortize_index": self.amortize_index,
            "backend": self.backend,
            **({"comm": dict(self.comm)} if self.comm else {}),
            "estimates": [
                {
                    "algorithm": est.algorithm,
                    "online_ball_expansions": est.online_ball_expansions,
                    "needs_offline_index": est.needs_offline_index,
                    "offline_ball_expansions": est.offline_ball_expansions,
                    "cost_multiplier": est.cost_multiplier,
                    "fixed_cost": est.fixed_cost,
                    "effective_online_cost": est.total_amortized(),
                    "note": est.note,
                }
                for est in self.estimates
            ],
        }

    def explain(self) -> str:
        """Human-readable plan explanation."""
        lines = [
            f"query: {self.spec.describe()}",
            f"chosen algorithm: {self.chosen} "
            f"({'index cost amortized' if self.amortize_index else 'index cost charged to this query'})",
            f"execution backend: {self.backend}"
            + (
                " (vectorized CSR)"
                if self.backend == "numpy"
                else " (sharded multi-process)"
                if self.backend == "parallel"
                else " (socket cluster)"
                if self.backend == "cluster"
                else ""
            ),
        ]
        if self.comm:
            shards = self.comm.get("shards")
            naive = self.comm.get("predicted_candidates")
            naive_bytes = self.comm.get("predicted_candidate_bytes")
            lines.append(
                f"communication: {shards:g} shards, naive candidate volume "
                f"{naive:g} entries ({naive_bytes:g} bytes); θ-shipping and "
                "adaptive quotas prune below this"
            )
        lines += [
            "",
            "estimated cost (ball expansions):",
        ]
        key = (
            CostEstimate.total_amortized
            if self.amortize_index
            else CostEstimate.total_first_query
        )
        for est in sorted(self.estimates, key=key):
            marker = "->" if est.algorithm == self.chosen else "  "
            offline = (
                f" + offline {est.offline_ball_expansions:.0f}"
                if est.needs_offline_index
                else ""
            )
            discount = (
                f" (x{est.cost_multiplier:g} {self.backend}"
                + (f" + fixed {est.fixed_cost:.0f}" if est.fixed_cost else "")
                + f" -> {est.total_amortized():.0f})"
                if est.cost_multiplier != 1.0 or est.fixed_cost
                else ""
            )
            lines.append(
                f" {marker} {est.algorithm:<9} {est.online_ball_expansions:10.0f}"
                f"{offline}{discount}   {est.note}"
            )
        return "\n".join(lines)


class QueryPlanner:
    """Estimate per-algorithm costs from cheap statistics and choose."""

    def __init__(
        self,
        graph: Graph,
        scores: Sequence[float],
        *,
        hops: int = 2,
        include_self: bool = True,
        index_available: bool = False,
        distribution_fraction: float = 0.1,
        backend: str = "auto",
        size_estimates: Optional[Sequence[int]] = None,
    ) -> None:
        """``size_estimates`` is the per-node ``N_ub`` table for ``(graph,
        hops, include_self)`` when the caller already holds it (a session's
        :meth:`~repro.core.context.GraphContext.estimated_sizes`, shared by
        every score's planner); omitted, it is computed here."""
        self.graph = graph
        self.scores = list(scores)
        self.hops = hops
        self.include_self = include_self
        self.index_available = index_available
        self.distribution_fraction = distribution_fraction
        self.backend = resolve_backend(backend)
        # One O(n log n) statistics pass, shared by all plan() calls.
        if size_estimates is None:
            size_estimates = upper_estimate(graph, hops, include_self=include_self)
        elif hasattr(size_estimates, "tolist"):
            # plain ints: plan() walks the table in interpreted loops
            size_estimates = size_estimates.tolist()
        self._size_ub_by_node = size_estimates
        self._size_ub = sorted(size_estimates)  # ascending: plan() bisects it
        n = graph.num_nodes
        self._mu = sum(self.scores) / n if n else 0.0
        self._nonzero_desc = sorted(
            (s for s in self.scores if s > 0.0), reverse=True
        )

    # ------------------------------------------------------------------
    def _cost_factor(self, algorithm: str) -> float:
        """The backend's per-expansion cost factor for one algorithm."""
        return BACKEND_COST_FACTORS[self.backend].get(algorithm, 1.0)

    def _fixed_cost(self, algorithm: str) -> float:
        """The backend's per-query fixed overhead (expansion units): none
        for backward, which runs in process on every backend."""
        if algorithm == "backward":
            return 0.0
        return BACKEND_FIXED_COSTS.get(self.backend, 0.0)

    def _threshold_proxy(self, k: int) -> float:
        """Plausible k-th best SUM: mu times the k-th largest ball estimate."""
        if not self._size_ub:
            return 0.0
        kth_ball = self._size_ub[-min(k, len(self._size_ub))]
        return self._mu * kth_ball

    def plan(
        self, spec: QuerySpec, *, amortize_index: bool = True
    ) -> ExecutionPlan:
        """Estimate all algorithms for ``spec`` and choose the cheapest.

        ``amortize_index=True`` (the paper's framing: the differential index
        is precomputed) compares online costs only; ``False`` charges the
        offline build to this query — the right comparison for a one-off
        query on a cold graph.
        """
        if spec.hops != self.hops or spec.include_self != self.include_self:
            raise InvalidParameterError(
                "planner built for "
                f"(hops={self.hops}, include_self={self.include_self}), "
                f"query uses (hops={spec.hops}, include_self={spec.include_self})"
            )
        n = self.graph.num_nodes
        estimates: List[CostEstimate] = [
            CostEstimate(
                algorithm="base",
                online_ball_expansions=float(n),
                needs_offline_index=False,
                offline_ball_expansions=0.0,
                note="full scan, no precomputation",
                cost_multiplier=self._cost_factor("base"),
                fixed_cost=self._fixed_cost("base"),
            )
        ]

        threshold = self._threshold_proxy(spec.k)

        if spec.aggregate.lona_supported:
            # --- forward: static pruning estimate -----------------------
            prunable = bisect_right(self._size_ub, threshold)
            forward_online = float(max(n - prunable, min(spec.k, n)))
            estimates.append(
                CostEstimate(
                    algorithm="forward",
                    online_ball_expansions=forward_online,
                    needs_offline_index=True,
                    # the index build expands every ball once
                    offline_ball_expansions=0.0 if self.index_available else float(n),
                    note=f"static bound prunes ~{prunable} of {n} nodes "
                    f"(threshold proxy {threshold:.1f})",
                    cost_multiplier=self._cost_factor("forward"),
                    fixed_cost=self._fixed_cost("forward"),
                )
            )

            # --- backward: distribution + verification ------------------
            gamma = resolve_gamma(
                "auto",
                self._nonzero_desc,
                distribution_fraction=self.distribution_fraction,
            )
            distributed = sum(1 for s in self._nonzero_desc if s >= gamma)
            rest = next(
                (s for s in self._nonzero_desc if s < gamma), 0.0
            )
            if rest == 0.0 and spec.aggregate is not AggregateKind.AVG:
                verified = float(min(spec.k, n))
                note = (
                    f"distribute {distributed} non-zero nodes; rest bound 0 "
                    "-> exact shortcut, no verification"
                )
            else:
                verified = float(
                    sum(
                        1
                        for v in range(n)
                        if rest * self._size_ub_by_node[v] + self.scores[v]
                        > threshold
                    )
                )
                note = (
                    f"distribute {distributed} nodes (gamma={gamma:.3f}), "
                    f"verify ~{verified:.0f} candidates (rest bound {rest:.3f})"
                )
            estimates.append(
                CostEstimate(
                    algorithm="backward",
                    online_ball_expansions=float(distributed) + verified,
                    needs_offline_index=False,
                    offline_ball_expansions=0.0,
                    note=note,
                    cost_multiplier=self._cost_factor("backward"),
                    fixed_cost=self._fixed_cost("backward"),
                )
            )

        cost_key = (
            CostEstimate.total_amortized
            if amortize_index
            else CostEstimate.total_first_query
        )
        chosen = min(estimates, key=cost_key).algorithm
        return ExecutionPlan(
            spec=spec,
            chosen=chosen,
            estimates=estimates,
            amortize_index=amortize_index,
            backend=self.backend,
        )
