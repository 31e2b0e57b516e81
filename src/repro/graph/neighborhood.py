"""Neighborhood-size indexes: exact ``N(v)`` and index-free estimates.

Both LONA bound formulas consume ``N(v) = |S_h(v)|``:

* Eq. 1 (forward):  ``Fbar_sum(v) = min(F(u) + delta(v-u), N(v) - 1 + f(v))``
* Eq. 3 (backward): ``Fbar_sum(v) = PS(v) + bound_rest * (N(v) - 1 - l) + f(v)``

LONA-Forward already pays for an offline index pass (the differential index),
so an exact ``N`` table is free there.  LONA-Backward is advertised as
index-free, so this module also provides *estimates* computable in one pass
over the edges:

* :func:`upper_estimate` — ``N_ub(v) >= N(v)``, safe wherever ``N`` appears
  with a non-negative coefficient in an upper bound (Eqs. 1 and 3).
* :func:`lower_estimate` — ``N_lb(v) <= N(v)``, safe as the denominator when
  converting a SUM upper bound into an AVG upper bound (Eq. 2).

The estimates are exact for h <= 1 and become upper/lower bounds for h >= 2
via degree-sum arguments (see each function's docstring).

:func:`upper_estimate` / :func:`lower_estimate` walk the adjacency lists and
need nothing but the interpreter: they are the reference, and what runs when
numpy is absent.  :func:`csr_estimates` computes the same two tables — the
same integers, entry for entry — from a numpy CSR view with one
``np.diff(indptr)`` and one ``np.add.reduceat`` over ``deg[indices]``
(about 1 ms at 16,000 nodes against 38), which is what
:class:`~repro.core.context.GraphContext` serves whenever numpy is
importable; after an edge write :func:`patch_csr_estimates` recomputes
only the rows the write can have moved.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.graph.csr import neighbor_slab, slab_positions
from repro.graph.graph import Graph
from repro.graph.traversal import TraversalCounter, hop_ball

__all__ = [
    "NeighborhoodSizeIndex",
    "exact_sizes",
    "upper_estimate",
    "lower_estimate",
    "csr_estimates",
    "patch_csr_estimates",
]


def exact_sizes(
    graph: Graph,
    hops: int,
    *,
    include_self: bool = True,
    counter: Optional[TraversalCounter] = None,
) -> List[int]:
    """Exact ``N(v)`` for every node, by one truncated BFS per node.

    Cost is the same as one full Base scan, which is why this is an *offline*
    index build, done once per (graph, h) and reused across queries — the
    same amortization argument the paper makes for the differential index.
    """
    if hops < 0:
        raise InvalidParameterError(f"hops must be >= 0, got {hops}")
    return [
        len(hop_ball(graph, u, hops, include_self=include_self, counter=counter))
        for u in graph.nodes()
    ]


def upper_estimate(graph: Graph, hops: int, *, include_self: bool = True) -> List[int]:
    """Index-free upper bound on ``N(v)``, one pass over the edges.

    Derivation: the number of *distinct* nodes within ``h`` hops is at most
    the number of BFS tree slots,

    ``N_ub(v) = 1 + deg(v) + sum_{w in nbrs(v)} (deg(w) - b) + ...``

    where ``b = 1`` on undirected graphs (each non-root BFS node spends one
    adjacency slot on the edge back to its parent) and ``b = 0`` on directed
    graphs (out-arcs carry no such back-edge, so every out-neighbor of a
    level-1 node may be new — subtracting 1 there would *under*-estimate and
    break bound soundness).  Levels 1 and 2 expand exactly from degrees; the
    remaining levels are bounded with the maximum degree.  Always
    ``>= N(v)``; also capped at ``num_nodes``, a trivially valid bound.
    """
    if hops < 0:
        raise InvalidParameterError(f"hops must be >= 0, got {hops}")
    n = graph.num_nodes
    self_count = 1 if include_self else 0
    cap = n if include_self else max(n - 1, 0)
    if hops == 0:
        return [self_count] * n
    degrees = [graph.degree(u) for u in graph.nodes()]
    max_degree = max(degrees, default=0)
    back_edge = 0 if graph.directed else 1
    branch = max(max_degree - back_edge, 0)
    estimates: List[int] = []
    for u in graph.nodes():
        total = self_count + degrees[u]
        if hops >= 2:
            level = sum(
                max(degrees[v] - back_edge, 0) for v in graph.neighbors(u)
            )
            total += level
            # Levels 3..h: each level-(i) node contributes at most `branch`
            # new nodes.
            for _ in range(3, hops + 1):
                level *= branch
                total += level
                if total >= cap:
                    break
        estimates.append(min(total, cap))
    return estimates


def lower_estimate(graph: Graph, hops: int, *, include_self: bool = True) -> List[int]:
    """Index-free lower bound on ``N(v)``: the (closed) 1-hop size.

    For ``h >= 1`` the h-hop ball contains the 1-hop ball, so
    ``N_lb(v) = [self] + deg(v) <= N(v)`` — except on directed graphs, where
    out-neighbors may repeat... they cannot: adjacency lists are duplicate-
    free, so out-degree counts distinct 1-hop nodes there too.
    """
    if hops < 0:
        raise InvalidParameterError(f"hops must be >= 0, got {hops}")
    self_count = 1 if include_self else 0
    if hops == 0:
        return [self_count] * graph.num_nodes
    return [self_count + graph.degree(u) for u in graph.nodes()]


def csr_estimates(csr: Any, hops: int, *, include_self: bool = True) -> Tuple[Any, Any]:
    """``(upper, lower)`` int64 arrays equal to :func:`upper_estimate` /
    :func:`lower_estimate` of the graph behind ``csr`` (a numpy CSR view).

    Level 2 of the BFS-slot count is a segmented sum of the neighbors'
    (back-edge-adjusted) degrees; levels 3..h multiply by the branching
    factor.  The reference stops a node's loop once its total reaches the
    cap; here every running value is clamped to the cap instead, which
    yields the same minimum and keeps ``level * branch`` below ``n *
    max_degree`` — fixed-width integers never wrap where Python's would grow.
    """
    import numpy as np

    if hops < 0:
        raise InvalidParameterError(f"hops must be >= 0, got {hops}")
    n = csr.num_nodes
    self_count = 1 if include_self else 0
    if hops == 0:
        flat = np.full(n, self_count, dtype=np.int64)
        return flat, flat
    degrees = np.diff(csr.indptr)
    lower = degrees + self_count
    if hops == 1 or n == 0:
        # deg(v) distinct neighbors never exceed the cap: no clamp needed.
        return lower, lower
    cap = n if include_self else n - 1
    back_edge = 0 if csr.directed else 1
    branch = _branch(np, degrees, csr.directed)
    level = np.zeros(n, dtype=np.int64)
    rows = np.flatnonzero(degrees)
    if rows.size:
        # Widened first: indexing with the int32 ids directly costs numpy a
        # slower hidden cast.
        slots = np.maximum(degrees - back_edge, 0)[csr.indices.astype(np.intp)]
        level[rows] = np.add.reduceat(slots, csr.indptr[rows])
    return _deeper_levels(np, lower + level, level, hops, cap, branch), lower


def _deeper_levels(np, total: Any, level: Any, hops: int, cap: int, branch: int) -> Any:
    """Levels 3..h of the BFS-slot count on top of levels 0..2 (``total``),
    every running value clamped to the cap."""
    total = np.minimum(total, cap)
    for _ in range(3, hops + 1):
        level = np.minimum(level, cap) * branch
        total = np.minimum(total + level, cap)
    return total


def _branch(np, degrees: Any, directed: bool) -> int:
    """New nodes a level-3+ node can add at most: the maximum degree, less
    the back edge on an undirected graph."""
    return max(int(degrees.max(initial=0)) - (0 if directed else 1), 0)


def patch_csr_estimates(
    upper: Any,
    lower: Any,
    old_csr: Any,
    csr: Any,
    u: int,
    v: int,
    hops: int,
    *,
    include_self: bool = True,
) -> Tuple[Any, Any]:
    """:func:`csr_estimates` of ``csr`` from ``(upper, lower)``, those of
    ``old_csr``, one edge write ``(u, v)`` apart.

    The write moves the degree of an endpoint (levels 0-1), so only the rows
    of the endpoints and of the nodes with an arc into one (level 2 sums
    their degrees) change; they are recomputed into copies of the tables.
    From level 3 on every row depends on the maximum degree: when it moved,
    the whole table is rebuilt.
    """
    import numpy as np

    if hops == 0:
        return upper, lower
    degrees = np.diff(csr.indptr)
    if hops >= 3 and _branch(np, degrees, csr.directed) != _branch(
        np, np.diff(old_csr.indptr), csr.directed
    ):
        return csr_estimates(csr, hops, include_self=include_self)
    arcs = csr if csr.num_arcs > old_csr.num_arcs else old_csr  # has (u, v)
    if csr.directed:  # the tails of the arcs into an endpoint
        into = np.flatnonzero((arcs.indices == u) | (arcs.indices == v))
        tails = np.searchsorted(arcs.indptr, into, side="right") - 1
    else:
        tails = neighbor_slab(arcs, np.array([u, v], dtype=np.intp))[0]
    rows = np.unique(np.concatenate(([u, v], tails)))
    patched_lower = lower.copy()
    patched_lower[rows] = degrees[rows] + (1 if include_self else 0)
    if hops == 1:
        return patched_lower, patched_lower
    back_edge = 0 if csr.directed else 1
    positions, counts = slab_positions(csr, rows)
    level = np.zeros(rows.size, dtype=np.int64)
    if positions.size:
        slots = np.maximum(degrees[csr.indices[positions]] - back_edge, 0)
        filled = counts > 0
        level[filled] = np.add.reduceat(slots, (np.cumsum(counts) - counts)[filled])
    cap = csr.num_nodes if include_self else csr.num_nodes - 1
    patched_upper = upper.copy()
    patched_upper[rows] = _deeper_levels(
        np, patched_lower[rows] + level, level, hops, cap, _branch(np, degrees, csr.directed)
    )
    return patched_upper, patched_lower


class NeighborhoodSizeIndex:
    """Per-node ``N(v)`` table with sound upper/lower views.

    Four construction modes:

    * :meth:`exact` — offline BFS index (used by LONA-Forward, whose offline
      pass already exists for the differential index).
    * :meth:`estimated` — index-free degree-based bounds (used by
      LONA-Backward when run without any precomputation), from the
      adjacency lists.
    * :meth:`estimated_from_csr` — the same bounds from a numpy CSR view.
    * the constructor — from explicit tables: sequences of ints, or numpy
      int64 arrays, which are kept as given and handed back by
      :meth:`upper_values` / :meth:`lower_values` without a copy.

    The query-time contract is:

    * ``upper(v)`` is always ``>= N(v)``,
    * ``lower(v)`` is always ``<= N(v)``,
    * when exact, both equal ``N(v)``.
    """

    __slots__ = (
        "_upper_values",
        "_lower_values",
        "_upper",
        "_lower",
        "_exact",
        "hops",
        "include_self",
    )

    def __init__(
        self,
        upper: Sequence[int],
        lower: Sequence[int],
        *,
        hops: int,
        include_self: bool = True,
        exact: bool = False,
    ) -> None:
        if len(upper) != len(lower):
            raise InvalidParameterError(
                f"upper/lower length mismatch: {len(upper)} vs {len(lower)}"
            )
        from_arrays = hasattr(upper, "tolist") and hasattr(lower, "tolist")
        if from_arrays:
            bad = (lower > upper).nonzero()[0]  # type: ignore[operator]
        else:
            upper, lower = list(upper), list(lower)
            bad = [i for i, (ub, lb) in enumerate(zip(upper, lower)) if lb > ub]
        if len(bad):
            at = int(bad[0])
            raise InvalidParameterError(
                f"lower estimate {lower[at]} exceeds upper estimate {upper[at]}"
            )
        self._upper_values = upper
        self._lower_values = lower
        # Per-node reads serve plain ints (the python backend's bounds
        # arithmetic); array tables convert on the first such read.
        self._upper: Optional[List[int]] = None if from_arrays else upper
        self._lower: Optional[List[int]] = None if from_arrays else lower
        self._exact = exact
        self.hops = hops
        self.include_self = include_self

    @classmethod
    def exact(
        cls,
        graph: Graph,
        hops: int,
        *,
        include_self: bool = True,
        counter: Optional[TraversalCounter] = None,
    ) -> "NeighborhoodSizeIndex":
        """Build the exact index by BFS (offline pass)."""
        sizes = exact_sizes(graph, hops, include_self=include_self, counter=counter)
        return cls(sizes, sizes, hops=hops, include_self=include_self, exact=True)

    @classmethod
    def estimated(
        cls, graph: Graph, hops: int, *, include_self: bool = True
    ) -> "NeighborhoodSizeIndex":
        """Build index-free degree-based estimates (no BFS)."""
        return cls(
            upper_estimate(graph, hops, include_self=include_self),
            lower_estimate(graph, hops, include_self=include_self),
            hops=hops,
            include_self=include_self,
            exact=False,
        )

    @classmethod
    def estimated_from_csr(
        cls, csr: Any, hops: int, *, include_self: bool = True
    ) -> "NeighborhoodSizeIndex":
        """:meth:`estimated`, entry for entry, from a numpy CSR view."""
        upper, lower = csr_estimates(csr, hops, include_self=include_self)
        return cls._read_only(upper, lower, hops, include_self)

    def patched_from_csr(self, old_csr: Any, csr: Any, u: int, v: int) -> "NeighborhoodSizeIndex":
        """:meth:`estimated_from_csr` of ``csr``, from this estimate of
        ``old_csr`` one edge write ``(u, v)`` earlier (:func:`patch_csr_estimates`)."""
        upper, lower = patch_csr_estimates(
            self._upper_values, self._lower_values, old_csr, csr, u, v, self.hops,
            include_self=self.include_self,
        )
        return self._read_only(upper, lower, self.hops, self.include_self)

    @classmethod
    def _read_only(cls, upper: Any, lower: Any, hops: int, include_self: bool):
        for table in (upper, lower):  # shared by every query of a version
            table.setflags(write=False)
        return cls(upper, lower, hops=hops, include_self=include_self, exact=False)

    @property
    def is_exact(self) -> bool:
        """Whether upper and lower coincide with the true ``N``."""
        return self._exact

    def __len__(self) -> int:
        return len(self._upper_values)

    def upper(self, node: int) -> int:
        """Sound upper bound on ``N(node)``."""
        if self._upper is None:
            self._upper = self._upper_values.tolist()  # type: ignore[attr-defined]
        return self._upper[node]

    def upper_values(self) -> Sequence[int]:
        """The whole upper-bound table (read-only; for bulk/vectorized use):
        the list or int64 array the index was built from."""
        return self._upper_values

    def lower_values(self) -> Sequence[int]:
        """The whole lower-bound table (read-only; for bulk/vectorized use)."""
        return self._lower_values

    def lower(self, node: int) -> int:
        """Sound lower bound on ``N(node)``."""
        if self._lower is None:
            self._lower = self._lower_values.tolist()  # type: ignore[attr-defined]
        return self._lower[node]

    def value(self, node: int) -> int:
        """Exact ``N(node)``; raises unless :attr:`is_exact`."""
        if not self._exact:
            raise InvalidParameterError(
                "exact N requested from an estimated NeighborhoodSizeIndex"
            )
        return self.upper(node)
