"""The differential index (Sec. III of the paper).

For every arc ``u -> v`` the index stores

    ``delta(v - u) = |S_h(v) \\ S_h(u)|``

the number of nodes in ``v``'s h-hop ball that are *not* in ``u``'s.  After a
forward evaluation of ``u`` has produced the exact ``F(u)``, the index gives
the differential upper bound of Eq. 1:

    ``F(v) <= F(u) + delta(v - u)``

because every member of ``S(v) ∩ S(u)`` contributes to ``F(u)`` at least what
it contributes to ``F(v)`` (it contributes exactly ``f(.) <= 1``), and each of
the ``delta(v - u)`` remaining members contributes at most 1.

One format: a flat arc-major delta table aligned with the graph's CSR
(``delta_row(u)[i]`` is the arc to ``graph.neighbors(u)[i]``), the row
offsets it was built on, and the exact ``N(v)`` table, which falls out of the
same pass (a :class:`NeighborhoodSizeIndex`).  Building it is LONA-Forward's
offline step ("needs to be pre-computed and stored"); where numpy imports,
every ball is read through a :class:`~repro.graph.csr.CSRBallIndex` (the
session's, when one is passed: absent balls are expanded and kept while they
fit its cap), and ``delta(v - u)`` is ``N(v)`` minus the members of ``S(v)``
found in a bitmap of ``S(u)`` — one probe per undirected edge,
``|S(u) ∩ S(v)|`` being symmetric.  Without numpy a Python set builder
materializes one ``hop_ball`` set per node; it is also the oracle the array
build is tested against.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional, Sequence

from repro.errors import IndexNotBuiltError, InvalidParameterError
from repro.graph.csr import CSRBallIndex, _run_positions, batched_hop_balls, run_sizes
from repro.graph.graph import Graph
from repro.graph.neighborhood import NeighborhoodSizeIndex
from repro.graph.traversal import TraversalCounter, hop_ball

__all__ = ["DifferentialIndex", "build_differential_index"]

#: Bytes of one membership bitmap: how many rows' balls one probe block marks.
_MARK_BYTES = 1 << 22


class DifferentialIndex:
    """Per-arc ``delta(v-u)`` table plus the exact ball-size index.

    ``deltas[offsets[u] : offsets[u + 1]]`` is ``u``'s row and ``sizes`` the
    exact ``N(v)`` index.  Construct with :func:`build_differential_index`.
    Instances are immutable and tied to the arc layout (``offsets``), the
    :class:`~repro.dynamic.graph.DynamicGraph` ``version`` and the
    ``(hops, include_self)`` they were built for (:meth:`check_compatible`).
    """

    __slots__ = ("deltas", "offsets", "sizes", "hops", "include_self", "version")

    def __init__(
        self,
        deltas: Sequence[int],
        offsets: Sequence[int],
        sizes: Sequence[int],
        *,
        hops: int,
        include_self: bool = True,
        version: Optional[int] = None,
    ) -> None:
        self.deltas = deltas
        self.offsets = offsets
        self.sizes = NeighborhoodSizeIndex(
            sizes, sizes, hops=hops, include_self=include_self, exact=True
        )
        self.hops = hops
        self.include_self = include_self
        self.version = version

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def delta_row(self, u: int) -> List[int]:
        """Deltas for all of ``u``'s out-arcs, parallel to ``neighbors(u)``,
        as Python ints (the python backend's bounds arithmetic)."""
        return self.deltas[self.offsets[u] : self.offsets[u + 1]].tolist()

    def delta(self, graph: Graph, u: int, v: int) -> int:
        """``delta(v - u)`` for the arc ``u -> v`` (linear scan of the row)."""
        nbrs = list(graph.neighbors(u))
        if v not in nbrs:
            raise IndexNotBuiltError(
                f"arc ({u}, {v}) is not in the graph the index was built on"
            )
        return self.delta_row(u)[nbrs.index(v)]

    def check_compatible(self, graph: Graph, hops: int, include_self: bool) -> None:
        """Raise unless the index matches the query's graph and parameters:
        node count, ``h``, ball convention, graph version and arc layout."""
        if len(self) != graph.num_nodes:
            raise IndexNotBuiltError(
                f"differential index built for {len(self)} nodes, "
                f"graph has {graph.num_nodes}"
            )
        if self.hops != hops:
            raise IndexNotBuiltError(
                f"differential index built for h={self.hops}, query uses h={hops}"
            )
        if self.include_self != include_self:
            raise IndexNotBuiltError(
                "differential index built with include_self="
                f"{self.include_self}, query uses {include_self}"
            )
        version = getattr(graph, "version", None)
        if self.version != version:
            raise IndexNotBuiltError(
                f"differential index built at graph version {self.version}, "
                f"graph is at {version}"
            )
        offsets = self.offsets
        csr = getattr(graph, "_csr", None)
        if csr is not None:  # compare with the CSR the graph already holds
            import numpy as np

            same = np.array_equal(np.asarray(offsets), csr.indptr)
        else:
            same = all(
                offsets[u + 1] - offsets[u] == graph.degree(u) for u in range(len(self))
            )
        if not same:
            raise IndexNotBuiltError("differential index built on another arc layout")


def _run_keys(np, members: Any, starts: Any, sizes: Any, rows: Any, n: int) -> Any:
    """``rows[i] * n + member`` for every member of the run ``i``."""
    return np.repeat(rows * n, sizes) + members[_run_positions(np, starts, sizes)]


def _shared_members(np, balls: Any, src: Any, dst: Any, sizes: Any, counter) -> Any:
    """``|S(src[i]) ∩ S(dst[i])|`` for arcs in ascending ``src`` order, every
    ball read through ``balls`` (absent ones expanded, charged to ``counter``
    and offered to the index), ``N(c)`` into ``sizes[c]`` for each; a block
    of rows marks its balls in one bitmap, probed with ``S(dst)``."""
    csr, hops, closed = balls.csr, balls.hops, balls.include_self
    n = csr.num_nodes

    def expand(block):
        owners, members, edges = batched_hop_balls(csr, block, hops, include_self=closed)
        if counter is not None:
            counter.charge_block(edges, members.size, int(block.size), closed)
        return owners, members

    rows, row_of = np.unique(src, return_inverse=True)
    per = max(1, _MARK_BYTES // max(n, 1))
    cuts = np.append(np.searchsorted(row_of, np.arange(0, rows.size, per)), src.size).tolist()
    common = np.empty(src.size, dtype=np.int64)
    for a, b in zip(cuts[:-1], cuts[1:]):
        block_rows = rows[row_of[a] : row_of[b - 1] + 1]
        centers = np.unique(np.concatenate((block_rows, dst[a:b])))
        owners, members = balls.pairs(centers, expand)
        size = run_sizes(np, owners, centers.size)
        start = np.cumsum(size) - size
        sizes[centers] = size
        at = np.searchsorted(centers, block_rows)
        mark = np.zeros(at.size * n, dtype=bool)
        mark[_run_keys(np, members, start[at], size[at], np.arange(at.size), n)] = True
        at = np.searchsorted(centers, dst[a:b])
        rows_of = row_of[a:b] - row_of[a]
        seen = np.cumsum(mark[_run_keys(np, members, start[at], size[at], rows_of, n)])
        common[a:b] = np.diff(np.r_[0, seen][np.r_[0, np.cumsum(size[at])]])
    return common


def build_differential_index(
    graph: Graph,
    hops: int,
    *,
    include_self: bool = True,
    counter: Optional[TraversalCounter] = None,
    ball_index: Optional[Any] = None,
) -> DifferentialIndex:
    """Precompute ``delta(v-u)`` for every arc and ``N(v)`` for every node.

    Where numpy imports, every ball is read through ``ball_index`` — a
    :class:`~repro.graph.csr.CSRBallIndex` serving ``(graph.csr(), hops,
    include_self)``, such as a session's — or through a fresh unbounded one,
    and only absent balls are expanded (and charged to ``counter``).
    Without numpy the Python set builder runs.  Both give the same integers.
    """
    if hops < 0:
        raise InvalidParameterError(f"hops must be >= 0, got {hops}")
    from repro.core.backends import numpy_available

    if not numpy_available():
        return _set_build(graph, hops, include_self=include_self, counter=counter)
    import numpy as np

    csr = graph.csr()
    if ball_index is None:
        ball_index = CSRBallIndex(csr, hops, include_self=include_self)
    elif not ball_index.serves(csr, hops, include_self):
        raise InvalidParameterError("ball_index does not serve this graph view")
    n = csr.num_nodes
    src = np.repeat(np.arange(n), np.diff(csr.indptr))
    dst = csr.indices.astype(np.intp)
    sizes = np.full(n, int(include_self), dtype=np.int64)  # a ball with no out-arc
    probe = np.arange(src.size) if csr.directed else np.flatnonzero(src <= dst)
    common = _shared_members(np, ball_index, src[probe], dst[probe], sizes, counter)
    deltas = np.empty(src.size, dtype=np.int64)
    deltas[probe] = sizes[dst[probe]] - common
    if not csr.directed:
        # Arc v -> u takes the probe of u -> v: ranks by (src, dst) and by
        # (dst, src) pair every arc with its reverse.
        back = np.empty(src.size, dtype=np.intp)
        back[np.argsort(src * n + dst)] = np.argsort(dst * n + src)
        deltas[back[probe]] = sizes[src[probe]] - common
    return DifferentialIndex(
        deltas, csr.indptr, sizes, hops=hops, include_self=include_self,
        version=getattr(graph, "version", None),
    )


def _set_build(
    graph: Graph,
    hops: int,
    *,
    include_self: bool = True,
    counter: Optional[TraversalCounter] = None,
) -> DifferentialIndex:
    """:func:`build_differential_index` from one ``hop_ball`` set per node,
    counting ``|S(v) \\ S(u)|`` arc by arc."""
    balls = [
        hop_ball(graph, u, hops, include_self=include_self, counter=counter)
        for u in range(graph.num_nodes)
    ]
    deltas = array("q")
    offsets = array("q", [0])
    for u, ball_u in enumerate(balls):
        deltas.extend(sum(1 for w in balls[v] if w not in ball_u) for v in graph.neighbors(u))
        offsets.append(len(deltas))
    sizes = [len(ball) for ball in balls]
    return DifferentialIndex(
        deltas, offsets, sizes, hops=hops, include_self=include_self,
        version=getattr(graph, "version", None),
    )
