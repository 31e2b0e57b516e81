"""Compressed-sparse-row (CSR) export of a :class:`~repro.graph.graph.Graph`.

The adjacency-list loops stay the dependency-free reference implementation,
but the vectorized execution backend (:mod:`repro.core.vectorized`) and other
bulk consumers — the random-walk relevance function, the degree-based
estimates at scale, external analysis — run over this module's flat arrays.
Beyond the plain conversion, it provides the numpy kernels the backend is
built from:

* :func:`neighbor_slab` — gather the concatenated neighbor lists of a whole
  frontier in one vectorized indexing expression (no per-node Python calls);
* :func:`batched_hop_balls` — multi-center frontier-batched expansion, the
  one h-hop expansion every vectorized route evaluates blocks with
  (:func:`csr_hop_ball` is its one-center call);
* :class:`CSRBallIndex` — what a session (or a sharded worker) keeps of the
  balls it expanded: a second CSR, keyed by node, that every read fills and
  reads back, and that an edge write keeps (:func:`edge_write_reach` names
  the balls it forgets).

Everything numpy-flavored imports numpy lazily so the module itself stays
importable on a bare interpreter.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph

__all__ = [
    "CSRGraph",
    "to_csr",
    "patch_csr",
    "append_csr_node",
    "from_csr",
    "degree_array",
    "neighbor_slab",
    "slab_positions",
    "run_sizes",
    "csr_hop_ball",
    "batched_hop_balls",
    "batched_hop_balls_with_distances",
    "CSRBallIndex",
    "edge_write_reach",
    "SharedArray",
    "SharedCSR",
    "AttachedArray",
    "AttachedCSR",
]


@dataclass(frozen=True)
class CSRGraph:
    """A frozen CSR view: ``indices[indptr[u]:indptr[u+1]]`` are u's neighbors.

    ``indptr`` has ``num_nodes + 1`` entries; ``weights`` is either ``None``
    or parallel to ``indices``.  Arrays are ``array('q')``/``array('d')`` by
    default (``'q'`` is a fixed 8-byte int on every platform, unlike ``'l'``
    which is 4 bytes on Windows/ILP32) or numpy arrays when ``use_numpy=True``
    was requested: int64 ``indptr``, int32 ``indices``, float64 ``weights``.
    """

    indptr: Sequence[int]
    indices: Sequence[int]
    weights: Optional[Sequence[float]]
    directed: bool

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (2x edges for undirected graphs)."""
        return len(self.indices)

    def neighbors(self, u: int) -> Sequence[int]:
        """Neighbor slice of node ``u``."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Out-degree of node ``u``."""
        return self.indptr[u + 1] - self.indptr[u]


def to_csr(graph: Graph, *, use_numpy: bool = False) -> CSRGraph:
    """Convert ``graph`` to CSR.

    ``use_numpy=True`` returns numpy arrays (numpy must be importable):
    ``indptr`` int64, ``weights`` float64 and ``indices`` int32 — node ids,
    so every kernel that gathers arcs moves four bytes per arc, not eight.
    The default uses the stdlib ``array`` module.
    The neighbor order of every slice matches ``graph.neighbors(u)`` exactly,
    so per-arc tables built against the adjacency lists (e.g. the
    differential index rows) stay position-aligned with ``indices``.
    """
    indptr = array("q", [0])
    indices = array("q")
    weighted = graph.weighted
    weights = array("d") if weighted else None
    for u in graph.nodes():
        nbrs = graph.neighbors(u)
        indices.extend(nbrs)
        if weights is not None:
            weights.extend(graph.neighbor_weights(u))
        indptr.append(len(indices))
    if use_numpy:
        import numpy as np

        return CSRGraph(
            indptr=np.asarray(indptr, dtype=np.int64),
            indices=np.asarray(indices, dtype=np.int32),
            weights=None if weights is None else np.asarray(weights, dtype=np.float64),
            directed=graph.directed,
        )
    return CSRGraph(
        indptr=indptr, indices=indices, weights=weights, directed=graph.directed
    )


def patch_csr(
    csr: CSRGraph,
    rows: Sequence[int],
    slots: Sequence[int],
    values: Optional[Sequence[int]] = None,
) -> CSRGraph:
    """``csr`` with arcs inserted (``values`` given) or deleted (``None``).

    Arc ``i`` belongs to node ``rows[i]`` and sits at flat position
    ``slots[i]`` of the *unpatched* ``indices``: an insert puts
    ``values[i]`` before that position, a delete drops it.  Arcs are listed
    in ascending ``rows`` order, so two inserts that land on one position
    (the rows between them are empty) keep their rows' order.  Costs one
    ``O(arcs)`` copy of ``indices`` and one ``indptr`` suffix shift per arc,
    both into new arrays of the old dtypes: whoever holds ``csr`` keeps a
    consistent snapshot.  Unweighted numpy views only (what
    :class:`~repro.dynamic.graph.DynamicGraph` owns).
    """
    np = _require_numpy_csr(csr)
    step = -1 if values is None else 1
    indptr = csr.indptr.copy()
    for row in rows:
        indptr[row + 1 :] += step
    if values is None:
        indices = np.delete(csr.indices, slots)
    else:
        indices = np.insert(csr.indices, slots, values)
    return CSRGraph(indptr=indptr, indices=indices, weights=None, directed=csr.directed)


def append_csr_node(csr: CSRGraph) -> CSRGraph:
    """``csr`` plus one isolated trailing node (``indices`` is shared: no
    array of a view is ever written in place)."""
    np = _require_numpy_csr(csr)
    return CSRGraph(
        indptr=np.append(csr.indptr, csr.indptr[-1]),
        indices=csr.indices,
        weights=None,
        directed=csr.directed,
    )


def from_csr(csr: CSRGraph, *, name: str = "") -> Graph:
    """Rebuild an adjacency-list :class:`Graph` from a CSR view."""
    n = csr.num_nodes
    adj: List[List[int]] = []
    weights: Optional[List[List[float]]] = [] if csr.weights is not None else None
    for u in range(n):
        lo, hi = csr.indptr[u], csr.indptr[u + 1]
        adj.append([int(v) for v in csr.indices[lo:hi]])
        if weights is not None:
            assert csr.weights is not None
            weights.append([float(w) for w in csr.weights[lo:hi]])
    return Graph(adj, directed=csr.directed, weights=weights, name=name)


def degree_array(graph: Graph) -> Any:
    """All node degrees as a numpy int64 array — the width of ``indptr``;
    only ``indices`` is stored narrow (numpy required)."""
    import numpy as np

    return np.fromiter(
        (graph.degree(u) for u in graph.nodes()), dtype=np.int64, count=graph.num_nodes
    )


# ---------------------------------------------------------------------------
# Vectorized expansion kernels (numpy-backed CSRGraph required)
# ---------------------------------------------------------------------------
def _require_numpy_csr(csr: CSRGraph):
    import numpy as np

    if not isinstance(csr.indptr, np.ndarray):  # pragma: no cover - misuse guard
        raise TypeError(
            "this operation needs a numpy-backed CSRGraph; "
            "build it with to_csr(graph, use_numpy=True)"
        )
    return np


def neighbor_slab(csr: CSRGraph, frontier: Any) -> Tuple[Any, Any]:
    """Concatenated neighbors of every node in ``frontier``, one gather.

    Returns ``(neighbors, counts)`` where ``neighbors`` is the concatenation
    of each frontier node's neighbor slice (frontier order preserved) and
    ``counts[i]`` is the degree of ``frontier[i]``.  The gather is a single
    fancy-indexing expression — no per-node Python iteration — which is what
    makes frontier-batched BFS levels cheap.
    """
    positions, counts = slab_positions(csr, frontier)
    return csr.indices[positions], counts


def slab_positions(csr: CSRGraph, frontier: Any) -> Tuple[Any, Any]:
    """Flat positions into ``indices`` covering every frontier node's slab.

    ``indices[positions]`` are the concatenated neighbor slices; the same
    positions index any arc-aligned side table (edge weights, the
    differential index's flat deltas), which is how the vectorized backend
    gathers ``delta(v-u)`` together with the neighbors.
    """
    np = _require_numpy_csr(csr)
    indptr = csr.indptr
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, counts
    # Position j of the output belongs to frontier node i where j falls in
    # i's slab; shift each slab's arange to its start in one repeat.
    shifts = np.cumsum(counts) - counts
    positions = np.arange(total, dtype=np.int64) + np.repeat(starts - shifts, counts)
    return positions, counts


def _key_layout(np, num_nodes: int, count: int) -> Tuple[int, Any]:
    """``(shift, dtype)`` of the ``owner << shift | node`` keys of ``count``
    balls: ``shift`` is the bit width of a node id, the dtype int32 whenever
    every key fits 31 bits (sort, unique and concatenate then move half the
    bytes) and int64 otherwise."""
    shift = (num_nodes - 1).bit_length()
    return shift, np.int32 if (count << shift) < 2**31 else np.int64


def _expand_key_levels(np, csr: CSRGraph, centers: Any, hops: int) -> Tuple[List[Any], int, int]:
    """BFS levels of many balls as ``owner << shift | node`` keys
    (:func:`_key_layout`); returns ``(levels, shift, edges gathered)``.

    ``levels[d]`` holds the keys first reached at distance ``d``: sorted,
    duplicate-free and disjoint from every earlier level.  Dedup is by
    sorting the keys and a ``searchsorted`` set-difference against each
    earlier (sorted) level, so the working set is what the balls hold, never
    ``len(centers) * num_nodes``.  The one exception is the last level of a
    full ``hops``-deep expansion: nothing expands from it, so it is the raw
    gather — repeats and already-seen keys included — and the caller's final
    sort+dedup absorbs them.  Only what indexes is widened: an int32 index
    array costs numpy a hidden cast on every gather, so the frontier's node
    ids go to intp before ``indptr`` sees them and the slab positions stay
    intp; the keys themselves never leave their own width.
    """
    shift, dtype = _key_layout(np, csr.num_nodes, centers.size)
    mask = (1 << shift) - 1
    frontier = (np.arange(centers.size, dtype=dtype) << shift) | centers.astype(dtype)
    levels = [frontier]
    edges = 0
    for level in range(hops):
        nodes = frontier & mask
        neighbors, counts = neighbor_slab(csr, nodes.astype(np.intp, copy=False))
        if neighbors.size == 0:
            break
        edges += int(neighbors.size)
        keys = np.repeat(frontier - nodes, counts)
        keys |= neighbors
        if level == hops - 1:
            levels.append(keys)
            break
        fresh = _sorted_unique(np, keys)
        for seen in levels:
            slots = np.searchsorted(seen, fresh)
            fresh = fresh[seen.take(slots, mode="clip") != fresh]
        if fresh.size == 0:
            break
        levels.append(fresh)
        frontier = fresh
    return levels, shift, edges


def _merge_key_levels(np, levels: List[Any]) -> Any:
    """All levels' keys, sorted ascending and duplicate-free."""
    if len(levels) == 1:
        return levels[0]
    return _sorted_unique(np, np.concatenate(levels))


def _split_keys(np, keys: Any, shift: int) -> Tuple[Any, Any]:
    """``(owners, members)`` of ``keys`` as intp index arrays.  Shift and
    mask run in the keys' own width (a third of their int64 cost on 32-bit
    keys); only the two results are widened."""
    owners, members = keys >> shift, keys & ((1 << shift) - 1)
    return owners.astype(np.intp, copy=False), members.astype(np.intp, copy=False)


def batched_hop_balls(
    csr: CSRGraph, centers: Any, hops: int, *, include_self: bool = True
) -> Tuple[Any, Any, int]:
    """Expand the h-hop balls of many centers in one frontier-batched sweep.

    Returns ``(owners, members, edges_scanned)``: parallel intp arrays
    listing every (ball, member) pair — ``members[i]`` belongs to the ball
    of ``centers[owners[i]]`` — sorted by ``(owner, member)``, plus the
    number of adjacency entries gathered.  Per-center aggregates then reduce
    with ``np.bincount(owners, ...)``.

    Membership pairs are encoded as ``owner << shift | node`` keys, 32-bit
    whenever the block allows (:func:`_key_layout`), and deduped by sorting
    (:func:`_expand_key_levels`); one final sort merges the levels into the
    canonical ``(owner, member)`` order while squeezing out the last level's
    repeats.  Memory and time scale with the pairs produced, not with
    ``len(centers) * num_nodes``.
    """
    np = _require_numpy_csr(csr)
    if centers.size == 0 or csr.num_nodes == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    levels, shift, edges = _expand_key_levels(np, csr, centers, hops)
    owners, members = _split_keys(np, _merge_key_levels(np, levels), shift)
    if not include_self:
        keep = members != centers[owners]
        owners = owners[keep]
        members = members[keep]
    return owners, members, edges


def csr_hop_ball(
    csr: CSRGraph,
    center: int,
    hops: int,
    *,
    include_self: bool = True,
) -> Any:
    """``S_h(center)`` as a sorted intp array: the one-center
    :func:`batched_hop_balls` call (no ``num_nodes``-sized buffer)."""
    np = _require_numpy_csr(csr)
    _owners, members, _edges = batched_hop_balls(
        csr, np.array([center], dtype=np.int64), hops, include_self=include_self
    )
    return members


def batched_hop_balls_with_distances(
    csr: CSRGraph, centers: Any, hops: int, *, include_self: bool = True
) -> Tuple[Any, Any, Any, int]:
    """:func:`batched_hop_balls` plus each member's hop distance to its center.

    Returns ``(owners, members, dists, edges_scanned)`` where ``dists[i]``
    is the BFS hop distance from ``centers[owners[i]]`` to ``members[i]``
    (0 for the center itself).  Distance-weighted aggregation multiplies a
    decay profile over ``dists`` before reducing with ``np.bincount`` —
    same canonical ``(owner, member)`` order as the unweighted kernel.

    Distances are exact shortest hop counts: every level but the last holds
    exactly the keys first reached there, so those keys are labelled by a
    ``searchsorted`` into the merged output, and whatever remains was first
    reached at the last level.
    """
    np = _require_numpy_csr(csr)
    if centers.size == 0 or csr.num_nodes == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, 0
    levels, shift, edges = _expand_key_levels(np, csr, centers, hops)
    keys = _merge_key_levels(np, levels)
    dists = np.full(keys.size, len(levels) - 1, dtype=np.int64)
    for dist, level_keys in enumerate(levels[:-1]):
        dists[np.searchsorted(keys, level_keys)] = dist
    owners, members = _split_keys(np, keys, shift)
    if not include_self:
        keep = members != centers[owners]
        owners = owners[keep]
        members = members[keep]
        dists = dists[keep]
    return owners, members, dists, edges


def _sorted_unique(np, keys: Any) -> Any:
    """Sort ``keys`` in place and drop duplicates (cheaper than np.unique's
    hashing); both callers own the array they pass."""
    if keys.size <= 1:
        return keys
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _run_positions(np, starts: Any, sizes: Any) -> Any:
    """Flat positions of the runs ``starts[i] : starts[i] + sizes[i]``,
    concatenated (one ``repeat``, no per-run Python call)."""
    ends = np.cumsum(sizes)
    if ends.size == 0:
        return np.empty(0, dtype=np.intp)
    return np.repeat(starts - (ends - sizes), sizes) + np.arange(ends[-1])


def run_sizes(np, owners: Any, count: int) -> Any:
    """Pairs per owner ``0 .. count - 1`` of an owner array sorted ascending
    (every ball kernel's output): one ``searchsorted`` of the run bounds,
    several times cheaper than ``bincount``'s scatter over every pair."""
    return np.diff(np.searchsorted(owners, np.arange(count + 1)))


#: Bits of a member each stored pair keeps (``uint16``); the rest, its high
#: part, is kept once per ball and high value (:func:`_high_runs`).
_LOW_BITS = 16


def _high_runs(np, members: Any, offsets: Any, sizes: Any) -> Tuple[Any, Any, Any]:
    """``(highs, spans, counts)`` of a block's sorted runs: ball ``i``'s
    members have high parts (``member >> 16``) from ``highs[i]`` to
    ``highs[i] + spans[i] - 1`` (``spans[i]`` is 0 for an empty ball), and
    ``counts`` holds, ball after ball, how many members have each of those
    values — 0 for one a ball skips."""
    high = members >> _LOW_BITS
    highs = np.zeros(sizes.size, dtype=np.intp)
    spans = np.zeros(sizes.size, dtype=np.intp)
    held = np.flatnonzero(sizes)
    highs[held] = high[offsets[held]]
    spans[held] = high[offsets[held] + sizes[held] - 1] - highs[held] + 1
    # Each pair's slot in the flat table: its ball's first slot plus how far
    # its high part is past the ball's first (ascending, as the pairs are).
    high += np.repeat(np.cumsum(spans) - spans - highs, sizes)
    return highs, spans, run_sizes(np, high, int(spans.sum()))


def _gather(np, buffers, starts: Any, sizes: Any) -> List[Any]:
    """The runs ``starts[i] : starts[i] + sizes[i]`` of each buffer,
    concatenated: a slice when they are adjacent (a re-read in the order
    that filled them), one gather of positions otherwise."""
    if (starts[1:] == starts[:-1] + sizes[:-1]).all():
        lo, hi = int(starts[0]), int(starts[-1] + sizes[-1])
        return [buffer[lo:hi] for buffer in buffers]
    positions = _run_positions(np, starts, sizes)
    return [buffer[positions] for buffer in buffers]


def _packed(np, buffers, starts: Any, sizes: Any) -> List[Any]:
    """Fresh buffers of ``buffers``' capacities holding those runs, in order,
    from the front (a ``None`` buffer stays ``None``)."""
    positions = _run_positions(np, starts, sizes)
    packed = []
    for buffer in buffers:
        if buffer is not None:
            fresh = np.empty(buffer.size, dtype=buffer.dtype)
            fresh[: positions.size] = buffer[positions]
            buffer = fresh
        packed.append(buffer)
    return packed


def _regrown(np, buffer: Any, room: int, keep: int) -> Any:
    """A ``room``-long buffer of ``buffer``'s dtype holding its first ``keep``."""
    grown = np.empty(room, dtype=buffer.dtype)
    grown[:keep] = buffer[:keep]
    return grown


def _merge_blocks(np, present: Any, kept: Tuple[Any, ...], fresh: Tuple[Any, ...]):
    """One block's pair arrays from two parts: ``kept`` holds the balls of
    the ``present`` centers, ``fresh`` those of the rest, each with owners
    numbered within its part.  Owners come out in block order and every run
    keeps its ascending members, so the result is what expanding the whole
    block returns."""
    hit_at, miss_at = np.flatnonzero(present), np.flatnonzero(~present)
    sizes = np.empty(present.size, dtype=np.intp)
    sizes[hit_at] = run_sizes(np, kept[0], hit_at.size)
    sizes[miss_at] = run_sizes(np, fresh[0], miss_at.size)
    starts = np.cumsum(sizes) - sizes
    hit_pos = _run_positions(np, starts[hit_at], sizes[hit_at])
    miss_pos = _run_positions(np, starts[miss_at], sizes[miss_at])
    merged = [np.repeat(np.arange(present.size), sizes)]
    for old, new in zip(kept[1:], fresh[1:]):
        column = np.empty(old.size + new.size, dtype=np.intp)
        column[hit_pos] = old
        column[miss_pos] = new
        merged.append(column)
    return tuple(merged)


class CSRBallIndex:
    """Balls of one ``(csr, h, ball)`` triple kept as pairs, keyed by node.

    ``S_h(v)`` is kept, for every ``v`` whose ball is present
    (``start[v] >= 0``), as a run ``low[start[v] : start[v] + size[v]]``
    holding the low 16 bits (``uint16``, 2 bytes a pair) of its members in
    the canonical ascending order — the pairs :func:`batched_hop_balls`
    returns — plus its high parts (``member >> 16``) as runs: the first
    one, ``high[v]``, and one int32 count a value from there to the last,
    ``counts[rstart[v] : rstart[v] + span[v]]`` (0 for a value the ball
    skips; the 100k bench graph's balls span at most two).  Members ascend,
    so a block of runs decodes without a prefix sum: one ``repeat`` of the
    high values shifted left by 16 over their counts, then one in-place add
    of the low slice.

    It is the one ball structure of a session: scans, LONA-Backward's
    verification and the fused batch all read their blocks through
    :meth:`pairs`, which gathers the present balls, has the caller expand
    only the absent ones, appends those (:meth:`extend`) and merges both
    parts back in block order — so whatever reduces the arrays gets the bits
    a full expansion would give, and the caller charges traversal work for
    the absent balls alone.  Balls are appended while their pairs and runs
    fit ``max_bytes`` (``None`` = unbounded); nothing is evicted or
    rewritten and the first ball that does not fit closes the index, so a
    read stream that cycles over more balls than fit re-reads the same ones
    every time instead of thrashing.

    Hop labels (footnote 1's weighted reads): the first weighted read
    allocates ``dists`` beside ``low`` (``np.min_scalar_type(hops)``, one
    byte a pair, counted against the same cap) and a per-node labelled flag.
    A weighted read then gathers labelled balls, appends absent ones with
    their labels, and labels a ball an unweighted read stored without them in
    place (expanded once more, with distances).  A session that never reads
    weighted allocates neither.

    An edge write keeps the index (:meth:`forget`): it drops only the balls
    the write can have changed and rebinds to the patched CSR.  Their pairs
    and runs stay behind as garbage until it outweighs the live ones; the
    same call then compacts the live balls into fresh buffers and reopens a
    closed index, so resident bytes stay at most twice the live ones.

    Thread-safe: appends and lookups take one lock, a present ball's pairs,
    runs and first high value and a labelled ball's labels never change, and
    a grown or compacted buffer leaves earlier readers on the old one.
    Forgetting is a write: its caller excludes readers of the old CSR (the
    session's write guard).
    """

    __slots__ = (
        "csr", "hops", "include_self", "max_bytes",
        "covered", "served", "appended", "hits", "misses",
        "_start", "_size", "_rstart", "_span", "_high", "_used", "_live",
        "_runs_used", "_runs_live", "_full", "_low", "_counts", "_dists",
        "_labelled", "_np", "_lock",
    )

    def __init__(
        self,
        csr: CSRGraph,
        hops: int,
        *,
        include_self: bool = True,
        max_bytes: Optional[int] = None,
    ) -> None:
        np = _require_numpy_csr(csr)
        self.csr = csr
        self.hops = hops
        self.include_self = include_self
        self.max_bytes = max_bytes
        self.covered = 0  # balls present
        self.served = 0  # blocks that read at least one ball back
        self.appended = 0  # blocks that appended at least one ball
        self.hits = 0  # balls read back
        self.misses = 0  # balls the caller had to expand
        self._start = np.full(csr.num_nodes, -1, dtype=np.int64)
        self._size = np.zeros(csr.num_nodes, dtype=np.int64)
        self._rstart = np.zeros(csr.num_nodes, dtype=np.int64)  # first count
        self._span = np.zeros(csr.num_nodes, dtype=np.int32)  # counts held
        self._high = np.zeros(csr.num_nodes, dtype=np.int32)  # first high part
        self._used = 0  # pairs stored, garbage included
        self._live = 0  # pairs of present balls
        self._runs_used = 0  # counts stored, garbage included
        self._runs_live = 0  # counts of present balls
        self._full = False  # a ball did not fit: nothing more is taken
        self._low = np.empty(0, dtype=np.uint16)
        self._counts = np.empty(0, dtype=np.int32)
        self._dists = None  # hop labels, from the first weighted read on
        self._labelled = None
        self._np = np
        self._lock = threading.Lock()

    def serves(self, csr: CSRGraph, hops: int, include_self: bool) -> bool:
        """Whether this index was built for exactly that view of the graph."""
        return (
            self.csr is csr
            and self.hops == hops
            and self.include_self == include_self
        )

    def _pair_bytes(self) -> int:
        return 2 + (0 if self._dists is None else self._dists.itemsize)

    def _bytes(self, live: bool = False) -> int:
        """Bytes the cap counts: pairs (and labels) and runs, stored or live."""
        pairs, runs = (self._live, self._runs_live) if live else (self._used, self._runs_used)
        return self._pair_bytes() * pairs + 4 * runs

    def stats(self) -> dict:
        """Balls present, live pairs and high runs, resident bytes (pairs,
        labels and runs), the cap, blocks served/appended, and balls read
        back (``hits``) or expanded (``misses``)."""
        with self._lock:
            return {
                "covered": self.covered,
                "pairs": self._live,
                "runs": self._runs_live,
                "bytes": self._bytes(),
                "max_bytes": self.max_bytes,
                "served": self.served,
                "appended": self.appended,
                "hits": self.hits,
                "misses": self.misses,
            }

    def _runs(self, buffers, counts, starts, sizes, rstarts, spans, highs) -> Tuple[Any, ...]:
        """``(owners, members, *labels)`` of the runs at ``starts``, widened
        to intp: each member is its run's high value shifted left by 16 (one
        ``repeat`` over the counts) plus its low 16 bits."""
        np = self._np
        low, *labels = _gather(np, buffers, starts, sizes)
        (counts,) = _gather(np, (counts,), rstarts, spans)
        members = np.repeat(_run_positions(np, highs, spans) << _LOW_BITS, counts)
        members += low
        owners = np.repeat(np.arange(starts.size), sizes)
        return (owners, members, *(label.astype(np.intp) for label in labels))

    def pairs(self, centers: Any, expand=None, labels: bool = False):
        """The ``centers`` balls as :func:`batched_hop_balls` returns them:
        ``(owners, members)``, or with ``labels`` ``(owners, members,
        dists)`` as :func:`batched_hop_balls_with_distances` does.

        Present balls (labelled ones, with ``labels``) are gathered;
        ``expand(absent)`` returns the other centers' arrays in the same
        layout, which are offered to :meth:`extend` and merged back in block
        order.  Without ``expand`` a set with an absent ball gives ``None``.
        """
        np = self._np
        with self._lock:
            starts, sizes = self._start[centers], self._size[centers]
            present = starts >= 0
            if labels:
                if self._labelled is None:
                    present[:] = False
                else:
                    present &= self._labelled[centers]
            hits = int(np.count_nonzero(present))
            self.hits += hits
            self.misses += int(centers.size) - hits
            if hits:
                self.served += 1
            buffers = (self._low, self._dists) if labels else (self._low,)
            counts = self._counts
            where = (
                starts, sizes, self._rstart[centers], self._span[centers], self._high[centers]
            )
        if hits and hits == centers.size:
            return self._runs(buffers, counts, *where)
        if expand is None:
            return None
        absent = centers[~present]
        fresh = expand(absent)
        self.extend(absent, *fresh)
        if not hits:
            return fresh
        kept = self._runs(buffers, counts, *(column[present] for column in where))
        return _merge_blocks(np, present, kept, fresh)

    def _labels_fit(self) -> bool:
        """Allocate the hop labels on first use, if every pair stored so far
        still fits the cap with its label (lock held)."""
        if self._dists is not None:
            return True
        np = self._np
        dtype = np.min_scalar_type(self.hops)
        per_pair = 2 + dtype.itemsize
        if (
            self.max_bytes is not None
            and per_pair * self._used + 4 * self._runs_used > self.max_bytes
        ):
            return False
        room = self._low.size if self.max_bytes is None else self.max_bytes // per_pair
        self._dists = np.empty(room, dtype=dtype)
        self._labelled = np.zeros(self.csr.num_nodes, dtype=bool)
        return True

    def extend(self, centers: Any, owners: Any, members: Any, dists: Any = None) -> None:
        """Keep the balls of a freshly expanded block that are not present
        yet, in ascending center order, for as long as they fit the cap.
        With ``dists`` (their hop labels) they are kept labelled, and a
        present ball without labels takes them in place."""
        np = self._np
        if centers.size == 0 or (self._full and dists is None):
            return
        sizes = run_sizes(np, owners, centers.size)
        offsets = np.cumsum(sizes) - sizes
        # First occurrence of every center: a repeated one is stored once.
        first = np.unique(centers, return_index=True)[1]
        # Encoded outside the lock, so racing fills serialize only the copy;
        # a closed index (it only labels from now on) keeps no new ball.
        if self._full:
            low = highs = spans = counts = None
        else:
            low = members.astype(np.uint16)
            highs, spans, counts = _high_runs(np, members, offsets, sizes)
        with self._lock:
            stored = self._start[centers[first]] >= 0
            if dists is not None and self._labels_fit():
                bare = first[stored & ~self._labelled[centers[first]]]
                if bare.size:
                    runs = _run_positions(np, self._start[centers[bare]], sizes[bare])
                    self._dists[runs] = dists[_run_positions(np, offsets[bare], sizes[bare])]
                    self._labelled[centers[bare]] = True
            else:
                dists = None
            fresh = first[~stored]
            if self._full or fresh.size == 0:
                return
            kept, spanned = sizes[fresh], spans[fresh]
            if self.max_bytes is not None:
                cost = self._pair_bytes() * kept + 4 * spanned
                fits = np.cumsum(cost) <= self.max_bytes - self._bytes()
                self._full = not fits.all()
                fresh, kept, spanned = fresh[fits], kept[fits], spanned[fits]
                if fresh.size == 0:
                    return
            if fresh.size < centers.size or (fresh[1:] < fresh[:-1]).any():
                positions = _run_positions(np, offsets[fresh], kept)
                low = low[positions]
                if dists is not None:
                    dists = dists[positions]
                counts = counts[_run_positions(np, (np.cumsum(spans) - spans)[fresh], spanned)]
            start, rstart = self._used, self._runs_used
            stop, rstop = start + int(low.size), rstart + int(counts.size)
            if stop > self._low.size:
                # A capped index reserves its cap once (untouched pages cost
                # nothing, and no big buffer is ever freed mid-session); an
                # unbounded one doubles, its labels with it.
                room = max(stop, 2 * int(self._low.size))
                capped = self.max_bytes is not None
                self._low = _regrown(
                    np, self._low, self.max_bytes // 2 if capped else room, start
                )
                if self._dists is not None and not capped:
                    self._dists = _regrown(np, self._dists, room, start)
            if rstop > self._counts.size:  # small: it doubles either way
                room = max(rstop, 2 * int(self._counts.size))
                self._counts = _regrown(np, self._counts, room, rstart)
            self._low[start:stop] = low
            self._counts[rstart:rstop] = counts
            if dists is not None:
                self._dists[start:stop] = dists
                self._labelled[centers[fresh]] = True
            nodes = centers[fresh]
            self._size[nodes] = kept
            self._start[nodes] = start + np.cumsum(kept) - kept
            self._span[nodes] = spanned
            self._rstart[nodes] = rstart + np.cumsum(spanned) - spanned
            self._high[nodes] = highs[fresh]
            self._used, self._runs_used = stop, rstop
            self._live += int(low.size)
            self._runs_live += int(counts.size)
            self.covered += int(fresh.size)
            self.appended += 1

    def forget(self, nodes: Any, csr: CSRGraph) -> None:
        """Drop the balls of ``nodes`` and serve ``csr`` from now on.

        What an edge write does to the index: ``nodes`` are the centers
        whose balls it can have changed (:func:`edge_write_reach`), every
        other ball is the same over ``csr``, which must have the node count
        of the old view.  Pairs and runs are compacted once the garbage
        outweighs the live bytes.
        """
        np = self._np
        with self._lock:
            nodes = nodes[self._start[nodes] >= 0]
            self._start[nodes] = -1
            self._live -= int(self._size[nodes].sum())
            self._runs_live -= int(self._span[nodes].sum())
            self.covered -= int(nodes.size)
            if self._labelled is not None:
                self._labelled[nodes] = False
            self.csr = csr
            if self._bytes() > 2 * self._bytes(live=True):
                self._compact(np)

    def _compact(self, np) -> None:
        """Move the live pairs and runs, in buffer order, to the front of
        fresh buffers of the old capacities and reopen the index (lock
        held); first high values are per node and stay as they are."""
        held = np.flatnonzero(self._start >= 0)
        held = held[np.argsort(self._start[held], kind="stable")]
        sizes, spans = self._size[held], self._span[held]
        self._low, self._dists = _packed(np, (self._low, self._dists), self._start[held], sizes)
        (self._counts,) = _packed(np, (self._counts,), self._rstart[held], spans)
        self._start[held] = np.cumsum(sizes) - sizes
        self._rstart[held] = np.cumsum(spans) - spans
        self._used, self._runs_used = self._live, self._runs_live
        self._full = False


def edge_write_reach(view: CSRGraph, u: int, v: int, hops: int) -> Any:
    """The nodes whose ``hops``-hop ball an edge write ``(u, v)`` can change.

    A path that gains or loses the arc reaches an endpoint first, so only
    the balls of nodes within ``hops - 1`` hops of one can change: one
    :func:`batched_hop_balls` call over ``view``.  On a directed graph balls
    are out-balls and only the nodes that reach ``u`` can cross ``u -> v``,
    so ``view`` is then the reverse CSR and ``u`` the one center.  The arc
    itself never shortens a hop distance to an endpoint, so the reach is
    the same with or without it: ``view`` may be taken after the write.
    """
    np = _require_numpy_csr(view)
    if hops <= 0:
        return np.empty(0, dtype=np.intp)
    centers = np.array([u] if view.directed else [u, v], dtype=np.int64)
    _owners, members, _edges = batched_hop_balls(view, centers, hops - 1)
    return np.unique(members)


# ---------------------------------------------------------------------------
# Shared-memory export/attach (the process-parallel backend's substrate)
# ---------------------------------------------------------------------------
#: Stamp value an owner writes to tell attached workers their view is dead.
STALE_STAMP = -1


class SharedArray:
    """Owner handle of one numpy array exported via ``shared_memory``.

    ``create`` copies an array into a fresh named segment; :meth:`meta`
    returns the picklable ``{"name", "dtype", "shape"}`` descriptor another
    process hands to :class:`AttachedArray`.  The owner's :meth:`array`
    view stays writable (version stamps are updated through it).  The
    owner — and only the owner — calls :meth:`unlink` when the export dies;
    attached readers merely close.
    """

    __slots__ = ("_shm", "_array", "_meta")

    def __init__(self, shm, array, meta: dict) -> None:
        self._shm = shm
        self._array = array
        self._meta = meta

    @classmethod
    def create(cls, array) -> "SharedArray":
        """Export ``array`` (any numpy array) into a new shared segment."""
        import numpy as np
        from multiprocessing import shared_memory

        source = np.ascontiguousarray(array)
        # A zero-byte segment is invalid; keep 1 byte and record the true
        # shape so the attached view is still empty.
        shm = shared_memory.SharedMemory(create=True, size=max(source.nbytes, 1))
        view = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
        view[...] = source
        meta = {
            "name": shm.name,
            "dtype": source.dtype.str,
            "shape": tuple(int(d) for d in source.shape),
        }
        return cls(shm, view, meta)

    @property
    def array(self):
        """The owner's live view of the shared buffer."""
        return self._array

    def meta(self) -> dict:
        """Picklable descriptor for :meth:`AttachedArray.attach`."""
        return dict(self._meta)

    def close(self) -> None:
        """Unmap the owner's view (the segment itself survives)."""
        self._array = None
        self._shm.close()

    def unlink(self) -> None:
        """Free the segment (owner only; attached views die with their maps)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double-unlink race
            pass


class AttachedArray:
    """Worker-side view of a :class:`SharedArray` export.

    Keeps the ``SharedMemory`` handle alive exactly as long as the numpy
    view is in use; :meth:`close` unmaps.  Never unlinks — the exporting
    process owns the segment's lifetime.
    """

    __slots__ = ("_shm", "array")

    def __init__(self, shm, array) -> None:
        self._shm = shm
        self.array = array

    @classmethod
    def attach(cls, meta: dict) -> "AttachedArray":
        """Map an exported segment read-write by its descriptor."""
        import numpy as np
        from multiprocessing import shared_memory

        # Attaching registers with the resource tracker just like creating
        # does (pre-3.13 there is no ``track=False``).  Worker processes are
        # always spawn children sharing the owner's tracker, where the
        # registration set dedups, so the owner's single ``unlink`` remains
        # the one cleanup point — no attach-side unregister needed (an
        # unregister here would race the owner's and make the tracker warn).
        shm = shared_memory.SharedMemory(name=meta["name"])
        array = np.ndarray(
            tuple(meta["shape"]), dtype=np.dtype(meta["dtype"]), buffer=shm.buf
        )
        return cls(shm, array)

    def close(self) -> None:
        self.array = None
        self._shm.close()


class SharedCSR:
    """Zero-copy export of a numpy :class:`CSRGraph` plus a version stamp.

    The owner process exports the flat CSR arrays once; every worker
    process attaches the same physical pages (:class:`AttachedCSR`), so a
    graph of any size costs one resident copy no matter how many workers
    expand balls over it.  A one-slot int64 *stamp* segment carries the
    graph version: the owner rewrites it on dynamic mutations
    (:meth:`mark_stale` / re-export under a new version), and workers
    compare it against the version their task named before serving — an
    attached view can therefore never silently answer over a dead graph.
    """

    __slots__ = ("_indptr", "_indices", "_weights", "_stamp", "directed", "version")

    def __init__(self, indptr, indices, weights, stamp, directed: bool, version: int) -> None:
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._stamp = stamp
        self.directed = directed
        self.version = version

    @classmethod
    def export(cls, csr: CSRGraph, *, version: int = 0) -> "SharedCSR":
        """Export a numpy-backed CSR view into shared memory."""
        import numpy as np

        _require_numpy_csr(csr)
        stamp = SharedArray.create(np.asarray([version], dtype=np.int64))
        return cls(
            SharedArray.create(csr.indptr),
            SharedArray.create(csr.indices),
            None if csr.weights is None else SharedArray.create(csr.weights),
            stamp,
            csr.directed,
            int(version),
        )

    def meta(self) -> dict:
        """Picklable descriptor for :meth:`AttachedCSR.attach`."""
        return {
            "indptr": self._indptr.meta(),
            "indices": self._indices.meta(),
            "weights": None if self._weights is None else self._weights.meta(),
            "stamp": self._stamp.meta(),
            "directed": self.directed,
            "version": self.version,
        }

    def mark_stale(self) -> None:
        """Flag every attached view dead (before unlinking a stale export)."""
        self._stamp.array[0] = STALE_STAMP

    def close(self) -> None:
        for segment in (self._indptr, self._indices, self._weights, self._stamp):
            if segment is not None:
                segment.close()

    def unlink(self) -> None:
        for segment in (self._indptr, self._indices, self._weights, self._stamp):
            if segment is not None:
                segment.unlink()


class AttachedCSR:
    """Worker-side :class:`CSRGraph` view over a :class:`SharedCSR` export."""

    __slots__ = ("csr", "version", "_segments", "_stamp")

    def __init__(self, csr: CSRGraph, version: int, segments, stamp) -> None:
        self.csr = csr
        self.version = version
        self._segments = segments
        self._stamp = stamp

    @classmethod
    def attach(cls, meta: dict) -> "AttachedCSR":
        indptr = AttachedArray.attach(meta["indptr"])
        indices = AttachedArray.attach(meta["indices"])
        weights = (
            None if meta["weights"] is None else AttachedArray.attach(meta["weights"])
        )
        stamp = AttachedArray.attach(meta["stamp"])
        csr = CSRGraph(
            indptr=indptr.array,
            indices=indices.array,
            weights=None if weights is None else weights.array,
            directed=bool(meta["directed"]),
        )
        segments = [s for s in (indptr, indices, weights) if s is not None]
        return cls(csr, int(meta["version"]), segments, stamp)

    def fresh(self) -> bool:
        """Whether the owner still stands behind this version."""
        return int(self._stamp.array[0]) == self.version

    def close(self) -> None:
        self.csr = None
        for segment in self._segments:
            segment.close()
        self._stamp.close()
