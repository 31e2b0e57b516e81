"""The native block-kernel provider: stamp-BFS ``@njit`` kernels + one scratch.

The drivers in :mod:`repro.core.vectorized` own every route; what a backend
contributes is how one *block* of balls is evaluated.  This is the
``backend="native"`` answer, method for method the twin of
:class:`repro.core.vectorized.NumpyKernels`: each primitive is one call into
:mod:`repro.native.kernels` (per-center stamp-array BFS, sequential
accumulation over the sorted members — bit-identical to numpy's
``bincount``/``reduceat`` order, same work counters) over scratch buffers
that live as long as the provider.  The front doors build one provider per
query; a pool worker keeps one for its lifetime.

Constructing a provider warms the jit (:func:`ensure_warm`), so compile
cost is paid before any driver starts its query timer and :meth:`stamp`
can report it as ``stats.extra["jit_compile_sec"]``.

Session ball stores are a numpy-provider feature: a ball never leaves the
kernels' scratch, so there is nothing to read from or deposit into one, and
re-expanding in-kernel beats the python store walk.  The ``cache`` arguments
exist because the backward driver hands every provider what the session holds.
"""

from __future__ import annotations

from repro.aggregates.functions import AggregateKind
from repro.native import kernels as _k
from repro.native.compile_cache import ensure_warm

__all__ = ["NativeKernels"]

_KIND_CODES = {
    AggregateKind.SUM: _k.KIND_SUM,
    AggregateKind.AVG: _k.KIND_AVG,
    AggregateKind.MAX: _k.KIND_MAX,
    AggregateKind.MIN: _k.KIND_MIN,
}

#: Block bounds of the compiled profile.  The per-center stamp-BFS gathers
#: no neighbor slabs, so numpy's slab budget does not apply: blocks run to
#: the ceiling (dispatch amortization only; 4096 keeps the per-block result
#: vectors inside L2).  Threshold-driven loops cap at 1024 or 1/8 of the
#: graph — a compiled block is cheap enough that re-checking the rising
#: threshold less often than numpy's 256 costs less than it saves.
_MIN_BLOCK = 4
_MAX_BLOCK = 4096
_MAX_THRESHOLD_BLOCK = 1024


class NativeKernels:
    """Block primitives over the jitted kernels (see module docstring)."""

    name = "native"

    def __init__(self) -> None:
        self.compile_sec = ensure_warm()
        self._n = -1  # node count the scratch below is sized for
        self._gen = 0
        self._stamp = None
        self._members = None
        self._dists = None
        self._scaled = None

    def _begin(self, np, csr, centers):
        """``(centers as the kernels want them, their count, first stamp
        generation)`` for one block call."""
        centers = np.ascontiguousarray(centers, dtype=np.int64)
        count = int(centers.size)
        return centers, count, self._reserve(np, csr, count)

    def _reserve(self, np, csr, count: int) -> int:
        """Size the scratch to ``csr`` and reserve ``count`` fresh stamp
        generations (one per ball); returns the first."""
        n = max(int(csr.num_nodes), 1)
        if n != self._n:
            self._n = n
            self._gen = 0
            self._stamp = np.zeros(n, dtype=np.int64)
            self._members = np.empty(n, dtype=np.int64)
            self._dists = self._scaled = None
        first = self._gen + 1
        self._gen += max(count, 1)
        return first

    # ------------------------------------------------------------------
    def block_size(self, requested, num_nodes: int, num_arcs: int, *, role="scan"):
        """Centers per kernel call (``None`` -> the compiled profile above).

        ``role`` names the loop: ``"scan"`` blocks only amortize dispatch;
        ``"prune"`` (forward) and ``"verify"`` (TA verification) re-check
        the threshold between blocks, so a full block would swallow small
        graphs whole and erase the early stop.
        """
        if requested is not None:
            return max(1, int(requested))
        if num_nodes <= 0:
            return _MIN_BLOCK
        block = min(_MAX_BLOCK, max(_MIN_BLOCK, num_nodes))
        if role != "scan":
            cap = min(_MAX_THRESHOLD_BLOCK, num_nodes // 8)
            block = min(block, max(_MIN_BLOCK, cap))
        return block

    def stamp(self, stats) -> None:
        stats.extra["kernel"] = "native"
        stats.extra["kernel_mode"] = _k.KERNEL_MODE
        stats.extra["jit_compile_sec"] = self.compile_sec

    # ------------------------------------------------------------------
    def ball_values(
        self, np, csr, centers, scores, kind, hops, include_self, counter,
        *, want_sizes=False, cache=None,
    ):
        centers, count, gen0 = self._begin(np, csr, centers)
        values = np.empty(count, dtype=np.float64)
        sizes = np.empty(count, dtype=np.int64)
        edges, pairs = _k.aggregate_blocks(
            csr.indptr, csr.indices, scores, centers, hops, include_self,
            _KIND_CODES[kind], self._stamp, gen0, self._members, values, sizes,
        )
        counter.charge_block(edges, pairs, count, include_self)
        return values, (sizes if want_sizes else None)

    def weighted_ball_sums(
        self, np, csr, centers, scores, weights, hops, include_self, counter,
        cache=None,
    ):
        centers, count, gen0 = self._begin(np, csr, centers)
        if self._dists is None:
            self._dists = np.empty(self._n, dtype=np.int64)
            self._scaled = np.empty(self._n, dtype=np.int64)
        values = np.empty(count, dtype=np.float64)
        sizes = np.empty(count, dtype=np.int64)
        edges, pairs = _k.distance_aggregate_blocks(
            csr.indptr, csr.indices, scores, weights, centers, hops,
            include_self, self._stamp, gen0, self._members, self._dists,
            self._scaled, values, sizes,
        )
        counter.charge_block(edges, pairs, count, include_self)
        return values

    def fused_ball_values(
        self, np, csr, centers, node_scores, avg_rows, hops, include_self, counter
    ):
        centers, count, gen0 = self._begin(np, csr, centers)
        values = np.empty((node_scores.shape[1], count), dtype=np.float64)
        edges, pairs = _k.batch_aggregate_blocks(
            csr.indptr, csr.indices, node_scores, avg_rows, centers, hops,
            include_self, self._stamp, gen0, self._members, values,
        )
        counter.charge_block(edges, pairs, count, include_self)
        return values

    def prune_step(
        self, np, csr, deltas, sources, source_sums, threshold, ubound_sum,
        inv_size, evaluated, pruned,
    ):
        is_avg = inv_size is not None
        if not is_avg:  # the kernel's signature wants an array either way
            inv_size = np.ones(1, dtype=np.float64)
        gen = self._reserve(np, csr, 1)
        bound_evals, pruned_count = _k.forward_prune_block(
            csr.indptr, csr.indices, deltas, sources,
            np.ascontiguousarray(source_sums), ubound_sum, evaluated, pruned,
            float(threshold), is_avg, inv_size, self._stamp, gen, self._members,
        )
        return int(bound_evals), int(pruned_count)
