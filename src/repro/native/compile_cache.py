"""Warm-up and on-disk compile-cache management for the native tier.

Numba compiles a kernel on its first call with a new type signature, a
one-time cost of seconds that must never land inside a query's measured
``elapsed_sec`` (the paper's figures time the algorithms, not LLVM).  Two
mechanisms keep it out of the way:

* ``@njit(cache=True)`` on every kernel persists compiled machine code to
  disk, so the compile cost is once per machine, not once per process.
  :func:`configure_cache_dir` points numba's cache at
  ``REPRO_NUMBA_CACHE_DIR`` when set (CI uses a cached directory); it must
  run before :mod:`repro.native.kernels` is imported, which the package
  ``__init__`` guarantees.
* :func:`ensure_warm` calls every kernel once on a 3-node toy graph with
  the production argument types, forcing all compilation up front.  The
  first caller in a process pays (and gets the measured seconds back, for
  ``QueryStats.extra["jit_compile_sec"]``); later callers get 0.0.

Without numba the same warm-up runs the interpreted kernels (microseconds)
and reports 0.0 compile seconds — there is nothing to compile.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict

__all__ = ["configure_cache_dir", "ensure_warm", "compile_stats"]

_lock = threading.Lock()
_warmed = False
_compile_sec = 0.0


def configure_cache_dir() -> None:
    """Point numba's on-disk kernel cache at ``REPRO_NUMBA_CACHE_DIR``.

    No-op when the variable is unset (numba then caches next to the source
    tree, its default) or when numba already imported (too late to move).
    """
    cache_dir = os.environ.get("REPRO_NUMBA_CACHE_DIR")
    if cache_dir and "NUMBA_CACHE_DIR" not in os.environ:
        os.environ["NUMBA_CACHE_DIR"] = cache_dir


def ensure_warm() -> float:
    """Compile (or touch) every kernel once; return seconds spent this call.

    Thread-safe and idempotent: the first call in the process runs every
    kernel on a tiny graph with production dtypes and returns the wall
    seconds that took (== jit compile cost when numba is active, since the
    toy inputs execute in microseconds); every later call returns 0.0.
    """
    global _warmed, _compile_sec
    if _warmed:
        return 0.0
    with _lock:
        if _warmed:
            return 0.0
        start = time.perf_counter()
        _warm_all()
        elapsed = time.perf_counter() - start
        from repro.native.kernels import NUMBA_IMPORTABLE

        _compile_sec = elapsed if NUMBA_IMPORTABLE else 0.0
        _warmed = True
        return _compile_sec


def _warm_all() -> None:
    """Run every kernel once on a 3-node path graph, production dtypes."""
    import numpy as np

    from repro.graph.graph import Graph
    from repro.native import kernels

    # The graph's own conversion: its index dtype is part of the signature
    # numba compiles for, so the toy CSR must be typed as a real query's is.
    toy = Graph([[1], [0, 2], [1]]).csr()
    indptr, indices = toy.indptr, toy.indices
    scores = np.asarray([0.5, 1.0, 0.25], dtype=np.float64)
    weights = np.asarray([1.0, 1.0, 0.5], dtype=np.float64)
    centers = np.asarray([0, 1, 2], dtype=np.int64)
    n = 3
    stamp = np.zeros(n, dtype=np.int64)
    member_buf = np.empty(n, dtype=np.int64)
    dist_buf = np.empty(n, dtype=np.int64)
    scaled_buf = np.empty(n, dtype=np.int64)
    values = np.empty(n, dtype=np.float64)
    sizes = np.empty(n, dtype=np.int64)
    gen = 1
    # A ScoreVector's own array is read-only — to numba a second array type,
    # so the two kernels that take scores compile for both.
    frozen = scores.copy()
    frozen.flags.writeable = False
    for vector in (scores, frozen):
        for kind_code in (kernels.KIND_SUM, kernels.KIND_AVG, kernels.KIND_MAX,
                          kernels.KIND_MIN):
            kernels.aggregate_blocks(
                indptr, indices, vector, centers, 2, True, kind_code,
                stamp, gen, member_buf, values, sizes,
            )
            gen += n
        kernels.distance_aggregate_blocks(
            indptr, indices, vector, weights, centers, 2, True,
            stamp, gen, member_buf, dist_buf, scaled_buf, values, sizes,
        )
        gen += n
    matrix = np.stack([scores, scores], axis=1)
    avg_flags = np.asarray([False, True], dtype=np.bool_)
    batch_values = np.empty((2, n), dtype=np.float64)
    kernels.batch_aggregate_blocks(
        indptr, indices, matrix, avg_flags, centers, 2, True,
        stamp, gen, member_buf, batch_values,
    )
    gen += n
    deltas = np.zeros(indices.size, dtype=np.int64)
    evaluated = np.zeros(n, dtype=np.bool_)
    pruned = np.zeros(n, dtype=np.bool_)
    ubound = np.full(n, 10.0, dtype=np.float64)
    inv_size = np.ones(n, dtype=np.float64)
    for is_avg in (False, True):
        kernels.forward_prune_block(
            indptr, indices, deltas, centers, scores, ubound,
            evaluated, pruned, -1e300, is_avg, inv_size,
            stamp, gen, member_buf,
        )
        gen += 1


def compile_stats() -> Dict[str, object]:
    """Snapshot of the warm-up state for service stats / bench output."""
    from repro.native.kernels import KERNEL_MODE

    return {
        "warmed": _warmed,
        "compile_sec": _compile_sec,
        "mode": KERNEL_MODE,
    }
