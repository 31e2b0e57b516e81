"""Execution-backend selection: pure Python, vectorized NumPy, or sharded.

The library ships interchangeable execution backends for the LONA
algorithms:

* ``"python"`` — the dependency-free adjacency-list loops.  Always
  available; the reference implementation every other backend is tested
  against.
* ``"numpy"``  — vectorized execution over :class:`~repro.graph.csr.CSRGraph`
  flat arrays (see :mod:`repro.core.vectorized`).  Requires :mod:`numpy`.
* ``"native"`` — the compiled kernel tier: Numba-jitted flat-CSR loops
  as a second kernel provider under the same route drivers (see
  :mod:`repro.native.provider`).  Requires numpy
  plus an importable :mod:`numba`; without numba the tier declines and
  ``"auto"`` falls back to ``"numpy"`` (the ``REPRO_NATIVE_INTERPRETED``
  environment flag makes the tier available with the kernels run as plain
  Python, which the parity suite uses on numba-free machines).
* ``"parallel"`` — the numpy kernels fanned out across worker *processes*
  over shared-memory CSR shards (see :mod:`repro.parallel`).  Requires
  numpy; the engine itself declines graphs too small to amortize the
  process/IPC fixed cost and runs them in-process instead.
* ``"cluster"`` — the same sharded kernels run by socket-connected
  ``cluster-worker`` processes, locally spawned or on other machines (see
  :mod:`repro.cluster`).  Requires numpy; declines like parallel does,
  with a higher fixed cost (socket rounds, store shipping).

``"auto"`` (the default everywhere) walks the single-machine ladder
``native -> numpy -> python``: it resolves to ``"native"`` when the
compiled tier is available, else ``"numpy"`` when numpy is importable,
else ``"python"``, so the library keeps working — with identical answers —
on a bare interpreter.  ``"parallel"``
and ``"cluster"`` are never chosen implicitly: multi-process/multi-machine
execution is an explicit opt-in (builder ``.backend("parallel")``, CLI
``--backend cluster``, or the session default ``Network(graph,
backend="parallel")``).  All backends return *entry-for-entry
identical* top-k results; only the work counters (pruning/traversal
accounting) may differ, because the vectorized backends process candidates
in blocks and the sharded backends additionally split them across shards.

This module is the seam later execution strategies plug into.  A new
single-machine kernel tier (GPU, ...) adds a name here and a *kernel
provider* to :func:`kernel_provider` — the block primitives listed on
:class:`repro.core.vectorized.NumpyKernels` — and inherits every route
driver in :mod:`repro.core.vectorized`; the front doors already dispatch
"anything but python" through that one lookup.  A new *placement* of the
kernels (remote, ...) is a link under the sharded coordinator instead
(:mod:`repro.parallel.coordinator`).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import BackendUnavailableError, InvalidParameterError

__all__ = [
    "BACKENDS",
    "kernel_provider",
    "native_available",
    "numba_available",
    "numpy_available",
    "numpy_or_none",
    "resolve_backend",
]

#: Recognized backend names (``"auto"`` is resolved, never executed).
BACKENDS = ("auto", "python", "numpy", "native", "parallel", "cluster")

_NUMPY_AVAILABLE: Optional[bool] = None
_NUMBA_AVAILABLE: Optional[bool] = None


def numpy_or_none():
    """The :mod:`numpy` module, or ``None`` when it is not importable."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
        return None
    return numpy


def numpy_available() -> bool:
    """Whether the vectorized backend can run in this interpreter."""
    global _NUMPY_AVAILABLE
    if _NUMPY_AVAILABLE is None:
        _NUMPY_AVAILABLE = numpy_or_none() is not None
    return _NUMPY_AVAILABLE


def numba_available() -> bool:
    """Whether :mod:`numba` is importable (spec probe; nothing is imported)."""
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        import importlib.util

        _NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None
    return _NUMBA_AVAILABLE


def native_available() -> bool:
    """Whether the compiled kernel tier can run in this interpreter.

    Needs numpy (the route drivers orchestrate with it) and numba (the compiled
    kernels).  ``REPRO_NATIVE_INTERPRETED`` — checked dynamically, so tests
    can flip it per-case — makes the tier available with the kernels run
    as plain Python: same code paths, same answers, no compilation.
    """
    if not numpy_available():
        return False
    if os.environ.get("REPRO_NATIVE_INTERPRETED"):
        return True
    return numba_available()


def resolve_backend(backend: str) -> str:
    """Resolve a backend request to a concrete executable backend.

    ``"auto"`` walks the ladder native -> numpy -> python, silently
    declining tiers whose imports are absent; asking for ``"numpy"``,
    ``"native"``, ``"parallel"`` or ``"cluster"`` explicitly when their
    imports are missing raises
    :class:`~repro.errors.BackendUnavailableError` instead of silently
    changing performance class.
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        if native_available():
            return "native"
        return "numpy" if numpy_available() else "python"
    if backend in ("numpy", "parallel", "cluster") and not numpy_available():
        raise BackendUnavailableError(
            f"backend {backend!r} requested but numpy is not importable; "
            "install numpy or use backend='auto'/'python'"
        )
    if backend == "native" and not native_available():
        raise BackendUnavailableError(
            "backend 'native' requested but the compiled tier is "
            "unavailable (numba and numpy must be importable); install "
            "the 'native' extra or use backend='auto'"
        )
    return backend


def kernel_provider(backend: str, ball_index=None):
    """The block-kernel provider the vectorized drivers run ``backend`` on.

    ``backend`` is a resolved, non-python name; the provider is fresh (it
    holds per-query scratch).  ``ball_index`` is the session's
    :class:`~repro.graph.csr.CSRBallIndex`, which only the numpy provider
    reads (a compiled ball never leaves its scratch).  ``"native"`` gets a
    :class:`~repro.native.provider.NativeKernels`, whose constructor warms
    the jit — so call this before starting a query timer; every other
    vectorized backend — ``"parallel"``/``"cluster"`` included, for the
    queries their engines decline — runs the numpy provider.
    """
    if backend == "native":
        from repro.native.provider import NativeKernels

        return NativeKernels()
    from repro.core.vectorized import NumpyKernels

    return NumpyKernels(ball_index)
