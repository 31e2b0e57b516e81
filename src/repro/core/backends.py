"""Execution-backend selection: pure Python, vectorized NumPy, or sharded.

The library ships interchangeable execution backends for the LONA
algorithms:

* ``"python"`` — the dependency-free adjacency-list loops.  Always
  available; the reference implementation every other backend is tested
  against.
* ``"numpy"``  — vectorized execution over :class:`~repro.graph.csr.CSRGraph`
  flat arrays (see :mod:`repro.core.vectorized`).  Requires :mod:`numpy`.
* ``"parallel"`` — the numpy kernels fanned out across worker *processes*
  over shared-memory CSR shards (see :mod:`repro.parallel`).  Requires
  numpy; the engine itself declines graphs too small to amortize the
  process/IPC fixed cost and runs them in-process instead.
* ``"cluster"`` — the same sharded kernels run by socket-connected
  ``cluster-worker`` processes, locally spawned or on other machines (see
  :mod:`repro.cluster`).  Requires numpy; declines like parallel does,
  with a higher fixed cost (socket rounds, store shipping).

``"auto"`` (the default everywhere) walks the single-machine ladder
``numpy -> python``: it resolves to ``"numpy"`` when numpy is importable,
else ``"python"``, so the library keeps working — with identical answers —
on a bare interpreter.  ``"parallel"``
and ``"cluster"`` are never chosen implicitly: multi-process/multi-machine
execution is an explicit opt-in (builder ``.backend("parallel")``, CLI
``--backend cluster``, or the session default ``Network(graph,
backend="parallel")``).  All backends return *entry-for-entry
identical* top-k results; only the work counters (pruning/traversal
accounting) may differ, because the vectorized backends process candidates
in blocks and the sharded backends additionally split them across shards.

Every vectorized backend evaluates its blocks with
:class:`repro.core.vectorized.NumpyKernels`; the route drivers take it as
their ``kernels`` argument, which is the seam a different kernel provider
would plug into (DESIGN.md §8 states what one must show first).  A new
*placement* of the kernels (remote, ...) is a link under the sharded
coordinator instead (:mod:`repro.parallel.coordinator`).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import BackendUnavailableError, InvalidParameterError

__all__ = [
    "BACKENDS",
    "numpy_available",
    "numpy_or_none",
    "resolve_backend",
]

#: Recognized backend names (``"auto"`` is resolved, never executed).
BACKENDS = ("auto", "python", "numpy", "parallel", "cluster")

_NUMPY_AVAILABLE: Optional[bool] = None


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


def resolve_backend(backend: str) -> str:
    """Resolve a backend request to a concrete executable backend.

    ``"auto"`` walks the ladder numpy -> python, silently declining numpy
    when it does not import; asking for ``"numpy"``, ``"parallel"`` or
    ``"cluster"`` explicitly when numpy is missing raises
    :class:`~repro.errors.BackendUnavailableError` instead of silently
    changing performance class.
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        return "numpy" if numpy_available() else "python"
    if backend != "python" and not numpy_available():
        raise BackendUnavailableError(
            f"backend {backend!r} requested but numpy is not importable; "
            "install numpy or use backend='auto'/'python'"
        )
    return backend
