"""Execution-backend selection: pure Python, vectorized NumPy, or sharded.

The library ships interchangeable execution backends for the LONA
algorithms:

* ``"python"`` — the dependency-free adjacency-list loops.  Always
  available; the reference implementation every other backend is tested
  against.
* ``"numpy"``  — vectorized execution over :class:`~repro.graph.csr.CSRGraph`
  flat arrays (see :mod:`repro.core.vectorized`).  Requires :mod:`numpy`.
* ``"native"`` — the compiled kernel tier: Numba-jitted flat-CSR loops
  behind the same route table (see :mod:`repro.native`).  Requires numpy
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
``--backend cluster``, ``Network.service(processes=True)``, or
``Network.cluster(...)``).  All backends return *entry-for-entry
identical* top-k results; only the work counters (pruning/traversal
accounting) may differ, because the vectorized backends process candidates
in blocks and the sharded backends additionally split them across shards.

This module is the seam later execution strategies (GPU, remote, ...) plug
into: they add a name here and a dispatch arm in the algorithm front doors.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import BackendUnavailableError, InvalidParameterError

__all__ = [
    "BACKENDS",
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

    Needs numpy (the adapters orchestrate with it) and numba (the compiled
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
