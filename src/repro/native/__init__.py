"""Compiled kernel tier (``backend="native"``): Numba-jitted CSR hot loops.

Import-or-decline, exactly like numpy's ``"auto"`` contract: nothing here
requires numba at import time — :mod:`repro.native.kernels` falls back to
interpreted Python when numba is absent, and the backend registry
(:func:`repro.core.backends.native_available`) only offers the tier when
numba is importable (or ``REPRO_NATIVE_INTERPRETED`` is set: the kernels
run interpreted and the tier counts as available, which the parity tests
use).

The cache-dir hook must run before any kernel module import so
``NUMBA_CACHE_DIR`` is set before numba first loads.
"""

from repro.native.compile_cache import compile_stats, configure_cache_dir, ensure_warm

configure_cache_dir()

__all__ = ["compile_stats", "configure_cache_dir", "ensure_warm"]
