"""Thread-safe serving counters.

One :class:`ServiceStats` instance per :class:`~repro.service.QueryService`
tallies the lifecycle of every submission (admitted / completed / failed /
cancelled / expired / rejected), the scheduler's coalescing wins, and the
result-cache traffic.  :meth:`ServiceStats.snapshot` returns a plain dict
so ``QueryService.stats()`` can merge in the scheduler gauges and the
session ball-index counters for one monitoring payload.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["ServiceStats"]

#: Counter names, in reporting order.
_COUNTERS = (
    "submitted",
    "completed",
    "failed",
    "cancelled",
    "expired",
    "rejected",
    "coalesced_batches",
    "coalesced_queries",
    "cache_hits",
    "cache_misses",
)


class ServiceStats:
    """Monotonic serving counters, safe to bump from any worker thread."""

    __slots__ = ("_lock", "_counts")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {name: 0 for name in _COUNTERS}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to one counter (must be a known counter name)."""
        with self._lock:
            self._counts[name] += amount

    def get(self, name: str) -> int:
        """One counter's current value."""
        with self._lock:
            return self._counts[name]

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of every counter."""
        with self._lock:
            return dict(self._counts)
