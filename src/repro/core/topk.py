"""Bounded top-k accumulator (paper P3).

All three algorithms share the same top-k bookkeeping: a capacity-``k``
min-heap of ``(value, node)`` pairs whose minimum — the paper's
``topklbound`` — is the pruning threshold.  Keeping it in one class keeps the
threshold semantics (and their tie-handling subtleties) identical across
Base, LONA-Forward, and LONA-Backward, which is what makes their results
comparable in tests.

Tie semantics: the accumulator keeps the *first-offered* node among equal
values at the boundary (``heapq`` orders by ``(value, -order)`` so later
equal offers do not evict earlier ones).  Consequently different algorithms
may return different node *sets* when values tie at rank k, but always the
same value multiset — the invariant the test-suite checks.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

from repro.errors import InvalidParameterError

__all__ = ["TopKAccumulator", "shared_entries"]

#: The same ``(node, value)`` pairs come back in answer after answer, each a
#: tuple (64 bytes) plus an id past CPython's small ints (32 bytes).  Taken
#: from this table, they are held once by whoever holds many results (a
#: result cache, a closed-loop client); emptied past the cap.  Zero values
#: stay out: ``0.0 == -0.0``, and a shared pair keeps its value's bits.
_shared_entries: Dict[Tuple[int, float], Tuple[int, float]] = {}
_SHARED_ENTRIES_CAP = 1 << 16
#: The one float of each non-zero value the table's pairs are built on, so
#: equal values share it in every pair (equal non-zero floats have equal
#: bits); emptied with the table.
_shared_values: Dict[float, float] = {}


def shared_entries(pairs: Iterable[Tuple[int, float]]) -> List[Tuple[int, float]]:
    """``(node, value)`` pairs, best first, as held entries: ``int`` ids and
    ``float`` values, non-zero pairs from the shared table, and equal
    non-zero values — each run of ties among them — sharing one float."""
    if len(_shared_entries) > _SHARED_ENTRIES_CAP:
        _shared_entries.clear()
        _shared_values.clear()
    out = []
    for node, value in pairs:
        node, value = int(node), float(value)
        entry = (node, value)
        if value != 0.0:  # 0.0 == -0.0: never merged
            entry = (node, _shared_values.setdefault(value, value))
            entry = _shared_entries.setdefault(entry, entry)
        out.append(entry)
    return out


class TopKAccumulator:
    """Min-heap of the best ``k`` (value, node) pairs seen so far."""

    __slots__ = ("k", "_heap", "_order")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self.k = k
        # Heap entries are (value, -arrival_order, node): among equal values
        # the *earliest* arrival is the largest entry, so it survives longest.
        self._heap: List[Tuple[float, int, int]] = []
        self._order = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        """Whether ``k`` entries have been accumulated."""
        return len(self._heap) >= self.k

    @property
    def threshold(self) -> float:
        """The paper's ``topklbound``: the current k-th best value.

        ``-inf`` until the accumulator is full — before that, no node can be
        pruned, because any value would enter the top-k list.
        """
        if len(self._heap) < self.k:
            return float("-inf")
        return self._heap[0][0]

    def offer(self, node: int, value: float) -> bool:
        """Consider ``(node, value)``; return True if it entered the top-k."""
        self._order += 1
        entry = (value, -self._order, node)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry <= self._heap[0]:
            return False
        heapq.heapreplace(self._heap, entry)
        return True

    def would_accept(self, value: float) -> bool:
        """Whether a node with this exact value could enter the top-k now.

        Strictly-greater semantics, matching Algorithm 1's
        ``if F(u) > topklbound`` line: an exact tie with the current k-th
        value does not displace it.
        """
        return len(self._heap) < self.k or value > self._heap[0][0]

    def entries(self) -> List[Tuple[int, float]]:
        """The top-k as ``(node, value)`` pairs, best first.

        Ties are broken by ascending node id for deterministic output.
        A held result costs its list, not a tuple, an int and a float an
        entry (:func:`shared_entries`).
        """
        ordered = sorted(self._heap, key=lambda e: (-e[0], e[2]))
        return shared_entries((node, value) for value, _neg_order, node in ordered)

    def values(self) -> List[float]:
        """The top-k values only, descending."""
        return sorted((e[0] for e in self._heap), reverse=True)
