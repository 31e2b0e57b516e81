"""Tests for the bounded top-k accumulator."""

from __future__ import annotations

import random

import pytest

from repro.core.topk import TopKAccumulator
from repro.errors import InvalidParameterError


class TestBasics:
    def test_k_validation(self):
        with pytest.raises(InvalidParameterError):
            TopKAccumulator(0)

    def test_underfull_threshold_is_neg_inf(self):
        acc = TopKAccumulator(3)
        acc.offer(0, 10.0)
        assert acc.threshold == float("-inf")
        assert not acc.is_full

    def test_threshold_is_kth_best(self):
        acc = TopKAccumulator(2)
        for node, value in enumerate([5.0, 1.0, 3.0]):
            acc.offer(node, value)
        assert acc.is_full
        assert acc.threshold == 3.0

    def test_entries_sorted_descending(self):
        acc = TopKAccumulator(3)
        for node, value in enumerate([2.0, 9.0, 4.0, 7.0]):
            acc.offer(node, value)
        assert acc.entries() == [(1, 9.0), (3, 7.0), (2, 4.0)]

    def test_values(self):
        acc = TopKAccumulator(2)
        for node, value in enumerate([1.0, 3.0, 2.0]):
            acc.offer(node, value)
        assert acc.values() == [3.0, 2.0]

    def test_len(self):
        acc = TopKAccumulator(5)
        acc.offer(0, 1.0)
        acc.offer(1, 2.0)
        assert len(acc) == 2

    def test_offer_returns_acceptance(self):
        acc = TopKAccumulator(1)
        assert acc.offer(0, 1.0)
        assert not acc.offer(1, 0.5)
        assert acc.offer(2, 2.0)


class TestTieSemantics:
    def test_equal_value_does_not_evict_earlier(self):
        acc = TopKAccumulator(1)
        acc.offer(7, 5.0)
        accepted = acc.offer(8, 5.0)
        assert not accepted
        assert acc.entries() == [(7, 5.0)]

    def test_would_accept_strictly_greater(self):
        acc = TopKAccumulator(1)
        acc.offer(0, 5.0)
        assert not acc.would_accept(5.0)
        assert acc.would_accept(5.0001)

    def test_would_accept_when_underfull(self):
        acc = TopKAccumulator(2)
        acc.offer(0, 5.0)
        assert acc.would_accept(0.0)

    def test_entries_tie_broken_by_node_id(self):
        acc = TopKAccumulator(3)
        acc.offer(9, 1.0)
        acc.offer(4, 1.0)
        acc.offer(6, 1.0)
        assert acc.entries() == [(4, 1.0), (6, 1.0), (9, 1.0)]


class TestAgainstSortModel:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_values_match_sorted_model(self, seed, k):
        rng = random.Random(seed)
        values = [round(rng.random() * 10, 3) for _ in range(50)]
        acc = TopKAccumulator(k)
        for node, value in enumerate(values):
            acc.offer(node, value)
        assert acc.values() == sorted(values, reverse=True)[:k]

    def test_threshold_never_decreases(self):
        rng = random.Random(1234)
        acc = TopKAccumulator(5)
        last = float("-inf")
        for node in range(200):
            acc.offer(node, rng.random())
            assert acc.threshold >= last
            last = acc.threshold


class TestHeldResultsShareObjects:
    """A caller that holds many results holds each non-zero pair once and
    each run of tied values once; the entries themselves do not change."""

    def test_ids_are_shared_across_results_and_always_ints(self):
        np = pytest.importorskip("numpy")
        from repro.core import topk

        topk._shared_entries.clear()  # far from the cap, whatever ran before
        first, second = TopKAccumulator(3), TopKAccumulator(3)
        numpy_ids = np.arange(70_001, 70_004)  # a caller's numpy ids come back as ints
        for acc, nodes in ((first, [70_001, 70_002, 70_003]), (second, numpy_ids)):
            for node in nodes:
                acc.offer(node, float(node % 7) + 0.5)
        a, b = first.entries(), second.entries()
        assert a == b
        assert all(type(node) is int for node, _ in b)
        assert all(x is y for x, y in zip(a, b))  # whole pairs, ids with them

    def test_tied_values_share_one_float_with_the_same_bits(self):
        from repro.core import topk

        topk._shared_entries.clear()  # no pair an earlier test left behind
        acc = TopKAccumulator(6)
        for node, value in enumerate([0.1 + 0.2, 0.30000000000000004, 0.3, 0.0, -0.0, 0.0]):
            acc.offer(node, value)
        entries = acc.entries()
        assert [v.hex() for _, v in entries] == [
            (0.1 + 0.2).hex(), (0.1 + 0.2).hex(), (0.3).hex(), (0.0).hex(), (-0.0).hex(),
            (0.0).hex(),
        ]
        assert entries[0][1] is entries[1][1]
        assert entries[2][1] is not entries[1][1]
        assert entries[3][1] is not entries[4][1]  # 0.0 == -0.0: never merged

    def test_a_tie_shares_its_float_with_a_pair_held_from_before(self):
        from repro.core import topk

        topk._shared_entries.clear()
        held = topk.shared_entries([(1, float("2.5"))])  # another 2.5 object
        entries = topk.shared_entries([(4, 2.5), (1, 2.5), (9, 0.5)])
        assert entries == [(4, 2.5), (1, 2.5), (9, 0.5)]
        assert entries[0][1] is entries[1][1]  # one float per tie
        assert held[0] is entries[1]  # one pair across results
        again = topk.shared_entries([(1, 2.5), (4, 2.5)])  # another run order
        assert again[0] is entries[1] and again[1] is entries[0]
