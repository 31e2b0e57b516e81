"""Tests for the shard partitioner (``Partition`` / ``bfs_partition``)."""

from __future__ import annotations

import pytest

from repro.errors import PartitionError
from repro.parallel.shards import Partition, bfs_partition
from tests.conftest import random_graph


class TestPartition:
    def test_bfs_partition_covers_all(self):
        g = random_graph(50, 0.08, seed=122)
        p = bfs_partition(g, 4, seed=1)
        assert all(0 <= part < 4 for part in p.assignment)
        assert len(p.assignment) == 50
        assert sorted(u for part in range(4) for u in p.members(part)) == list(range(50))
        assert all(p.part_of(u) == part for part in range(4) for u in p.members(part))

    def test_bfs_partition_reasonable_balance(self):
        g = random_graph(80, 0.08, seed=123)
        p = bfs_partition(g, 4, seed=2)
        assert max(len(p.members(part)) for part in range(4)) < 2.5 * 80 / 4

    def test_bfs_lower_edge_cut_than_hash(self):
        # On a ring lattice locality matters; BFS growing should beat modulo.
        from repro.graph.generators import ring_lattice

        g = ring_lattice(120, 2)

        def edge_cut(p):
            return sum(p.part_of(u) != p.part_of(v) for u, v in g.edges())

        modulo = Partition([u % 4 for u in g.nodes()], num_parts=4)
        assert edge_cut(bfs_partition(g, 4, seed=3)) < edge_cut(modulo)

    def test_partition_validation(self):
        with pytest.raises(PartitionError):
            Partition([0, 5], num_parts=2)
        with pytest.raises(PartitionError):
            Partition([0], num_parts=0)
        with pytest.raises(PartitionError):
            Partition([0, 1], num_parts=2).members(2)

    def test_directed_graph_partitioned_via_undirected_view(self):
        g = random_graph(30, 0.1, seed=124, directed=True)
        p = bfs_partition(g, 3, seed=4)
        assert len(p.assignment) == 30
