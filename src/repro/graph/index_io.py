"""Persistence for the offline indexes.

The differential index is the paper's precomputed artifact ("needs to be
pre-computed and stored", Sec. III).  Stored means *on disk*: this module
serializes :class:`DifferentialIndex` (and the exact size index inside it)
to a compact, versioned binary format so the offline build is paid once per
graph, not once per process.

Format (little-endian, stdlib ``array``/``struct`` only)::

    magic     8 bytes   b"LONADIF1"
    header    struct    <5i?  -> num_nodes, num_arcs, hops, fingerprint_lo,
                               fingerprint_hi, include_self
    degrees   num_nodes * int32    adjacency row lengths
    deltas    num_arcs  * int32    per-arc delta values, row-major
    sizes     num_nodes * int32    exact N(v)

The fingerprint is a stable hash of the adjacency structure; loading
validates it against the target graph, so an index can never be silently
applied to the wrong (or a mutated) graph — the same staleness discipline
the materialized view enforces.
"""

from __future__ import annotations

import os
import struct
from array import array
from typing import IO, Tuple, Union

from repro.errors import IndexNotBuiltError
from repro.graph.diffindex import DifferentialIndex
from repro.graph.graph import Graph

__all__ = ["save_differential_index", "load_differential_index", "graph_fingerprint"]

_MAGIC = b"LONADIF1"
_HEADER = struct.Struct("<iiiII?")

PathOrFile = Union[str, "os.PathLike[str]", IO[bytes]]


def graph_fingerprint(graph: Graph) -> int:
    """A stable 64-bit structural fingerprint of the adjacency lists."""
    h = 1469598103934665603  # FNV-1a offset basis
    prime = 1099511628211
    mask = (1 << 64) - 1
    h = (h ^ graph.num_nodes) * prime & mask
    h = (h ^ (1 if graph.directed else 0)) * prime & mask
    for u in graph.nodes():
        h = (h ^ (u + 0x9E3779B9)) * prime & mask
        for v in graph.neighbors(u):
            h = (h ^ v) * prime & mask
    return h


def _split_fingerprint(fp: int) -> Tuple[int, int]:
    return fp & 0xFFFFFFFF, (fp >> 32) & 0xFFFFFFFF


def save_differential_index(
    index: DifferentialIndex, graph: Graph, sink: PathOrFile
) -> None:
    """Serialize ``index`` (built on ``graph``) to ``sink``."""
    own = isinstance(sink, (str, os.PathLike))
    handle = open(os.fspath(sink), "wb") if own else sink
    try:
        offsets = index.offsets
        degrees = array("i", (offsets[u + 1] - offsets[u] for u in range(len(index))))
        deltas = array("i", index.deltas)
        sizes = array("i", index.sizes.upper_values())
        lo, hi = _split_fingerprint(graph_fingerprint(graph))
        handle.write(_MAGIC)
        handle.write(
            _HEADER.pack(
                len(index), len(deltas), index.hops, lo, hi, index.include_self
            )
        )
        degrees.tofile(handle)  # type: ignore[arg-type]
        deltas.tofile(handle)  # type: ignore[arg-type]
        sizes.tofile(handle)  # type: ignore[arg-type]
    finally:
        if own:
            handle.close()


def load_differential_index(graph: Graph, source: PathOrFile) -> DifferentialIndex:
    """Load an index and validate it against ``graph``.

    Raises :class:`IndexNotBuiltError` on any mismatch (wrong file, wrong
    graph, mutated graph) rather than returning a plausible-looking but
    wrong index.
    """
    own = isinstance(source, (str, os.PathLike))
    handle = open(os.fspath(source), "rb") if own else source
    try:
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            raise IndexNotBuiltError(
                f"not a differential-index file (magic {magic!r})"
            )
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise IndexNotBuiltError("truncated differential-index header")
        num_nodes, num_arcs, hops, lo, hi, include_self = _HEADER.unpack(header)
        if num_nodes != graph.num_nodes:
            raise IndexNotBuiltError(
                f"index built for {num_nodes} nodes, graph has {graph.num_nodes}"
            )
        expected_lo, expected_hi = _split_fingerprint(graph_fingerprint(graph))
        if (lo, hi) != (expected_lo, expected_hi):
            raise IndexNotBuiltError(
                "graph fingerprint mismatch: the index was built on a "
                "different (or since-mutated) graph"
            )
        degrees = array("i")
        degrees.fromfile(handle, num_nodes)  # type: ignore[arg-type]
        deltas = array("i")
        deltas.fromfile(handle, num_arcs)  # type: ignore[arg-type]
        sizes = array("i")
        sizes.fromfile(handle, num_nodes)  # type: ignore[arg-type]
    except (EOFError, ValueError) as exc:
        raise IndexNotBuiltError(
            f"truncated differential-index payload ({exc})"
        ) from None
    finally:
        if own:
            handle.close()

    offsets = array("q", [0])  # the flat tables, row by row checked against the graph
    for u, degree in enumerate(degrees):
        if degree != graph.degree(u):
            raise IndexNotBuiltError(
                f"adjacency row length mismatch at node {u}"
            )
        offsets.append(offsets[-1] + degree)
    return DifferentialIndex(
        deltas,
        offsets,
        sizes.tolist(),
        hops=hops,
        include_self=include_self,
        version=getattr(graph, "version", None),
    )
