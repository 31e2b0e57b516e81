"""Length-prefixed JSON+binary frames — the cluster wire format.

One frame is::

    u32 total_length   (big-endian; everything after these 4 bytes)
    u32 header_length
    header_length bytes of UTF-8 JSON   (the frame header)
    concatenated raw array blobs        (described by header["arrays"])

The header is an arbitrary JSON object; numpy arrays ride as raw
C-contiguous blobs after it, described in order by
``header["arrays"] = [{"key", "dtype", "shape"}, ...]``.  That keeps the
transport dependency-free (no msgpack/pickle) while candidate entries ship
as flat ``int64`` node + ``float64`` value arrays — 16 bytes per entry,
which is what makes bytes-on-wire directly comparable to the planner's
per-candidate forecast (:mod:`repro.cluster.comm`).

Both blocking-socket helpers (coordinator side) and asyncio-stream helpers
(worker side) live here so the two ends can never disagree on the format.
All helpers return the frame's size in bytes alongside its content; the
transport layers accumulate those into the per-peer byte counters the
bench gates read.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Optional, Tuple

from repro.errors import ClusterError
from repro.faults import fault_frame

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "read_frame_async",
]

#: Refuse frames beyond this size — a corrupted length prefix must fail
#: fast instead of attempting a multi-GiB allocation.
MAX_FRAME_BYTES = 1 << 31

_U32 = struct.Struct(">I")


def encode_frame(header: dict, arrays: Optional[Dict[str, object]] = None) -> bytes:
    """Serialize one frame; ``arrays`` maps key -> numpy array."""
    header = dict(header)
    blobs = []
    descs = []
    if arrays:
        import numpy as np

        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            descs.append(
                {"key": key, "dtype": str(arr.dtype), "shape": list(arr.shape)}
            )
            blobs.append(arr.tobytes())
    if descs:
        header["arrays"] = descs
    raw_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = b"".join([_U32.pack(len(raw_header)), raw_header] + blobs)
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterError(f"frame of {len(body)} bytes exceeds the frame limit")
    return _U32.pack(len(body)) + body


def decode_payload(body: bytes) -> Tuple[dict, Dict[str, object]]:
    """Decode a frame body (everything after the total-length prefix)."""
    if len(body) < 4:
        raise ClusterError("truncated frame: missing header length")
    (header_len,) = _U32.unpack_from(body, 0)
    if 4 + header_len > len(body):
        raise ClusterError("truncated frame: header exceeds body")
    try:
        header = json.loads(body[4 : 4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ClusterError(f"malformed frame header: {exc}") from None
    arrays: Dict[str, object] = {}
    descs = header.pop("arrays", None)
    if descs:
        import numpy as np

        offset = 4 + header_len
        for desc in descs:
            dtype = np.dtype(desc["dtype"])
            shape = tuple(desc["shape"])
            count = 1
            for dim in shape:
                count *= int(dim)
            nbytes = count * dtype.itemsize
            if offset + nbytes > len(body):
                raise ClusterError(
                    f"truncated frame: array {desc['key']!r} exceeds body"
                )
            arrays[desc["key"]] = np.frombuffer(
                body, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
            offset += nbytes
    return header, arrays


def _recv_exact(sock, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> Tuple[dict, Dict[str, object], int]:
    """Read one frame off a blocking socket -> (header, arrays, bytes)."""
    prefix = _recv_exact(sock, 4)
    (total,) = _U32.unpack(prefix)
    if total > MAX_FRAME_BYTES:
        raise ClusterError(f"incoming frame of {total} bytes exceeds the limit")
    body = _recv_exact(sock, total)
    # Body starts at the header-length word, so the JSON region begins at
    # offset 4 here (vs. 8 in a full frame).
    body = fault_frame("cluster.frame.recv", body, header_offset=4)
    header, arrays = decode_payload(body)
    return header, arrays, total + 4


def write_frame(
    sock, header: dict, arrays: Optional[Dict[str, object]] = None
) -> int:
    """Write one frame to a blocking socket; returns bytes sent."""
    frame = encode_frame(header, arrays)
    faulted = fault_frame("cluster.frame.send", frame)
    if len(faulted) < len(frame):
        # Injected mid-frame cut: ship the prefix, then fail exactly like
        # a connection that died under us — the receiver must never be
        # left waiting on bytes that will not come.
        try:
            sock.sendall(faulted)
        except OSError:
            pass
        raise ConnectionError("frame truncated mid-send (injected fault)")
    sock.sendall(faulted)
    return len(frame)


async def read_frame_async(reader) -> Tuple[dict, Dict[str, object], int]:
    """Read one frame off an asyncio StreamReader -> (header, arrays, bytes).

    Raises ``ConnectionError`` on a clean EOF at a frame boundary too, so
    the worker's serve loop has a single disconnect signal.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("peer disconnected") from exc
    (total,) = _U32.unpack(prefix)
    if total > MAX_FRAME_BYTES:
        raise ClusterError(f"incoming frame of {total} bytes exceeds the limit")
    try:
        body = await reader.readexactly(total)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("peer disconnected mid-frame") from exc
    body = fault_frame("cluster.worker.frame.recv", body, header_offset=4)
    header, arrays = decode_payload(body)
    return header, arrays, total + 4
