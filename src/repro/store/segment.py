"""Segment framing: how an encoded payload becomes a segment file.

A segment is the unit of disk I/O of the store: a batch of sub-computations
plus the edges co-located with them (an edge lives in the segment of its
*target* node whenever possible, so a backward expansion of a node finds
its incoming edges in the segment it just loaded).  The columnar payload
(:func:`~repro.store.codecs.encode_payload`) is zlib-compressed inside one
checksummed frame::

    +--------+------------+--------------+-------------+-------------+
    | "ISEG" | 0x84       | raw len (8B) | CRC32 (4B)  | zlib body   |
    +--------+------------+--------------+-------------+-------------+

``raw len`` is the size of the *uncompressed* payload and feeds the
manifest's compression accounting; the CRC32 covers the compressed body.
:func:`decode_segment` verifies the checksum before touching the body, so
a bit flip anywhere in the payload surfaces as a typed error instead of a
garbled graph.  Any other frame byte is refused.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.core.thunk import NodeId, SubComputation
from repro.errors import StoreError

from repro.store.codecs import EdgeTuple, decode_payload, encode_payload
from repro.store.format import SEGMENT_FRAME_BYTE, SEGMENT_MAGIC_PREFIX

_HEADER_SIZE = len(SEGMENT_MAGIC_PREFIX) + 1 + 8
_CRC_SIZE = 4

#: zlib level of every segment body (part of the byte-exact format).
SEGMENT_ZLIB_LEVEL = 6


@dataclass
class SegmentPayload:
    """One decoded segment, indexed for adjacency scans.

    Attributes:
        nodes: Sub-computations stored in the segment, by node id.
        edges: Every edge stored in the segment.
        edges_by_target: Edges grouped by target node id.
        edges_by_source: Edges grouped by source node id.
    """

    nodes: Dict[NodeId, SubComputation] = field(default_factory=dict)
    edges: List[EdgeTuple] = field(default_factory=list)
    edges_by_target: Dict[NodeId, List[EdgeTuple]] = field(default_factory=dict)
    edges_by_source: Dict[NodeId, List[EdgeTuple]] = field(default_factory=dict)

    @classmethod
    def build(cls, nodes: Iterable[SubComputation], edges: Iterable[EdgeTuple]) -> "SegmentPayload":
        payload = cls(nodes={node.node_id: node for node in nodes}, edges=list(edges))
        for edge in payload.edges:
            payload.edges_by_source.setdefault(edge[0], []).append(edge)
            payload.edges_by_target.setdefault(edge[1], []).append(edge)
        return payload


def encode_segment(
    nodes: Iterable[SubComputation], edges: Iterable[EdgeTuple]
) -> Tuple[bytes, int]:
    """Serialize one segment as a checksummed, zlib-compressed frame.

    Returns:
        ``(framed bytes, raw payload size)`` -- the raw size feeds the
        manifest's compression accounting.
    """
    raw = encode_payload(list(nodes), list(edges))
    body = zlib.compress(raw, SEGMENT_ZLIB_LEVEL)
    framed = (
        SEGMENT_MAGIC_PREFIX
        + bytes((SEGMENT_FRAME_BYTE,))
        + len(raw).to_bytes(8, "little")
        + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(_CRC_SIZE, "little")
        + body
    )
    return framed, len(raw)


def decode_segment(data: bytes) -> SegmentPayload:
    """Invert :func:`encode_segment`.

    Raises:
        StoreError: If the magic, frame byte, checksum, compression, or
            payload is corrupt.
    """
    if len(data) < _HEADER_SIZE or not data.startswith(SEGMENT_MAGIC_PREFIX):
        raise StoreError("not a provenance-store segment (bad magic)")
    frame_byte = data[len(SEGMENT_MAGIC_PREFIX)]
    if frame_byte != SEGMENT_FRAME_BYTE:
        raise StoreError(
            f"unsupported segment frame byte 0x{frame_byte:02x} "
            f"(this build reads 0x{SEGMENT_FRAME_BYTE:02x}); re-ingest"
        )
    if len(data) < _HEADER_SIZE + _CRC_SIZE:
        raise StoreError("segment frame truncated inside its checksum field")
    raw_length = int.from_bytes(data[len(SEGMENT_MAGIC_PREFIX) + 1 : _HEADER_SIZE], "little")
    stored_crc = int.from_bytes(data[_HEADER_SIZE : _HEADER_SIZE + _CRC_SIZE], "little")
    body = data[_HEADER_SIZE + _CRC_SIZE :]
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != stored_crc:
        raise StoreError(
            f"segment frame checksum mismatch: stored 0x{stored_crc:08x}, "
            f"computed 0x{actual:08x}"
        )
    try:
        raw = zlib.decompress(body)
    except zlib.error as exc:
        raise StoreError(f"corrupt compressed segment payload: {exc}") from exc
    if len(raw) != raw_length:
        raise StoreError(
            f"segment length mismatch: header says {raw_length} bytes, got {len(raw)}"
        )
    nodes, edges = decode_payload(raw)
    return SegmentPayload.build(nodes, edges)
