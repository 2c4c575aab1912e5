"""The segment payload: how a batch of nodes+edges becomes bytes.

Every segment stores its sub-computations and edges as one **columnar**
payload (:func:`encode_payload` / :func:`decode_payload`): every integer
column (thread ids, clocks, page sets, branch sites, edge endpoints) is
one ``array('q')`` blob decoded with a single C call, and the few strings
(sync operation names, ``started_by``/``ended_by``) go through an
interned string table.  Variable-length columns (clock entries, page
sets, thunks, data-edge page lists) are length-prefixed per record.  The
framing layer (:mod:`repro.store.segment`) zlib-compresses the payload
inside a checksummed frame; the 8-byte integer columns are mostly small
magnitudes, so DEFLATE shrinks them well and decompresses in C.

The module also provides the little-endian varint helpers the index
delta/base files (:mod:`repro.store.indexes`) share; those files are tiny,
so compactness wins over bulk decode speed there.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.cpg import EdgeKind
from repro.core.thunk import BranchRecord, NodeId, SubComputation, Thunk
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError

#: An edge as the store passes it around: ``(source, target, kind, attrs)``.
EdgeTuple = Tuple[NodeId, NodeId, EdgeKind, dict]

#: Stable one-byte encoding of :class:`EdgeKind` (order is part of the format).
KIND_TO_CODE = {EdgeKind.CONTROL: 0, EdgeKind.SYNC: 1, EdgeKind.DATA: 2}
CODE_TO_KIND = {code: kind for kind, code in KIND_TO_CODE.items()}


# ---------------------------------------------------------------------- #
# Varint helpers (shared with the index delta/base files)
# ---------------------------------------------------------------------- #


def zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (small magnitudes stay small)."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    """Invert :func:`zigzag`."""
    return value >> 1 if value % 2 == 0 else -((value + 1) >> 1)


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) as a LEB128 varint."""
    if value < 0:
        raise StoreError(f"cannot varint-encode negative value {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data, pos: int) -> Tuple[int, int]:
    """Read one LEB128 varint at ``pos``; returns ``(value, next_pos)``."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise StoreError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 70:
            raise StoreError("varint too long (corrupt stream)")


def write_svarint(out: bytearray, value: int) -> None:
    """Append a signed integer as a zigzag varint."""
    write_uvarint(out, zigzag(value))


def read_svarint(data, pos: int) -> Tuple[int, int]:
    """Read one zigzag varint; returns ``(value, next_pos)``."""
    raw, pos = read_uvarint(data, pos)
    return unzigzag(raw), pos


def write_string_table(out: bytearray, strings: Sequence[str]) -> None:
    """Append an interned string table (count, then len-prefixed UTF-8)."""
    write_uvarint(out, len(strings))
    for text in strings:
        raw = text.encode("utf-8")
        write_uvarint(out, len(raw))
        out.extend(raw)


def read_string_table(data, pos: int) -> Tuple[List[str], int]:
    """Invert :func:`write_string_table`."""
    count, pos = read_uvarint(data, pos)
    strings: List[str] = []
    for _ in range(count):
        length, pos = read_uvarint(data, pos)
        if pos + length > len(data):
            raise StoreError("truncated string table")
        strings.append(bytes(data[pos : pos + length]).decode("utf-8"))
        pos += length
    return strings, pos


class StringInterner:
    """Assigns dense ids to strings during encoding (0 is reserved for None)."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.strings: List[str] = []

    def ref(self, text) -> int:
        """Id of ``text`` + 1, or 0 for ``None``."""
        if text is None:
            return 0
        text = str(text)
        ident = self._ids.get(text)
        if ident is None:
            ident = len(self.strings)
            self._ids[text] = ident
            self.strings.append(text)
        return ident + 1


def deref(strings: Sequence[str], ref: int):
    """Invert :meth:`StringInterner.ref` (0 -> ``None``)."""
    if ref == 0:
        return None
    try:
        return strings[ref - 1]
    except IndexError as exc:
        raise StoreError(f"string reference {ref} outside table of {len(strings)}") from exc


# ---------------------------------------------------------------------- #
# Bulk int columns (the payload's workhorse)
# ---------------------------------------------------------------------- #

_NEEDS_SWAP = sys.byteorder != "little"
_U32 = struct.Struct("<I")


def _pack_q(values: Iterable[int]) -> bytes:
    column = array("q", values)
    if _NEEDS_SWAP:
        column.byteswap()
    return column.tobytes()


def _unpack_q(data: memoryview, pos: int, count: int) -> Tuple[array, int]:
    end = pos + 8 * count
    if end > len(data):
        raise StoreError("truncated int column (corrupt binary segment)")
    column = array("q")
    column.frombytes(bytes(data[pos:end]))
    if _NEEDS_SWAP:
        column.byteswap()
    return column, end


def _pack_u32(value: int) -> bytes:
    return _U32.pack(value)


def _unpack_u32(data: memoryview, pos: int) -> Tuple[int, int]:
    if pos + 4 > len(data):
        raise StoreError("truncated count field (corrupt binary segment)")
    return _U32.unpack_from(data, pos)[0], pos + 4


# ---------------------------------------------------------------------- #
# The columnar payload
# ---------------------------------------------------------------------- #

#: Version byte heading the payload (bump on layout changes).
_BINARY_PAYLOAD_VERSION = 1


def encode_payload(nodes: Sequence[SubComputation], edges: Sequence[EdgeTuple]) -> bytes:
    """Encode one segment's nodes and edges as the columnar payload.

    Layout (all integer columns are little-endian 8-byte signed arrays)::

        u8   payload version
        -- interned string table (operation names, started_by/ended_by) --
        varint count; per string: varint byte length + UTF-8 bytes
        -- nodes, columnar --
        u32  node count N
        q[N] tid | q[N] index | q[N] faults
        q[N] started_by ref | q[N] ended_by ref          (0 = None)
        q[N] clock sizes  | q[2*sum] clock (tid, value) pairs, sorted by tid
        q[N] read sizes   | q[sum]   read pages, sorted
        q[N] write sizes  | q[sum]   write pages, sorted
        q[N] thunk counts | q[M] thunk index | q[M] instructions
                          | u8[M] branch flags | q[M] branch sites
        -- edges, columnar --
        u32  edge count E
        q[2E] source (tid, index) pairs | q[2E] target pairs | u8[E] kinds
        per sync edge (in edge order):  u8 has-object-id | q object id | q op ref
        per data edge (in edge order):  q page count     | q[...] pages, sorted

    Branch flags: bit 0 = thunk has a start branch, bit 1 = taken,
    bit 2 = indirect.

    Raises:
        StoreError: For an unknown edge kind or a sync object id that is
            not an integer (or None).
    """
    interner = StringInterner()
    started = [interner.ref(node.started_by) for node in nodes]
    ended = [interner.ref(node.ended_by) for node in nodes]

    clock_sizes: List[int] = []
    clock_pairs: List[int] = []
    read_sizes: List[int] = []
    read_pages: List[int] = []
    write_sizes: List[int] = []
    write_pages: List[int] = []
    thunk_counts: List[int] = []
    thunk_indexes: List[int] = []
    thunk_instructions: List[int] = []
    thunk_flags = bytearray()
    thunk_sites: List[int] = []
    for node in nodes:
        clock = sorted(node.clock.as_dict().items())
        clock_sizes.append(len(clock))
        for tid, value in clock:
            clock_pairs.append(int(tid))
            clock_pairs.append(int(value))
        reads = sorted(node.read_set)
        read_sizes.append(len(reads))
        read_pages.extend(int(page) for page in reads)
        writes = sorted(node.write_set)
        write_sizes.append(len(writes))
        write_pages.extend(int(page) for page in writes)
        thunk_counts.append(len(node.thunks))
        for thunk in node.thunks:
            thunk_indexes.append(int(thunk.index))
            thunk_instructions.append(int(thunk.instructions))
            branch = thunk.start_branch
            if branch is None:
                thunk_flags.append(0)
                thunk_sites.append(0)
            else:
                thunk_flags.append(
                    1 | (2 if branch.taken else 0) | (4 if branch.is_indirect else 0)
                )
                thunk_sites.append(int(branch.site))

    endpoint_pairs: List[int] = []
    target_pairs: List[int] = []
    kind_codes = bytearray()
    sync_block = bytearray()
    data_sizes: List[int] = []
    data_pages: List[int] = []
    for source, target, kind, attrs in edges:
        try:
            kind_codes.append(KIND_TO_CODE[kind])
        except KeyError as exc:
            raise StoreError(f"unknown edge kind {kind!r}") from exc
        endpoint_pairs.extend((int(source[0]), int(source[1])))
        target_pairs.extend((int(target[0]), int(target[1])))
        if kind is EdgeKind.SYNC:
            object_id = attrs.get("object_id")
            if object_id is None:
                sync_block += b"\x00" + _pack_q((0,))
            elif isinstance(object_id, int) and not isinstance(object_id, bool):
                sync_block += b"\x01" + _pack_q((object_id,))
            else:
                raise StoreError(f"sync object ids must be integers, got {object_id!r}")
            sync_block += _pack_q((interner.ref(attrs.get("operation", "")),))
        elif kind is EdgeKind.DATA:
            pages = sorted(attrs.get("pages", ()))
            data_sizes.append(len(pages))
            data_pages.extend(int(page) for page in pages)

    out = bytearray()
    out.append(_BINARY_PAYLOAD_VERSION)
    write_string_table(out, interner.strings)
    out += _pack_u32(len(nodes))
    out += _pack_q(node.tid for node in nodes)
    out += _pack_q(node.index for node in nodes)
    out += _pack_q(node.faults for node in nodes)
    out += _pack_q(started)
    out += _pack_q(ended)
    out += _pack_q(clock_sizes)
    out += _pack_q(clock_pairs)
    out += _pack_q(read_sizes)
    out += _pack_q(read_pages)
    out += _pack_q(write_sizes)
    out += _pack_q(write_pages)
    out += _pack_q(thunk_counts)
    out += _pack_q(thunk_indexes)
    out += _pack_q(thunk_instructions)
    out += bytes(thunk_flags)
    out += _pack_q(thunk_sites)
    out += _pack_u32(len(edges))
    out += _pack_q(endpoint_pairs)
    out += _pack_q(target_pairs)
    out += bytes(kind_codes)
    out += bytes(sync_block)
    out += _pack_q(data_sizes)
    out += _pack_q(data_pages)
    return bytes(out)


def decode_payload(raw: bytes) -> Tuple[List[SubComputation], List[EdgeTuple]]:
    """Invert :func:`encode_payload`.

    Raises:
        StoreError: If the payload is truncated or malformed.
    """
    data = memoryview(raw)
    if len(data) < 1:
        raise StoreError("empty binary segment payload")
    if data[0] != _BINARY_PAYLOAD_VERSION:
        raise StoreError(f"unsupported binary segment payload version {data[0]}")
    strings, pos = read_string_table(data, 1)

    node_count, pos = _unpack_u32(data, pos)
    tids, pos = _unpack_q(data, pos, node_count)
    indexes, pos = _unpack_q(data, pos, node_count)
    faults, pos = _unpack_q(data, pos, node_count)
    started, pos = _unpack_q(data, pos, node_count)
    ended, pos = _unpack_q(data, pos, node_count)
    clock_sizes, pos = _unpack_q(data, pos, node_count)
    clock_pairs, pos = _unpack_q(data, pos, 2 * sum(clock_sizes))
    read_sizes, pos = _unpack_q(data, pos, node_count)
    read_pages, pos = _unpack_q(data, pos, sum(read_sizes))
    write_sizes, pos = _unpack_q(data, pos, node_count)
    write_pages, pos = _unpack_q(data, pos, sum(write_sizes))
    thunk_counts, pos = _unpack_q(data, pos, node_count)
    thunk_total = sum(thunk_counts)
    thunk_indexes, pos = _unpack_q(data, pos, thunk_total)
    thunk_instructions, pos = _unpack_q(data, pos, thunk_total)
    if pos + thunk_total > len(data):
        raise StoreError("truncated branch flags (corrupt binary segment)")
    thunk_flags = bytes(data[pos : pos + thunk_total])
    pos += thunk_total
    thunk_sites, pos = _unpack_q(data, pos, thunk_total)

    nodes: List[SubComputation] = []
    clock_at = read_at = write_at = thunk_at = 0
    for position in range(node_count):
        size = clock_sizes[position]
        clock = {
            clock_pairs[2 * (clock_at + entry)]: clock_pairs[2 * (clock_at + entry) + 1]
            for entry in range(size)
        }
        clock_at += size
        node = SubComputation(
            tid=tids[position],
            index=indexes[position],
            clock=VectorClock(clock),
            started_by=deref(strings, started[position]),
            ended_by=deref(strings, ended[position]),
            faults=faults[position],
        )
        size = read_sizes[position]
        node.read_set.update(read_pages[read_at : read_at + size])
        read_at += size
        size = write_sizes[position]
        node.write_set.update(write_pages[write_at : write_at + size])
        write_at += size
        for entry in range(thunk_counts[position]):
            flags = thunk_flags[thunk_at + entry]
            branch = (
                BranchRecord(
                    site=thunk_sites[thunk_at + entry],
                    taken=bool(flags & 2),
                    is_indirect=bool(flags & 4),
                )
                if flags & 1
                else None
            )
            node.thunks.append(
                Thunk(
                    index=thunk_indexes[thunk_at + entry],
                    start_branch=branch,
                    instructions=thunk_instructions[thunk_at + entry],
                )
            )
        thunk_at += thunk_counts[position]
        nodes.append(node)

    edge_count, pos = _unpack_u32(data, pos)
    sources, pos = _unpack_q(data, pos, 2 * edge_count)
    targets, pos = _unpack_q(data, pos, 2 * edge_count)
    if pos + edge_count > len(data):
        raise StoreError("truncated edge kinds (corrupt binary segment)")
    kind_codes = bytes(data[pos : pos + edge_count])
    pos += edge_count
    sync_fields: List[Tuple[object, str]] = []
    for code in kind_codes:
        if code == KIND_TO_CODE[EdgeKind.SYNC]:
            if pos + 17 > len(data):
                raise StoreError("truncated sync edge block (corrupt binary segment)")
            has_object = data[pos]
            object_column, next_pos = _unpack_q(data, pos + 1, 1)
            ref_column, next_pos = _unpack_q(data, next_pos, 1)
            operation = deref(strings, ref_column[0])
            sync_fields.append(
                (object_column[0] if has_object else None, operation if operation is not None else "")
            )
            pos = next_pos
    data_count = sum(1 for code in kind_codes if code == KIND_TO_CODE[EdgeKind.DATA])
    data_sizes, pos = _unpack_q(data, pos, data_count)
    data_pages, pos = _unpack_q(data, pos, sum(data_sizes))

    edges: List[EdgeTuple] = []
    sync_at = data_at = page_at = 0
    for position, code in enumerate(kind_codes):
        try:
            kind = CODE_TO_KIND[code]
        except KeyError as exc:
            raise StoreError(f"unknown edge kind code {code}") from exc
        source = (sources[2 * position], sources[2 * position + 1])
        target = (targets[2 * position], targets[2 * position + 1])
        attrs: dict = {}
        if kind is EdgeKind.SYNC:
            object_id, operation = sync_fields[sync_at]
            sync_at += 1
            attrs = {"object_id": object_id, "operation": operation}
        elif kind is EdgeKind.DATA:
            size = data_sizes[data_at]
            data_at += 1
            attrs = {"pages": frozenset(data_pages[page_at : page_at + size])}
            page_at += size
        edges.append((source, target, kind, attrs))
    return nodes, edges


__all__ = [
    "EdgeTuple",
    "StringInterner",
    "decode_payload",
    "deref",
    "encode_payload",
    "read_string_table",
    "read_svarint",
    "read_uvarint",
    "write_string_table",
    "write_svarint",
    "write_uvarint",
    "zigzag",
    "unzigzag",
]
