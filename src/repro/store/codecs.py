"""The segment payload: how a batch of nodes+edges becomes bytes.

Every segment stores its sub-computations and edges as one **columnar**
payload (:func:`encode_payload` / :func:`decode_payload`): every integer
column (thread ids, clocks, page sets, branch sites, edge endpoints) is
one ``array('q')`` blob decoded with a single C call, and the few strings
(sync operation names, ``started_by``/``ended_by``) go through an
interned string table.  Variable-length columns (clock differences, page
sets, thunks, data-edge page lists) are length-prefixed per record.  The
framing layer (:mod:`repro.store.segment`) zlib-compresses the payload
inside a checksummed frame; the 8-byte integer columns are mostly small
magnitudes, so DEFLATE shrinks them well and decompresses in C.

Vector clocks, most of a segment's integers when a run starts many
threads, go into one **clock block**: the segment's base clock (the
component-wise minimum over the threads every node carries) once, then
per node a reference -- the base, or the previous node of its thread --
and the components where the node differs from it.  Both directions use
C-level iteration (set operations, ``map``, ``itertools.compress``,
``dict.update``) rather than a Python loop per component, and a decoded
node's clock adopts its dict without re-validating it: the decoder has
already refused non-positive components with one ``min()`` per column.

The module also provides the little-endian varint helpers the index
delta/base files (:mod:`repro.store.indexes`) share; those files are tiny,
so compactness wins over bulk decode speed there.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import compress, islice
from operator import ne
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
_SYNC_CODE = KIND_TO_CODE[EdgeKind.SYNC]
_DATA_CODE = KIND_TO_CODE[EdgeKind.DATA]


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
#: One sync edge's fields: has-object-id flag, object id, operation ref.
_SYNC_FIELDS = struct.Struct("<Bqq")


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


def _unpack_counts(data: memoryview, pos: int, count: int) -> Tuple[array, int, int]:
    """Read a column of per-record lengths; returns ``(column, sum, next_pos)``.

    A negative length would slice later columns from the wrong offset, so
    it is refused here rather than decoded into a different graph.
    """
    column, pos = _unpack_q(data, pos, count)
    if column and min(column) < 0:
        raise StoreError("negative length in a count column (corrupt binary segment)")
    return column, sum(column), pos


def _require_positive(values: array) -> None:
    if values and min(values) <= 0:
        raise StoreError("clock component is not positive (corrupt binary segment)")


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
_BINARY_PAYLOAD_VERSION = 2

#: Clock reference bytes: a node's clock is its reference plus its
#: differences from it.
_REF_BASE = 0
_REF_PREVIOUS = 1


def _encode_clock_block(nodes: Sequence[SubComputation]) -> bytes:
    """The segment's clocks as a base clock plus per-node differences.

    The base is the component-wise minimum over the threads every clock
    carries.  A node refers to the previous node of its own thread when
    that node's threads are a subset of its own (always, when a thread's
    clock only grows), else to the base; either way its clock is the
    reference's entries updated with the differences, so any clocks
    round-trip exactly.
    """
    clocks = [node.clock.as_dict() for node in nodes]
    base_tids = sorted(set(clocks[0]).intersection(*clocks[1:])) if clocks else []
    rows = [list(map(clock.__getitem__, base_tids)) for clock in clocks]
    base_values = list(map(min, zip(*rows)))
    base = dict(zip(base_tids, base_values))
    previous: Dict[int, Dict[int, int]] = {}
    references = bytearray()
    counts = array("q")
    diff_tids = array("q")
    diff_values = array("q")
    for node, clock in zip(nodes, clocks):
        reference = previous.get(node.tid)
        if reference is not None and reference.keys() <= clock.keys():
            references.append(_REF_PREVIOUS)
        else:
            references.append(_REF_BASE)
            reference = base
        changed = sorted(compress(clock, map(ne, clock.values(), map(reference.get, clock))))
        counts.append(len(changed))
        diff_tids.extend(changed)
        diff_values.extend(map(clock.__getitem__, changed))
        previous[node.tid] = clock
    return b"".join(
        (
            _pack_u32(len(base_tids)),
            _pack_q(base_tids),
            _pack_q(base_values),
            bytes(references),
            _pack_q(counts),
            _pack_q(diff_tids),
            _pack_q(diff_values),
        )
    )


def _decode_clock_block(
    data: memoryview, pos: int, tids: Sequence[int]
) -> Tuple[List[Dict[int, int]], int]:
    """Invert :func:`_encode_clock_block`; returns ``(clock dicts, next_pos)``."""
    base_count, pos = _unpack_u32(data, pos)
    base_tids, pos = _unpack_q(data, pos, base_count)
    base_values, pos = _unpack_q(data, pos, base_count)
    _require_positive(base_values)
    node_count = len(tids)
    if pos + node_count > len(data):
        raise StoreError("truncated clock references (corrupt binary segment)")
    references = bytes(data[pos : pos + node_count])
    pos += node_count
    if references and max(references) > _REF_PREVIOUS:
        raise StoreError(f"unknown clock reference {max(references)} (corrupt binary segment)")
    counts, total, pos = _unpack_counts(data, pos, node_count)
    diff_tids, pos = _unpack_q(data, pos, total)
    diff_values, pos = _unpack_q(data, pos, total)
    _require_positive(diff_values)

    base = dict(zip(base_tids, base_values))
    pairs = zip(diff_tids, diff_values)
    previous: Dict[int, Dict[int, int]] = {}
    clocks: List[Dict[int, int]] = []
    for tid, ref, count in zip(tids, references, counts):
        reference = base
        if ref == _REF_PREVIOUS:
            reference = previous.get(tid)
            if reference is None:
                raise StoreError(
                    f"clock of a thread-{tid} node refers to an earlier node of its "
                    f"thread, but the segment has none (corrupt binary segment)"
                )
        clock = reference.copy()
        clock.update(islice(pairs, count))
        previous[tid] = clock
        clocks.append(clock)
    return clocks, pos


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
        -- clock block --
        u32  base size B  | q[B] base tids | q[B] base values
        u8[N] clock reference (0 = base, 1 = previous node of its thread)
        q[N] difference counts | q[sum] tids | q[sum] values, sorted by tid
        -- per-node sets and thunks --
        q[N] read sizes   | q[sum]   read pages, sorted
        q[N] write sizes  | q[sum]   write pages, sorted
        q[N] thunk counts | q[M] thunk index | q[M] instructions
                          | u8[M] branch flags | q[M] branch sites
        -- edges, columnar --
        u32  edge count E
        q[2E] source (tid, index) pairs | q[2E] target pairs | u8[E] kinds
        per sync edge (in edge order):  u8 has-object-id | q object id | q op ref
        per data edge (in edge order):  q page count     | q[...] pages, sorted

    The base clock is the component-wise minimum over the threads every
    node's clock carries.  A node's clock is its reference's entries
    updated with its differences -- the components where the two differ.

    Branch flags: bit 0 = thunk has a start branch, bit 1 = taken,
    bit 2 = indirect.

    Raises:
        StoreError: For an unknown edge kind or a sync object id that is
            not an integer (or None).
    """
    interner = StringInterner()
    started = [interner.ref(node.started_by) for node in nodes]
    ended = [interner.ref(node.ended_by) for node in nodes]

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
    out += _encode_clock_block(nodes)
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
        StoreError: If the payload is truncated or malformed: a negative
            length in any count column, a clock component that is not
            positive, or a clock reference that is unknown or names no
            earlier node of its thread.
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
    clocks, pos = _decode_clock_block(data, pos, tids)
    read_sizes, read_total, pos = _unpack_counts(data, pos, node_count)
    read_pages, pos = _unpack_q(data, pos, read_total)
    write_sizes, write_total, pos = _unpack_counts(data, pos, node_count)
    write_pages, pos = _unpack_q(data, pos, write_total)
    thunk_counts, thunk_total, pos = _unpack_counts(data, pos, node_count)
    thunk_indexes, pos = _unpack_q(data, pos, thunk_total)
    thunk_instructions, pos = _unpack_q(data, pos, thunk_total)
    if pos + thunk_total > len(data):
        raise StoreError("truncated branch flags (corrupt binary segment)")
    thunk_flags = bytes(data[pos : pos + thunk_total])
    pos += thunk_total
    thunk_sites, pos = _unpack_q(data, pos, thunk_total)

    branches = [
        BranchRecord(site=site, taken=bool(flags & 2), is_indirect=bool(flags & 4))
        if flags & 1
        else None
        for flags, site in zip(thunk_flags, thunk_sites)
    ]
    thunks = map(Thunk, thunk_indexes, branches, thunk_instructions)
    reads = iter(read_pages)
    writes = iter(write_pages)
    nodes: List[SubComputation] = []
    columns = zip(
        tids, indexes, faults, started, ended, clocks, read_sizes, write_sizes, thunk_counts
    )
    for tid, index, fault, started_ref, ended_ref, clock, reads_n, writes_n, thunks_n in columns:
        nodes.append(
            SubComputation(
                tid=tid,
                index=index,
                clock=VectorClock.adopt(clock),
                read_set=set(islice(reads, reads_n)),
                write_set=set(islice(writes, writes_n)),
                thunks=list(islice(thunks, thunks_n)),
                started_by=deref(strings, started_ref),
                ended_by=deref(strings, ended_ref),
                faults=fault,
            )
        )

    edge_count, pos = _unpack_u32(data, pos)
    sources, pos = _unpack_q(data, pos, 2 * edge_count)
    targets, pos = _unpack_q(data, pos, 2 * edge_count)
    if pos + edge_count > len(data):
        raise StoreError("truncated edge kinds (corrupt binary segment)")
    kind_codes = bytes(data[pos : pos + edge_count])
    pos += edge_count
    if kind_codes and max(kind_codes) >= len(CODE_TO_KIND):  # codes are 0, 1, 2
        raise StoreError(f"unknown edge kind code {max(kind_codes)}")
    end = pos + _SYNC_FIELDS.size * kind_codes.count(_SYNC_CODE)
    if end > len(data):
        raise StoreError("truncated sync edge block (corrupt binary segment)")
    sync_fields = _SYNC_FIELDS.iter_unpack(data[pos:end])
    pos = end
    data_sizes, data_total, pos = _unpack_counts(data, pos, kind_codes.count(_DATA_CODE))
    data_pages, pos = _unpack_q(data, pos, data_total)

    data_counts = iter(data_sizes)
    edge_pages = iter(data_pages)
    edges: List[EdgeTuple] = []
    for source, target, code in zip(
        zip(sources[0::2], sources[1::2]), zip(targets[0::2], targets[1::2]), kind_codes
    ):
        attrs: dict = {}
        if code == _SYNC_CODE:
            has_object, object_id, operation_ref = next(sync_fields)
            operation = deref(strings, operation_ref)
            attrs = {
                "object_id": object_id if has_object else None,
                "operation": operation if operation is not None else "",
            }
        elif code == _DATA_CODE:
            attrs = {"pages": frozenset(islice(edge_pages, next(data_counts)))}
        edges.append((source, target, CODE_TO_KIND[code], attrs))
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
