"""Secondary indexes of the persistent provenance store.

The indexes are the in-memory part of the out-of-core design: they are
small (node ids and page numbers, no read/write sets, no thunks), and
every query starts here to decide which segments are worth loading.

One :class:`StoreIndexes` instance covers one **run**: node ids
``(tid, index)`` are only unique within a run, so the store keeps a
separate index namespace per run, persisted under ``index/run-<id>/``.

Five index families exist, each holding node ids as ``(tid, index)``
tuples (``"tid:index"`` strings belong to the wire format only):

* **nodes** -- node id -> owning segment and causal rank.  The rank is
  the sum of the node's clock components, the first part of
  :func:`~repro.core.cpg.causal_key`; taint replay and compaction walk
  :meth:`StoreIndexes.causal_order`, which sorts by it, so every ingest
  path yields the same order as the in-memory graph.
* **pages** -- page -> writer/reader node ids (the same maps the
  in-memory :class:`~repro.core.cpg.ConcurrentProvenanceGraph` keeps, so
  both are run views for :mod:`repro.core.queries`).
* **threads** -- thread id -> its sub-computation indexes and segments.
* **sync** -- synchronization object id -> recorded release->acquire
  edges as ``(source, target, operation, segment)`` tuples.
* **edges** -- node id -> segments holding its incoming / outgoing edges.

The **read and write maps** (node id -> pages it read / wrote, the
inversions of the page readers and writers) are in memory only: added
nodes fill them, and a base load rebuilds them from the page maps it has
just read.  With them and the causal order, taint replays from the
indexes alone.

Persistence is **append-only**: every
:meth:`~StoreIndexes.add_node` / :meth:`~StoreIndexes.add_edge` call is
journalled as a pending *op*, and a flush writes just the ops since the
previous flush as one binary ``delta-<gen>.bin`` file -- O(epoch), not
O(index).  Opening a run (:meth:`StoreIndexes.load`) reads its folded
``base-<gen>.bin`` (if any) and replays the pending deltas in generation
order; compaction folds the deltas back into a fresh base.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cpg import EdgeKind, causal_key, causal_positions
from repro.core.serialization import node_key
from repro.core.thunk import NodeId, SubComputation
from repro.errors import StoreError

from repro.store import files
from repro.store.codecs import (
    CODE_TO_KIND,
    KIND_TO_CODE,
    read_string_table,
    read_svarint,
    read_uvarint,
    write_string_table,
    write_svarint,
    write_uvarint,
    StringInterner,
    deref,
)
from repro.store.format import index_base_file_name, index_delta_file_name
from repro.store.segment import EdgeTuple

_INDEX_MAGIC = b"IIDX"
_INDEX_VERSION = 1
_FILE_KIND_BASE = 0
_FILE_KIND_DELTA = 1

_OP_NODE = 0
_OP_EDGE = 1


def _write_sorted_ints(out: bytearray, values: Sequence[int]) -> None:
    """Append a sorted int list as first-value + non-negative deltas."""
    write_uvarint(out, len(values))
    previous: Optional[int] = None
    for value in values:
        if previous is None:
            write_svarint(out, value)
        else:
            write_uvarint(out, value - previous)
        previous = value


def _read_sorted_ints(data, pos: int) -> Tuple[List[int], int]:
    count, pos = read_uvarint(data, pos)
    values: List[int] = []
    previous = 0
    for position in range(count):
        if position == 0:
            previous, pos = read_svarint(data, pos)
        else:
            delta, pos = read_uvarint(data, pos)
            previous += delta
        values.append(previous)
    return values, pos


def _write_node_id(out: bytearray, node_id: NodeId) -> None:
    write_svarint(out, node_id[0])
    write_uvarint(out, node_id[1])


def _read_node_id(data, pos: int) -> Tuple[NodeId, int]:
    tid, pos = read_svarint(data, pos)
    index, pos = read_uvarint(data, pos)
    return (tid, index), pos


def _inverted(page_map: Dict[int, List[NodeId]]) -> Dict[NodeId, Tuple[int, ...]]:
    """Node id -> the pages whose entry in ``page_map`` lists it."""
    pages_of: Dict[NodeId, List[int]] = {}
    for page, node_ids in page_map.items():
        for node_id in node_ids:
            pages_of.setdefault(node_id, []).append(page)
    return {node_id: tuple(pages) for node_id, pages in pages_of.items()}


class StoreIndexes:
    """All secondary indexes of one run, with load/save and query helpers."""

    def __init__(self) -> None:
        #: node id -> segment id
        self.node_segments: Dict[NodeId, int] = {}
        #: node id -> causal rank (sum of the node's clock components)
        self.node_rank: Dict[NodeId, int] = {}
        #: page -> node ids that wrote it
        self.page_writers: Dict[int, List[NodeId]] = {}
        #: page -> node ids that read it
        self.page_readers: Dict[int, List[NodeId]] = {}
        #: node id -> pages it read (in memory only; absent if none)
        self.node_reads: Dict[NodeId, Tuple[int, ...]] = {}
        #: node id -> pages it wrote (in memory only; absent if none)
        self.node_writes: Dict[NodeId, Tuple[int, ...]] = {}
        #: node id -> position in the causal order, keys in that order
        #: (in memory only; built on first use, rebuilt once nodes were added)
        self._positions: Dict[NodeId, int] = {}
        #: tid -> sorted sub-computation indexes of the thread
        self.thread_indexes: Dict[int, List[int]] = {}
        #: tid -> segments holding the thread's nodes
        self.thread_segments: Dict[int, List[int]] = {}
        #: sync object id -> (source, target, operation, segment) per edge
        self.sync_edges: Dict[int, List[Tuple[NodeId, NodeId, str, int]]] = {}
        #: node id -> segments holding edges that end at the node
        self.in_edge_segments: Dict[NodeId, List[int]] = {}
        #: node id -> segments holding edges that start at the node
        self.out_edge_segments: Dict[NodeId, List[int]] = {}
        #: Ops journalled since the last persisted generation (the next
        #: delta file's content).
        self._pending: List[tuple] = []
        #: Whether the in-memory state is not reproducible from the
        #: on-disk base+deltas (a rebuild from segments, a compaction) and
        #: the next flush must therefore write a full base file.
        self.needs_base = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_node(self, segment_id: int, node: SubComputation) -> None:
        """Register one stored sub-computation (journalled for the next delta)."""
        rank = causal_key(node)[0]
        reads = sorted(node.read_set)
        writes = tuple(sorted(node.write_set))
        self._apply_node(segment_id, node.tid, node.index, rank, reads, writes)
        self._pending.append((_OP_NODE, segment_id, node.tid, node.index, rank, reads, writes))

    def add_edge(self, segment_id: int, edge: EdgeTuple) -> None:
        """Register one stored edge (journalled for the next delta)."""
        source, target, kind, attrs = edge
        object_id = attrs.get("object_id") if kind is EdgeKind.SYNC else None
        operation = str(attrs.get("operation", "")) if kind is EdgeKind.SYNC else None
        if object_id is not None:
            object_id = int(object_id)
        self._apply_edge(segment_id, source, target, kind, object_id, operation)
        self._pending.append(
            (_OP_EDGE, segment_id, source, target, KIND_TO_CODE[kind], object_id, operation)
        )

    def _apply_node(
        self,
        segment_id: int,
        tid: int,
        index: int,
        rank: int,
        read_pages: Sequence[int],
        write_pages: Sequence[int],
    ) -> None:
        node_id = (tid, index)
        if node_id in self.node_segments:
            raise StoreError(f"node {node_key(node_id)} ingested twice")
        self.node_segments[node_id] = segment_id
        self.node_rank[node_id] = rank
        if read_pages:
            self.node_reads[node_id] = tuple(read_pages)
        if write_pages:
            self.node_writes[node_id] = tuple(write_pages)
        for page in write_pages:
            self.page_writers.setdefault(page, []).append(node_id)
        for page in read_pages:
            self.page_readers.setdefault(page, []).append(node_id)
        indexes = self.thread_indexes.setdefault(tid, [])
        indexes.append(index)
        segments = self.thread_segments.setdefault(tid, [])
        if not segments or segments[-1] != segment_id:
            segments.append(segment_id)

    def _apply_edge(
        self,
        segment_id: int,
        source: NodeId,
        target: NodeId,
        kind: EdgeKind,
        object_id: Optional[int],
        operation: Optional[str],
    ) -> None:
        incoming = self.in_edge_segments.setdefault(target, [])
        if not incoming or incoming[-1] != segment_id:
            incoming.append(segment_id)
        outgoing = self.out_edge_segments.setdefault(source, [])
        if not outgoing or outgoing[-1] != segment_id:
            outgoing.append(segment_id)
        if kind is EdgeKind.SYNC and object_id is not None:
            self.sync_edges.setdefault(object_id, []).append(
                (source, target, operation or "", segment_id)
            )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def has_node(self, node_id: NodeId) -> bool:
        """Whether the store holds ``node_id``."""
        return node_id in self.node_segments

    def segment_of(self, node_id: NodeId) -> int:
        """Segment holding ``node_id``'s record."""
        try:
            return self.node_segments[node_id]
        except KeyError as exc:
            raise StoreError(f"no sub-computation {node_id} in the store") from exc

    def causal_order(self, node_ids: Optional[Iterable[NodeId]] = None) -> List[NodeId]:
        """``node_ids`` (every node when ``None``) in the causal order, from the ranks."""
        if len(self._positions) != len(self.node_rank):
            self._positions = causal_positions(self.node_rank)
        if node_ids is None:
            return list(self._positions)
        return sorted(node_ids, key=self._positions.__getitem__)

    def writers_of_page(self, page: int) -> List[NodeId]:
        """Node ids whose write set contains ``page`` (a fresh list)."""
        return list(self.page_writers.get(page, ()))

    def pages_touched(self) -> Set[int]:
        """Every page some stored node read or wrote (the cross-run summary)."""
        return set(self.page_writers) | set(self.page_readers)

    def thread_nodes_from(self, tid: int, index: int) -> List[NodeId]:
        """Node ids ``(tid, i)`` with ``i >= index``, in execution order."""
        return [(tid, i) for i in self.thread_indexes.get(tid, ()) if i >= index]

    def in_segments(self, node_id: NodeId) -> List[int]:
        """Segments holding edges that end at ``node_id``."""
        return self.in_edge_segments.get(node_id, [])

    def out_segments(self, node_id: NodeId) -> List[int]:
        """Segments holding edges that start at ``node_id``."""
        return self.out_edge_segments.get(node_id, [])

    def nodes(self) -> List[NodeId]:
        """Every stored node id, sorted."""
        return sorted(self.node_segments)

    def is_consistent_with(self, valid_segments: Iterable[int], expected_nodes: int) -> bool:
        """Whether this index generation matches a manifest generation.

        The manifest is the store's commit point; this check detects index
        state that references segments the manifest never committed
        (corrupt or stray generation files), after which the run's indexes
        are rebuilt from its (committed, ground-truth) segments.  Cheap: in-memory set membership only, no
        segment I/O.
        """
        valid = set(valid_segments)
        if len(self.node_segments) != expected_nodes:
            return False
        if any(segment not in valid for segment in self.node_segments.values()):
            return False
        for segments in self.thread_segments.values():
            if any(segment not in valid for segment in segments):
                return False
        for records in self.sync_edges.values():
            if any(record[3] not in valid for record in records):
                return False
        for family in (self.in_edge_segments, self.out_edge_segments):
            for segments in family.values():
                if any(segment not in valid for segment in segments):
                    return False
        return True

    # ------------------------------------------------------------------ #
    # Persistence: append-only deltas + folded base
    # ------------------------------------------------------------------ #

    @property
    def has_pending(self) -> bool:
        """Whether ops were journalled since the last persisted generation."""
        return bool(self._pending)

    def clear_pending(self) -> None:
        """Drop the journal (after the ops were persisted or folded)."""
        self._pending = []

    def save_delta(self, run_dir: str, generation: int) -> List[int]:
        """Write the pending ops as ``delta-<generation>.bin``; returns ``[size, crc]``.

        O(ops since the last flush), independent of the index size -- this
        is what turns a streaming sink's flush cost from O(run so far)
        into O(epoch).
        """
        interner = StringInterner()
        body = bytearray()
        write_uvarint(body, len(self._pending))
        for op in self._pending:
            body.append(op[0])
            if op[0] == _OP_NODE:
                _tag, segment_id, tid, index, rank, reads, writes = op
                write_uvarint(body, segment_id)
                write_svarint(body, tid)
                write_uvarint(body, index)
                write_uvarint(body, rank)
                _write_sorted_ints(body, reads)
                _write_sorted_ints(body, writes)
            else:
                _tag, segment_id, source, target, kind_code, object_id, operation = op
                write_uvarint(body, segment_id)
                _write_node_id(body, source)
                _write_node_id(body, target)
                body.append(kind_code)
                if kind_code == KIND_TO_CODE[EdgeKind.SYNC]:
                    if object_id is None:
                        body.append(0)
                    else:
                        body.append(1)
                        write_svarint(body, object_id)
                    write_uvarint(body, interner.ref(operation))
        return self._write_binary(
            run_dir, index_delta_file_name(generation), _FILE_KIND_DELTA, interner.strings, body
        )

    def save_base(self, run_dir: str, generation: int) -> List[int]:
        """Write the full in-memory state as ``base-<generation>.bin``; returns ``[size, crc]``.

        Written when deltas are folded (compaction) and after a rebuild.
        """
        interner = StringInterner()
        body = bytearray()
        write_uvarint(body, len(self.node_segments))
        for node_id, segment_id in self.node_segments.items():
            _write_node_id(body, node_id)
            write_uvarint(body, segment_id)
            write_uvarint(body, self.node_rank[node_id])
        for family in (self.page_writers, self.page_readers):
            write_uvarint(body, len(family))
            for page, node_ids in family.items():
                write_svarint(body, page)
                write_uvarint(body, len(node_ids))
                for node_id in node_ids:
                    _write_node_id(body, node_id)
        write_uvarint(body, len(self.thread_indexes))
        for tid, indexes in self.thread_indexes.items():
            write_svarint(body, tid)
            write_uvarint(body, len(indexes))
            for index in indexes:
                write_uvarint(body, index)
            segments = self.thread_segments.get(tid, [])
            write_uvarint(body, len(segments))
            for segment_id in segments:
                write_uvarint(body, segment_id)
        write_uvarint(body, len(self.sync_edges))
        for object_id, records in self.sync_edges.items():
            write_svarint(body, object_id)
            write_uvarint(body, len(records))
            for source, target, operation, segment_id in records:
                _write_node_id(body, source)
                _write_node_id(body, target)
                write_uvarint(body, interner.ref(operation))
                write_uvarint(body, segment_id)
        for family in (self.in_edge_segments, self.out_edge_segments):
            write_uvarint(body, len(family))
            for node_id, segments in family.items():
                _write_node_id(body, node_id)
                write_uvarint(body, len(segments))
                for segment_id in segments:
                    write_uvarint(body, segment_id)
        return self._write_binary(
            run_dir, index_base_file_name(generation), _FILE_KIND_BASE, interner.strings, body
        )

    @staticmethod
    def _write_binary(
        run_dir: str, name: str, file_kind: int, strings: Sequence[str], body: bytes
    ) -> List[int]:
        # A generation is never reused: the file is written once, and
        # nothing names it until the flush's commit records its checksum.
        out = bytearray(_INDEX_MAGIC)
        out.append(_INDEX_VERSION)
        out.append(file_kind)
        write_string_table(out, strings)
        out += body
        return files.write_once(os.path.join(run_dir, name), out)

    @staticmethod
    def _read_binary(run_dir: str, name: str, expect_kind: int) -> Tuple[List[str], bytes, int]:
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            raise StoreError(f"missing index file {name}")
        with open(path, "rb") as handle:
            data = handle.read()
        if len(data) < 6 or not data.startswith(_INDEX_MAGIC):
            raise StoreError(f"corrupt index file {name} (bad magic)")
        if data[4] != _INDEX_VERSION:
            raise StoreError(f"unsupported index file version {data[4]} in {name}")
        if data[5] != expect_kind:
            raise StoreError(f"index file {name} has kind {data[5]}, expected {expect_kind}")
        strings, pos = read_string_table(data, 6)
        return strings, data, pos

    @classmethod
    def load(
        cls, run_dir: str, base_generation: int, delta_generations: Sequence[int]
    ) -> "StoreIndexes":
        """Load the base (if any) and replay the deltas in generation order.

        Raises:
            StoreError: For a missing, truncated, or corrupt generation
                file -- the caller's signal to rebuild from segments.
        """
        indexes = cls()
        if base_generation:
            indexes._load_base(run_dir, base_generation)
        for generation in delta_generations:
            indexes._apply_delta_file(run_dir, generation)
        indexes.clear_pending()
        return indexes

    def _load_base(self, run_dir: str, generation: int) -> None:
        strings, data, pos = self._read_binary(
            run_dir, index_base_file_name(generation), _FILE_KIND_BASE
        )
        try:
            count, pos = read_uvarint(data, pos)
            for _ in range(count):
                node_id, pos = _read_node_id(data, pos)
                segment_id, pos = read_uvarint(data, pos)
                rank, pos = read_uvarint(data, pos)
                self.node_segments[node_id] = segment_id
                self.node_rank[node_id] = rank
            for family in (self.page_writers, self.page_readers):
                pages, pos = read_uvarint(data, pos)
                for _ in range(pages):
                    page, pos = read_svarint(data, pos)
                    entries, pos = read_uvarint(data, pos)
                    node_ids: List[NodeId] = []
                    for _ in range(entries):
                        node_id, pos = _read_node_id(data, pos)
                        node_ids.append(node_id)
                    family[page] = node_ids
            # The read and write maps are not persisted: invert the page maps once.
            self.node_reads = _inverted(self.page_readers)
            self.node_writes = _inverted(self.page_writers)
            threads, pos = read_uvarint(data, pos)
            for _ in range(threads):
                tid, pos = read_svarint(data, pos)
                entries, pos = read_uvarint(data, pos)
                values: List[int] = []
                for _ in range(entries):
                    value, pos = read_uvarint(data, pos)
                    values.append(value)
                self.thread_indexes[tid] = values
                entries, pos = read_uvarint(data, pos)
                segments: List[int] = []
                for _ in range(entries):
                    value, pos = read_uvarint(data, pos)
                    segments.append(value)
                self.thread_segments[tid] = segments
            objects, pos = read_uvarint(data, pos)
            for _ in range(objects):
                object_id, pos = read_svarint(data, pos)
                entries, pos = read_uvarint(data, pos)
                records = []
                for _ in range(entries):
                    source, pos = _read_node_id(data, pos)
                    target, pos = _read_node_id(data, pos)
                    ref, pos = read_uvarint(data, pos)
                    segment_id, pos = read_uvarint(data, pos)
                    operation = deref(strings, ref)
                    records.append(
                        (source, target, operation if operation is not None else "", segment_id)
                    )
                self.sync_edges[object_id] = records
            for family in (self.in_edge_segments, self.out_edge_segments):
                count, pos = read_uvarint(data, pos)
                for _ in range(count):
                    node_id, pos = _read_node_id(data, pos)
                    entries, pos = read_uvarint(data, pos)
                    segments = []
                    for _ in range(entries):
                        value, pos = read_uvarint(data, pos)
                        segments.append(value)
                    family[node_id] = segments
        except (IndexError, ValueError) as exc:
            raise StoreError(
                f"corrupt index base generation {generation}: {exc}"
            ) from exc

    def _apply_delta_file(self, run_dir: str, generation: int) -> None:
        strings, data, pos = self._read_binary(
            run_dir, index_delta_file_name(generation), _FILE_KIND_DELTA
        )
        try:
            ops, pos = read_uvarint(data, pos)
            for _ in range(ops):
                if pos >= len(data):
                    raise StoreError("truncated op stream")
                tag = data[pos]
                pos += 1
                if tag == _OP_NODE:
                    segment_id, pos = read_uvarint(data, pos)
                    tid, pos = read_svarint(data, pos)
                    index, pos = read_uvarint(data, pos)
                    rank, pos = read_uvarint(data, pos)
                    reads, pos = _read_sorted_ints(data, pos)
                    writes, pos = _read_sorted_ints(data, pos)
                    self._apply_node(segment_id, tid, index, rank, reads, writes)
                elif tag == _OP_EDGE:
                    segment_id, pos = read_uvarint(data, pos)
                    source, pos = _read_node_id(data, pos)
                    target, pos = _read_node_id(data, pos)
                    if pos >= len(data):
                        raise StoreError("truncated edge op")
                    kind = CODE_TO_KIND.get(data[pos])
                    if kind is None:
                        raise StoreError(f"unknown edge kind code {data[pos]}")
                    pos += 1
                    object_id: Optional[int] = None
                    operation: Optional[str] = None
                    if kind is EdgeKind.SYNC:
                        if pos >= len(data):
                            raise StoreError("truncated sync edge op")
                        has_object = data[pos]
                        pos += 1
                        if has_object:
                            object_id, pos = read_svarint(data, pos)
                        ref, pos = read_uvarint(data, pos)
                        operation = deref(strings, ref)
                    self._apply_edge(segment_id, source, target, kind, object_id, operation)
                else:
                    raise StoreError(f"unknown index op tag {tag}")
        except (IndexError, ValueError) as exc:
            raise StoreError(
                f"corrupt index delta generation {generation}: {exc}"
            ) from exc
