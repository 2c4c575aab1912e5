"""On-disk layout of the persistent provenance store.

A store is a directory (format version 9)::

    <store>/
        MANIFEST.json                   # periodic checkpoint: run table, segment table
        segments.log                    # append-only per-flush commit records
        segments/seg-<id>.seg           # immutable, checksummed segments
        index/pages_runs.json           # cross-run summary: page -> run ids
        index/run-<id>/base-<gen>.bin   # folded secondary indexes of the run
        index/run-<id>/delta-<gen>.bin  # append-only per-flush index deltas
        index/baselines/<name>.json     # blessed baselines (repro.store.gate)

One store holds **many traced runs**.  Every run gets a :class:`RunInfo`
entry in the manifest (minted at ingest, carrying workload name, config and
wall-clock metadata), every segment belongs to exactly one run, and every
run owns its own index directory -- node ids ``(tid, index)`` are only
unique *within* a run, so the run id is the namespace that lets two
executions of the same program coexist.

Segments are immutable once written; ingestion appends new segments, one
small *index delta* file per flush, and one framed commit record to the
append-only **segment log** (``segments.log``, see :mod:`repro.store.log`),
so the per-flush cost does not grow with the segment count.  It does grow
with the run count: each record carries the whole run table, and each run
completion rewrites the whole manifest (ROADMAP item 6).  The manifest is a
periodic *checkpoint*: it carries ``log_seq``, the sequence number of the
last log record folded into it, and opening a store replays the committed
log tail (records with a higher sequence number) on top of the
checkpoint.  A torn tail record -- the crash window of an append -- is
detected by the log's framing and simply truncated.
Maintenance rewrites are run-scoped:
:meth:`~repro.store.store.ProvenanceStore.compact` replaces a run's
segments with fewer, denser ones (streaming, segment by segment) and folds
its index deltas into a fresh base file;
:meth:`~repro.store.store.ProvenanceStore.gc` drops whole runs.  Both
commit through a manifest checkpoint before any old file is deleted, so a
crash at any point leaves a consistent store.

Segment ids and index generations are minted from monotonic counters and
never reused, so a segment or index file is written once under a name no
commit has named yet; only the files kept under a fixed name (the
manifest, the log, the page summary, baselines) are replaced, through a
scratch file ending in :data:`SCRATCH_SUFFIX`.  :mod:`repro.store.files`
does every such write, and lists as *orphans* whatever is on disk that
:meth:`StoreManifest.files` does not name.  This module owns the names:
the builders (:func:`segment_file_name` ...) and the parsers
(:func:`parse_segment_file_name` ...) sit side by side.

Every segment is one frame (:mod:`repro.store.segment`): the ``ISEG``
magic, the frame byte :data:`SEGMENT_FRAME_BYTE`, the raw payload length,
a CRC32 of the body, and the zlib-compressed columnar payload
(:mod:`repro.store.codecs`), whose vector clocks are stored as one base
clock plus each node's differences from a reference clock.  The manifest
records every segment's file CRC as well.  Since format 9, each node's
rank in its run's index is the sum of its clock components.  This build
reads and writes format 9 only: a store stamped with any other version
is refused on open, before anything is written, and must be re-ingested.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.errors import StoreError

#: Version of the store directory layout, the only one this build reads.
STORE_FORMAT_VERSION = 9

#: Identifies a manifest as belonging to this subsystem.
STORE_KIND = "inspector-provenance-store"

MANIFEST_NAME = "MANIFEST.json"
SEGMENTS_DIR = "segments"
INDEX_DIR = "index"

#: The append-only segment log: one framed commit record per flush,
#: replayed on top of the manifest checkpoint at open.
SEGMENT_LOG_NAME = "segments.log"

#: How many log records accumulate before a flush folds them into a fresh
#: manifest checkpoint (and resets the log).  Bounds both replay work at
#: open and the log's disk footprint; maintenance and run completion
#: checkpoint eagerly regardless.
DEFAULT_CHECKPOINT_INTERVAL = 64

#: Cross-run page summary (page -> run ids that touched it), inside
#: :data:`INDEX_DIR`; lets ``*_across_runs`` queries skip runs without
#: opening their per-run indexes.
PAGES_RUNS_FILE = "pages_runs.json"

#: Directory inside :data:`INDEX_DIR` holding blessed baselines
#: (:mod:`repro.store.gate`).  It does not parse as a run index directory,
#: so the orphan sweep removes only scratch files there.
BASELINES_DIR = "baselines"

#: Suffix of the scratch file a replacement is written to before its
#: rename; anything on disk ending in it is crash residue.
SCRATCH_SUFFIX = ".tmp"

#: Directory compaction spills per-batch edges into (inside the store, so
#: a crash leaves it for the next maintenance sweep to remove).
COMPACT_SPILL_DIR = "tmp-compact"

#: Magic heading every segment frame.
SEGMENT_MAGIC_PREFIX = b"ISEG"

#: The byte after the magic: zlib-compressed columnar payload (``0x04``)
#: with a CRC32 of the body in the frame (``0x80``).  The only frame byte
#: this build reads or writes.
SEGMENT_FRAME_BYTE = 0x84

#: Number of sub-computations per segment unless the caller overrides it;
#: also the epoch length of the incremental ingest sink.
DEFAULT_SEGMENT_NODES = 64

#: What parsing a malformed manifest or log record raises besides
#: :class:`StoreError` (a wrong type, a missing key, a non-numeric id).
MALFORMED_RECORD_ERRORS = (KeyError, TypeError, ValueError, AttributeError, IndexError)


def segment_file_name(segment_id: int) -> str:
    """File name of segment ``segment_id`` inside :data:`SEGMENTS_DIR`."""
    return f"seg-{segment_id:08d}.seg"


def run_index_dir_name(run_id: int) -> str:
    """Directory name of run ``run_id``'s indexes inside :data:`INDEX_DIR`."""
    return f"run-{run_id:08d}"


def index_base_file_name(generation: int) -> str:
    """File name of a run's folded index base at ``generation``."""
    return f"base-{generation:08d}.bin"


def index_delta_file_name(generation: int) -> str:
    """File name of one append-only index delta at ``generation``."""
    return f"delta-{generation:08d}.bin"


def baseline_file_name(name: str) -> str:
    """File name of baseline ``name`` inside :data:`BASELINES_DIR`."""
    return f"{name}.json"


_SEGMENT_FILE_RE = re.compile(r"seg-(\d{8})\.seg")
_RUN_DIR_RE = re.compile(r"run-(\d{8})")
_INDEX_FILE_RE = re.compile(r"(?:base|delta)-\d{8}\.bin")


def parse_segment_file_name(name: str) -> Optional[int]:
    """The segment id ``name`` encodes, or None for any other name."""
    match = _SEGMENT_FILE_RE.fullmatch(name)
    return int(match.group(1)) if match else None


def parse_run_index_dir_name(name: str) -> Optional[int]:
    """The run id a run index directory name encodes, or None."""
    match = _RUN_DIR_RE.fullmatch(name)
    return int(match.group(1)) if match else None


def parse_baseline_file_name(file_name: str) -> Optional[str]:
    """The baseline name a baseline file name encodes, or None."""
    return file_name[: -len(".json")] if file_name.endswith(".json") else None


def is_index_file_name(name: str) -> bool:
    """Whether ``name`` is an index base or delta generation file name."""
    return _INDEX_FILE_RE.fullmatch(name) is not None


def is_store_file(rel: str) -> bool:
    """Whether ``/``-separated ``rel`` is a structural store file name.

    Only the manifest, the segment log, a segment, the page summary or a
    run's index generation pass: never ``..``, an absolute path, or more.
    """
    parts = rel.split("/")
    return (
        rel in (MANIFEST_NAME, SEGMENT_LOG_NAME, f"{INDEX_DIR}/{PAGES_RUNS_FILE}")
        or (len(parts) == 2 and parts[0] == SEGMENTS_DIR and parse_segment_file_name(parts[1]) is not None)
        or (
            len(parts) == 3
            and parts[0] == INDEX_DIR
            and parse_run_index_dir_name(parts[1]) is not None
            and is_index_file_name(parts[2])
        )
    )


def file_size_crc(path: str) -> List[int]:
    """``[size, CRC32]`` of the file at ``path``, streamed in 1 MiB chunks.

    The pair is what the manifest records per store file and what fsck,
    scrub, and replica repair compare against.  I/O errors propagate as
    :class:`OSError` -- the caller decides whether an unreadable file is
    damage (scrub) or a bad request (repair).
    """
    size = 0
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            size += len(chunk)
            crc = zlib.crc32(chunk, crc)
    return [size, crc & 0xFFFFFFFF]


@dataclass
class SegmentInfo:
    """Manifest entry describing one sealed segment.

    Attributes:
        segment_id: Id minted from ``StoreManifest.next_segment_id``; also
            determines the file name.  Ids are never reused, even after the
            segment is compacted or garbage-collected away.
        run: Id of the run the segment belongs to.
        nodes: Number of sub-computations stored in the segment.
        edges: Number of edges stored in the segment.
        raw_bytes: Size of the uncompressed payload.
        stored_bytes: Size of the segment file on disk (frame + body).
        crc: CRC32 of the segment *file* (frame header included), recorded
            at append/compact time so fsck, scrub, and replica repair can
            diff files without decoding them.
    """

    segment_id: int
    run: int
    nodes: int
    edges: int
    raw_bytes: int
    stored_bytes: int
    crc: int

    @property
    def file_name(self) -> str:
        """The segment's file name."""
        return segment_file_name(self.segment_id)

    def to_dict(self) -> dict:
        return {
            "id": self.segment_id,
            "run": self.run,
            "nodes": self.nodes,
            "edges": self.edges,
            "raw_bytes": self.raw_bytes,
            "stored_bytes": self.stored_bytes,
            "crc": self.crc,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentInfo":
        missing = [
            key
            for key in ("id", "run", "nodes", "edges", "raw_bytes", "stored_bytes", "crc")
            if key not in data
        ]
        if missing:
            raise StoreError(f"segment entry is missing field(s) {missing}: {data!r}")
        return cls(
            segment_id=int(data["id"]),
            run=int(data["run"]),
            nodes=int(data["nodes"]),
            edges=int(data["edges"]),
            raw_bytes=int(data["raw_bytes"]),
            stored_bytes=int(data["stored_bytes"]),
            crc=int(data["crc"]),
        )


#: A run whose ingest is still streaming (or died mid-stream); readable up
#: to its last committed epoch.
RUN_RUNNING = "running"

#: A run whose ingest finished cleanly.
RUN_COMPLETE = "complete"


@dataclass
class RunInfo:
    """Manifest entry describing one traced run (the node-id namespace).

    Attributes:
        run_id: Id minted from ``StoreManifest.next_run_id``; never reused.
        workload: Name of the workload that produced the run.
        status: :data:`RUN_RUNNING` while streaming, :data:`RUN_COMPLETE`
            once the ingest finished.
        created_at: Wall-clock timestamp (ISO 8601) supplied by the ingest
            path, or whatever the caller passed as run metadata.
        nodes: Sub-computations ingested for the run so far.
        edges: Edges ingested for the run so far.
        index_base: Generation of the run's folded index base file
            (``base-<gen>.bin``); 0 while no base has been written.
        index_deltas: Generations of the append-only index delta files
            pending on top of the base, in flush order.
        next_index_gen: Next index generation to mint (monotonic, never
            reused -- the same recovery argument as segment ids).
        index_checksums: ``(size, crc)`` per index file of the run, keyed
            by file name (``base-<gen>.bin`` / ``delta-<gen>.bin``),
            recorded when the file is written.  A file without an entry
            verifies as ``unverified``.
        meta: Free-form run metadata (thread count, config, input size...).
    """

    run_id: int
    workload: str = ""
    status: str = RUN_RUNNING
    created_at: str = ""
    nodes: int = 0
    edges: int = 0
    index_base: int = 0
    index_deltas: List[int] = field(default_factory=list)
    next_index_gen: int = 1
    index_checksums: Dict[str, List[int]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def record_index_checksum(self, file_name: str, size: int, crc: int) -> None:
        """Remember ``(size, crc)`` of one just-written index file."""
        self.index_checksums[file_name] = [int(size), int(crc)]

    def index_file_names(self) -> List[str]:
        """The index files the run references: its base (if any), then its deltas."""
        names = [index_base_file_name(self.index_base)] if self.index_base else []
        names.extend(index_delta_file_name(gen) for gen in self.index_deltas)
        return names

    def prune_index_checksums(self) -> None:
        """Drop checksum entries for files the run no longer references."""
        live = set(self.index_file_names())
        self.index_checksums = {
            name: pair for name, pair in self.index_checksums.items() if name in live
        }

    def to_dict(self) -> dict:
        entry = {
            "id": self.run_id,
            "workload": self.workload,
            "status": self.status,
            "created_at": self.created_at,
            "nodes": self.nodes,
            "edges": self.edges,
            "index_base": self.index_base,
            "index_deltas": list(self.index_deltas),
            "next_index_gen": self.next_index_gen,
            "meta": dict(self.meta),
        }
        if self.index_checksums:
            entry["index_checksums"] = {
                name: list(pair) for name, pair in self.index_checksums.items()
            }
        return entry

    @classmethod
    def from_dict(cls, data: dict) -> "RunInfo":
        if "id" not in data:
            raise StoreError(f"run entry is missing its id: {data!r}")
        return cls(
            run_id=int(data["id"]),
            workload=str(data.get("workload", "")),
            status=str(data.get("status", RUN_COMPLETE)),
            created_at=str(data.get("created_at", "")),
            nodes=int(data.get("nodes", 0)),
            edges=int(data.get("edges", 0)),
            index_base=int(data.get("index_base", 0)),
            index_deltas=[int(gen) for gen in data.get("index_deltas", ())],
            next_index_gen=int(data.get("next_index_gen", 1)),
            index_checksums={
                str(name): [int(pair[0]), int(pair[1])]
                for name, pair in data.get("index_checksums", {}).items()
            },
            meta=dict(data.get("meta", {})),
        )


class StoreFile(NamedTuple):
    """One file a manifest names (see :meth:`StoreManifest.files`)."""

    path: str  # store-relative, "/"-separated (the wire form)
    checksum: Optional[List[int]]  # the recorded [size, crc], if any
    segment_id: Optional[int] = None  # set for segment files only


@dataclass
class StoreManifest:
    """The store's root metadata document (``MANIFEST.json``).

    Ordinary flushes commit through an appended segment-log record; the
    manifest is a periodic **checkpoint** of the replayed state and the
    commit point of maintenance rewrites (compact/gc), which always write
    one.  Files neither the checkpoint nor the committed log tail
    reference are ignored on open and swept by the next maintenance
    operation.

    Attributes:
        segments: Sealed segments in append order.
        runs: One entry per ingested run, in mint order.
        next_segment_id: Next segment id to mint (monotonic, never reused).
        next_run_id: Next run id to mint (monotonic, never reused).
        node_count: Total sub-computations across every run.
        edge_count: Total edges across every run.
        log_seq: Sequence number of the last segment-log record folded
            into this checkpoint; records with a higher sequence number
            are replayed on open, lower ones skipped.
        quarantined: Segments known to be damaged, id -> reason.  A
            quarantined segment's entry stays in :attr:`segments` (its id
            and accounting are still real); queries skip it and report a
            degraded answer instead of decoding garbage.  Repairing the
            file (anti-entropy from a replica) clears the mark.
        pages_runs_checksum: ``[size, crc]`` of the cross-run page summary
            (``index/pages_runs.json``) as of its last write; ``None``
            until the summary is first written.
        meta: Free-form store metadata supplied at creation time.
    """

    segments: List[SegmentInfo] = field(default_factory=list)
    runs: List[RunInfo] = field(default_factory=list)
    next_segment_id: int = 1
    next_run_id: int = 1
    node_count: int = 0
    edge_count: int = 0
    log_seq: int = 0
    quarantined: Dict[int, str] = field(default_factory=dict)
    pages_runs_checksum: Optional[List[int]] = None
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def segment_count(self) -> int:
        """Number of sealed segments."""
        return len(self.segments)

    def segment_info(self, segment_id: int) -> SegmentInfo:
        """Manifest entry of ``segment_id``."""
        for segment in self.segments:
            if segment.segment_id == segment_id:
                return segment
        raise StoreError(f"no segment {segment_id} (store has {len(self.segments)})")

    def segment_ids(self) -> List[int]:
        """Every referenced segment id, in append order."""
        return [segment.segment_id for segment in self.segments]

    def segments_of_run(self, run_id: int) -> List[SegmentInfo]:
        """The run's segments, in append order."""
        return [segment for segment in self.segments if segment.run == run_id]

    def run_ids(self) -> List[int]:
        """Every run id, in mint order."""
        return [run.run_id for run in self.runs]

    def files(self) -> List[StoreFile]:
        """Every file this manifest names, with its recorded checksum.

        Segments in append order, then each run's index base and deltas,
        then the cross-run page summary when a checksum for it is
        recorded (an unrecorded summary is not trusted, so not named).
        fsck, scrub and the replica digest all walk this one list.
        """
        named = [
            StoreFile(f"{SEGMENTS_DIR}/{info.file_name}", [info.stored_bytes, info.crc], info.segment_id)
            for info in self.segments
        ]
        for run in self.runs:
            run_dir = f"{INDEX_DIR}/{run_index_dir_name(run.run_id)}"
            named.extend(
                StoreFile(f"{run_dir}/{name}", run.index_checksums.get(name))
                for name in run.index_file_names()
            )
        if self.pages_runs_checksum is not None:
            named.append(StoreFile(f"{INDEX_DIR}/{PAGES_RUNS_FILE}", list(self.pages_runs_checksum)))
        return named

    def run_info(self, run_id: int) -> RunInfo:
        """Manifest entry of run ``run_id``."""
        for run in self.runs:
            if run.run_id == run_id:
                return run
        known = self.run_ids()
        raise StoreError(f"no run {run_id} in the store (runs: {known or 'none'})")

    def mint_run(self, workload: str = "", created_at: str = "", meta: Optional[dict] = None) -> RunInfo:
        """Append a fresh :class:`RunInfo` and return it."""
        run = RunInfo(
            run_id=self.next_run_id,
            workload=workload,
            created_at=created_at,
            meta=dict(meta or {}),
        )
        self.next_run_id += 1
        self.runs.append(run)
        return run

    def remove_run(self, run_id: int) -> List[SegmentInfo]:
        """Drop a run and its segment entries; returns the dropped segments."""
        run = self.run_info(run_id)
        dropped = self.segments_of_run(run_id)
        self.runs = [entry for entry in self.runs if entry.run_id != run_id]
        self.segments = [segment for segment in self.segments if segment.run != run_id]
        self.node_count -= run.nodes
        self.edge_count -= run.edges
        for segment in dropped:
            self.quarantined.pop(segment.segment_id, None)
        return dropped

    # -------------------------------------------------------------- #
    # Quarantine
    # -------------------------------------------------------------- #

    def quarantine(self, segment_id: int, reason: str) -> None:
        """Mark a segment damaged (must be a known segment id)."""
        self.segment_info(segment_id)  # raises for unknown ids
        self.quarantined[int(segment_id)] = str(reason)

    def clear_quarantine(self, segment_id: int) -> bool:
        """Unmark a repaired segment; returns whether it was marked."""
        return self.quarantined.pop(int(segment_id), None) is not None

    def is_quarantined(self, segment_id: int) -> bool:
        """Whether ``segment_id`` is currently quarantined."""
        return int(segment_id) in self.quarantined

    def to_dict(self) -> dict:
        data = {
            "kind": STORE_KIND,
            "version": STORE_FORMAT_VERSION,
            "segments": [segment.to_dict() for segment in self.segments],
            "runs": [run.to_dict() for run in self.runs],
            "next_segment_id": self.next_segment_id,
            "next_run_id": self.next_run_id,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "log_seq": self.log_seq,
            "meta": dict(self.meta),
        }
        if self.quarantined:
            data["quarantined"] = {
                str(segment_id): reason for segment_id, reason in self.quarantined.items()
            }
        if self.pages_runs_checksum is not None:
            data["pages_runs_checksum"] = list(self.pages_runs_checksum)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StoreManifest":
        """Parse a manifest document of this build's format (:data:`STORE_FORMAT_VERSION`).

        Raises:
            StoreError: For a document of another kind or format version
                (checked first), or one with a malformed field.
        """
        if not isinstance(data, dict) or data.get("kind") != STORE_KIND:
            raise StoreError(f"not a provenance-store manifest: {data!r}")
        version = data.get("version")
        if version != STORE_FORMAT_VERSION:
            raise StoreError(
                f"unsupported store format version {version!r} "
                f"(this build reads {STORE_FORMAT_VERSION}); re-ingest"
            )
        try:
            manifest = cls(
                segments=[SegmentInfo.from_dict(entry) for entry in data.get("segments", ())],
                runs=[RunInfo.from_dict(entry) for entry in data.get("runs", ())],
                next_segment_id=int(data.get("next_segment_id", 1)),
                next_run_id=int(data.get("next_run_id", 1)),
                node_count=int(data.get("node_count", 0)),
                edge_count=int(data.get("edge_count", 0)),
                log_seq=int(data.get("log_seq", 0)),
                meta=dict(data.get("meta", {})),
            )
            known = {segment.segment_id for segment in manifest.segments}
            manifest.quarantined = {
                int(segment_id): str(reason)
                for segment_id, reason in data.get("quarantined", {}).items()
                if int(segment_id) in known
            }
            checksum = data.get("pages_runs_checksum")
            if checksum is not None:
                manifest.pages_runs_checksum = [int(checksum[0]), int(checksum[1])]
        except MALFORMED_RECORD_ERRORS as exc:
            raise StoreError(f"corrupt manifest: {exc!r}") from exc
        ids = manifest.segment_ids()
        if sorted(set(ids)) != ids:
            raise StoreError(f"segment table is not strictly increasing: {ids}")
        if any(segment_id >= manifest.next_segment_id for segment_id in ids):
            raise StoreError(
                f"segment id {max(ids)} is not below next_segment_id "
                f"{manifest.next_segment_id}"
            )
        known_runs = set(manifest.run_ids())
        orphaned = [s.segment_id for s in manifest.segments if s.run not in known_runs]
        if orphaned:
            raise StoreError(f"segment(s) {orphaned} reference unknown runs")
        return manifest
