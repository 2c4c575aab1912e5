"""The persistent provenance store.

:class:`ProvenanceStore` owns one store directory: an append-only sequence
of checksummed, compressed CPG segments plus per-run secondary indexes
and the manifest.  One store holds **many traced runs** -- each run is
its own node-id namespace (node ids ``(tid, index)`` are only unique
within a run).  Whole graphs are ingested with :meth:`ProvenanceStore.ingest`
(which mints a fresh run per call); running executions stream into the
store through :class:`repro.store.sink.StoreSink`; queries that only touch
the index-selected subgraph are served by
:class:`repro.store.query.StoreQueryEngine`.

The write path is incremental end to end: segment payloads are
zlib-compressed columnar frames (:mod:`repro.store.segment`), per-run
indexes are loaded lazily and flushed as append-only **delta files**
(O(epoch), not O(index)), and the flush commit itself is one framed
record appended to ``segments.log`` (:mod:`repro.store.log`) -- the
manifest is a periodic *checkpoint* replayed over on open, so a flush
never pays an O(#segments) manifest rewrite.  A cross-run page
summary (``index/pages_runs.json``) lets ``*_across_runs`` queries skip
runs without opening their indexes.  The read path is cached: decoded segments
live in a byte-budgeted LRU (:mod:`repro.store.cache`) that can be shared
across handles, cold misses are single-flight (concurrent queries
missing the same segment collapse to one decode), merged index
generations can be pinned resident.  A segment is read and decoded in
the thread that asks for it: concurrency comes from concurrent queries
(the server's connection threads), not from a decode pool inside one.

Maintenance is run-scoped: :meth:`ProvenanceStore.compact` rewrites a
run's segments **streaming, segment by segment** into fewer, denser ones
(folding in the edge-only tail segments a streamed ingest leaves behind,
and folding the run's index deltas into a fresh base file) and
:meth:`ProvenanceStore.gc` drops superseded runs and reclaims their disk
space.  Both are crash-consistent through the store's single commit
protocol: new files first, commit record last (maintenance always commits
as a full manifest checkpoint), and only then is every file no commit
names deleted -- a crash at any point leaves the previous consistent
generation in place, and the leftovers are swept by the next maintenance
operation.  Every write and delete goes through :mod:`repro.store.files`.
"""

from __future__ import annotations

import datetime as _datetime
import json
import os
import threading
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph
from repro.core.serialization import (
    apply_edge,
    cpg_from_json,
    edge_from_dict,
    edge_to_dict,
    node_key,
    FORMAT_VERSION_V2,
)
from repro.core.thunk import SubComputation
from repro.errors import CorruptSegmentError, StoreError

from repro.store import files
from repro.store.cache import IndexPinner, ReadScope, SegmentCache
from repro.store.format import (
    COMPACT_SPILL_DIR,
    DEFAULT_CHECKPOINT_INTERVAL,
    DEFAULT_SEGMENT_NODES,
    INDEX_DIR,
    MALFORMED_RECORD_ERRORS,
    MANIFEST_NAME,
    PAGES_RUNS_FILE,
    RUN_COMPLETE,
    SEGMENT_LOG_NAME,
    SEGMENTS_DIR,
    STORE_FORMAT_VERSION,
    RunInfo,
    SegmentInfo,
    StoreManifest,
    index_base_file_name,
    index_delta_file_name,
    run_index_dir_name,
    segment_file_name,
)
from repro.store.indexes import StoreIndexes
from repro.store.log import SegmentLog
from repro.store.segment import EdgeTuple, SegmentPayload, decode_segment, encode_segment


def _utc_now_iso() -> str:
    """Wall-clock timestamp recorded for freshly minted runs."""
    return _datetime.datetime.now(_datetime.timezone.utc).isoformat(timespec="seconds")


@dataclass
class StoreReadStats:
    """Disk-read accounting (the out-of-core acceptance metric).

    Attributes:
        segments_read: Segment files decoded from disk (cache misses).
        bytes_read: Compressed bytes read from segment files.
    """

    segments_read: int = 0
    bytes_read: int = 0


@dataclass
class MaintenanceStats:
    """What one :meth:`ProvenanceStore.compact` or ``gc`` call reclaimed.

    Attributes:
        runs_dropped: Run ids removed from the store (gc only).
        segments_before: Referenced segments before the operation.
        segments_after: Referenced segments after the operation.
        bytes_reclaimed: Segment + index bytes deleted from disk.
        index_delta_files_reclaimed: Pending index delta files folded into
            a fresh base (compact only).
        peak_resident_nodes: Most node records the streaming compaction
            path held in memory at once (compact only) -- the acceptance
            metric that it no longer materializes whole runs.
    """

    runs_dropped: List[int] = field(default_factory=list)
    segments_before: int = 0
    segments_after: int = 0
    bytes_reclaimed: int = 0
    index_delta_files_reclaimed: int = 0
    peak_resident_nodes: int = 0

    def to_dict(self) -> dict:
        return {
            "runs_dropped": list(self.runs_dropped),
            "segments_before": self.segments_before,
            "segments_after": self.segments_after,
            "bytes_reclaimed": self.bytes_reclaimed,
            "index_delta_files_reclaimed": self.index_delta_files_reclaimed,
            "peak_resident_nodes": self.peak_resident_nodes,
        }


#: Decoded segments kept in memory at once (LRU); queries over stores
#: larger than this stay out-of-core in memory, not just in I/O counts.
DEFAULT_CACHE_SEGMENTS = 64


class _RunIndexMap(dict):
    """Run id -> :class:`StoreIndexes`, loading lazily on first access.

    Queries that never touch a run never pay for loading (or rebuilding)
    its indexes; the cross-run page summary relies on this to make
    ``*_across_runs`` skips worthwhile.  Loading is serialized per store
    so concurrent readers (the server) merge a run's generations once.
    """

    def __init__(self, store: "ProvenanceStore") -> None:
        super().__init__()
        self._store = store

    def __missing__(self, run_id: int) -> StoreIndexes:
        with self._store._index_lock:
            if run_id in self:  # a concurrent reader won the race
                return self[run_id]
            indexes = self._store._load_run_indexes(run_id)
            self[run_id] = indexes
        return indexes


class ProvenanceStore:
    """One store directory: segments + per-run indexes + manifest.

    Node ids are ``(tid, index)`` and therefore collide *across* runs of
    the same program; the run id minted at ingest is the namespace that
    keeps them apart.  Every query is answered within a run (resolved
    implicitly when the store holds exactly one).

    Use :meth:`create`, :meth:`open`, or :meth:`open_or_create` instead of
    the constructor.

    Attributes:
        checkpoint_interval: Log-append flushes between automatic
            manifest checkpoints (bounds open-time replay work).
        cache: The decoded-segment :class:`SegmentCache`.  Owned by this
            handle unless one was passed in (the warm server shares one
            across snapshot reopens).
        manifest_generation: In-memory generation of this handle's view;
            bumped by ``compact``/``gc`` so the cache cannot serve
            entries from before the maintenance rewrite.
    """

    def __init__(
        self,
        path: str,
        manifest: StoreManifest,
        segment_cache: Optional[SegmentCache] = None,
        index_pinner: Optional[IndexPinner] = None,
    ) -> None:
        self.path = path
        self.manifest = manifest
        self.run_indexes: Dict[int, StoreIndexes] = _RunIndexMap(self)
        self.read_stats = StoreReadStats()
        self.cache = (
            segment_cache
            if segment_cache is not None
            else SegmentCache(max_entries=DEFAULT_CACHE_SEGMENTS)
        )
        self.pinner = index_pinner
        #: Namespace of this handle's cache and pinner keys.  Defaults to
        #: the store path; the server moves a handle to a fresh namespace
        #: when it detects the directory was deleted and recreated, so
        #: entries admitted by in-flight queries against the dead store
        #: can never be served to the new one.
        self.cache_namespace = path
        self.manifest_generation = 0
        self._index_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._summary_lock = threading.Lock()
        #: Log-append flushes between manifest checkpoints; lower it to
        #: bound replay work, raise it to amortize checkpoints further.
        self.checkpoint_interval = DEFAULT_CHECKPOINT_INTERVAL
        self._log = SegmentLog(os.path.join(path, SEGMENT_LOG_NAME))
        #: Next log record sequence number (monotonic, never reused).
        self._log_next_seq = manifest.log_seq + 1
        #: Segments already durable (checkpointed or logged); the next log
        #: record carries ``manifest.segments[self._logged_segment_count:]``.
        self._logged_segment_count = len(manifest.segments)
        self._uncheckpointed_records = 0
        #: Set when only a checkpoint can represent the in-memory state
        #: (maintenance rewrote tables, or replay stopped at a bad record).
        self._needs_checkpoint = False
        #: Whether MANIFEST.json exists on disk (False for a store being
        #: created; forces the first flush to checkpoint).
        self._manifest_on_disk = False
        self._pages_runs: Optional[Dict[int, Set[int]]] = None
        self._pages_runs_covered: Set[int] = set()
        #: Runs the on-disk summary file covers (always complete runs).
        self._pages_runs_disk: Set[int] = set()
        #: A disk-covered run's pages changed (a rare post-completion
        #: append); forces a summary rewrite at the next flush.
        self._pages_runs_force = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, path: str, meta: Optional[dict] = None) -> "ProvenanceStore":
        """Initialise an empty store at ``path`` (must not already hold one)."""
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            raise StoreError(f"a provenance store already exists at {path}")
        os.makedirs(os.path.join(path, SEGMENTS_DIR), exist_ok=True)
        manifest = StoreManifest(meta=dict(meta or {}))
        store = cls(path, manifest)
        store.flush()
        return store

    @classmethod
    def open(
        cls,
        path: str,
        segment_cache: Optional[SegmentCache] = None,
        index_pinner: Optional[IndexPinner] = None,
    ) -> "ProvenanceStore":
        """Open an existing store directory (format version 9).

        Opening reads the manifest checkpoint, then replays the committed
        tail of ``segments.log`` on top of it -- each record
        appends the segments one flush sealed; a torn or invalid tail
        record stops the replay there, recovering exactly the flushes that
        committed.  The small cross-run page summary is read on demand and
        each run's secondary indexes are loaded lazily on first access,
        merging the run's index base with its pending delta files.  A run
        whose index generation files are missing, torn, or inconsistent
        with the manifest is rebuilt from its (committed, ground-truth)
        segments at that point.

        ``segment_cache`` / ``index_pinner`` share a warm read path
        between handles (see :mod:`repro.store.cache`); sharing is for
        read-only serving.

        Raises:
            StoreError: No store at ``path``, a corrupt manifest, or one
                stamped with another format version (nothing is written).
        """
        manifest = cls._read_manifest(path)
        attempts = 3
        for attempt in range(attempts):
            store = cls(path, manifest, segment_cache=segment_cache, index_pinner=index_pinner)
            store._manifest_on_disk = True
            if store._replay_segment_log() or attempt == attempts - 1:
                # A persistent gap after retries still leaves a consistent
                # view: the checkpoint plus the contiguous log prefix.
                return store
            # The log's sequence numbers jumped past this manifest: a
            # concurrent writer checkpointed (folding those records into
            # a newer manifest) and re-appended after the reset, between
            # our manifest read and the log scan.  Re-read and replay.
            manifest = cls._read_manifest(path)
        raise AssertionError("unreachable")  # the loop always returns

    @staticmethod
    def _read_manifest(path: str) -> StoreManifest:
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise StoreError(f"no provenance store at {path} (missing {MANIFEST_NAME})")
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except ValueError as exc:  # not JSON, or not even UTF-8
            raise StoreError(f"corrupt manifest at {path}: {exc}") from exc
        return StoreManifest.from_dict(document)

    def _replay_segment_log(self) -> bool:
        """Apply the committed tail of ``segments.log`` to the manifest.

        Records whose ``seq`` the manifest checkpoint already covers are
        skipped (a crash between the checkpoint rename and the log reset
        leaves them behind); the rest must be contiguous from the
        checkpoint's ``log_seq`` and are applied in order.  Replay stops
        at the first record that fails validation -- framing tears are
        already cut by :meth:`SegmentLog.scan`, and a CRC-valid record
        with inconsistent content forces the next flush to checkpoint, so
        the bad record can never shadow live appends.

        Returns False when a record's ``seq`` jumped *past* the next
        expected one.  Applying across the gap would stack post-checkpoint
        records on a pre-checkpoint manifest, silently dropping every
        segment the checkpoint folded in -- so the gapped record and
        everything after it are refused, leaving the consistent prefix,
        and the caller re-reads the (newer) manifest and replays again.
        """
        if not self._log.exists():
            return True
        applied = 0
        contiguous = True
        for record in self._log.replay():
            try:
                seq = int(record.get("seq", 0))
            except (TypeError, ValueError):
                self._needs_checkpoint = True
                break
            if seq < self._log_next_seq:
                continue  # folded into the checkpoint already
            if seq > self._log_next_seq:
                contiguous = False  # a newer checkpoint reset the log
                break
            if not self._apply_log_record(record):
                self._needs_checkpoint = True
                break
            self._log_next_seq = seq + 1
            applied += 1
        self._logged_segment_count = len(self.manifest.segments)
        self._uncheckpointed_records = applied
        return contiguous

    def _apply_log_record(self, record: dict) -> bool:
        """Fold one log record into the manifest; False rejects it whole.

        Validates everything before mutating, so a rejected record leaves
        the manifest exactly as the previous record committed it.
        """
        try:
            segments = [SegmentInfo.from_dict(entry) for entry in record.get("segments", ())]
            runs = [RunInfo.from_dict(entry) for entry in record.get("runs", ())]
            next_segment_id = int(record["next_segment_id"])
            next_run_id = int(record["next_run_id"])
            node_count = int(record["node_count"])
            edge_count = int(record["edge_count"])
            pages_runs_checksum = record.get("pages_runs_checksum")
            if pages_runs_checksum is not None:
                pages_runs_checksum = [
                    int(pages_runs_checksum[0]), int(pages_runs_checksum[1])
                ]
            quarantined = {
                int(segment_id): str(reason)
                for segment_id, reason in record["quarantined"].items()
            }
        except (StoreError,) + MALFORMED_RECORD_ERRORS:
            return False
        last = self.manifest.segments[-1].segment_id if self.manifest.segments else 0
        for info in segments:
            if info.segment_id <= last:  # ids are minted strictly increasing
                return False
            last = info.segment_id
        run_ids = {run.run_id for run in runs}
        if len(run_ids) != len(runs):
            return False
        if any(info.run not in run_ids for info in self.manifest.segments):
            return False
        if any(info.run not in run_ids for info in segments):
            return False
        self.manifest.segments.extend(segments)
        self.manifest.runs = runs
        self.manifest.next_segment_id = max(next_segment_id, last + 1)
        self.manifest.next_run_id = max(next_run_id, self.manifest.next_run_id)
        self.manifest.node_count = node_count
        self.manifest.edge_count = edge_count
        if pages_runs_checksum is not None:
            self.manifest.pages_runs_checksum = pages_runs_checksum
        known = {info.segment_id for info in self.manifest.segments}
        self.manifest.quarantined = {
            segment_id: reason for segment_id, reason in quarantined.items() if segment_id in known
        }
        return True

    def _run_index_dir(self, run_id: int) -> str:
        return os.path.join(self.path, INDEX_DIR, run_index_dir_name(run_id))

    def _load_run_indexes(self, run_id: int) -> StoreIndexes:
        """Load (or rebuild) one run's indexes; the lazy-map miss path.

        With an :class:`IndexPinner` attached, a generation that was
        merged before -- by this handle or any other handle sharing the
        pinner -- is returned resident instead of re-merging its base +
        delta files (rebuilds are not pinned: they are not reproducible
        from named generations).
        """
        run = self.manifest.run_info(run_id)
        valid = [info.segment_id for info in self.manifest.segments_of_run(run_id)]
        if self.pinner is not None:
            pinned = self.pinner.get(
                self.cache_namespace, run_id, run.index_base, run.index_deltas, run.nodes
            )
            if pinned is not None and pinned.is_consistent_with(valid, run.nodes):
                return pinned
        try:
            indexes = StoreIndexes.load(
                self._run_index_dir(run_id), run.index_base, run.index_deltas
            )
        except StoreError:
            return self._rebuild_indexes_from_segments(run_id)
        if not indexes.is_consistent_with(valid, run.nodes):
            return self._rebuild_indexes_from_segments(run_id)
        if self.pinner is not None:
            self.pinner.put(
                self.cache_namespace, run_id, run.index_base, run.index_deltas, run.nodes, indexes
            )
        return indexes

    def _rebuild_indexes_from_segments(self, run_id: int) -> StoreIndexes:
        """Reconstruct one run's indexes from its committed segments.

        Recovery path for torn or missing index generations.  Exact in
        any segment order: a node's rank comes from its own clock.
        """
        indexes = StoreIndexes()
        for info in self.manifest.segments_of_run(run_id):
            payload = self.segment(info.segment_id)
            for node in payload.nodes.values():
                indexes.add_node(info.segment_id, node)
            for edge in payload.edges:
                indexes.add_edge(info.segment_id, edge)
        # The rebuilt state is not reproducible from any on-disk
        # generation files; fold it into a base at the next flush.
        indexes.clear_pending()
        indexes.needs_base = True
        return indexes

    @classmethod
    def open_or_create(cls, path: str, meta: Optional[dict] = None) -> "ProvenanceStore":
        """Open ``path`` when it holds a store, initialise one otherwise."""
        if os.path.exists(os.path.join(path, MANIFEST_NAME)):
            return cls.open(path)
        return cls.create(path, meta=meta)

    def flush(self, checkpoint: Optional[bool] = None) -> None:
        """Commit the in-memory state: index generations first, commit last.

        Each loaded run persists **only what changed**: the ops journalled
        since its last flush become one append-only ``delta-<gen>.bin``
        file (O(epoch)).  The commit point is then **one framed record
        appended to** ``segments.log`` -- the segments sealed since the
        last durable point plus the whole run table -- so a flush does
        not grow with the segment count, but it does grow with the run
        count: every record serializes every run's entry.  Every
        ``checkpoint_interval`` appends (and whenever the in-memory state
        cannot be expressed as an append: store creation, after
        compact/gc) the manifest is rewritten whole as a fresh checkpoint
        and the log is reset instead; pass ``checkpoint=True`` /
        ``False`` to force either path.  Every run completion passes
        ``True``, so it also rewrites the whole manifest.  Making the
        commit independent of the run count is ROADMAP item 6.

        Segment and index files carry never-reused names, so they are
        written once and become visible only through the commit that
        records their checksums; the manifest and the page summary are
        replaced durably under their fixed names (:mod:`repro.store.files`).
        A crash mid-flush therefore leaves the previous consistent
        generation in place, plus unreferenced files the next maintenance
        operation sweeps.
        """
        for run_id, indexes in self.run_indexes.items():
            run_info = self.manifest.run_info(run_id)
            if not (indexes.needs_base or indexes.has_pending):
                continue
            run_dir = self._run_index_dir(run_id)
            generation = run_info.next_index_gen
            run_info.next_index_gen += 1
            if indexes.needs_base:
                checksum = indexes.save_base(run_dir, generation)
                run_info.index_base = generation
                run_info.index_deltas = []
                run_info.record_index_checksum(index_base_file_name(generation), *checksum)
                run_info.prune_index_checksums()
                indexes.needs_base = False
            else:
                checksum = indexes.save_delta(run_dir, generation)
                run_info.index_deltas.append(generation)
                run_info.record_index_checksum(index_delta_file_name(generation), *checksum)
            indexes.clear_pending()
        self._cover_loaded_runs_in_pages_summary()
        self._write_pages_runs_if_dirty()
        if checkpoint is None:
            checkpoint = (
                self._needs_checkpoint
                or not self._manifest_on_disk
                or self._uncheckpointed_records >= self.checkpoint_interval
            )
        if checkpoint:
            self._write_checkpoint()
        else:
            self._append_log_record()

    def _append_log_record(self) -> None:
        """The per-flush commit: one record to ``segments.log``.

        Carries the segment entries sealed since the last durable point
        plus the whole run table and the store counters, which make every
        record self-validating on replay.  The run table grows with the
        store, so the record does too (ROADMAP item 6).
        """
        record = {
            "seq": self._log_next_seq,
            "segments": [
                info.to_dict() for info in self.manifest.segments[self._logged_segment_count:]
            ],
            "runs": [run.to_dict() for run in self.manifest.runs],
            "next_segment_id": self.manifest.next_segment_id,
            "next_run_id": self.manifest.next_run_id,
            "node_count": self.manifest.node_count,
            "edge_count": self.manifest.edge_count,
            # Integrity state rides every commit record, so a replayed
            # store agrees with the files on disk without a checkpoint.
            "pages_runs_checksum": self.manifest.pages_runs_checksum,
            "quarantined": {
                str(segment_id): reason
                for segment_id, reason in self.manifest.quarantined.items()
            },
        }
        self._log.append(record)
        self._log_next_seq += 1
        self._logged_segment_count = len(self.manifest.segments)
        self._uncheckpointed_records += 1

    def _write_checkpoint(self) -> None:
        """Fold everything into a fresh manifest, then reset the log.

        The manifest rename is the commit point; a crash between it and
        the log reset is harmless (replay skips records whose ``seq`` the
        checkpoint's ``log_seq`` covers).
        """
        self.manifest.log_seq = self._log_next_seq - 1
        # Durable before the log reset below: otherwise a power loss could
        # empty the log while the checkpoint that folded it in is lost.
        files.replace(
            os.path.join(self.path, MANIFEST_NAME),
            json.dumps(self.manifest.to_dict(), sort_keys=True, indent=2).encode("utf-8"),
        )
        self._manifest_on_disk = True
        self._logged_segment_count = len(self.manifest.segments)
        self._uncheckpointed_records = 0
        self._needs_checkpoint = False
        self._log.reset()

    # ------------------------------------------------------------------ #
    # Cross-run page summary (index/pages_runs.json)
    # ------------------------------------------------------------------ #

    def _load_pages_runs_once(self) -> Dict[int, Set[int]]:
        """Parse the on-disk summary (cheap: no per-run index loading).

        The summary is trusted only when its bytes match the ``[size,
        crc]`` the manifest recorded for it.  Any other file -- a hand
        edit, a torn write, or one a crash renamed into place before the
        commit that would have recorded it -- covers nothing, and the
        next flush rewrites it; uncovered runs are merged lazily from
        their own indexes when needed.  For a covered run the summary is
        always a superset of the committed state (pages only ever grow
        within a run), so skipping based on it never loses results.
        """
        if self._pages_runs is not None:
            return self._pages_runs
        pages: Dict[int, Set[int]] = {}
        covered: Set[int] = set()
        recorded = self.manifest.pages_runs_checksum
        try:
            with open(os.path.join(self.path, INDEX_DIR, PAGES_RUNS_FILE), "rb") as handle:
                raw = handle.read()
            actual = [len(raw), zlib.crc32(raw) & 0xFFFFFFFF]
        except OSError:
            actual = None
        if actual is not None and actual == recorded:
            data = json.loads(raw)
            covered = {int(run_id) for run_id in data["runs"]} & set(self.run_ids())
            for page_text, run_list in data["pages"].items():
                runs = {int(run_id) for run_id in run_list} & covered
                if runs:
                    pages[int(page_text)] = runs
        self._pages_runs = pages
        self._pages_runs_covered = covered
        self._pages_runs_disk = set(covered)
        self._pages_runs_force = actual != recorded
        return pages

    def _cover_run_in_pages_summary(self, run_id: int) -> None:
        """Merge one run's touched pages into the summary (from its indexes)."""
        pages = self._load_pages_runs_once()
        if run_id in self._pages_runs_covered:
            return
        for page in self.run_indexes[run_id].pages_touched():
            pages.setdefault(page, set()).add(run_id)
        self._pages_runs_covered.add(run_id)

    def _cover_loaded_runs_in_pages_summary(self) -> None:
        # Only runs whose indexes are already in memory: flushing must not
        # force-load every run of a large store.
        self._load_pages_runs_once()
        for run_id in list(self.run_indexes.keys()):
            self._cover_run_in_pages_summary(run_id)

    def _write_pages_runs_if_dirty(self) -> None:
        """Rewrite the on-disk summary only when its content would change.

        The file covers **complete** runs only: a streaming run's pages
        keep growing, and rewriting the (whole-store-sized) summary per
        epoch flush would defeat the O(epoch) flush path.  A run enters
        the file with the first flush after it completes; until then --
        and after any crash -- uncovered runs are merged lazily from
        their own indexes, so skipping is always sound.
        """
        if self._pages_runs is None:
            return
        complete = {
            run.run_id for run in self.manifest.runs if run.status == RUN_COMPLETE
        }
        want = self._pages_runs_covered & complete
        if want == self._pages_runs_disk and not self._pages_runs_force:
            return
        document = {
            "kind": "inspector-pages-runs",
            "runs": sorted(want),
            "pages": {
                str(page): sorted(runs & want)
                for page, runs in sorted(self._pages_runs.items())
                if runs & want
            },
        }
        self.manifest.pages_runs_checksum = files.replace(
            os.path.join(self.path, INDEX_DIR, PAGES_RUNS_FILE),
            json.dumps(document, sort_keys=True).encode("utf-8"),
        )
        self._pages_runs_disk = want
        self._pages_runs_force = False

    def runs_touching_pages(self, pages: Iterable[int]) -> Set[int]:
        """Run ids whose stored graph read or wrote any of ``pages``.

        Served from the cross-run summary: runs the summary covers are
        answered without touching their per-run indexes, which is what
        lets ``*_across_runs`` queries skip irrelevant runs entirely.
        """
        with self._summary_lock:
            # Serialized: concurrent readers (the server) must not merge
            # uncovered runs into the summary dicts while another query
            # iterates them.
            summary = self._load_pages_runs_once()
            for run_id in self.run_ids():
                if run_id not in self._pages_runs_covered:
                    self._cover_run_in_pages_summary(run_id)
            touched: Set[int] = set()
            for page in pages:
                touched |= set(summary.get(int(page), ()))
        return touched & set(self.run_ids())

    # ------------------------------------------------------------------ #
    # Runs
    # ------------------------------------------------------------------ #

    def run_ids(self) -> List[int]:
        """Every run id in the store, in mint order."""
        return self.manifest.run_ids()

    def new_run(self, workload: str = "", meta: Optional[dict] = None) -> int:
        """Mint a fresh run (the namespace of one traced execution).

        The run id is recorded in the manifest together with the workload
        name and wall-clock/config metadata; it becomes durable at the next
        :meth:`flush`.  The run's ``created_at`` is ``meta["created_at"]``
        when the caller supplies one, else the current UTC time.
        """
        meta = meta or {}
        run = self.manifest.mint_run(
            workload=workload,
            created_at=str(meta["created_at"]) if "created_at" in meta else _utc_now_iso(),
            meta=meta,
        )
        self.run_indexes[run.run_id] = StoreIndexes()
        return run.run_id

    def complete_run(self, run: int, meta: Optional[dict] = None) -> RunInfo:
        """Merge ``meta`` into ``run``'s entry, mark it complete, and checkpoint.

        An empty workload name is filled from the merged metadata's
        ``workload``.  Run completion is a checkpoint: the manifest alone
        then names every segment of the finished run (no replay needed to
        read it).
        """
        info = self.manifest.run_info(run)
        info.meta.update(meta or {})
        if not info.workload and "workload" in info.meta:
            info.workload = str(info.meta["workload"])
        info.status = RUN_COMPLETE
        self.flush(checkpoint=True)
        return info

    def resolve_run(self, run: Optional[int] = None) -> int:
        """Resolve ``run`` to a run id, defaulting to the store's only run.

        Raises:
            StoreError: If ``run`` is unknown, the store is empty, or the
                store holds several runs and ``run`` was not given.
        """
        if run is not None:
            self.manifest.run_info(run)  # validates existence
            return run
        runs = self.run_ids()
        if len(runs) == 1:
            return runs[0]
        if not runs:
            raise StoreError(f"store at {self.path} holds no runs yet")
        raise StoreError(
            f"store at {self.path} holds {len(runs)} runs ({runs}); "
            f"pass run=<id> to pick one"
        )

    def indexes_for(self, run: Optional[int] = None) -> StoreIndexes:
        """The secondary indexes of ``run`` (default: the store's only run)."""
        return self.run_indexes[self.resolve_run(run)]

    @property
    def indexes(self) -> StoreIndexes:
        """Single-run convenience accessor (empty for an empty store).

        Raises:
            StoreError: When the store holds several runs -- use
                :meth:`indexes_for` with an explicit run id instead.
        """
        if not self.run_ids():
            return StoreIndexes()
        return self.indexes_for(None)

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def append_segment(
        self,
        nodes: Sequence[SubComputation],
        edges: Sequence[EdgeTuple],
        run: Optional[int] = None,
    ) -> int:
        """Seal ``nodes`` + ``edges`` into a new segment of ``run``.

        The manifest and indexes are only updated in memory; call
        :meth:`flush` once the batch of appends is complete.
        """
        run_id = self.resolve_run(run)
        run_info = self.manifest.run_info(run_id)
        indexes = self.run_indexes[run_id]
        # Check collisions (against the run and within the batch) before
        # any file is written, so a duplicate node cannot leave an orphan
        # segment or a half-updated index behind.
        batch_ids = set()
        for node in nodes:
            if indexes.has_node(node.node_id) or node.node_id in batch_ids:
                raise StoreError(
                    f"node {node_key(node.node_id)} ingested twice into run {run_id} -- "
                    f"each traced run is its own namespace; mint a new run instead"
                )
            batch_ids.add(node.node_id)
        info = self._write_segment(run_id, nodes, edges, indexes)
        segment_id = info.segment_id
        self.manifest.segments.append(info)
        self.manifest.node_count += len(nodes)
        self.manifest.edge_count += len(edges)
        run_info.nodes += len(nodes)
        run_info.edges += len(edges)
        # Keep the in-memory cross-run page summary current (O(batch)).
        # Appends to a *complete* run must force a summary rewrite: the
        # on-disk file already covers the run and would under-report it.
        self._cover_run_in_pages_summary(run_id)
        pages_runs = self._load_pages_runs_once()
        for node in nodes:
            for page in node.read_set | node.write_set:
                runs = pages_runs.setdefault(page, set())
                if run_id not in runs:
                    runs.add(run_id)
                    if run_id in self._pages_runs_disk:
                        self._pages_runs_force = True
        self.cache.put(
            self.cache_namespace, self.manifest_generation, segment_id, SegmentPayload.build(nodes, edges)
        )
        return segment_id

    def _write_segment(
        self,
        run_id: int,
        nodes: Sequence[SubComputation],
        edges: Sequence[EdgeTuple],
        indexes: StoreIndexes,
    ) -> SegmentInfo:
        """Write ``nodes`` + ``edges`` as the next segment id and index them.

        Returns the segment's manifest entry; the caller adds it to the
        manifest.
        """
        segment_id = self.manifest.next_segment_id
        framed, raw_bytes = encode_segment(nodes, edges)
        stored_bytes, crc = files.write_once(
            os.path.join(self.path, SEGMENTS_DIR, segment_file_name(segment_id)), framed
        )
        self.manifest.next_segment_id += 1
        for node in nodes:
            indexes.add_node(segment_id, node)
        for edge in edges:
            indexes.add_edge(segment_id, edge)
        return SegmentInfo(
            segment_id=segment_id,
            run=run_id,
            nodes=len(nodes),
            edges=len(edges),
            raw_bytes=raw_bytes,
            stored_bytes=stored_bytes,
            crc=crc,
        )

    def ingest(
        self,
        cpg: ConcurrentProvenanceGraph,
        segment_nodes: int = DEFAULT_SEGMENT_NODES,
        run_meta: Optional[dict] = None,
        workload: str = "",
    ) -> int:
        """Ingest a finalized CPG as a **new run**; returns segments written.

        Nodes are batched in the causal order (so segment locality follows
        causality) and every edge is co-located with its target node.  The
        minted run id is ``store.manifest.runs[-1].run_id`` afterwards.
        """
        if segment_nodes <= 0:
            raise StoreError(f"segment_nodes must be positive, got {segment_nodes}")
        run_id = self.new_run(workload=workload, meta=run_meta)
        order = cpg.topological_order()
        edges_by_target: Dict[object, List[EdgeTuple]] = defaultdict(list)
        for source, target, attrs in cpg.edges():
            kind = attrs["kind"]
            extra = {key: value for key, value in attrs.items() if key != "kind"}
            edges_by_target[target].append((source, target, kind, extra))
        segments_written = 0
        for start in range(0, len(order), segment_nodes):
            batch = order[start : start + segment_nodes]
            nodes = [cpg.subcomputation(node_id) for node_id in batch]
            edges: List[EdgeTuple] = []
            for node_id in batch:
                edges.extend(edges_by_target.get(node_id, ()))
            self.append_segment(nodes, edges, run=run_id)
            segments_written += 1
        self.complete_run(run_id)
        return segments_written

    def ingest_json_file(
        self,
        path: str,
        segment_nodes: int = DEFAULT_SEGMENT_NODES,
        run_meta: Optional[dict] = None,
        workload: str = "",
    ) -> int:
        """Ingest a CPG JSON file (v1 or v2) written with ``write_cpg``."""
        with open(path, "r", encoding="utf-8") as handle:
            cpg = cpg_from_json(handle.read())
        meta = {"source": os.path.basename(path)}
        meta.update(run_meta or {})
        return self.ingest(cpg, segment_nodes=segment_nodes, run_meta=meta, workload=workload)

    # ------------------------------------------------------------------ #
    # Quarantine
    # ------------------------------------------------------------------ #

    def is_quarantined(self, segment_id: int) -> bool:
        """Whether queries currently skip ``segment_id`` as damaged."""
        return self.manifest.is_quarantined(segment_id)

    def quarantined_segments(self) -> Dict[int, str]:
        """Quarantined segment ids -> reason (a snapshot copy)."""
        return dict(self.manifest.quarantined)

    def quarantine_segment(
        self, segment_id: int, reason: str, durable: bool = False
    ) -> None:
        """Mark a segment damaged so queries skip it instead of decoding it.

        The mark is in-memory (every reader of *this* handle sees it
        immediately); pass ``durable=True`` -- scrub does -- to commit it
        through a manifest checkpoint so every future open sees it too.
        """
        self.manifest.quarantine(segment_id, reason)
        if durable:
            self.flush(checkpoint=True)

    def clear_quarantine(self, segment_id: int, durable: bool = False) -> bool:
        """Unmark a repaired segment; returns whether it was marked."""
        cleared = self.manifest.clear_quarantine(segment_id)
        if cleared and durable:
            self.flush(checkpoint=True)
        return cleared

    def _quarantined_error(self, segment_id: int) -> CorruptSegmentError:
        reason = self.manifest.quarantined.get(int(segment_id), "unknown reason")
        return CorruptSegmentError(
            f"segment {segment_id} is quarantined: {reason}",
            segment_id=segment_id,
            quarantined=True,
        )

    def _segment_fault(self, segment_id: int, exc: StoreError) -> StoreError:
        """Convert a read/decode fault into quarantine plus a typed error.

        The in-memory mark makes every later read through this handle
        skip the segment (degrading the answer) instead of re-hitting the
        fault; persisting the mark is scrub's (or the next checkpoint's)
        job.  Unknown segment ids pass through untyped -- that is a bad
        request, not corruption.
        """
        if isinstance(exc, CorruptSegmentError):
            return exc
        try:
            self.manifest.quarantine(segment_id, str(exc))
        except StoreError:
            return exc
        return CorruptSegmentError(
            f"segment {segment_id} is corrupt: {exc}", segment_id=segment_id
        )

    def _read_segment_file(self, segment_id: int) -> bytes:
        info = self.manifest.segment_info(segment_id)
        path = os.path.join(self.path, SEGMENTS_DIR, info.file_name)
        if not os.path.exists(path):
            raise StoreError(f"segment file {info.file_name} is missing from {self.path}")
        with open(path, "rb") as handle:
            data = handle.read()
        with self._stats_lock:
            self.read_stats.segments_read += 1
            self.read_stats.bytes_read += len(data)
        return data

    def segment(self, segment_id: int, scope: Optional[ReadScope] = None) -> SegmentPayload:
        """Load one segment through the byte-budgeted decoded-segment cache.

        Cold misses are single-flight: a concurrent reader already
        decoding this segment is joined (blocking for its result) instead
        of decoding the same bytes again.  ``scope`` collects per-query
        read accounting (the server's per-query stats); the store-wide
        :attr:`read_stats` is updated either way.

        Raises:
            CorruptSegmentError: The segment is quarantined, or its bytes
                failed an integrity check just now (which quarantines it
                in memory for the rest of this handle's life).
        """
        if self.manifest.is_quarantined(segment_id):
            raise self._quarantined_error(segment_id)
        handle = self.cache.begin_fill(
            self.cache_namespace, self.manifest_generation, segment_id
        )
        if handle.status == "hit":
            if scope is not None:
                scope.record_hit()
            return handle.payload
        if handle.status == "waiter":
            payload = handle.wait()
            if scope is not None:
                scope.record_hit()
            return payload
        try:
            data = self._read_segment_file(segment_id)
            payload = decode_segment(data)
        except StoreError as exc:
            fault = self._segment_fault(segment_id, exc)
            handle.fail(fault)
            raise fault from exc
        except BaseException as exc:
            handle.fail(exc)
            raise
        if scope is not None:
            scope.record_miss(len(data))
        handle.complete(payload)
        return payload

    def close(self) -> None:
        """End a ``with`` block or explicit scope (idempotent).

        A handle holds no threads, processes or open files between calls,
        so there is nothing to release: the handle keeps answering
        queries and accepting ingests afterwards.
        """

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _segment_uncached(self, segment_id: int) -> SegmentPayload:
        """Decode one segment without touching the cache.

        The streaming compaction path reads every old segment exactly
        once (twice across its two passes) and must not evict the cache's
        working set -- nor keep a whole run resident through it.
        """
        if self.manifest.is_quarantined(segment_id):
            raise self._quarantined_error(segment_id)
        cached = self.cache.peek(self.cache_namespace, self.manifest_generation, segment_id)
        if cached is not None:
            return cached
        try:
            return decode_segment(self._read_segment_file(segment_id))
        except StoreError as exc:
            raise self._segment_fault(segment_id, exc) from exc

    def clear_cache(self) -> None:
        """Drop this store's decoded segments (reads hit the disk again)."""
        self.cache.invalidate(self.cache_namespace)

    def reset_read_stats(self) -> None:
        """Zero the read counters (used by benchmarks and tests)."""
        self.read_stats = StoreReadStats()

    def load_cpg(self, run: Optional[int] = None) -> ConcurrentProvenanceGraph:
        """Materialize one run's full graph (reads every segment of the run).

        This is the fallback path the query engine exists to avoid; the
        benchmarks use it as the baseline.
        """
        run_id = self.resolve_run(run)
        payloads = [
            self.segment(info.segment_id) for info in self.manifest.segments_of_run(run_id)
        ]
        cpg = ConcurrentProvenanceGraph()
        for payload in payloads:
            for node in payload.nodes.values():
                cpg.add_subcomputation(node)
        for payload in payloads:
            for source, target, kind, attrs in payload.edges:
                apply_edge(cpg, source, target, kind, attrs)
        return cpg

    # ------------------------------------------------------------------ #
    # Maintenance: compaction and garbage collection
    # ------------------------------------------------------------------ #

    def compact(
        self, run: Optional[int] = None, segment_nodes: int = DEFAULT_SEGMENT_NODES
    ) -> MaintenanceStats:
        """Merge a run's small segments into dense ``segment_nodes`` batches.

        Streamed ingests leave two kinds of fragmentation behind: epochs
        shorter than a full segment, and the edge-only tail segments the
        sink appends for post-run data edges.  Compaction rewrites the
        run's segments in the causal order (rank, then node id), co-
        locates every edge with its target node again, and **folds the
        run's pending index deltas into a fresh base file**.  With
        ``run=None`` every run is compacted.

        The rewrite is *streaming*: old segments are decoded one at a time,
        edges are spilled to per-batch scratch
        files, and each new segment is sealed as soon as its nodes have
        arrived -- peak memory is one old segment plus one output batch
        (``MaintenanceStats.peak_resident_nodes`` reports the observed
        peak), not the whole run.

        Crash-consistent: the new segments and the folded index base are
        written under fresh ids/generations, the manifest checkpoint is
        committed, and only then is every file no commit names deleted
        (the old generation, the spill directory, and any earlier crash's
        leftovers).  A crash before the commit leaves the old generation
        intact (the stray new files are swept by the next maintenance
        call); a crash after it leaves the new generation intact.
        """
        if segment_nodes <= 0:
            raise StoreError(f"segment_nodes must be positive, got {segment_nodes}")
        targets = [self.resolve_run(run)] if run is not None else self.run_ids()
        stats = MaintenanceStats(segments_before=self.manifest.segment_count)
        dirty = False
        for run_id in targets:
            superseded, peak = self._compact_run(run_id, segment_nodes)
            stats.peak_resident_nodes = max(stats.peak_resident_nodes, peak)
            run_info = self.manifest.run_info(run_id)
            loaded = dict.get(self.run_indexes, run_id)
            if superseded or run_info.index_deltas or (loaded is not None and loaded.needs_base):
                # Fold the run's pending deltas (and any rebuilt state)
                # into a fresh base at the flush below.
                stats.index_delta_files_reclaimed += len(run_info.index_deltas)
                self.run_indexes[run_id].needs_base = True
                if self.pinner is not None:
                    self.pinner.invalidate(self.cache_namespace, run_id)
                dirty = True
        stats.segments_after = self.manifest.segment_count
        if dirty:
            # Compaction rewrote the segment table: only a checkpoint can
            # express that (the log is append-only).
            self.flush(checkpoint=True)
            self._bump_generation()
        stats.bytes_reclaimed = self._sweep_orphans()
        return stats

    def _bump_generation(self) -> None:
        """Advance the cache generation after a maintenance rewrite.

        Every decoded-segment cache key carries the generation, so no
        entry cached before the rewrite can be served after it -- the
        whole namespace is dropped as well, which is what frees the
        superseded payloads (the old keys would otherwise just be
        unreachable).
        """
        self.manifest_generation += 1
        self.cache.invalidate(self.cache_namespace)

    def _compact_run(self, run_id: int, segment_nodes: int) -> Tuple[List[int], int]:
        """Stream-rewrite one run's segments.

        Returns:
            ``(superseded segment ids, peak resident node records)``.
        """
        infos = self.manifest.segments_of_run(run_id)
        run_info = self.manifest.run_info(run_id)
        wanted = max(1, -(-run_info.nodes // segment_nodes)) if run_info.nodes else 1
        if len(infos) <= wanted and all(
            info.nodes >= min(segment_nodes, run_info.nodes) or info is infos[-1]
            for info in infos
        ):
            return [], 0  # already compact (also covers the 0/1-segment runs)
        old_index = self.run_indexes[run_id]
        # Batch assignment from the (small, in-memory) node index alone:
        # node payloads are never materialized run-wide.
        in_order = old_index.causal_order()
        batch_of_node = {
            node_id: position // segment_nodes for position, node_id in enumerate(in_order)
        }
        batch_count = max(1, -(-len(in_order) // segment_nodes))
        batch_sizes = [
            min(segment_nodes, len(in_order) - position * segment_nodes)
            for position in range(batch_count)
        ]
        # Spill files are scratch no commit names: plain writes, swept with
        # their directory after the commit.  A batch's file is truncated by
        # its first write, so a stale one from an earlier crash is never read.
        spill_dir = os.path.join(self.path, COMPACT_SPILL_DIR)
        os.makedirs(spill_dir, exist_ok=True)
        spilled: Set[int] = set()
        peak = 0
        # Pass 1: scatter every edge to its destination batch's spill
        # file (an edge is co-located with its target node; edges whose
        # target lives elsewhere fall back to the source's batch, then
        # the first).
        for info in infos:
            payload = self._segment_uncached(info.segment_id)
            peak = max(peak, len(payload.nodes))
            lines_by_batch: Dict[int, List[str]] = defaultdict(list)
            for edge in payload.edges:
                position = batch_of_node.get(edge[1], batch_of_node.get(edge[0], 0))
                lines_by_batch[position].append(
                    json.dumps(
                        edge_to_dict(
                            edge[0], edge[1], {"kind": edge[2], **edge[3]},
                            version=FORMAT_VERSION_V2,
                        ),
                        sort_keys=True,
                    )
                )
            for position, lines in lines_by_batch.items():
                with open(
                    os.path.join(spill_dir, f"batch-{position:08d}.jsonl"),
                    "a" if position in spilled else "w",
                    encoding="utf-8",
                ) as handle:
                    handle.write("\n".join(lines) + "\n")
                spilled.add(position)
        # Pass 2: stream nodes in the causal order, sealing each new
        # segment as soon as its batch is complete.
        new_index = StoreIndexes()
        new_infos: List[SegmentInfo] = []
        buffers: Dict[int, List[SubComputation]] = defaultdict(list)
        emitted: Set[int] = set()

        def emit(position: int) -> None:
            pending = {node.node_id: node for node in buffers.pop(position, [])}
            batch = [pending[node_id] for node_id in old_index.causal_order(pending)]
            batch_edges: List[EdgeTuple] = []
            if position in spilled:
                spill_path = os.path.join(spill_dir, f"batch-{position:08d}.jsonl")
                with open(spill_path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        if line.strip():
                            batch_edges.append(edge_from_dict(json.loads(line)))
            new_infos.append(self._write_segment(run_id, batch, batch_edges, new_index))
            emitted.add(position)

        for info in infos:
            payload = self._segment_uncached(info.segment_id)
            for node in payload.nodes.values():
                buffers[batch_of_node[node.node_id]].append(node)
            # The decoded payload's nodes now live in the buffers, so
            # the buffered total *is* the resident node count.
            peak = max(peak, sum(len(pending) for pending in buffers.values()))
            for position in [
                position
                for position, pending in buffers.items()
                if len(pending) >= batch_sizes[position]
            ]:
                emit(position)
        for position in sorted(buffers):
            emit(position)
        for position in range(batch_count):
            if position not in emitted:
                emit(position)  # nodeless batch (edge-only runs)
        new_index.clear_pending()
        new_index.needs_base = True
        superseded = [info.segment_id for info in infos]
        self.manifest.segments = [
            info for info in self.manifest.segments if info.run != run_id
        ] + new_infos
        self.run_indexes[run_id] = new_index
        # The superseded payloads are dropped by the generation bump in
        # compact() once the new manifest generation is committed.
        return superseded, peak

    def _run_fully_quarantined(self, run_id: int) -> bool:
        """True when every segment of ``run_id`` is quarantined.

        Such a run is damage awaiting repair (scrub/anti-entropy), so
        retention accounting treats it as neither live nor superseded.
        """
        infos = self.manifest.segments_of_run(run_id)
        return bool(infos) and all(
            self.manifest.is_quarantined(info.segment_id) for info in infos
        )

    def gc(
        self, keep_last: Optional[int] = None, runs: Optional[Sequence[int]] = None
    ) -> MaintenanceStats:
        """Drop superseded runs and reclaim their segments on disk.

        Exactly one selector must be given: ``keep_last=N`` keeps the N
        most recently minted **live** runs and drops the older live ones;
        ``runs=[...]`` drops exactly the listed run ids.

        A run whose every segment is quarantined is damage awaiting
        repair, not superseded data: it neither consumes a keep slot nor
        gets dropped by ``keep_last`` (an explicit ``runs=[...]`` still
        removes it once the operator gives up on repair).

        Crash-consistent like :meth:`compact`: the shrunk manifest is
        committed first, then every file no commit names is deleted -- the
        dropped runs' segments and index directories, and whatever an
        earlier crash left behind.
        """
        if (keep_last is None) == (runs is None):
            raise StoreError("gc needs exactly one of keep_last= or runs=")
        if keep_last is not None:
            if keep_last < 0:
                raise StoreError(f"keep_last must be non-negative, got {keep_last}")
            live = [
                run_id
                for run_id in self.run_ids()
                if not self._run_fully_quarantined(run_id)
            ]
            drop = live[: max(0, len(live) - keep_last)]
        else:
            drop = list(dict.fromkeys(runs or ()))  # dedupe, keep order
            for run_id in drop:
                self.manifest.run_info(run_id)  # validates existence
        stats = MaintenanceStats(segments_before=self.manifest.segment_count)
        if not drop:
            stats.segments_after = stats.segments_before
            return stats
        self._load_pages_runs_once()
        for run_id in drop:
            self.manifest.remove_run(run_id)
            self.run_indexes.pop(run_id, None)
            self._pages_runs_covered.discard(run_id)
        if self._pages_runs:
            dropped_set_runs = set(drop)
            for page in list(self._pages_runs):
                remaining = self._pages_runs[page] - dropped_set_runs
                if remaining != self._pages_runs[page]:
                    if remaining:
                        self._pages_runs[page] = remaining
                    else:
                        del self._pages_runs[page]
        if self.pinner is not None:
            for run_id in drop:
                self.pinner.invalidate(self.cache_namespace, run_id)
        stats.runs_dropped = drop
        stats.segments_after = self.manifest.segment_count
        # The commit point: dropped runs are gone from here on.  Removal
        # shrinks the segment table, so it must be a checkpoint.
        self.flush(checkpoint=True)
        self._bump_generation()
        stats.bytes_reclaimed = self._sweep_orphans()
        return stats

    def _sweep_orphans(self) -> int:
        """Delete every file the committed manifest does not name; returns bytes freed.

        See :func:`repro.store.files.orphans`.  Only maintenance
        operations sweep, right after their commit (never :meth:`open`):
        :meth:`append_segment` writes a segment file before the flush
        that names it, so a live writer legitimately keeps segment files
        briefly ahead of the manifest on disk, and sweeping on every open
        would race it.  Running compact/gc concurrently with an active
        ingest is documented as unsupported.
        """
        return files.remove(self.path, files.orphans(self.path, self.manifest))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def run_index_delta_bytes(self, run_id: int) -> int:
        """On-disk size of the run's pending (un-folded) index delta files."""
        run_info = self.manifest.run_info(run_id)
        run_dir = self._run_index_dir(run_id)
        total = 0
        for generation in run_info.index_deltas:
            try:
                total += os.path.getsize(os.path.join(run_dir, index_delta_file_name(generation)))
            except OSError:
                continue
        return total

    def run_summary(self, run_id: int) -> dict:
        """One run's manifest entry plus its on-disk footprint."""
        run = self.manifest.run_info(run_id)
        infos = self.manifest.segments_of_run(run_id)
        return {
            "id": run.run_id,
            "workload": run.workload,
            "status": run.status,
            "created_at": run.created_at,
            "nodes": run.nodes,
            "edges": run.edges,
            "segments": len(infos),
            "quarantined_segments": sorted(
                info.segment_id for info in infos
                if self.manifest.is_quarantined(info.segment_id)
            ),
            "stored_bytes": sum(info.stored_bytes for info in infos),
            "index_base_gen": run.index_base,
            "index_delta_files": len(run.index_deltas),
            "index_delta_bytes": self.run_index_delta_bytes(run_id),
            "meta": dict(run.meta),
        }

    def log_state(self) -> dict:
        """Segment-log state (the CLI's ``info`` segment-log block).

        ``checkpoint_seq`` is the last record the manifest checkpoint
        folded in; ``last_seq`` the last record this handle committed
        (checkpointed or logged); their gap is the replay a cold open of
        the current on-disk state would perform.
        """
        return {
            "records": self._log.record_count if self._log.exists() else 0,
            "bytes": self._log.size_bytes(),
            "checkpoint_seq": self.manifest.log_seq,
            "last_seq": self._log_next_seq - 1,
            "uncheckpointed_records": self._uncheckpointed_records,
            "checkpoint_interval": self.checkpoint_interval,
        }

    def info(self) -> dict:
        """Summary of the store (the CLI's ``info`` output)."""
        manifest = self.manifest
        raw = sum(segment.raw_bytes for segment in manifest.segments)
        stored = sum(segment.stored_bytes for segment in manifest.segments)
        for run_id in self.run_ids():
            self.indexes_for(run_id)  # info is the diagnostic full view
        loaded = list(self.run_indexes.values())
        threads = sorted({tid for idx in loaded for tid in idx.thread_indexes})
        pages = len({page for idx in loaded for page in idx.pages_touched()})
        sync_objects = len({obj for idx in loaded for obj in idx.sync_edges})
        runs = [self.run_summary(run_id) for run_id in self.run_ids()]
        return {
            "path": self.path,
            "format_version": STORE_FORMAT_VERSION,
            "segments": manifest.segment_count,
            "quarantined_segments": sorted(manifest.quarantined),
            "nodes": manifest.node_count,
            "edges": manifest.edge_count,
            "threads": threads,
            "pages_indexed": pages,
            "sync_objects": sync_objects,
            "raw_bytes": raw,
            "stored_bytes": stored,
            "compression_ratio": round(raw / stored, 2) if stored else 1.0,
            "index_delta_files": sum(len(run.index_deltas) for run in manifest.runs),
            "index_delta_bytes": sum(self.run_index_delta_bytes(run_id) for run_id in self.run_ids()),
            "segment_log": self.log_state(),
            "runs": runs,
        }

    def cache_info(self) -> dict:
        """Read-path cache configuration + counters (``info --stats``)."""
        report = {
            "segment_cache": self.cache.to_dict(),
            "manifest_generation": self.manifest_generation,
            "index_pinner": self.pinner.to_dict() if self.pinner is not None else None,
        }
        return report

    def __len__(self) -> int:
        return self.manifest.node_count
