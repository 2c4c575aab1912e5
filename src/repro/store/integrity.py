"""Integrity checking for the provenance store: fsck and scrub.

Two complementary passes over one store directory:

:func:`verify_store` (**fsck**) is the *structural* check -- cheap, stat
-based, no payload reads.  It verifies that the manifest checkpoint, the
segment log, and the files on disk agree: every referenced segment and
index file exists with the size the manifest recorded, the cross-run page
summary matches its recorded size, the log's tail is not torn, and no
unreferenced ``seg-*``/``base-*``/``delta-*``/scratch files are leaking
disk (the residue of a crash between new-files-write and manifest-commit
in ``compact()``/``gc()``).  With ``repair=True`` the orphans are removed
-- that is the *only* mutation fsck performs; damage to referenced files
is never "repaired" by deletion here (replica repair, or an index rebuild
on next load, is the healing path).

:func:`scrub` is the *deep* check -- it re-reads every referenced file
from disk and re-computes its checksum against the manifest's recorded
``(size, crc)`` (an index or summary file without a recorded checksum is
counted ``unverified``).  Reads go straight to the files, never through the
decoded-segment cache, so a scrub does not evict warm readers' working
set; an optional MB/s throttle keeps it polite next to live queries.
Damaged segments are **quarantined** (recorded in the manifest, skipped
by queries) rather than left to ambush the next reader, and a segment
that verifies again after being repaired in place has its quarantine mark
cleared.

Both are surfaced as ``python -m repro.store fsck|scrub`` with
machine-readable JSON reports and a non-zero exit code on damage.

Like compact/gc, both assume a quiescent store: running fsck's orphan
scan or a scrub concurrently with an active ingest or maintenance rewrite
is unsupported (a streaming sink legitimately keeps committed segment
files briefly ahead of the durable manifest).
"""

from __future__ import annotations

import os
import time
import zlib
from typing import Dict, List, Optional

from repro.errors import StoreError

from repro.store.format import (
    INDEX_DIR,
    MANIFEST_NAME,
    PAGES_RUNS_FILE,
    SEGMENT_LOG_NAME,
    SEGMENTS_DIR,
    index_base_file_name,
    index_delta_file_name,
    segment_file_name,
)
from repro.store.store import (
    _COMPACT_SPILL_DIR,
    _INDEX_BASE_RE,
    _INDEX_DELTA_RE,
    _RUN_DIR_RE,
    _SEGMENT_FILE_RE,
    ProvenanceStore,
)

#: Bytes read per chunk by the scrubber (also the throttle granularity).
SCRUB_CHUNK_BYTES = 1 << 20


def _problem(kind: str, path: str, detail: str) -> dict:
    return {"kind": kind, "path": path, "detail": detail}


# ---------------------------------------------------------------------- #
# fsck
# ---------------------------------------------------------------------- #


def verify_store(path: str, repair: bool = False) -> dict:
    """Structural fsck of the store directory at ``path``.

    Returns a machine-readable report::

        {
          "path": ...,  "ok": bool,
          "problems": [{"kind", "path", "detail"}, ...],   # damage
          "warnings": [...],                  # recoverable oddities
          "orphans": [relpath, ...],          # unreferenced files found
          "repaired": [relpath, ...],         # orphans removed (repair=True)
          "quarantined": {segment_id: reason},
          "checked": {"segments": N, "index_files": N},
          "segment_log": {"records", "valid_bytes", "torn_bytes"},
        }

    ``ok`` is False whenever ``problems`` is non-empty; orphan files
    count as problems unless ``repair=True`` removed them.  fsck never
    reads segment payloads -- :func:`scrub` is the deep check.
    """
    report: dict = {
        "path": os.path.abspath(path),
        "ok": True,
        "problems": [],
        "warnings": [],
        "orphans": [],
        "repaired": [],
        "quarantined": {},
        "checked": {"segments": 0, "index_files": 0},
        "segment_log": {"records": 0, "valid_bytes": 0, "torn_bytes": 0},
    }
    problems: List[dict] = report["problems"]
    try:
        store = ProvenanceStore.open(path)
    except StoreError as exc:
        problems.append(
            _problem("manifest_unreadable", MANIFEST_NAME, str(exc))
        )
        report["ok"] = False
        return report
    with store:
        manifest = store.manifest
        if store._log.exists():
            report["segment_log"] = store._log.verify()
            torn = report["segment_log"]["torn_bytes"]
            if torn:
                report["warnings"].append(
                    _problem(
                        "log_torn_tail",
                        SEGMENT_LOG_NAME,
                        f"{torn} byte(s) past the commit horizon "
                        f"(a crashed append; the next flush truncates them)",
                    )
                )
        for info in manifest.segments:
            report["checked"]["segments"] += 1
            rel = os.path.join(SEGMENTS_DIR, info.file_name)
            seg_path = os.path.join(path, rel)
            if not os.path.exists(seg_path):
                problems.append(
                    _problem(
                        "segment_missing",
                        rel,
                        f"segment {info.segment_id} is referenced by the "
                        f"manifest but has no file",
                    )
                )
                continue
            size = os.path.getsize(seg_path)
            if info.stored_bytes and size != info.stored_bytes:
                problems.append(
                    _problem(
                        "segment_size_mismatch",
                        rel,
                        f"manifest records {info.stored_bytes} bytes, "
                        f"file has {size}",
                    )
                )
        for run in manifest.runs:
            run_dir = store._run_index_dir(run.run_id)
            rel_dir = os.path.relpath(run_dir, path)
            expected = []
            if run.index_base:
                expected.append(index_base_file_name(run.index_base))
            expected.extend(index_delta_file_name(gen) for gen in run.index_deltas)
            for name in expected:
                report["checked"]["index_files"] += 1
                rel = os.path.join(rel_dir, name)
                file_path = os.path.join(run_dir, name)
                if not os.path.exists(file_path):
                    problems.append(
                        _problem(
                            "index_file_missing",
                            rel,
                            f"run {run.run_id} references {name} "
                            f"(a torn delta; rebuilt from segments on next load)",
                        )
                    )
                    continue
                pair = run.index_checksums.get(name)
                if pair is not None and os.path.getsize(file_path) != pair[0]:
                    problems.append(
                        _problem(
                            "index_size_mismatch",
                            rel,
                            f"manifest records {pair[0]} bytes, "
                            f"file has {os.path.getsize(file_path)}",
                        )
                    )
        if manifest.pages_runs_checksum is not None:
            rel = os.path.join(INDEX_DIR, PAGES_RUNS_FILE)
            summary_path = os.path.join(path, rel)
            if not os.path.exists(summary_path):
                problems.append(
                    _problem("pages_runs_missing", rel, "recorded summary file is absent")
                )
            elif os.path.getsize(summary_path) != manifest.pages_runs_checksum[0]:
                problems.append(
                    _problem(
                        "pages_runs_size_mismatch",
                        rel,
                        f"manifest records {manifest.pages_runs_checksum[0]} bytes, "
                        f"file has {os.path.getsize(summary_path)}",
                    )
                )
        report["quarantined"] = {
            str(segment_id): reason
            for segment_id, reason in sorted(manifest.quarantined.items())
        }
        for segment_id, reason in sorted(manifest.quarantined.items()):
            problems.append(
                _problem(
                    "quarantined",
                    os.path.join(SEGMENTS_DIR, segment_file_name(segment_id)),
                    reason,
                )
            )
        orphans = _find_orphans(store)
        report["orphans"] = orphans
        if repair:
            for rel in orphans:
                if _remove_orphan(os.path.join(path, rel)):
                    report["repaired"].append(rel)
                else:
                    problems.append(
                        _problem("orphan_unremovable", rel, "could not remove orphan")
                    )
        else:
            for rel in orphans:
                problems.append(
                    _problem(
                        "orphan_file",
                        rel,
                        "not referenced by the manifest (crash residue; "
                        "fsck --repair removes it)",
                    )
                )
    report["ok"] = not problems
    return report


def _find_orphans(store: ProvenanceStore) -> List[str]:
    """Store-relative paths of files the manifest does not reference.

    Mirrors the criteria of ``ProvenanceStore._sweep_orphans`` (which
    deletes silently from maintenance operations) but only *reports*, so
    fsck can surface the leak a crashed ``compact()``/``gc()`` left
    behind without mutating anything.
    """
    orphans: List[str] = []
    path = store.path
    referenced = set(store.manifest.segment_ids())
    segments_dir = os.path.join(path, SEGMENTS_DIR)
    if os.path.isdir(segments_dir):
        for name in sorted(os.listdir(segments_dir)):
            rel = os.path.join(SEGMENTS_DIR, name)
            if name.endswith(".tmp"):
                orphans.append(rel)
                continue
            match = _SEGMENT_FILE_RE.match(name)
            if match is not None and int(match.group(1)) not in referenced:
                orphans.append(rel)
    index_dir = os.path.join(path, INDEX_DIR)
    known_runs = set(store.run_ids())
    if os.path.isdir(index_dir):
        for name in sorted(os.listdir(index_dir)):
            rel = os.path.join(INDEX_DIR, name)
            match = _RUN_DIR_RE.match(name)
            if match is None:
                if name.endswith(".tmp"):
                    orphans.append(rel)
                continue
            run_id = int(match.group(1))
            if run_id not in known_runs:
                orphans.append(rel)  # the whole stale run directory
                continue
            run_info = store.manifest.run_info(run_id)
            run_dir = os.path.join(index_dir, name)
            for file_name in sorted(os.listdir(run_dir)):
                file_rel = os.path.join(rel, file_name)
                base_match = _INDEX_BASE_RE.match(file_name)
                delta_match = _INDEX_DELTA_RE.match(file_name)
                stale = file_name.endswith(".tmp")
                if base_match is not None:
                    stale = int(base_match.group(1)) != run_info.index_base
                elif delta_match is not None:
                    stale = int(delta_match.group(1)) not in run_info.index_deltas
                if stale:
                    orphans.append(file_rel)
    if os.path.isdir(os.path.join(path, _COMPACT_SPILL_DIR)):
        orphans.append(_COMPACT_SPILL_DIR)
    return orphans


def _remove_orphan(target: str) -> bool:
    """Remove one orphan file or (flat) directory; True on success."""
    try:
        if os.path.isdir(target):
            for name in os.listdir(target):
                os.remove(os.path.join(target, name))
            os.rmdir(target)
        else:
            os.remove(target)
    except OSError:
        return False
    return True


# ---------------------------------------------------------------------- #
# scrub
# ---------------------------------------------------------------------- #


class _Throttle:
    """Caps scrub read bandwidth by sleeping off any surplus."""

    def __init__(self, mb_per_s: Optional[float]) -> None:
        self.bytes_per_s = mb_per_s * 1024 * 1024 if mb_per_s else None
        self._started = time.monotonic()
        self._charged = 0

    def charge(self, nbytes: int) -> None:
        if not self.bytes_per_s:
            return
        self._charged += nbytes
        due = self._charged / self.bytes_per_s
        elapsed = time.monotonic() - self._started
        if due > elapsed:
            time.sleep(due - elapsed)


def _read_throttled(path: str, throttle: _Throttle) -> bytes:
    chunks = []
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(SCRUB_CHUNK_BYTES)
            if not chunk:
                break
            throttle.charge(len(chunk))
            chunks.append(chunk)
    return b"".join(chunks)


def scrub(
    store: ProvenanceStore,
    throttle_mb_per_s: Optional[float] = None,
    quarantine: bool = True,
    durable: bool = True,
) -> dict:
    """Deep-verify every referenced file of ``store`` by re-reading it.

    Every segment, index base/delta, and the cross-run page summary is
    read back from disk (bypassing the decoded-segment cache, so warm
    readers keep their working set) and checked against the manifest's
    recorded ``(size, crc)``; an index or summary file without a recorded
    checksum counts as ``unverified``.  ``throttle_mb_per_s`` bounds the
    read bandwidth.

    With ``quarantine=True`` (the default) every damaged segment is
    quarantined -- and a previously quarantined segment that now verifies
    clean (repaired in place) is un-quarantined; ``durable=True`` commits
    any mark changes through a manifest checkpoint (a clean scrub writes
    nothing).

    Returns a machine-readable report; ``ok`` is False when any file is
    damaged.
    """
    started = time.monotonic()
    report: dict = {
        "path": os.path.abspath(store.path),
        "ok": True,
        "segments": {"verified": 0, "damaged": 0},
        "index_files": {"verified": 0, "unverified": 0, "damaged": 0},
        "files_scanned": 0,
        "bytes_verified": 0,
        "damage": [],
        "quarantined": [],
        "unquarantined": [],
    }
    throttle = _Throttle(throttle_mb_per_s)
    marks_changed = False
    for info in list(store.manifest.segments):
        rel = os.path.join(SEGMENTS_DIR, info.file_name)
        seg_path = os.path.join(store.path, rel)
        reason: Optional[str] = None
        try:
            data = _read_throttled(seg_path, throttle)
        except OSError as exc:
            reason = f"unreadable: {exc}"
            data = b""
        report["files_scanned"] += 1
        report["bytes_verified"] += len(data)
        if reason is None:
            actual = zlib.crc32(data) & 0xFFFFFFFF
            if len(data) != info.stored_bytes or actual != info.crc:
                reason = (
                    f"file checksum mismatch: manifest records "
                    f"{info.stored_bytes}B/0x{info.crc:08x}, "
                    f"found {len(data)}B/0x{actual:08x}"
                )
        if reason is not None:
            report["segments"]["damaged"] += 1
            report["damage"].append(
                _problem("segment_damaged", rel, f"segment {info.segment_id}: {reason}")
            )
            if quarantine and not store.is_quarantined(info.segment_id):
                store.manifest.quarantine(info.segment_id, reason)
                marks_changed = True
            if store.is_quarantined(info.segment_id):
                report["quarantined"].append(info.segment_id)
        else:
            if quarantine and store.is_quarantined(info.segment_id):
                # Repaired in place since it was marked: lift the mark.
                store.manifest.clear_quarantine(info.segment_id)
                report["unquarantined"].append(info.segment_id)
                marks_changed = True
            report["segments"]["verified"] += 1
    for run in store.manifest.runs:
        run_dir = store._run_index_dir(run.run_id)
        rel_dir = os.path.relpath(run_dir, store.path)
        expected = []
        if run.index_base:
            expected.append(index_base_file_name(run.index_base))
        expected.extend(index_delta_file_name(gen) for gen in run.index_deltas)
        for name in expected:
            rel = os.path.join(rel_dir, name)
            _scrub_plain_file(
                store,
                os.path.join(run_dir, name),
                rel,
                run.index_checksums.get(name),
                report,
                throttle,
                f"run {run.run_id} index file",
            )
    if store.manifest.pages_runs_checksum is not None:
        rel = os.path.join(INDEX_DIR, PAGES_RUNS_FILE)
        _scrub_plain_file(
            store,
            os.path.join(store.path, rel),
            rel,
            store.manifest.pages_runs_checksum,
            report,
            throttle,
            "cross-run page summary",
        )
    if marks_changed and durable:
        store.flush(checkpoint=True)
    report["ok"] = not report["damage"]
    elapsed = time.monotonic() - started
    report["elapsed_s"] = round(elapsed, 3)
    report["mb_per_s"] = (
        round(report["bytes_verified"] / elapsed / (1024 * 1024), 2) if elapsed > 0 else 0.0
    )
    return report


def _scrub_plain_file(
    store: ProvenanceStore,
    file_path: str,
    rel: str,
    recorded: Optional[List[int]],
    report: dict,
    throttle: _Throttle,
    what: str,
) -> None:
    """Verify one non-segment file against its recorded ``[size, crc]``.

    Index and summary files are never quarantined: a damaged index
    generation is rebuilt from the (ground-truth) segments on the next
    load, and the page summary is a non-authoritative cache -- scrub just
    reports them.
    """
    try:
        data = _read_throttled(file_path, throttle)
    except OSError as exc:
        report["index_files"]["damaged"] += 1
        report["damage"].append(_problem("file_unreadable", rel, f"{what}: {exc}"))
        return
    report["files_scanned"] += 1
    report["bytes_verified"] += len(data)
    if recorded is None:
        report["index_files"]["unverified"] += 1
        return
    actual = zlib.crc32(data) & 0xFFFFFFFF
    if len(data) != recorded[0] or actual != recorded[1]:
        report["index_files"]["damaged"] += 1
        report["damage"].append(
            _problem(
                "file_checksum_mismatch",
                rel,
                f"{what}: manifest records {recorded[0]}B/0x{recorded[1]:08x}, "
                f"found {len(data)}B/0x{actual:08x}",
            )
        )
    else:
        report["index_files"]["verified"] += 1
