"""Integrity checking for the provenance store: fsck and scrub.

Two complementary passes over one store directory:

:func:`verify_store` (**fsck**) is the *structural* check -- cheap, stat
-based, no payload reads.  It verifies that the manifest checkpoint, the
segment log, and the files on disk agree: every file the manifest names
(:meth:`~repro.store.format.StoreManifest.files`: segments, index
generations, the cross-run page summary) exists with the size the
manifest recorded, the log's tail is not torn, and no orphan -- a file
:func:`repro.store.files.orphans` says no commit names, such as the
residue of a crash between writing new files and committing them -- is
leaking disk.  With ``repair=True`` the orphans are removed -- that is the
*only* mutation fsck performs; damage to referenced files is never
"repaired" by deletion here (replica repair, or an index rebuild on next
load, is the healing path).

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
from typing import List, Optional

from repro.errors import StoreError

from repro.store import files
from repro.store.format import (
    INDEX_DIR,
    MANIFEST_NAME,
    PAGES_RUNS_FILE,
    SEGMENT_LOG_NAME,
    SEGMENTS_DIR,
    segment_file_name,
)
from repro.store.store import ProvenanceStore

#: Where the cross-run page summary sits (a non-segment, non-index file).
_SUMMARY_REL = f"{INDEX_DIR}/{PAGES_RUNS_FILE}"

#: fsck's problem kinds per class of named file: (missing, size mismatch,
#: what a missing file means).
_FSCK_KINDS = {
    "segment": ("segment_missing", "segment_size_mismatch", "named by the manifest but absent"),
    "index": (
        "index_file_missing",
        "index_size_mismatch",
        "named by its run but absent (a torn delta; rebuilt from segments on next load)",
    ),
    "summary": ("pages_runs_missing", "pages_runs_size_mismatch", "recorded summary file is absent"),
}

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
        for named in manifest.files():
            if named.segment_id is not None:
                file_class = "segment"
                report["checked"]["segments"] += 1
            elif named.path == _SUMMARY_REL:
                file_class = "summary"
            else:
                file_class = "index"
                report["checked"]["index_files"] += 1
            missing, mismatch, absent = _FSCK_KINDS[file_class]
            try:
                size = os.path.getsize(os.path.join(path, named.path))
            except OSError:
                problems.append(_problem(missing, named.path, absent))
                continue
            if named.checksum is not None and size != named.checksum[0]:
                problems.append(
                    _problem(
                        mismatch,
                        named.path,
                        f"manifest records {named.checksum[0]} bytes, file has {size}",
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
        orphans = files.orphans(path, manifest)
        report["orphans"] = orphans
        if repair:
            files.remove(path, orphans)
            for rel in orphans:
                if os.path.lexists(os.path.join(path, rel)):
                    problems.append(
                        _problem("orphan_unremovable", rel, "could not remove orphan")
                    )
                else:
                    report["repaired"].append(rel)
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
    recorded ``(size, crc)``; an index file without a recorded checksum
    counts as ``unverified``.  ``throttle_mb_per_s`` bounds the
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
    for named in store.manifest.files():
        rel = named.path
        try:
            data = _read_throttled(os.path.join(store.path, rel), throttle)
            error: Optional[OSError] = None
        except OSError as exc:
            data, error = b"", exc
        found = [len(data), zlib.crc32(data) & 0xFFFFFFFF]
        mismatch = named.checksum is not None and found != named.checksum
        if named.segment_id is None:
            # Index and summary files are never quarantined: a damaged
            # index generation is rebuilt from the (ground-truth) segments
            # on the next load, and the page summary is trusted only when
            # its checksum matches -- scrub just reports them.
            what = "cross-run page summary" if rel == _SUMMARY_REL else "index file"
            if error is not None:
                report["index_files"]["damaged"] += 1
                report["damage"].append(_problem("file_unreadable", rel, f"{what}: {error}"))
                continue
            report["files_scanned"] += 1
            report["bytes_verified"] += len(data)
            if named.checksum is None:
                report["index_files"]["unverified"] += 1
            elif mismatch:
                report["index_files"]["damaged"] += 1
                report["damage"].append(
                    _problem(
                        "file_checksum_mismatch", rel, f"{what}: {_mismatch(named.checksum, found)}"
                    )
                )
            else:
                report["index_files"]["verified"] += 1
            continue
        segment_id = named.segment_id
        report["files_scanned"] += 1
        report["bytes_verified"] += len(data)
        reason: Optional[str] = None
        if error is not None:
            reason = f"unreadable: {error}"
        elif mismatch:
            reason = f"file checksum mismatch: {_mismatch(named.checksum, found)}"
        if reason is not None:
            report["segments"]["damaged"] += 1
            report["damage"].append(
                _problem("segment_damaged", rel, f"segment {segment_id}: {reason}")
            )
            if quarantine and not store.is_quarantined(segment_id):
                store.manifest.quarantine(segment_id, reason)
                marks_changed = True
            if store.is_quarantined(segment_id):
                report["quarantined"].append(segment_id)
        else:
            if quarantine and store.is_quarantined(segment_id):
                # Repaired in place since it was marked: lift the mark.
                store.manifest.clear_quarantine(segment_id)
                report["unquarantined"].append(segment_id)
                marks_changed = True
            report["segments"]["verified"] += 1
    if marks_changed and durable:
        store.flush(checkpoint=True)
    report["ok"] = not report["damage"]
    elapsed = time.monotonic() - started
    report["elapsed_s"] = round(elapsed, 3)
    report["mb_per_s"] = (
        round(report["bytes_verified"] / elapsed / (1024 * 1024), 2) if elapsed > 0 else 0.0
    )
    return report


def _mismatch(recorded: List[int], found: List[int]) -> str:
    return (
        f"manifest records {recorded[0]}B/0x{recorded[1]:08x}, "
        f"found {found[0]}B/0x{found[1]:08x}"
    )
