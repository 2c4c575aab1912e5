"""The one owner of the store's files: how they are written, listed and swept.

Every write, rename, fsync and delete of a store file goes through the
four writers below, and :func:`orphans` alone decides which files on disk
no commit names.  Segment ids and index generations are never reused
(:mod:`repro.store.format`), so most files are written once under a fresh
name (:func:`write_once`); the few kept under a fixed name -- the
manifest checkpoint, the page summary, the log reset, baselines,
``cluster.json``, repair installs -- are replaced durably
(:func:`replace`); the segment log is appended to (:func:`append`); and
maintenance and fsck delete with :func:`remove`.

Compaction's per-batch edge spill files are the one exception: no commit
ever names them, so compaction writes them directly into
:data:`~repro.store.format.COMPACT_SPILL_DIR`, which :func:`orphans` lists
whole for the sweep after the commit.
"""

from __future__ import annotations

import os
import zlib
from typing import Iterable, List

from repro.store.format import (
    COMPACT_SPILL_DIR,
    INDEX_DIR,
    SCRATCH_SUFFIX,
    SEGMENTS_DIR,
    StoreManifest,
    is_index_file_name,
    parse_run_index_dir_name,
    parse_segment_file_name,
)


def _size_crc(data: bytes) -> List[int]:
    return [len(data), zlib.crc32(data) & 0xFFFFFFFF]


def write_once(path: str, data: bytes) -> List[int]:
    """Write a file under a fresh, never-reused name; returns ``[size, crc]``.

    No rename: nothing names the file until a later commit records it
    together with the returned checksum.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(data)
    return _size_crc(data)


def replace(path: str, data: bytes) -> List[int]:
    """Durably replace the file at ``path``; returns ``[size, crc]``.

    A crash leaves either the old file or the new one, plus at most a
    scratch file :func:`orphans` lists.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    scratch = path + SCRATCH_SUFFIX
    with open(scratch, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, path)
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
    return _size_crc(data)


def append(path: str, frame: bytes, valid_bytes: int) -> None:
    """Cut ``path`` back to ``valid_bytes``, append ``frame`` and fsync it.

    The frame goes out in one write, so a crash leaves it whole or torn at
    the end, where the reader's framing stops and the next append cuts.
    """
    with open(path, "ab") as handle:
        handle.truncate(valid_bytes)
        handle.write(frame)
        handle.flush()
        os.fsync(handle.fileno())


def remove(root: str, rels: Iterable[str]) -> int:
    """Delete store-relative files and flat directories; returns bytes freed.

    Missing entries and ones that cannot be removed are skipped: a
    caller that must know (fsck) looks again afterwards.
    """
    freed = 0
    for rel in rels:
        target = os.path.join(root, rel)
        if os.path.isdir(target):
            for name in os.listdir(target):
                freed += _unlink(os.path.join(target, name))
            try:
                os.rmdir(target)
            except OSError:
                pass
        else:
            freed += _unlink(target)
    return freed


def _unlink(path: str) -> int:
    try:
        size = os.path.getsize(path)
        os.remove(path)
    except OSError:
        return 0
    return size


def _names(directory: str) -> List[str]:
    try:
        return sorted(os.listdir(directory))
    except OSError:
        return []


def orphans(root: str, manifest: StoreManifest) -> List[str]:
    """Store-relative paths (``/``-separated) of what no commit names.

    Scratch files at any level, segment files the manifest does not
    list, index directories of runs it does not know, index generations
    a known run no longer references, and the compaction spill directory.
    Other names (baselines, files an operator put there) are left alone.

    ``manifest`` must be the state the caller committed: a live writer
    has segment files on disk that only its in-memory manifest names, so
    sweeping against an older manifest would delete them.
    """
    found = [name for name in _names(root) if name.endswith(SCRATCH_SUFFIX)]
    segments = set(manifest.segment_ids())
    for name in _names(os.path.join(root, SEGMENTS_DIR)):
        segment_id = parse_segment_file_name(name)
        if name.endswith(SCRATCH_SUFFIX) or (
            segment_id is not None and segment_id not in segments
        ):
            found.append(f"{SEGMENTS_DIR}/{name}")
    runs = {run.run_id: run for run in manifest.runs}
    index_dir = os.path.join(root, INDEX_DIR)
    for name in _names(index_dir):
        run_id = parse_run_index_dir_name(name)
        if name.endswith(SCRATCH_SUFFIX) or (run_id is not None and run_id not in runs):
            found.append(f"{INDEX_DIR}/{name}")
            continue
        live = set(runs[run_id].index_file_names()) if run_id is not None else set()
        for file_name in _names(os.path.join(index_dir, name)):
            if file_name.endswith(SCRATCH_SUFFIX) or (
                run_id is not None and is_index_file_name(file_name) and file_name not in live
            ):
                found.append(f"{INDEX_DIR}/{name}/{file_name}")
    if os.path.isdir(os.path.join(root, COMPACT_SPILL_DIR)):
        found.append(COMPACT_SPILL_DIR)
    return found
