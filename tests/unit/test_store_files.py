"""Tests for :mod:`repro.store.files`, the one owner of the store's files.

Pins the durability order of :func:`files.replace` (data fsynced before
the rename, the directory after it), that a checkpoint's manifest is
durable before the log reset, that :func:`files.write_once` never renames,
and that :func:`files.orphans` finds exactly what the orphan rules fsck
and maintenance kept in two copies before found, on the same fixtures.
"""

import os
import re
import stat
import zlib

import pytest

from helpers.clusters import build_multirun_store
from helpers.executions import random_cpg

from repro.core.cpg import EdgeKind
from repro.store import ProvenanceStore, StoreSink, files
from repro.store.format import (
    INDEX_DIR,
    MANIFEST_NAME,
    PAGES_RUNS_FILE,
    SEGMENT_LOG_NAME,
    SEGMENTS_DIR,
    index_base_file_name,
    index_delta_file_name,
    run_index_dir_name,
    segment_file_name,
)


@pytest.fixture
def io_events(monkeypatch):
    """Record every ``os.fsync`` (file or directory, inode) and ``os.replace``."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(descriptor):
        info = os.fstat(descriptor)
        kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
        events.append(("fsync", kind, info.st_ino))
        real_fsync(descriptor)

    def replace(source, target):
        events.append(("replace", os.path.basename(source), os.path.basename(target)))
        real_replace(source, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


def stream_epochs(store, cpg, segment_nodes=4):
    """Stream ``cpg`` through a :class:`StoreSink` one epoch at a time."""
    sink = StoreSink(store, segment_nodes=segment_nodes, workload="stream")
    recorded = {}
    for source, target, attrs in cpg.edges():
        if attrs["kind"] is not EdgeKind.DATA:
            extra = {key: value for key, value in attrs.items() if key != "kind"}
            recorded.setdefault(target, []).append((source, target, attrs["kind"], extra))
    for node_id in cpg.topological_order():
        sink.subcomputation_published(cpg.subcomputation(node_id), recorded.get(node_id, []))
    sink.finish(cpg)
    return sink


class TestWriters:
    def test_replace_fsyncs_the_data_before_the_rename_and_the_directory_after(
        self, tmp_path, io_events
    ):
        target = tmp_path / "fresh" / "doc.json"
        assert files.replace(str(target), b"payload") == [7, zlib.crc32(b"payload")]
        assert target.read_bytes() == b"payload"
        assert io_events == [
            ("fsync", "file", os.stat(target).st_ino),
            ("replace", "doc.json.tmp", "doc.json"),
            ("fsync", "dir", os.stat(target.parent).st_ino),
        ]
        assert os.listdir(target.parent) == ["doc.json"]

    def test_checkpoint_manifest_is_durable_before_the_log_reset(self, tmp_path, io_events):
        store_dir = str(tmp_path / "store")
        store = ProvenanceStore.create(store_dir)
        run_id = store.new_run(workload="w")
        cpg = random_cpg(3)
        store.append_segment([cpg.subcomputation(n) for n in cpg.topological_order()], [], run=run_id)
        store.flush()  # one log record
        del io_events[:]
        store.flush(checkpoint=True)
        manifest = os.stat(os.path.join(store_dir, MANIFEST_NAME)).st_ino
        log = os.stat(os.path.join(store_dir, SEGMENT_LOG_NAME)).st_ino
        directory = os.stat(store_dir).st_ino
        assert io_events == [
            ("fsync", "file", manifest),
            ("replace", MANIFEST_NAME + ".tmp", MANIFEST_NAME),
            ("fsync", "dir", directory),
            ("fsync", "file", log),
            ("replace", SEGMENT_LOG_NAME + ".tmp", SEGMENT_LOG_NAME),
            ("fsync", "dir", directory),
        ]

    def test_write_once_never_renames(self, tmp_path, io_events):
        path = tmp_path / "run" / "seg.bin"
        assert files.write_once(str(path), b"abc") == [3, zlib.crc32(b"abc")]
        assert path.read_bytes() == b"abc"
        assert io_events == []
        # A whole streamed run: only the fixed-name files are replaced;
        # segment and index files are written once, in place.
        store = ProvenanceStore.create(str(tmp_path / "store"))
        stream_epochs(store, random_cpg(5))
        replaced = {event[2] for event in io_events if event[0] == "replace"}
        assert replaced == {MANIFEST_NAME, SEGMENT_LOG_NAME, PAGES_RUNS_FILE}

    def test_append_cuts_a_torn_tail_before_the_frame(self, tmp_path, io_events):
        path = tmp_path / "log"
        path.write_bytes(b"valid" + b"torn")
        files.append(str(path), b"+frame", 5)
        assert path.read_bytes() == b"valid+frame"
        assert io_events == [("fsync", "file", os.stat(path).st_ino)]

    def test_remove_counts_files_and_flat_directories(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"12345")
        (tmp_path / "dir").mkdir()
        (tmp_path / "dir" / "x").write_bytes(b"123")
        freed = files.remove(str(tmp_path), ["a.bin", "dir", "missing.bin"])
        assert freed == 8
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------- #
# orphans(): the one orphan list
# ---------------------------------------------------------------------- #

_SEGMENT_FILE_RE = re.compile(r"^seg-(\d{8})\.seg$")
_RUN_DIR_RE = re.compile(r"^run-(\d{8})$")
_INDEX_BASE_RE = re.compile(r"^base-(\d{8})\.bin$")
_INDEX_DELTA_RE = re.compile(r"^delta-(\d{8})\.bin$")


def reference_orphans(store):
    """The orphan rules fsck and maintenance each carried before ``files.orphans``.

    Kept verbatim as the reference: scratch and unreferenced files in
    ``segments/``, scratch files and unknown run directories in
    ``index/``, stale generations and scratch inside known run
    directories, and the compaction spill directory.
    """
    orphans = []
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
                orphans.append(rel)
                continue
            run_info = store.manifest.run_info(run_id)
            for file_name in sorted(os.listdir(os.path.join(index_dir, name))):
                base_match = _INDEX_BASE_RE.match(file_name)
                delta_match = _INDEX_DELTA_RE.match(file_name)
                stale = file_name.endswith(".tmp")
                if base_match is not None:
                    stale = int(base_match.group(1)) != run_info.index_base
                elif delta_match is not None:
                    stale = int(delta_match.group(1)) not in run_info.index_deltas
                if stale:
                    orphans.append(os.path.join(rel, file_name))
    if os.path.isdir(os.path.join(path, "tmp-compact")):
        orphans.append("tmp-compact")
    return orphans


def plant(path, data=b"stray"):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(data)


def assert_same_orphans(store_dir):
    with ProvenanceStore.open(store_dir) as store:
        found = files.orphans(store_dir, store.manifest)
        assert sorted(found) == sorted(reference_orphans(store))
    return found


class TestOrphans:
    def test_clean_store_has_none(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_multirun_store(store_dir, [11, 23])
        assert assert_same_orphans(store_dir) == []

    def test_every_kind_of_leftover_matches_the_old_rules(self, tmp_path):
        store_dir = str(tmp_path / "store")
        store, runs = build_multirun_store(store_dir, [11, 23])
        run_info = store.manifest.run_info(runs[0])
        run_dir = os.path.join(store_dir, INDEX_DIR, run_index_dir_name(runs[0]))
        spill = os.path.join(store_dir, "tmp-compact")
        strays = [
            os.path.join(store_dir, SEGMENTS_DIR, segment_file_name(900)),
            os.path.join(store_dir, SEGMENTS_DIR, segment_file_name(901) + ".tmp"),
            os.path.join(store_dir, INDEX_DIR, PAGES_RUNS_FILE + ".tmp"),
            os.path.join(store_dir, INDEX_DIR, run_index_dir_name(77), index_base_file_name(1)),
            os.path.join(run_dir, index_base_file_name(run_info.next_index_gen + 5)),
            os.path.join(run_dir, index_delta_file_name(run_info.next_index_gen + 6)),
            os.path.join(run_dir, "notes" + ".tmp"),
            os.path.join(spill, "batch-00000000.jsonl"),
        ]
        kept = [
            os.path.join(store_dir, SEGMENTS_DIR, "README"),
            os.path.join(run_dir, "README"),
            os.path.join(store_dir, INDEX_DIR, "baselines", "golden.json"),
        ]
        for path in strays + kept:
            plant(path)
        found = assert_same_orphans(store_dir)
        # One entry per stray: the unknown run's and the spill directory
        # are listed whole.
        assert len(found) == len(strays)
        freed = files.remove(store_dir, found)
        assert freed == 5 * len(strays)
        assert assert_same_orphans(store_dir) == []
        for path in kept:
            assert os.path.exists(path), path

    def test_crashed_compact_leftovers_match_the_old_rules(self, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "store")
        store, _runs = build_multirun_store(store_dir, [5, 6, 7])
        with monkeypatch.context() as patch, pytest.raises(RuntimeError):
            patch.setattr(
                files,
                "remove",
                lambda root, rels: (_ for _ in ()).throw(RuntimeError("crash before delete")),
            )
            store.compact(segment_nodes=64)
        found = assert_same_orphans(store_dir)
        assert any(rel.startswith(SEGMENTS_DIR + "/") for rel in found)
        assert "tmp-compact" in found
