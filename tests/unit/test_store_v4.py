"""Segment frames, append-only index deltas, streaming compaction.

Covers, on top of the existing store suites: only the current segment
frame byte decodes, torn index-delta generations are recovered from
segments, compaction streams instead of materializing whole runs, and the
cross-run page summary skips runs without loading their indexes.
"""

import json
import os

import pytest

from repro.core.algorithm import ProvenanceTracker
from repro.core.cpg import EdgeKind
from repro.core.dependencies import derive_data_edges
from repro.core.thunk import SubComputation
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError
from repro.inspector.api import run_with_provenance
from repro.store import (
    STORE_FORMAT_VERSION,
    ProvenanceStore,
    StoreQueryEngine,
    StoreSink,
    verify_store,
)
from repro.store.format import (
    INDEX_DIR,
    MANIFEST_NAME,
    PAGES_RUNS_FILE,
    SEGMENT_LOG_NAME,
    SEGMENT_MAGIC_PREFIX,
    index_base_file_name,
    index_delta_file_name,
    run_index_dir_name,
)
from repro.store.segment import decode_segment, encode_segment


def build_example_cpg():
    """A three-thread lock-schedule CPG with input pages and data edges."""
    tracker = ProvenanceTracker()
    tracker.register_input_pages({100, 101})
    lock = 7
    for tid in (1, 2, 3):
        tracker.on_thread_start(tid)
    tracker.on_memory_access(1, 100, is_write=False)
    tracker.on_memory_access(1, 10, is_write=True)
    tracker.on_sync_boundary(1, "mutex_unlock")
    tracker.on_release(1, lock)
    tracker.begin_next(1)
    tracker.on_sync_boundary(2, "mutex_lock")
    tracker.on_acquire(2, lock)
    tracker.begin_next(2)
    tracker.on_memory_access(2, 10, is_write=False)
    tracker.on_memory_access(2, 11, is_write=True)
    tracker.on_sync_boundary(2, "mutex_unlock")
    tracker.on_release(2, lock)
    tracker.begin_next(2)
    tracker.on_sync_boundary(3, "mutex_lock")
    tracker.on_acquire(3, lock)
    tracker.begin_next(3)
    tracker.on_memory_access(3, 11, is_write=False)
    tracker.on_memory_access(3, 101, is_write=False)
    tracker.on_memory_access(3, 12, is_write=True)
    for tid in (1, 2, 3):
        tracker.on_thread_end(tid)
    cpg = tracker.finalize()
    derive_data_edges(cpg)
    return cpg


def canonical_edges(cpg):
    entries = []
    for source, target, attrs in cpg.edges():
        kind = attrs["kind"]
        if kind is EdgeKind.SYNC:
            extra = (attrs.get("object_id"), attrs.get("operation", ""))
        elif kind is EdgeKind.DATA:
            extra = (tuple(sorted(attrs.get("pages", ()))),)
        else:
            extra = ()
        entries.append((source, target, kind.value, extra))
    return sorted(entries)


def make_node(tid, index, reads=(), writes=()):
    node = SubComputation(tid=tid, index=index, clock=VectorClock({tid: index + 1}))
    node.read_set.update(reads)
    node.write_set.update(writes)
    return node


# ---------------------------------------------------------------------- #
# Segment frames
# ---------------------------------------------------------------------- #


class TestSegmentFrames:
    def test_frame_bytes_other_than_0x84_are_rejected(self):
        cpg = build_example_cpg()
        nodes = [cpg.subcomputation(node_id) for node_id in cpg.topological_order()]
        framed, _ = encode_segment(nodes, [])
        at = len(SEGMENT_MAGIC_PREFIX)
        assert framed[at] == 0x84
        assert set(decode_segment(framed).nodes) == {node.node_id for node in nodes}
        # json, binary, and binary-z without a CRC; json and binary with one.
        for frame_byte in (0x02, 0x03, 0x04, 0x82, 0x83):
            relabelled = framed[:at] + bytes((frame_byte,)) + framed[at + 1 :]
            with pytest.raises(StoreError, match=f"frame byte 0x{frame_byte:02x}"):
                decode_segment(relabelled)


# ---------------------------------------------------------------------- #
# Append-only index deltas
# ---------------------------------------------------------------------- #


def stream_run(store_dir, epochs=6, nodes_per_epoch=4):
    """Stream a synthetic run, one flushed delta per epoch; returns the sink."""
    store = ProvenanceStore.open_or_create(store_dir)
    sink = StoreSink(
        store, segment_nodes=nodes_per_epoch, workload="synthetic"
    )
    for position in range(epochs * nodes_per_epoch):
        node = make_node(1, position, reads={position % 7}, writes={100 + position})
        edges = []
        if position:
            edges.append(((1, position - 1), (1, position), EdgeKind.CONTROL, {}))
        sink.subcomputation_published(node, edges)
    sink.finish()
    return store, sink


class TestIndexDeltas:
    def test_each_flush_appends_one_delta(self, tmp_path):
        store_dir = str(tmp_path / "stream")
        store, sink = stream_run(store_dir, epochs=5)
        run_info = store.manifest.run_info(sink.run_id)
        assert run_info.index_base == 0
        # One delta per flushed epoch; finish() had nothing left to add.
        assert len(run_info.index_deltas) == sink.epochs_committed
        run_dir = os.path.join(store_dir, INDEX_DIR, run_index_dir_name(sink.run_id))
        for generation in run_info.index_deltas:
            assert os.path.exists(os.path.join(run_dir, index_delta_file_name(generation)))

    def test_delta_files_stay_epoch_sized(self, tmp_path):
        # The whole point: a late flush writes the same few bytes as an
        # early one, instead of rewriting the (grown) index.
        store_dir = str(tmp_path / "stream")
        store, sink = stream_run(store_dir, epochs=10)
        run_info = store.manifest.run_info(sink.run_id)
        run_dir = os.path.join(store_dir, INDEX_DIR, run_index_dir_name(sink.run_id))
        sizes = [
            os.path.getsize(os.path.join(run_dir, index_delta_file_name(generation)))
            for generation in run_info.index_deltas[:-1]  # last = finish() tail edges
        ]
        assert max(sizes) <= 2 * min(sizes)

    def test_reopen_merges_base_and_deltas_exactly(self, tmp_path):
        store_dir = str(tmp_path / "stream")
        store, sink = stream_run(store_dir)
        expected = store.indexes_for(sink.run_id)
        reopened = ProvenanceStore.open(store_dir)
        merged = reopened.indexes_for(sink.run_id)
        assert merged.node_segments == expected.node_segments
        assert merged.node_rank == expected.node_rank
        assert merged.page_writers == expected.page_writers
        assert merged.page_readers == expected.page_readers
        assert merged.thread_indexes == expected.thread_indexes
        assert merged.thread_segments == expected.thread_segments
        assert merged.sync_edges == expected.sync_edges
        assert merged.in_edge_segments == expected.in_edge_segments
        assert merged.out_edge_segments == expected.out_edge_segments

    @pytest.mark.parametrize("tear", ["truncate", "garbage", "missing"])
    def test_torn_delta_generation_recovers_from_segments(self, tmp_path, tear):
        store_dir = str(tmp_path / "stream")
        store, sink = stream_run(store_dir)
        cpg = store.load_cpg(run=sink.run_id)
        run_info = store.manifest.run_info(sink.run_id)
        run_dir = os.path.join(store_dir, INDEX_DIR, run_index_dir_name(sink.run_id))
        victim = os.path.join(run_dir, index_delta_file_name(run_info.index_deltas[1]))
        if tear == "truncate":
            with open(victim, "rb") as handle:
                data = handle.read()
            with open(victim, "wb") as handle:
                handle.write(data[: len(data) // 2])
        elif tear == "garbage":
            with open(victim, "wb") as handle:
                handle.write(b"IIDX\x01\x01 not really ops")
        else:
            os.remove(victim)
        reopened = ProvenanceStore.open(store_dir)
        merged = reopened.indexes_for(sink.run_id)  # triggers rebuild
        assert merged.needs_base
        assert len(merged.node_segments) == run_info.nodes
        assert canonical_edges(reopened.load_cpg(run=sink.run_id)) == canonical_edges(cpg)
        # The rebuild is folded into a base by the next flush; after that
        # the store loads cleanly again.
        reopened.flush()
        clean = ProvenanceStore.open(store_dir)
        assert not clean.indexes_for(sink.run_id).needs_base
        assert clean.manifest.run_info(sink.run_id).index_base > 0

    def test_stray_generation_files_ignored_and_swept(self, tmp_path):
        # Crash window: a fold wrote its new base (or an extra delta) but
        # died before the manifest commit.  The stray generation must be
        # invisible on open and reclaimed by the next maintenance call.
        store_dir = str(tmp_path / "stream")
        store, sink = stream_run(store_dir)
        run_dir = os.path.join(store_dir, INDEX_DIR, run_index_dir_name(sink.run_id))
        indexes = store.indexes_for(sink.run_id)
        indexes.save_base(run_dir, 4321)  # never committed
        expected_nodes = store.manifest.run_info(sink.run_id).nodes
        reopened = ProvenanceStore.open(store_dir)
        assert len(reopened.indexes_for(sink.run_id).node_segments) == expected_nodes
        reopened.compact()
        assert index_base_file_name(4321) not in os.listdir(run_dir)

    def test_crashed_rename_scratch_files_are_swept(self, tmp_path):
        # A crash between write and os.replace leaves *.tmp scratch files
        # at any level: fsck must list every one as an orphan, and the
        # next maintenance call must reclaim them everywhere.
        store_dir = str(tmp_path / "stream")
        store, sink = stream_run(store_dir)
        run_dir = os.path.join(store_dir, INDEX_DIR, run_index_dir_name(sink.run_id))
        baselines = os.path.join(store_dir, INDEX_DIR, "baselines")
        os.makedirs(baselines)
        strays = [
            os.path.join(store_dir, "segments", "seg-00000099.seg.tmp"),
            os.path.join(store_dir, INDEX_DIR, PAGES_RUNS_FILE + ".tmp"),
            os.path.join(run_dir, index_delta_file_name(99) + ".tmp"),
            os.path.join(store_dir, MANIFEST_NAME + ".tmp"),
            os.path.join(store_dir, SEGMENT_LOG_NAME + ".tmp"),
            os.path.join(store_dir, MANIFEST_NAME + ".repair.tmp"),
            os.path.join(baselines, "golden.json.tmp"),
        ]
        for path in strays + [os.path.join(baselines, "golden.json")]:
            with open(path, "wb") as handle:
                handle.write(b"half-written")
        report = verify_store(store_dir)
        assert sorted(report["orphans"]) == sorted(
            os.path.relpath(path, store_dir) for path in strays
        )
        assert {problem["kind"] for problem in report["problems"]} == {"orphan_file"}
        ProvenanceStore.open(store_dir).compact()
        for path in strays:
            assert not os.path.exists(path), path
        assert os.listdir(baselines) == ["golden.json"]
        assert verify_store(store_dir)["ok"]

    def test_compact_folds_deltas_and_reports_them(self, tmp_path):
        store_dir = str(tmp_path / "stream")
        store, sink = stream_run(store_dir, epochs=6)
        pending = len(store.manifest.run_info(sink.run_id).index_deltas)
        assert pending > 1
        stats = store.compact(segment_nodes=8)
        assert stats.index_delta_files_reclaimed == pending
        run_info = store.manifest.run_info(sink.run_id)
        assert run_info.index_base > 0
        assert run_info.index_deltas == []
        run_dir = os.path.join(store_dir, INDEX_DIR, run_index_dir_name(sink.run_id))
        assert not any(name.startswith("delta-") for name in os.listdir(run_dir))


# ---------------------------------------------------------------------- #
# Streaming compaction
# ---------------------------------------------------------------------- #


class TestStreamingCompaction:
    def test_peak_stays_below_whole_run_materialization(self, tmp_path):
        store_dir = str(tmp_path / "long")
        store, sink = stream_run(store_dir, epochs=30, nodes_per_epoch=4)
        total_nodes = store.manifest.run_info(sink.run_id).nodes
        cpg = store.load_cpg(run=sink.run_id)
        store = ProvenanceStore.open(store_dir)  # cold: no cached payloads
        stats = store.compact(segment_nodes=8)
        assert stats.segments_after < stats.segments_before
        assert 0 < stats.peak_resident_nodes < total_nodes
        # A small cap keeps the window tight: at most one output batch
        # (8 nodes) is buffered before it is sealed.
        assert stats.peak_resident_nodes <= 8
        reopened = ProvenanceStore.open(store_dir)
        assert canonical_edges(reopened.load_cpg(run=sink.run_id)) == canonical_edges(cpg)

    def test_compaction_preserves_ranks_and_answers(self, tmp_path):
        store_dir = str(tmp_path / "long")
        store, sink = stream_run(store_dir, epochs=8)
        run_id = sink.run_id
        before = {
            key: store.indexes_for(run_id).node_rank[key]
            for key in store.indexes_for(run_id).node_rank
        }
        taint_before = StoreQueryEngine(store).propagate_taint([0], run=run_id)
        store.compact(segment_nodes=16)
        reopened = ProvenanceStore.open(store_dir)
        assert reopened.indexes_for(run_id).node_rank == before
        taint_after = StoreQueryEngine(reopened).propagate_taint([0], run=run_id)
        assert taint_after.tainted_nodes == taint_before.tainted_nodes
        assert taint_after.tainted_pages == taint_before.tainted_pages


# ---------------------------------------------------------------------- #
# Cross-run page summary
# ---------------------------------------------------------------------- #


def two_disjoint_runs(tmp_path):
    """Two runs touching disjoint page ranges; returns (store_dir, pages_a, pages_b)."""
    store_dir = str(tmp_path / "summary")
    store = ProvenanceStore.create(store_dir)
    from repro.store.format import RUN_COMPLETE

    for base, workload in ((0, "a"), (1000, "b")):
        run_id = store.new_run(workload=workload)
        for position in range(6):
            node = make_node(1, position, reads={base + position}, writes={base + 100 + position})
            store.append_segment([node], [], run=run_id)
        # The on-disk summary only covers complete runs.
        store.manifest.run_info(run_id).status = RUN_COMPLETE
        store.flush()
    return store_dir, list(range(0, 6)) + list(range(100, 106)), list(
        range(1000, 1006)
    ) + list(range(1100, 1106))


class TestPagesRunsSummary:
    def test_summary_written_and_mapping_correct(self, tmp_path):
        store_dir, pages_a, pages_b = two_disjoint_runs(tmp_path)
        path = os.path.join(store_dir, INDEX_DIR, PAGES_RUNS_FILE)
        assert os.path.exists(path)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["runs"] == [1, 2]
        assert document["pages"][str(pages_a[0])] == [1]
        assert document["pages"][str(pages_b[0])] == [2]
        store = ProvenanceStore.open(store_dir)
        assert store.runs_touching_pages([pages_a[0]]) == {1}
        assert store.runs_touching_pages([pages_b[0]]) == {2}
        assert store.runs_touching_pages([pages_a[0], pages_b[0]]) == {1, 2}
        assert store.runs_touching_pages([999999]) == set()

    def test_across_runs_queries_skip_untouched_runs_without_loading(self, tmp_path):
        store_dir, pages_a, _pages_b = two_disjoint_runs(tmp_path)
        store = ProvenanceStore.open(store_dir)
        engine = StoreQueryEngine(store)
        lineage = engine.lineage_across_runs([pages_a[0] + 100])
        assert set(lineage) == {1, 2}
        assert lineage[2] == set()
        assert lineage[1]  # the writer of the page, at least
        taint = engine.taint_across_runs([pages_a[0]])
        assert taint[2].tainted_nodes == set()
        assert taint[2].tainted_pages == {pages_a[0]}
        assert taint[1].tainted_nodes
        # The skipped run's indexes were never loaded (the lazy map only
        # holds what a query actually touched).
        assert 2 not in dict.keys(store.run_indexes)

    def test_skip_results_equal_unskipped_results(self, tmp_path):
        store_dir, pages_a, pages_b = two_disjoint_runs(tmp_path)
        wanted = [pages_a[0], pages_a[0] + 100, pages_b[3]]
        engine = StoreQueryEngine(ProvenanceStore.open(store_dir))
        summarized = engine.lineage_across_runs(wanted)
        brute_engine = StoreQueryEngine(ProvenanceStore.open(store_dir))
        brute = {
            run_id: brute_engine.lineage_of_pages(wanted, run=run_id)
            for run_id in brute_engine.store.run_ids()
        }
        assert summarized == brute
        taints = engine.taint_across_runs(wanted)
        for run_id in brute_engine.store.run_ids():
            reference = brute_engine.propagate_taint(wanted, run=run_id)
            assert taints[run_id].tainted_nodes == reference.tainted_nodes
            assert taints[run_id].tainted_pages == reference.tainted_pages
        # Touched runs are answered in run-id order, so the engine's mode
        # is the last touched run's; a query touching no run leaves it.
        engine.taint_across_runs(pages_a[:4] + pages_b[:1])  # run 1 floods
        assert engine.last_taint_mode == "indexed"
        engine.taint_across_runs(pages_a[:1] + pages_b[:4])  # run 2 floods
        assert engine.last_taint_mode == "sweep"
        engine.taint_across_runs([999999])
        assert engine.last_taint_mode == "sweep"

    def test_gc_drops_runs_from_summary(self, tmp_path):
        store_dir, pages_a, pages_b = two_disjoint_runs(tmp_path)
        store = ProvenanceStore.open(store_dir)
        store.gc(runs=[1])
        assert store.runs_touching_pages([pages_a[0]]) == set()
        assert store.runs_touching_pages([pages_b[0]]) == {2}
        with open(
            os.path.join(store_dir, INDEX_DIR, PAGES_RUNS_FILE), "r", encoding="utf-8"
        ) as handle:
            document = json.load(handle)
        assert document["runs"] == [2]
        assert str(pages_a[0]) not in document["pages"]

    def test_missing_summary_is_rebuilt_lazily(self, tmp_path):
        store_dir, pages_a, _ = two_disjoint_runs(tmp_path)
        os.remove(os.path.join(store_dir, INDEX_DIR, PAGES_RUNS_FILE))
        store = ProvenanceStore.open(store_dir)
        assert store.runs_touching_pages([pages_a[0]]) == {1}

    def test_malformed_summary_degrades_to_empty_cache(self, tmp_path):
        # The summary is a non-authoritative cache: any malformed shape
        # (torn write, hand edit) must degrade, never crash a query.
        store_dir, pages_a, _ = two_disjoint_runs(tmp_path)
        path = os.path.join(store_dir, INDEX_DIR, PAGES_RUNS_FILE)
        for payload in ("[1, 2]", '{"runs": 5, "pages": []}', "{ not json"):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)
            store = ProvenanceStore.open(store_dir)
            assert store.runs_touching_pages([pages_a[0]]) == {1}

    def test_summary_ahead_of_manifest_is_filtered(self, tmp_path):
        # Crash window: the summary was written for a run whose manifest
        # commit never happened; the unknown run id must be ignored.
        store_dir, pages_a, _ = two_disjoint_runs(tmp_path)
        path = os.path.join(store_dir, INDEX_DIR, PAGES_RUNS_FILE)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["runs"].append(99)
        document["pages"][str(pages_a[0])].append(99)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        store = ProvenanceStore.open(store_dir)
        assert store.runs_touching_pages([pages_a[0]]) == {1}

    def test_parseable_edit_of_the_summary_is_not_trusted(self, tmp_path):
        # A summary that still parses but is not the file whose checksum
        # the manifest recorded (a hand edit, or one a crash renamed into
        # place before the commit that records it) must cover nothing:
        # trusted, it would hide a run that touched the page.
        store_dir = str(tmp_path / "histogram")
        for _ in range(2):
            run_with_provenance("histogram", num_threads=2, size="small", store_path=store_dir)
        with ProvenanceStore.open(store_dir) as store:
            page = min(store.indexes_for(1).page_writers)
            engine = StoreQueryEngine(store)
            lineage = engine.lineage_across_runs([page])
            taint = engine.taint_across_runs([page])
        assert lineage[1] and lineage[2]
        path = os.path.join(store_dir, INDEX_DIR, PAGES_RUNS_FILE)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["pages"][str(page)].remove(1)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
        assert not verify_store(store_dir)["ok"]
        with ProvenanceStore.open(store_dir) as store:
            engine = StoreQueryEngine(store)
            assert engine.lineage_across_runs([page]) == lineage
            edited = engine.taint_across_runs([page])
            for run_id in (1, 2):
                assert edited[run_id].tainted_nodes == taint[run_id].tainted_nodes
                assert edited[run_id].tainted_pages == taint[run_id].tainted_pages
            # The next flush rewrites the summary, and fsck is clean again.
            store.flush()
        assert verify_store(store_dir)["ok"]
        with ProvenanceStore.open(store_dir) as store:
            assert StoreQueryEngine(store).lineage_across_runs([page]) == lineage


# ---------------------------------------------------------------------- #
# Introspection
# ---------------------------------------------------------------------- #


class TestIntrospection:
    def test_info_reports_delta_state(self, tmp_path):
        store_dir = str(tmp_path / "stream")
        store, sink = stream_run(store_dir, epochs=4)
        summary = store.info()
        assert summary["stored_bytes"] > 0 and summary["raw_bytes"] > 0
        assert summary["index_delta_files"] > 0
        assert summary["index_delta_bytes"] > 0
        run = summary["runs"][0]
        assert run["stored_bytes"] == summary["stored_bytes"]
        assert run["index_delta_files"] == len(
            store.manifest.run_info(sink.run_id).index_deltas
        )

    def test_cli_info_and_compact_surface_v4_state(self, tmp_path, capsys):
        from repro.store.__main__ import main as store_cli

        store_dir = str(tmp_path / "stream")
        stream_run(store_dir, epochs=4)
        assert store_cli(["info", store_dir, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format_version"] == STORE_FORMAT_VERSION
        assert "index_delta_files" in document
        assert store_cli(["info", store_dir]) == 0
        text = capsys.readouterr().out
        assert "segment bytes:" in text and "index deltas:" in text
        assert store_cli(["compact", store_dir]) == 0
        assert "index delta file(s) folded" in capsys.readouterr().out

    def test_maintenance_stats_dict_has_v4_fields(self, tmp_path):
        store_dir = str(tmp_path / "stream")
        store, _ = stream_run(store_dir, epochs=3)
        stats = store.compact(segment_nodes=8).to_dict()
        assert "index_delta_files_reclaimed" in stats
        assert "peak_resident_nodes" in stats
