"""Tests for the persistent provenance store (:mod:`repro.store`)."""

import json
import os

import pytest

from repro.core.algorithm import ProvenanceTracker
from repro.core.cpg import EdgeKind
from repro.core.dependencies import derive_data_edges
from repro.core.queries import (
    DEFAULT_SLICE_KINDS,
    backward_slice,
    find_racy_pairs,
    forward_slice,
    lineage_of_pages,
    propagate_taint,
)
from repro.core.serialization import (
    FORMAT_VERSION_V2,
    cpg_from_dict,
    cpg_to_dict,
    edge_from_dict,
    node_key,
    parse_node_key,
    subcomputation_from_dict,
    write_cpg,
)
from repro.errors import ProvenanceError, StoreError
from repro.inspector.api import run_with_provenance
from repro.store import (
    STORE_FORMAT_VERSION,
    ProvenanceStore,
    StoreQueryEngine,
    StoreSink,
    verify_store,
)
from repro.store.__main__ import main as store_cli
from repro.store.format import MANIFEST_NAME, index_delta_file_name
from repro.store.segment import decode_segment, encode_segment


def build_example_cpg(racy: bool = False):
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
    if racy:
        tracker.on_memory_access(1, 12, is_write=True)
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


def _set(key, value):
    return lambda document: document.__setitem__(key, value)


#: One-field edits of a valid manifest, each with the refusal it must
#: produce: malformed fields, and every format version before 9.
MANIFEST_EDITS = {
    "segment-id-not-a-number": (
        lambda document: document["segments"][0].__setitem__("id", "x"),
        "corrupt manifest",
    ),
    "run-entry-not-an-object": (
        lambda document: document["runs"].__setitem__(0, 7),
        "corrupt manifest",
    ),
    "scalar-pages-runs-checksum": (_set("pages_runs_checksum", 5), "corrupt manifest"),
    "list-quarantined": (_set("quarantined", [1]), "corrupt manifest"),
    "null-next-segment-id": (_set("next_segment_id", None), "corrupt manifest"),
    **{
        f"version-{version}": (
            _set("version", version),
            rf"unsupported store format version {version} \(this build reads 9\); re-ingest",
        )
        for version in (2, 3, 4, 5, 6, 7, 8)
    },
}


def _file_bytes(root):
    contents = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                contents[path] = handle.read()
    return contents


def assert_manifest_refused(store_dir, capsys, message):
    """Open, the CLI, and fsck all refuse the store; no file changes."""
    before = _file_bytes(store_dir)
    with pytest.raises(StoreError, match=message):
        ProvenanceStore.open(store_dir)
    capsys.readouterr()
    assert store_cli(["info", store_dir]) == 1  # handled: no traceback
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    report = verify_store(store_dir)
    assert not report["ok"]
    assert [problem["kind"] for problem in report["problems"]] == ["manifest_unreadable"]
    assert _file_bytes(store_dir) == before


@pytest.fixture(scope="module")
def histogram_run():
    return run_with_provenance("histogram", num_threads=4, size="small")


# ---------------------------------------------------------------------- #
# Serialization v2 + robustness (satellite)
# ---------------------------------------------------------------------- #


class TestSerializationV2:
    def test_v2_round_trip_preserves_everything(self):
        cpg = build_example_cpg()
        clone = cpg_from_dict(cpg_to_dict(cpg, version=FORMAT_VERSION_V2))
        assert clone.nodes() == cpg.nodes()
        assert canonical_edges(clone) == canonical_edges(cpg)
        for node_id in cpg.nodes():
            assert clone.subcomputation(node_id).read_set == cpg.subcomputation(node_id).read_set
            assert clone.subcomputation(node_id).clock == cpg.subcomputation(node_id).clock

    def test_v2_uses_compact_endpoints(self):
        cpg = build_example_cpg()
        data = cpg_to_dict(cpg, version=FORMAT_VERSION_V2)
        assert data["format_version"] == FORMAT_VERSION_V2
        assert all(isinstance(edge["source"], str) for edge in data["edges"])

    def test_v1_documents_still_load(self):
        cpg = build_example_cpg()
        data = cpg_to_dict(cpg)  # default: v1
        assert data["format_version"] == 1
        clone = cpg_from_dict(data)
        assert canonical_edges(clone) == canonical_edges(cpg)

    def test_unknown_edge_kind_reports_provenance_error(self):
        with pytest.raises(ProvenanceError, match="unknown edge kind"):
            edge_from_dict({"source": "1:0", "target": "1:1", "kind": "telepathy"})

    def test_missing_edge_fields_report_provenance_error(self):
        with pytest.raises(ProvenanceError, match="missing field"):
            edge_from_dict({"source": "1:0", "kind": "control"})

    def test_missing_node_fields_report_provenance_error(self):
        with pytest.raises(ProvenanceError, match="missing field"):
            subcomputation_from_dict({"tid": 1})

    def test_unsupported_version_lists_supported_ones(self):
        with pytest.raises(ProvenanceError, match="supported"):
            cpg_from_dict({"format_version": 3, "nodes": [], "edges": []})

    def test_malformed_node_key_rejected(self):
        with pytest.raises(ProvenanceError):
            parse_node_key("not-a-key")
        assert parse_node_key(node_key((4, 9))) == (4, 9)


# ---------------------------------------------------------------------- #
# Segment codec
# ---------------------------------------------------------------------- #


class TestSegmentCodec:
    def test_round_trip(self):
        cpg = build_example_cpg()
        nodes = [cpg.subcomputation(node_id) for node_id in cpg.nodes()]
        edges = [
            (source, target, attrs["kind"], {k: v for k, v in attrs.items() if k != "kind"})
            for source, target, attrs in cpg.edges()
        ]
        framed, raw_bytes = encode_segment(nodes, edges)
        assert raw_bytes > len(framed) - 16  # compressed or near-incompressible
        payload = decode_segment(framed)
        assert set(payload.nodes) == set(cpg.nodes())
        assert len(payload.edges) == len(edges)

    def test_bad_magic_rejected(self):
        with pytest.raises(StoreError, match="magic"):
            decode_segment(b"NOPE" + b"\x00" * 32)

    def test_corrupt_payload_rejected(self):
        framed, _ = encode_segment([], [])
        with pytest.raises(StoreError):
            decode_segment(framed[:-1] + b"\xff\xff\xff")


# ---------------------------------------------------------------------- #
# Store round trip and lifecycle
# ---------------------------------------------------------------------- #


class TestStoreRoundTrip:
    def test_ingest_load_preserves_graph(self, tmp_path):
        cpg = build_example_cpg()
        store = ProvenanceStore.create(str(tmp_path / "store"))
        segments = store.ingest(cpg, segment_nodes=3)
        assert segments >= 2
        reopened = ProvenanceStore.open(str(tmp_path / "store"))
        clone = reopened.load_cpg()
        assert clone.nodes() == cpg.nodes()
        assert canonical_edges(clone) == canonical_edges(cpg)
        for node_id in cpg.nodes():
            original = cpg.subcomputation(node_id)
            copy = clone.subcomputation(node_id)
            assert copy.read_set == original.read_set
            assert copy.write_set == original.write_set
            assert copy.clock == original.clock
            assert copy.started_by == original.started_by
            assert copy.ended_by == original.ended_by

    def test_ingest_json_file_accepts_v1(self, tmp_path):
        cpg = build_example_cpg()
        json_path = tmp_path / "cpg.json"
        write_cpg(cpg, str(json_path))  # v1 document
        store = ProvenanceStore.create(str(tmp_path / "store"))
        store.ingest_json_file(str(json_path), segment_nodes=4)
        assert canonical_edges(store.load_cpg()) == canonical_edges(cpg)
        assert store.manifest.runs and store.manifest.runs[0].meta["source"] == "cpg.json"

    def test_create_twice_fails(self, tmp_path):
        ProvenanceStore.create(str(tmp_path))
        with pytest.raises(StoreError, match="already exists"):
            ProvenanceStore.create(str(tmp_path))

    def test_open_missing_fails(self, tmp_path):
        with pytest.raises(StoreError, match="no provenance store"):
            ProvenanceStore.open(str(tmp_path / "nope"))

    def test_corrupt_manifest_reports_store_error(self, tmp_path, capsys):
        ProvenanceStore.create(str(tmp_path))
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        assert_manifest_refused(str(tmp_path), capsys, "corrupt manifest")

    @pytest.mark.parametrize("edit", sorted(MANIFEST_EDITS))
    def test_malformed_manifest_reports_store_error(self, tmp_path, capsys, edit):
        store_dir = str(tmp_path / "store")
        ProvenanceStore.create(store_dir).ingest(build_example_cpg(), segment_nodes=3)
        manifest_path = os.path.join(store_dir, MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            document = json.load(handle)
        mutate, expected = MANIFEST_EDITS[edit]
        mutate(document)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert_manifest_refused(store_dir, capsys, expected)

    def test_double_ingest_mints_two_runs(self, tmp_path):
        # PR-1 failed fast on a second ingest; runs are namespaces now, so
        # the same graph ingested twice becomes two independent runs.
        cpg = build_example_cpg()
        store = ProvenanceStore.create(str(tmp_path))
        store.ingest(cpg)
        store.ingest(cpg)
        assert store.run_ids() == [1, 2]
        for run_id in store.run_ids():
            assert canonical_edges(store.load_cpg(run=run_id)) == canonical_edges(cpg)

    def test_duplicate_node_within_one_run_rejected(self, tmp_path):
        cpg = build_example_cpg()
        store = ProvenanceStore.create(str(tmp_path))
        store.ingest(cpg, segment_nodes=3)
        node = cpg.subcomputation(cpg.nodes()[0])
        with pytest.raises(StoreError, match="twice"):
            store.append_segment([node], [], run=1)

    def test_intra_batch_duplicate_rejected_before_any_write(self, tmp_path):
        cpg = build_example_cpg()
        node = cpg.subcomputation(cpg.nodes()[0])
        store = ProvenanceStore.create(str(tmp_path))
        run_id = store.new_run()
        with pytest.raises(StoreError, match="twice"):
            store.append_segment([node, node], [], run=run_id)
        assert store.manifest.segment_count == 0
        assert not store.indexes.has_node(node.node_id)
        assert list((tmp_path / "segments").iterdir()) == []


# ---------------------------------------------------------------------- #
# Out-of-core query engine
# ---------------------------------------------------------------------- #


class TestStoreQueryEngine:
    @pytest.fixture()
    def stored(self, tmp_path, histogram_run):
        store = ProvenanceStore.create(str(tmp_path / "store"))
        store.ingest(histogram_run.cpg, segment_nodes=4)
        cold = ProvenanceStore.open(str(tmp_path / "store"))
        return histogram_run.cpg, cold

    def test_backward_slice_matches_in_memory(self, stored):
        cpg, store = stored
        engine = StoreQueryEngine(store)
        for node_id in cpg.nodes():
            assert engine.backward_slice(node_id) == backward_slice(cpg, node_id)
            assert engine.backward_slice(node_id, kinds=DEFAULT_SLICE_KINDS) == backward_slice(
                cpg, node_id, kinds=DEFAULT_SLICE_KINDS
            )

    def test_forward_slice_matches_in_memory(self, stored):
        cpg, store = stored
        engine = StoreQueryEngine(store)
        for node_id in cpg.nodes():
            assert engine.forward_slice(node_id) == forward_slice(cpg, node_id)

    def test_lineage_matches_in_memory(self, stored):
        cpg, store = stored
        engine = StoreQueryEngine(store)
        pages = sorted(cpg.page_writers.keys() | cpg.page_readers.keys())
        assert engine.lineage_of_pages(pages[:2]) == lineage_of_pages(cpg, pages[:2])

    def test_taint_matches_in_memory(self, stored):
        cpg, store = stored
        input_pages = sorted(cpg.subcomputation(cpg.input_node).write_set)
        engine = StoreQueryEngine(store)
        for through in (False, True):
            mine = engine.propagate_taint(input_pages[:3], through_thread_state=through)
            reference = propagate_taint(cpg, input_pages[:3], through_thread_state=through)
            assert mine.tainted_nodes == reference.tainted_nodes
            assert mine.tainted_pages == reference.tainted_pages
            assert mine.source_pages == reference.source_pages

    def test_localized_slice_reads_fewer_segments_than_store_holds(self, stored):
        cpg, store = stored
        total = store.manifest.segment_count
        assert total >= 4  # otherwise the assertion below is vacuous
        engine = StoreQueryEngine(store)
        target = cpg.thread_nodes(1)[-1]
        result = engine.backward_slice(target)
        assert result == backward_slice(cpg, target)
        assert 0 < engine.segments_loaded < total

    def test_localized_taint_reads_no_segment(self, tmp_path):
        # Taint seeded at a page only the lock chain touches replays from
        # the run's indexes alone, so it decodes no segment at all.
        cpg = build_example_cpg()
        store = ProvenanceStore.create(str(tmp_path / "store"))
        store.ingest(cpg, segment_nodes=2)
        cold = ProvenanceStore.open(str(tmp_path / "store"))
        total = cold.manifest.segment_count
        assert total >= 4
        engine = StoreQueryEngine(cold)
        mine = engine.propagate_taint([10])
        reference = propagate_taint(cpg, [10])
        assert mine.tainted_nodes == reference.tainted_nodes
        assert mine.tainted_pages == reference.tainted_pages
        assert engine.last_taint_mode == "indexed"
        assert engine.segments_loaded == 0

    def test_unknown_node_raises(self, stored):
        _, store = stored
        with pytest.raises(ProvenanceError):
            StoreQueryEngine(store).backward_slice((999, 0))


# ---------------------------------------------------------------------- #
# Incremental ingest (session sink)
# ---------------------------------------------------------------------- #


class TestStoreSink:
    def test_session_streams_run_into_store(self, tmp_path):
        result = run_with_provenance(
            "histogram", num_threads=4, size="small", store_path=str(tmp_path / "store")
        )
        assert result.store is not None
        assert result.store.manifest.node_count == len(result.cpg)
        cold = ProvenanceStore.open(str(tmp_path / "store"))
        assert canonical_edges(cold.load_cpg()) == canonical_edges(result.cpg)
        assert cold.manifest.runs[0].workload == "histogram"
        assert result.store_run_id == cold.manifest.runs[0].run_id

    def test_sink_commits_epochs_during_the_run(self, tmp_path):
        from repro.inspector.session import InspectorSession
        from repro.workloads.registry import get_workload

        session = InspectorSession(store=str(tmp_path / "store"), store_segment_nodes=4)
        result = session.run(get_workload("histogram"), num_threads=4, size="small")
        epochs = [run.meta["epochs"] for run in result.store.manifest.runs]
        assert epochs and epochs[0] >= 2

    def test_sink_query_results_match_in_memory(self, tmp_path):
        result = run_with_provenance(
            "histogram", num_threads=4, size="small", store_path=str(tmp_path / "store")
        )
        cpg = result.cpg
        engine = StoreQueryEngine(ProvenanceStore.open(str(tmp_path / "store")))
        for node_id in cpg.nodes():
            assert engine.backward_slice(node_id) == backward_slice(cpg, node_id)
        input_pages = sorted(cpg.subcomputation(cpg.input_node).write_set)[:2]
        mine = engine.propagate_taint(input_pages)
        reference = propagate_taint(cpg, input_pages)
        assert mine.tainted_nodes == reference.tainted_nodes
        assert mine.tainted_pages == reference.tainted_pages

    def test_sink_seals_multiple_epochs_for_one_run(self, tmp_path):
        store = ProvenanceStore.create(str(tmp_path / "store"))
        cpg = build_example_cpg()
        sink = StoreSink(store, segment_nodes=2)
        for node_id in cpg.topological_order():
            sink.subcomputation_published(cpg.subcomputation(node_id), [])
        sink.finish()
        assert store.manifest.node_count == len(cpg)
        assert sink.epochs_committed >= 2

    def test_store_is_readable_mid_run_up_to_last_epoch(self, tmp_path):
        # Simulates a crash: epochs are committed but finish() never runs.
        store = ProvenanceStore.create(str(tmp_path / "store"))
        cpg = build_example_cpg()
        sink = StoreSink(store, segment_nodes=2)
        order = cpg.topological_order()
        for node_id in order[:5]:
            sink.subcomputation_published(cpg.subcomputation(node_id), [])
        survivor = ProvenanceStore.open(str(tmp_path / "store"))
        assert survivor.manifest.node_count == 4  # two sealed epochs of 2
        assert set(survivor.load_cpg().nodes()) == set(order[:4])

    def test_torn_flush_recovers_previous_generation(self, tmp_path):
        # Simulates a crash after a flush wrote its index delta but before
        # the commit record landed: no committed state references that
        # generation, so opening must ignore it and fall back to the
        # previous consistent generation.
        cpg = build_example_cpg()
        store = ProvenanceStore.create(str(tmp_path))
        run_id = store.new_run(workload="example")
        order = cpg.topological_order()
        first = [cpg.subcomputation(node_id) for node_id in order[:6]]
        second = [cpg.subcomputation(node_id) for node_id in order[6:]]
        store.append_segment(first, [], run=run_id)
        store.flush()
        store.append_segment(second, [], run=run_id)
        # The next flush's delta, one generation ahead of the commit:
        generation = store.manifest.run_info(run_id).next_index_gen
        run_dir = store._run_index_dir(run_id)
        store.indexes.save_delta(run_dir, generation)
        assert os.path.exists(os.path.join(run_dir, index_delta_file_name(generation)))
        reopened = ProvenanceStore.open(str(tmp_path))
        assert generation not in reopened.manifest.run_info(run_id).index_deltas
        assert reopened.manifest.segment_count == 1
        assert set(reopened.load_cpg().nodes()) == {node.node_id for node in first}
        with pytest.raises(ProvenanceError):
            StoreQueryEngine(reopened).backward_slice(second[0].node_id)
        for keys in list(reopened.indexes.page_writers.values()) + list(
            reopened.indexes.page_readers.values()
        ):
            for key in keys:
                assert key in reopened.indexes.node_segments

    def test_second_run_into_same_store_gets_its_own_namespace(self, tmp_path):
        # PR-1 failed fast here; a store now holds many runs, each with its
        # own run id, index namespace, and disjoint segments.
        store_dir = str(tmp_path / "store")
        first = run_with_provenance("histogram", num_threads=2, size="small", store_path=store_dir)
        second = run_with_provenance("histogram", num_threads=2, size="small", store_path=store_dir)
        assert first.store_run_id != second.store_run_id
        cold = ProvenanceStore.open(store_dir)
        assert cold.run_ids() == [first.store_run_id, second.store_run_id]
        for result in (first, second):
            clone = cold.load_cpg(run=result.store_run_id)
            assert canonical_edges(clone) == canonical_edges(result.cpg)

    def test_runs_have_disjoint_segments(self, tmp_path):
        store = ProvenanceStore.create(str(tmp_path))
        cpg = build_example_cpg()
        store.ingest(cpg, segment_nodes=3)
        store.ingest(cpg, segment_nodes=3)
        by_run = [
            {info.segment_id for info in store.manifest.segments_of_run(run_id)}
            for run_id in store.run_ids()
        ]
        assert by_run[0] and by_run[1]
        assert not (by_run[0] & by_run[1])

    def test_segment_cache_is_bounded(self, tmp_path):
        cpg = build_example_cpg()
        store = ProvenanceStore.create(str(tmp_path))
        store.ingest(cpg, segment_nodes=2)
        cold = ProvenanceStore.open(str(tmp_path))
        cold.cache.max_entries = 2
        total = cold.manifest.segment_count
        assert total > 2
        for segment_id in range(1, total + 1):
            cold.segment(segment_id)
        assert len(cold.cache.cached_segments(cold.cache_namespace, cold.manifest_generation)) == 2
        # Evicted segments are re-read from disk, and correctly.
        reads_before = cold.read_stats.segments_read
        payload = cold.segment(1)
        assert cold.read_stats.segments_read == reads_before + 1
        assert set(payload.nodes) <= set(cpg.nodes())


# ---------------------------------------------------------------------- #
# find_racy_pairs rewrite (satellite)
# ---------------------------------------------------------------------- #


def _reference_racy_pairs(cpg):
    """The original O(n^2 * reachability) implementation, kept as oracle."""
    nodes = [n for n in cpg.nodes() if n[0] >= 0]
    racy = []
    for i, a in enumerate(nodes):
        sub_a = cpg.subcomputation(a)
        for b in nodes[i + 1 :]:
            if a[0] == b[0]:
                continue
            sub_b = cpg.subcomputation(b)
            writes_conflict = (
                (sub_a.write_set & (sub_b.read_set | sub_b.write_set))
                or (sub_b.write_set & sub_a.read_set)
            )
            if writes_conflict and cpg.concurrent(a, b):
                racy.append((a, b, frozenset(writes_conflict)))
    return racy


def _stored_racy_pairs(cpg, tmp_path):
    """:func:`find_racy_pairs` on ``cpg`` ingested into a store, three nodes a segment."""
    store = ProvenanceStore.create(str(tmp_path / "racy"))
    store.ingest(cpg, segment_nodes=3)
    return find_racy_pairs(StoreQueryEngine(store).run_view())


class TestFindRacyPairsIndexed:
    def test_matches_reference_on_race_free_graph(self, tmp_path):
        cpg = build_example_cpg()
        assert find_racy_pairs(cpg) == _reference_racy_pairs(cpg) == []
        assert _stored_racy_pairs(cpg, tmp_path) == []

    def test_matches_reference_on_racy_graph(self, tmp_path):
        cpg = build_example_cpg(racy=True)
        result = find_racy_pairs(cpg)
        assert result == _reference_racy_pairs(cpg)
        assert result, "the racy example must actually race"
        assert _stored_racy_pairs(cpg, tmp_path) == result

    def test_matches_reference_on_unsynchronized_writers(self, tmp_path):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        tracker.on_thread_start(2)
        tracker.on_memory_access(1, 7, is_write=True)
        tracker.on_memory_access(2, 7, is_write=True)
        cpg = tracker.finalize()
        assert find_racy_pairs(cpg) == _reference_racy_pairs(cpg)
        assert len(find_racy_pairs(cpg)) == 1
        assert _stored_racy_pairs(cpg, tmp_path) == find_racy_pairs(cpg)

    def test_page_index_covers_all_accesses(self):
        cpg = build_example_cpg()
        for node_id in cpg.nodes():
            node = cpg.subcomputation(node_id)
            for page in node.write_set:
                assert node_id in cpg.page_writers[page]
            for page in node.read_set:
                assert node_id in cpg.page_readers[page]


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #


class TestStoreCLI:
    @pytest.fixture()
    def ingested(self, tmp_path):
        cpg = build_example_cpg()
        json_path = tmp_path / "cpg.json"
        write_cpg(cpg, str(json_path))
        store_dir = str(tmp_path / "store")
        assert store_cli(["ingest", store_dir, str(json_path), "--segment-nodes", "3"]) == 0
        return cpg, store_dir

    def test_info(self, ingested, capsys):
        _, store_dir = ingested
        assert store_cli(["info", store_dir]) == 0
        out = capsys.readouterr().out
        assert "sub-computations" in out and "segments" in out

    def test_info_json(self, ingested, capsys):
        _, store_dir = ingested
        assert store_cli(["info", store_dir, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format_version"] == STORE_FORMAT_VERSION
        assert summary["nodes"] > 0
        assert len(summary["runs"]) == 1

    def test_slice_node_matches_library(self, ingested, capsys):
        cpg, store_dir = ingested
        target = cpg.thread_nodes(3)[0]
        assert store_cli(["slice", store_dir, "--node", node_key(target), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = sorted(node_key(n) for n in backward_slice(cpg, target))
        assert payload["nodes"] == expected

    def test_slice_pages_lineage(self, ingested, capsys):
        cpg, store_dir = ingested
        assert store_cli(["slice", store_dir, "--pages", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = sorted(node_key(n) for n in lineage_of_pages(cpg, [12]))
        assert payload["nodes"] == expected

    def test_taint(self, ingested, capsys):
        cpg, store_dir = ingested
        assert store_cli(["taint", store_dir, "--pages", "100,101", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        reference = propagate_taint(cpg, [100, 101])
        assert payload["tainted_pages"] == sorted(reference.tainted_pages)
        assert payload["tainted_nodes"] == sorted(node_key(n) for n in reference.tainted_nodes)

    def test_slice_requires_exactly_one_origin(self, ingested):
        _, store_dir = ingested
        assert store_cli(["slice", store_dir]) == 2
        assert store_cli(["slice", store_dir, "--node", "1:0", "--pages", "1"]) == 2

    def test_slice_pages_rejects_node_only_flags(self, ingested, capsys):
        _, store_dir = ingested
        assert store_cli(["slice", store_dir, "--pages", "12", "--forward"]) == 2
        assert store_cli(["slice", store_dir, "--pages", "12", "--kinds", "sync"]) == 2
        assert "--node" in capsys.readouterr().err

    def test_errors_surface_as_exit_code_one(self, tmp_path):
        assert store_cli(["info", str(tmp_path / "missing")]) == 1
