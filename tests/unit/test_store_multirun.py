"""Multi-run store tests: run lifecycle, compaction, and GC.

The scenarios here are the acceptance criteria of the multi-run store:
one store ingesting several runs of *different* workloads, per-run and
cross-run queries, and ``compact``/``gc`` maintenance (including a
simulated crash mid-compaction).
"""

import json
import os

import pytest

from repro.core.queries import backward_slice, lineage_of_pages, propagate_taint
from repro.core.serialization import node_key
from repro.errors import StoreError
from repro.inspector.api import run_with_provenance
from repro.store import ProvenanceStore, StoreQueryEngine, StoreSink
from repro.store.__main__ import main as store_cli
from repro.store.format import SEGMENTS_DIR, segment_file_name
from repro.store.segment import encode_segment

from tests.unit.test_store import build_example_cpg, canonical_edges


def store_disk_bytes(path: str) -> int:
    """Total bytes of every file under the store directory."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


@pytest.fixture(scope="module")
def two_workload_runs(tmp_path_factory):
    """One store holding a histogram run and a word_count run."""
    store_dir = str(tmp_path_factory.mktemp("multirun") / "store")
    first = run_with_provenance("histogram", num_threads=3, size="small", store_path=store_dir)
    second = run_with_provenance("word_count", num_threads=3, size="small", store_path=store_dir)
    return store_dir, first, second


class TestRunLifecycle:
    def test_two_workloads_one_store(self, two_workload_runs):
        store_dir, first, second = two_workload_runs
        cold = ProvenanceStore.open(store_dir)
        assert [run.workload for run in cold.manifest.runs] == ["histogram", "word_count"]
        assert cold.manifest.node_count == len(first.cpg) + len(second.cpg)

    def test_each_run_queries_like_its_own_graph(self, two_workload_runs):
        store_dir, first, second = two_workload_runs
        cold = ProvenanceStore.open(store_dir)
        engine = StoreQueryEngine(cold)
        for result in (first, second):
            run_id = result.store_run_id
            cpg = result.cpg
            for node_id in cpg.nodes()[::4]:
                assert engine.backward_slice(node_id, run=run_id) == backward_slice(cpg, node_id)
            pages = sorted(cpg.subcomputation(cpg.input_node).write_set)[:2]
            assert engine.lineage_of_pages(pages, run=run_id) == lineage_of_pages(cpg, pages)
            mine = engine.propagate_taint(pages, run=run_id)
            reference = propagate_taint(cpg, pages)
            assert mine.tainted_nodes == reference.tainted_nodes
            assert mine.tainted_pages == reference.tainted_pages

    def test_ambiguous_run_requires_explicit_id(self, two_workload_runs):
        store_dir, first, _ = two_workload_runs
        engine = StoreQueryEngine(ProvenanceStore.open(store_dir))
        with pytest.raises(StoreError, match="pass run="):
            engine.backward_slice(first.cpg.nodes()[0])

    def test_cross_run_queries(self, two_workload_runs):
        store_dir, first, second = two_workload_runs
        engine = StoreQueryEngine(ProvenanceStore.open(store_dir))
        pages = sorted(first.cpg.subcomputation(first.cpg.input_node).write_set)[:1]
        per_run = engine.lineage_across_runs(pages)
        assert set(per_run) == {first.store_run_id, second.store_run_id}
        assert per_run[first.store_run_id] == lineage_of_pages(first.cpg, pages)
        taints = engine.taint_across_runs(pages)
        assert set(taints) == set(per_run)

    def test_compare_lineage_identical_runs(self, tmp_path):
        # The same deterministic workload twice: every page's lineage must
        # diff to empty exclusives.
        store_dir = str(tmp_path / "store")
        first = run_with_provenance("histogram", num_threads=2, size="small", store_path=store_dir)
        second = run_with_provenance("histogram", num_threads=2, size="small", store_path=store_dir)
        engine = StoreQueryEngine(ProvenanceStore.open(store_dir))
        page = sorted(first.cpg.subcomputation(first.cpg.input_node).write_set)[0]
        diff = engine.compare_lineage(first.store_run_id, second.store_run_id, page)
        assert diff.identical
        assert diff.common == lineage_of_pages(first.cpg, [page])

    def test_compare_lineage_differing_runs(self, tmp_path):
        store_dir = str(tmp_path / "store")
        store = ProvenanceStore.create(store_dir)
        store.ingest(build_example_cpg(), segment_nodes=3, workload="plain")
        store.ingest(build_example_cpg(racy=True), segment_nodes=3, workload="racy")
        engine = StoreQueryEngine(store)
        # Page 12 gains an extra writer (1's last sub-computation) in the
        # racy variant, so its lineage must differ between the runs.
        diff = engine.compare_lineage(1, 2, 12)
        assert not diff.identical
        assert diff.only_b and not diff.only_a
        assert diff.pages == (12,)


class TestCompaction:
    def test_compact_merges_sink_fragments(self, tmp_path):
        # A streamed run leaves short epochs + edge-only tail segments;
        # compaction must fold them into dense segments with identical
        # query results.
        store_dir = str(tmp_path / "store")
        result = run_with_provenance("histogram", num_threads=3, size="small", store_path=store_dir)
        store = ProvenanceStore.open(store_dir)
        before = store.manifest.segment_count
        assert any(info.nodes == 0 for info in store.manifest.segments)  # edge-only tails
        stats = store.compact()
        assert stats.segments_after < before
        assert not any(info.nodes == 0 for info in store.manifest.segments)
        cold = ProvenanceStore.open(store_dir)
        assert canonical_edges(cold.load_cpg()) == canonical_edges(result.cpg)
        engine = StoreQueryEngine(cold)
        for node_id in result.cpg.nodes()[::5]:
            assert engine.backward_slice(node_id) == backward_slice(result.cpg, node_id)

    def test_compact_preserves_taint_and_topo(self, tmp_path):
        store_dir = str(tmp_path / "store")
        result = run_with_provenance("histogram", num_threads=3, size="small", store_path=store_dir)
        store = ProvenanceStore.open(store_dir)
        store.compact(segment_nodes=16)
        engine = StoreQueryEngine(ProvenanceStore.open(store_dir))
        pages = sorted(result.cpg.subcomputation(result.cpg.input_node).write_set)[:3]
        mine = engine.propagate_taint(pages)
        reference = propagate_taint(result.cpg, pages)
        assert mine.tainted_nodes == reference.tainted_nodes
        assert mine.tainted_pages == reference.tainted_pages

    def test_compact_only_touches_requested_run(self, tmp_path):
        store = ProvenanceStore.create(str(tmp_path))
        cpg = build_example_cpg()
        store.ingest(cpg, segment_nodes=2, workload="a")
        store.ingest(cpg, segment_nodes=2, workload="b")
        run_b_segments = [info.segment_id for info in store.manifest.segments_of_run(2)]
        store.compact(run=1, segment_nodes=64)
        assert [info.segment_id for info in store.manifest.segments_of_run(2)] == run_b_segments
        assert len(store.manifest.segments_of_run(1)) == 1

    def test_compact_is_idempotent(self, tmp_path):
        store = ProvenanceStore.create(str(tmp_path))
        store.ingest(build_example_cpg(), segment_nodes=2)
        store.compact()
        ids_after_first = store.manifest.segment_ids()
        stats = store.compact()
        assert store.manifest.segment_ids() == ids_after_first
        assert stats.segments_before == stats.segments_after

    def test_crash_between_index_save_and_manifest_commit(self, tmp_path):
        # The nastiest compaction crash window: the new generation's index
        # base was already renamed into place, but the manifest (the
        # commit point) was not.  That base references segments the
        # manifest never committed; open() must keep loading the committed
        # generation and answer every query from the committed segments.
        store_dir = str(tmp_path / "store")
        store = ProvenanceStore.create(store_dir)
        cpg = build_example_cpg()
        store.ingest(cpg, segment_nodes=2)
        old_ids = store.manifest.segment_ids()
        # Compact in memory + write new segment files and the new base
        # generation, but never commit the manifest (simulated crash).
        store._compact_run(1, 64)
        store.run_indexes[1].save_base(
            store._run_index_dir(1), store.manifest.run_info(1).next_index_gen
        )
        survivor = ProvenanceStore.open(store_dir)
        assert survivor.manifest.segment_ids() == old_ids
        # The rebuilt indexes must reference committed segments only and
        # answer every query exactly.
        assert set(survivor.indexes.node_segments.values()) <= set(old_ids)
        assert len(survivor.indexes.node_segments) == survivor.manifest.runs[0].nodes
        assert canonical_edges(survivor.load_cpg()) == canonical_edges(cpg)
        engine = StoreQueryEngine(survivor)
        for node_id in cpg.nodes():
            assert engine.backward_slice(node_id) == backward_slice(cpg, node_id)
        mine = engine.propagate_taint([100, 101])
        reference = propagate_taint(cpg, [100, 101])
        assert mine.tainted_nodes == reference.tainted_nodes

    def test_crash_mid_compaction_leaves_old_generation(self, tmp_path):
        # Model the crash window precisely: compaction has written its new
        # segment files but died before the manifest commit -- the disk
        # holds old (committed) segments plus stray new files, and the
        # manifest and indexes still describe the old generation.
        store_dir = str(tmp_path / "store")
        store = ProvenanceStore.create(store_dir)
        cpg = build_example_cpg()
        store.ingest(cpg, segment_nodes=2)
        old_ids = store.manifest.segment_ids()
        total_nodes = store.manifest.node_count
        # Write stray "new generation" files without committing them.
        nodes = [cpg.subcomputation(node_id) for node_id in cpg.topological_order()]
        framed, _raw = encode_segment(nodes, [])
        for stray_id in (900, 901):
            with open(
                os.path.join(store_dir, SEGMENTS_DIR, segment_file_name(stray_id)), "wb"
            ) as handle:
                handle.write(framed)
        survivor = ProvenanceStore.open(store_dir)
        assert survivor.manifest.segment_ids() == old_ids
        assert survivor.manifest.node_count == total_nodes
        assert canonical_edges(survivor.load_cpg()) == canonical_edges(cpg)
        # Index/manifest consistency: every indexed node resolves.
        indexes = survivor.indexes
        for key, segment_id in indexes.node_segments.items():
            assert segment_id in set(old_ids)
        # The next maintenance operation sweeps the stray files.
        survivor.compact()
        remaining = set(os.listdir(os.path.join(store_dir, SEGMENTS_DIR)))
        assert segment_file_name(900) not in remaining
        assert segment_file_name(901) not in remaining


class TestGarbageCollection:
    def test_gc_keep_last_drops_oldest_and_shrinks_disk(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_with_provenance("histogram", num_threads=2, size="small", store_path=store_dir)
        survivor_result = run_with_provenance(
            "word_count", num_threads=2, size="small", store_path=store_dir
        )
        bytes_before = store_disk_bytes(store_dir)
        store = ProvenanceStore.open(store_dir)
        dropped_run = store.run_ids()[0]
        stats = store.gc(keep_last=1)
        assert stats.runs_dropped == [dropped_run]
        assert stats.bytes_reclaimed > 0
        assert store_disk_bytes(store_dir) < bytes_before  # provably shrinks
        cold = ProvenanceStore.open(store_dir)
        assert cold.run_ids() == [survivor_result.store_run_id]
        assert canonical_edges(cold.load_cpg()) == canonical_edges(survivor_result.cpg)

    def test_gc_explicit_runs(self, tmp_path):
        store = ProvenanceStore.create(str(tmp_path))
        cpg = build_example_cpg()
        store.ingest(cpg, workload="keep")
        store.ingest(cpg, workload="drop")
        store.ingest(cpg, workload="keep-too")
        stats = store.gc(runs=[2])
        assert stats.runs_dropped == [2]
        assert store.run_ids() == [1, 3]
        reopened = ProvenanceStore.open(str(tmp_path))
        assert reopened.run_ids() == [1, 3]
        assert canonical_edges(reopened.load_cpg(run=3)) == canonical_edges(cpg)

    def test_gc_deduplicates_run_selector(self, tmp_path):
        store = ProvenanceStore.create(str(tmp_path))
        store.ingest(build_example_cpg(), workload="a")
        store.ingest(build_example_cpg(), workload="b")
        stats = store.gc(runs=[1, 1])
        assert stats.runs_dropped == [1]
        assert ProvenanceStore.open(str(tmp_path)).run_ids() == [2]

    def test_gc_rejects_ambiguous_or_unknown_selectors(self, tmp_path):
        store = ProvenanceStore.create(str(tmp_path))
        store.ingest(build_example_cpg())
        with pytest.raises(StoreError, match="exactly one"):
            store.gc()
        with pytest.raises(StoreError, match="exactly one"):
            store.gc(keep_last=1, runs=[1])
        with pytest.raises(StoreError, match="no run 99"):
            store.gc(runs=[99])

    def test_gc_keep_last_ignores_fully_quarantined_runs(self, tmp_path):
        # A run whose every segment is quarantined is damage awaiting
        # repair: it must neither consume a keep slot (shadow-dropping a
        # live run) nor be dropped by keep_last itself.
        store = ProvenanceStore.create(str(tmp_path))
        cpg = build_example_cpg()
        store.ingest(cpg, workload="r1")
        store.ingest(cpg, workload="r2")
        store.ingest(cpg, workload="r3")
        for info in store.manifest.segments_of_run(3):
            store.quarantine_segment(info.segment_id, "rot suspected", durable=True)
        # Two live runs, keep_last=2: nothing to drop -- run 3 does not
        # count against the budget.
        stats = store.gc(keep_last=2)
        assert stats.runs_dropped == []
        assert store.run_ids() == [1, 2, 3]
        # A new live run overflows the budget: the oldest *live* run goes,
        # the quarantined one stays for repair.
        store.ingest(cpg, workload="r4")
        stats = store.gc(keep_last=2)
        assert stats.runs_dropped == [1]
        assert store.run_ids() == [2, 3, 4]
        # An explicit selector still removes it once the operator gives up.
        assert store.gc(runs=[3]).runs_dropped == [3]
        assert ProvenanceStore.open(str(tmp_path)).run_ids() == [2, 4]

    def test_gc_everything_leaves_usable_empty_store(self, tmp_path):
        store = ProvenanceStore.create(str(tmp_path))
        store.ingest(build_example_cpg())
        store.gc(keep_last=0)
        assert store.run_ids() == []
        assert store.manifest.node_count == 0
        assert os.listdir(os.path.join(str(tmp_path), SEGMENTS_DIR)) == []
        # Run ids are never reused after GC.
        store.ingest(build_example_cpg())
        assert store.run_ids() == [2]

    def test_run_ids_and_segment_ids_never_reused(self, tmp_path):
        store = ProvenanceStore.create(str(tmp_path))
        store.ingest(build_example_cpg(), segment_nodes=4)
        first_segments = set(store.manifest.segment_ids())
        store.gc(runs=[1])
        store.ingest(build_example_cpg(), segment_nodes=4)
        assert not (set(store.manifest.segment_ids()) & first_segments)


# ---------------------------------------------------------------------- #
# Multi-run CLI surface
# ---------------------------------------------------------------------- #


class TestMultiRunCLI:
    @pytest.fixture()
    def multirun_store(self, tmp_path):
        from repro.core.serialization import write_cpg

        cpg_a, cpg_b = build_example_cpg(), build_example_cpg(racy=True)
        json_a, json_b = tmp_path / "a.json", tmp_path / "b.json"
        write_cpg(cpg_a, str(json_a))
        write_cpg(cpg_b, str(json_b))
        store_dir = str(tmp_path / "store")
        assert store_cli(["ingest", store_dir, str(json_a), "--workload", "plain"]) == 0
        assert store_cli(["ingest", store_dir, str(json_b), "--workload", "racy"]) == 0
        return cpg_a, cpg_b, store_dir

    def test_runs_command(self, multirun_store, capsys):
        _, _, store_dir = multirun_store
        assert store_cli(["runs", store_dir, "--json"]) == 0
        runs = json.loads(capsys.readouterr().out)
        assert [run["id"] for run in runs] == [1, 2]
        assert [run["workload"] for run in runs] == ["plain", "racy"]

    def test_slice_requires_run_on_multirun_store(self, multirun_store, capsys):
        _, _, store_dir = multirun_store
        assert store_cli(["slice", store_dir, "--node", "1:0"]) == 1
        assert "pass run=" in capsys.readouterr().err

    def test_slice_and_taint_with_run_filter(self, multirun_store, capsys):
        cpg_a, cpg_b, store_dir = multirun_store
        assert store_cli(["slice", store_dir, "--pages", "12", "--run", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run"] == 2
        assert payload["nodes"] == sorted(node_key(n) for n in lineage_of_pages(cpg_b, [12]))
        assert store_cli(["taint", store_dir, "--pages", "100", "--run", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        reference = propagate_taint(cpg_a, [100])
        assert payload["tainted_nodes"] == sorted(node_key(n) for n in reference.tainted_nodes)

    def test_compact_and_gc_commands(self, multirun_store, capsys):
        _, _, store_dir = multirun_store
        assert store_cli(["compact", store_dir, "--json"]) == 0
        compacted = json.loads(capsys.readouterr().out)
        assert compacted["segments_after"] <= compacted["segments_before"]
        assert store_cli(["gc", store_dir, "--keep-last", "1", "--json"]) == 0
        collected = json.loads(capsys.readouterr().out)
        assert collected["runs_dropped"] == [1]
        assert collected["bytes_reclaimed"] > 0
        assert store_cli(["runs", store_dir, "--json"]) == 0
        assert [run["id"] for run in json.loads(capsys.readouterr().out)] == [2]

    def test_gc_selector_validation(self, multirun_store, capsys):
        _, _, store_dir = multirun_store
        assert store_cli(["gc", store_dir]) == 2
        assert store_cli(["gc", store_dir, "--keep-last", "1", "--runs", "1"]) == 2
