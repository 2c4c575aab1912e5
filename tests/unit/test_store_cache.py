"""Tests for the hot read path (:mod:`repro.store.cache`).

Covers the acceptance invariants of the decoded-segment cache: a tiny
byte budget changes access patterns but never answers, the budget is a
hard ceiling, maintenance (``compact``/``gc``) invalidates instead of
serving stale payloads, pinned index generations are reused across
store opens, the resident-size estimate tracks what a decoded segment
really holds, and a walk asks the cache once per distinct segment.
"""

import gc
import tracemalloc

import pytest

from repro.core.algorithm import ProvenanceTracker
from repro.core.dependencies import derive_data_edges
from repro.core.queries import backward_slice, lineage_of_pages, propagate_taint
from repro.inspector.api import run_with_provenance
from repro.store import (
    IndexPinner,
    ProvenanceStore,
    SegmentCache,
    StoreQueryEngine,
)
from repro.store.cache import ReadScope, estimate_payload_cost
from repro.store.segment import decode_segment


def build_chain_cpg(threads: int = 3, steps: int = 4):
    """A multi-thread lock-chain CPG big enough to span many segments."""
    tracker = ProvenanceTracker()
    tracker.register_input_pages({1000, 1001})
    lock = 7
    for tid in range(1, threads + 1):
        tracker.on_thread_start(tid)
    page = 0
    for step in range(steps):
        for tid in range(1, threads + 1):
            tracker.on_sync_boundary(tid, "mutex_lock")
            tracker.on_acquire(tid, lock)
            tracker.begin_next(tid)
            tracker.on_memory_access(tid, 1000 if step == 0 else page - 1, is_write=False)
            tracker.on_memory_access(tid, page, is_write=True)
            page += 1
            tracker.on_sync_boundary(tid, "mutex_unlock")
            tracker.on_release(tid, lock)
            tracker.begin_next(tid)
    for tid in range(1, threads + 1):
        tracker.on_thread_end(tid)
    cpg = tracker.finalize()
    derive_data_edges(cpg)
    return cpg


@pytest.fixture()
def stored(tmp_path):
    """One ingested run split across many small segments."""
    cpg = build_chain_cpg()
    store_dir = str(tmp_path / "store")
    store = ProvenanceStore.create(store_dir)
    store.ingest(cpg, segment_nodes=3)
    return cpg, store_dir


def stored_run(tmp_path, workload):
    """A sink-streamed store holding one small 4-thread run of ``workload``."""
    store_dir = str(tmp_path / "store")
    run_with_provenance(workload, num_threads=4, size="small", store_path=store_dir)
    return store_dir



def query_targets(cpg):
    origin = [
            n
            for n in cpg.nodes()
            if n[0] >= 0 and cpg.subcomputation(n).write_set
        ][-1]
    pages = sorted(cpg.subcomputation(origin).write_set)[:1] or [0]
    return origin, pages


def expected_answers(cpg):
    origin, pages = query_targets(cpg)
    seed = sorted(cpg.subcomputation(cpg.input_node).write_set)
    return (
        backward_slice(cpg, origin),
        lineage_of_pages(cpg, pages),
        frozenset(propagate_taint(cpg, pages).tainted_nodes),
        # Input-page taint floods: the answer spans the whole run, so
        # this query drags every segment through the cache.
        frozenset(propagate_taint(cpg, seed).tainted_nodes),
    )


def engine_answers(engine, cpg):
    origin, pages = query_targets(cpg)
    seed = sorted(cpg.subcomputation(cpg.input_node).write_set)
    return (
        engine.backward_slice(origin),
        engine.lineage_of_pages(pages),
        frozenset(engine.propagate_taint(pages).tainted_nodes),
        frozenset(engine.propagate_taint(seed).tainted_nodes),
    )


class TestSegmentCacheBudget:
    def test_tiny_budget_returns_identical_results(self, stored):
        cpg, store_dir = stored
        probe = ProvenanceStore.open(store_dir)
        biggest = max(
            estimate_payload_cost(probe.segment(segment_id))
            for segment_id in probe.manifest.segment_ids()
        )
        # Room for roughly two decoded segments: eviction is constant.
        cache = SegmentCache(max_bytes=2 * biggest)
        store = ProvenanceStore.open(store_dir, segment_cache=cache)
        engine = StoreQueryEngine(store)
        assert engine_answers(engine, cpg) == expected_answers(cpg)
        assert cache.stats.evictions > 0, "the tiny budget never evicted"
        assert cache.peak_bytes <= cache.max_bytes
        assert cache.total_bytes <= cache.max_bytes

    def test_budget_is_a_hard_ceiling(self, stored):
        cpg, store_dir = stored
        cache = SegmentCache(max_bytes=8 * 1024)
        store = ProvenanceStore.open(store_dir, segment_cache=cache)
        for segment_id in store.manifest.segment_ids():
            store.segment(segment_id)
            assert cache.total_bytes <= cache.max_bytes
        assert cache.peak_bytes <= cache.max_bytes

    def test_oversize_payload_is_served_but_not_admitted(self, stored):
        cpg, store_dir = stored
        cache = SegmentCache(max_bytes=1)  # below any payload's cost
        store = ProvenanceStore.open(store_dir, segment_cache=cache)
        engine = StoreQueryEngine(store)
        assert engine_answers(engine, cpg) == expected_answers(cpg)
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.stats.oversize > 0

    def test_shrinking_the_budget_evicts_immediately(self, stored):
        _, store_dir = stored
        store = ProvenanceStore.open(store_dir)
        for segment_id in store.manifest.segment_ids():
            store.segment(segment_id)
        assert store.cache.total_bytes > 0
        store.cache.max_bytes = 1024
        assert store.cache.total_bytes <= 1024

    def test_entry_cap_back_compat_knob(self, stored):
        _, store_dir = stored
        store = ProvenanceStore.open(store_dir)
        store.cache.max_entries = 2
        for segment_id in store.manifest.segment_ids():
            store.segment(segment_id)
        cached = store.cache.cached_segments(store.cache_namespace, store.manifest_generation)
        assert len(cached) == 2


class TestMaintenanceInvalidation:
    def test_compact_invalidates_and_answers_identically(self, stored):
        cpg, store_dir = stored
        store = ProvenanceStore.open(store_dir)
        engine = StoreQueryEngine(store)
        before = engine_answers(engine, cpg)
        assert len(store.cache) > 0
        generation_before = store.manifest_generation
        store.compact(segment_nodes=64)
        assert store.manifest_generation == generation_before + 1
        # Nothing decoded before the rewrite survives in the cache.
        assert len(store.cache) == 0
        assert engine_answers(engine, cpg) == before == expected_answers(cpg)

    def test_gc_invalidates_dropped_runs(self, stored):
        cpg, store_dir = stored
        store = ProvenanceStore.open(store_dir)
        store.ingest(cpg, segment_nodes=3)  # second run, then warm both
        engine = StoreQueryEngine(store)
        runs = store.run_ids()
        origin, pages = query_targets(cpg)
        for run_id in runs:
            engine.backward_slice(origin, run=run_id)
        assert len(store.cache) > 0
        store.gc(runs=[runs[0]])
        assert len(store.cache) == 0  # generation bump dropped the namespace
        assert engine.backward_slice(origin, run=runs[1]) == backward_slice(cpg, origin)

    def test_pinner_entries_die_with_their_generation(self, stored):
        cpg, store_dir = stored
        pinner = IndexPinner()
        store = ProvenanceStore.open(store_dir, index_pinner=pinner)
        store.indexes_for(store.run_ids()[0])
        assert len(pinner) == 1
        store.compact(segment_nodes=64)
        # The compacted run's pin was invalidated; the fold wrote a new
        # base, so a fresh open pins the new generation, not the old one.
        reopened = ProvenanceStore.open(store_dir, index_pinner=pinner)
        reopened.indexes_for(reopened.run_ids()[0])
        engine = StoreQueryEngine(reopened)
        assert engine_answers(engine, cpg) == expected_answers(cpg)


class TestIndexPinner:
    def test_pinned_indexes_reused_across_opens(self, stored):
        cpg, store_dir = stored
        pinner = IndexPinner()
        first = ProvenanceStore.open(store_dir, index_pinner=pinner)
        run_id = first.run_ids()[0]
        merged = first.indexes_for(run_id)
        assert pinner.stats.misses == 1 and pinner.stats.hits == 0
        second = ProvenanceStore.open(store_dir, index_pinner=pinner)
        assert second.indexes_for(run_id) is merged
        assert pinner.stats.hits == 1
        engine = StoreQueryEngine(second)
        assert engine_answers(engine, cpg) == expected_answers(cpg)

    def test_lru_bound_evicts_oldest_run(self, stored):
        cpg, store_dir = stored
        store = ProvenanceStore.open(store_dir)
        store.ingest(cpg, segment_nodes=3)
        pinner = IndexPinner(max_runs=1)
        shared = ProvenanceStore.open(store_dir, index_pinner=pinner)
        for run_id in shared.run_ids():
            shared.indexes_for(run_id)
        assert len(pinner) == 1
        assert pinner.stats.evictions == 1


class TestWarmSweep:
    def test_flood_sweep_is_free_on_a_warm_engine(self, stored):
        cpg, store_dir = stored
        store = ProvenanceStore.open(store_dir)
        engine = StoreQueryEngine(store)
        seed = sorted(cpg.subcomputation(cpg.input_node).write_set)
        first = engine.propagate_taint(seed)
        assert engine.last_taint_mode == "sweep"  # input taint floods
        reads_before = store.read_stats.segments_read
        second = engine.propagate_taint(seed)
        assert engine.last_taint_mode == "sweep"
        assert store.read_stats.segments_read == reads_before, (
            "warm sweep re-decoded segments instead of hitting the cache"
        )
        assert second.tainted_nodes == first.tainted_nodes
        assert first.tainted_nodes == propagate_taint(cpg, seed).tainted_nodes


class TestReadScope:
    def test_scope_collects_per_query_accounting(self, stored):
        cpg, store_dir = stored
        store = ProvenanceStore.open(store_dir)
        origin, pages = query_targets(cpg)
        cold_scope = ReadScope()
        StoreQueryEngine(store, scope=cold_scope).lineage_of_pages(pages)
        assert cold_scope.cache_misses > 0
        assert cold_scope.segments_read == cold_scope.cache_misses
        assert cold_scope.bytes_read > 0
        warm_scope = ReadScope()
        StoreQueryEngine(store, scope=warm_scope).lineage_of_pages(pages)
        assert warm_scope.segments_read == 0
        assert warm_scope.cache_hits > 0


def lookups(scope: ReadScope) -> int:
    """Cache lookups a query made: hits (waiters included) plus misses."""
    return scope.cache_hits + scope.cache_misses


def distinct_segments(nodes, segments_of) -> int:
    """How many segments hold the edges the walk reads for ``nodes``."""
    return len({segment for node in nodes for segment in segments_of(node)})


class TestLineageWalkCost:
    def test_lineage_expands_each_answer_node_once(self, tmp_path):
        # The page every kmeans worker writes: 131 writers sharing most of
        # their ancestry.  One walk from all of them expands each answer
        # node once, and asks the cache once per segment holding their
        # in-edges, not once per node that has edges there.
        store = ProvenanceStore.open(stored_run(tmp_path, "kmeans"))
        indexes = store.indexes
        page = max(indexes.page_writers, key=lambda p: len(indexes.page_writers[p]))
        assert len(indexes.writers_of_page(page)) > 100
        scope = ReadScope()
        answer = StoreQueryEngine(store, scope=scope).lineage_of_pages([page])
        assert answer >= set(indexes.writers_of_page(page))
        assert lookups(scope) <= distinct_segments(answer, indexes.in_segments)

    def test_slices_ask_once_per_distinct_segment(self, tmp_path):
        # A backward slice from the hot page's last writer and a forward
        # slice from its first each reach over a hundred nodes whose
        # edges live in ten segments.
        store = ProvenanceStore.open(stored_run(tmp_path, "kmeans"))
        indexes = store.indexes
        page = max(indexes.page_writers, key=lambda p: len(indexes.page_writers[p]))
        writers = indexes.causal_order(indexes.page_writers[page])
        for start, forward, segments_of in (
            (writers[-1], False, indexes.in_segments),
            (writers[0], True, indexes.out_segments),
        ):
            scope = ReadScope()
            engine = StoreQueryEngine(store, scope=scope)
            slice_of = engine.forward_slice if forward else engine.backward_slice
            answer = slice_of(start)
            assert len(answer) > 20
            assert lookups(scope) <= distinct_segments(answer, segments_of)


def measured_decoded_bytes(raw: bytes):
    """Decode one segment; return it with the bytes tracemalloc sees it keep."""
    gc.collect()
    tracemalloc.start()
    try:
        payload = decode_segment(raw)
        gc.collect()
        return payload, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestPayloadCostEstimate:
    @pytest.mark.parametrize("workload", ["kmeans", "canneal"])
    def test_estimate_tracks_decoded_size(self, tmp_path, workload):
        # kmeans segments are mostly vector clocks, canneal's mostly thunks:
        # the byte budget bounds real memory only if both are charged.
        store = ProvenanceStore.open(stored_run(tmp_path, workload))
        estimated = measured = 0
        for segment_id in store.manifest.segment_ids():
            payload, size = measured_decoded_bytes(store._read_segment_file(segment_id))
            estimated += estimate_payload_cost(payload)
            measured += size
        assert 0.5 * measured <= estimated <= 2 * measured, (estimated, measured)
