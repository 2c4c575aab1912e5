"""Compressed segments, single-flight cache fills, and the handle lifecycle.

Covers the read path on top of the existing store suites: segments are
zlib-compressed on disk, cold misses are single-flight (a stampede of
readers -- raw segment reads or whole-run record reads -- decodes each
segment exactly once), ``close()`` releases nothing and leaves the
handle usable, and a missing segment file is a loud :class:`StoreError`.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cpg import EdgeKind
from repro.core.queries import propagate_taint
from repro.core.thunk import SubComputation
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError
from repro.inspector.api import run_with_provenance
from repro.store import (
    STORE_FORMAT_VERSION,
    ProvenanceStore,
    SegmentCache,
    StoreQueryEngine,
    StoreSink,
)
from repro.store.format import SEGMENT_FRAME_BYTE, SEGMENT_MAGIC_PREFIX, SEGMENTS_DIR


def make_node(tid, index, reads=(), writes=()):
    node = SubComputation(tid=tid, index=index, clock=VectorClock({tid: index + 1}))
    node.read_set.update(reads)
    node.write_set.update(writes)
    return node


def build_store(store_dir, epochs=6, nodes_per_epoch=4, finish=True):
    """Stream a synthetic run, one flushed epoch at a time."""
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
    if finish:
        sink.finish()
    return store, sink


# ---------------------------------------------------------------------- #
# Compressed segments
# ---------------------------------------------------------------------- #


class TestCompressedDefault:
    def test_new_stores_write_compressed_segments(self, tmp_path):
        store_dir = str(tmp_path / "store")
        store, _ = build_store(store_dir)
        summary = store.info()
        assert summary["format_version"] == STORE_FORMAT_VERSION
        for info in store.manifest.segments:
            with open(os.path.join(store_dir, SEGMENTS_DIR, info.file_name), "rb") as handle:
                header = handle.read(len(SEGMENT_MAGIC_PREFIX) + 1)
            assert header == SEGMENT_MAGIC_PREFIX + bytes((SEGMENT_FRAME_BYTE,))
        # The whole point: compressed on disk, by a real margin.
        assert summary["stored_bytes"] < summary["raw_bytes"]


# ---------------------------------------------------------------------- #
# Single-flight cache fills
# ---------------------------------------------------------------------- #


class TestSingleFlight:
    def test_cold_miss_stampede_decodes_each_segment_once(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=8)
        store = ProvenanceStore.open(store_dir)
        # Slow every (single-flight) file read a little: scheduling alone
        # cannot be trusted to overlap the threads' fills, and with no
        # overlap the coalescing assertion below is vacuous.
        real_read = store._read_segment_file

        def slow_read(segment_id):
            time.sleep(0.002)
            return real_read(segment_id)

        store._read_segment_file = slow_read
        segment_ids = [info.segment_id for info in store.manifest.segments]
        assert len(segment_ids) >= 8
        threads = 16
        barrier = threading.Barrier(threads)
        results = [None] * threads
        errors = []

        def hammer(slot):
            try:
                barrier.wait()
                loaded = {}
                for segment_id in segment_ids:
                    loaded[segment_id] = store.segment(segment_id)
                results[slot] = loaded
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(slot,)) for slot in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        # Exactly one read+decode per segment across all 16 threads.
        assert store.read_stats.segments_read == len(segment_ids)
        assert store.cache.stats.misses == len(segment_ids)
        assert store.cache.stats.coalesced > 0
        reference = results[0]
        for loaded in results[1:]:
            assert set(loaded) == set(reference)
            for segment_id in reference:
                assert loaded[segment_id] is reference[segment_id]

    def test_flooding_taint_stampede_decodes_each_segment_once(self, tmp_path):
        cpg = run_with_provenance("kmeans", num_threads=4, size="small").cpg
        store_dir = str(tmp_path / "store")
        ProvenanceStore.create(store_dir).ingest(cpg, segment_nodes=8)
        store = ProvenanceStore.open(store_dir)
        segment_count = store.manifest.segment_count
        assert 8 <= segment_count <= 64  # many segments, all within the cache
        # As in the raw stampede above: slow file reads make the queries'
        # fills overlap instead of trusting the scheduler to.
        real_read = store._read_segment_file

        def slow_read(segment_id):
            time.sleep(0.002)
            return real_read(segment_id)

        store._read_segment_file = slow_read
        seed = sorted(cpg.subcomputation(cpg.input_node).write_set)
        reference = propagate_taint(cpg, seed)
        threads = 12
        barrier = threading.Barrier(threads)

        def flood(_):
            # Flooding taint replays from the indexes; the stampede is the
            # whole-run read its sweep used to make, next to it.
            engine = StoreQueryEngine(store)
            barrier.wait(timeout=30)
            records = engine.run_view().records()
            result = engine.propagate_taint(seed)
            return engine.last_taint_mode, result, records

        with ThreadPoolExecutor(max_workers=threads) as pool:
            answers = list(pool.map(flood, range(threads)))
        assert store.read_stats.segments_read == segment_count
        assert store.cache.stats.coalesced > 0
        for mode, result, records in answers:
            assert mode == "sweep"  # input taint floods the run
            assert result.tainted_nodes == reference.tainted_nodes
            assert result.tainted_pages == reference.tainted_pages
            assert records.keys() == set(cpg.nodes())

    def test_waiters_see_the_owners_error(self):
        cache = SegmentCache(max_bytes=1 << 20)
        owner = cache.begin_fill("ns", 1, 7)
        assert owner.status == "owner"
        waiter = cache.begin_fill("ns", 1, 7)
        assert waiter.status == "waiter"
        boom = StoreError("decode failed")
        owner.fail(boom)
        with pytest.raises(StoreError, match="decode failed"):
            waiter.wait()
        # The failed fill is gone: the next reader retries from scratch.
        assert cache.begin_fill("ns", 1, 7).status == "owner"

    def test_invalidation_racing_a_fill_skips_admission(self):
        cache = SegmentCache(max_bytes=1 << 20)
        owner = cache.begin_fill("ns", 1, 7)
        waiter = cache.begin_fill("ns", 1, 7)
        cache.invalidate("ns")  # compact/gc while the decode is in flight
        payload = object()
        owner.complete(payload)
        # The waiter still gets the bytes it asked for (segment ids are
        # never reused, so they are not stale) ...
        assert waiter.wait(timeout=5) is payload
        # ... but the dead generation was not admitted to the cache.
        assert cache.get("ns", 1, 7) is None

    def test_fill_wait_times_out_loudly(self):
        cache = SegmentCache(max_bytes=1 << 20)
        cache.begin_fill("ns", 1, 7)  # owner that never completes
        waiter = cache.begin_fill("ns", 1, 7)
        with pytest.raises(StoreError, match="timed out"):
            waiter.wait(timeout=0.05)


# ---------------------------------------------------------------------- #
# Handle lifecycle
# ---------------------------------------------------------------------- #


def canonical(payload):
    return sorted(payload.nodes), sorted(payload.edges, key=repr)


def assert_handle_still_usable(store, store_dir, new_run):
    """A closed handle answers queries and mints the next run."""
    assert StoreQueryEngine(store).lineage_of_pages([103], run=1) == {(1, 3)}
    sink = StoreSink(store, segment_nodes=4, workload="after-close")
    sink.subcomputation_published(make_node(1, 0, writes={200}), [])
    sink.finish()
    assert sink.run_id == new_run
    assert ProvenanceStore.open(store_dir).run_ids() == list(range(1, new_run + 1))


class TestDecodePools:
    """``close()`` and the ``with`` block on a handle that owns no pools.

    Every read decodes on the caller's own thread, so closing a handle
    has nothing to shut down: reads after ``close()`` decode sequentially
    exactly as before it, and the handle keeps ingesting.
    """

    def test_close_shuts_pools_and_reads_degrade_to_sequential(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        store = ProvenanceStore.open(store_dir)
        segment_ids = [info.segment_id for info in store.manifest.segments]
        before = {sid: canonical(store.segment(sid)) for sid in segment_ids}
        store.close()
        store.cache.invalidate(store.cache_namespace)
        store.reset_read_stats()
        after = {sid: canonical(store.segment(sid)) for sid in segment_ids}
        assert after == before
        assert store.read_stats.segments_read == len(segment_ids)
        store.close()  # idempotent
        assert_handle_still_usable(store, store_dir, new_run=2)

    def test_context_manager_closes(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        with ProvenanceStore.open(store_dir) as store:
            segment_ids = [info.segment_id for info in store.manifest.segments]
            payloads = {sid: store.segment(sid) for sid in segment_ids}
            assert set(payloads) == set(segment_ids)
        assert_handle_still_usable(store, store_dir, new_run=2)


class TestHandleLifecycle:
    def test_missing_segment_file_is_a_store_error(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        store = ProvenanceStore.open(store_dir)
        victim = store.manifest.segments[0].file_name
        os.remove(os.path.join(store_dir, SEGMENTS_DIR, victim))
        with pytest.raises(StoreError, match="missing"):
            store.load_cpg()
