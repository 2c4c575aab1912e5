"""Compressed segments, parallel decode, and single-flight cache fills.

Covers the read path on top of the existing store suites: segments are
zlib-compressed on disk, cold misses are single-flight (a stampede of
readers decodes each segment exactly once), the store's shared decode
pools are created lazily and shut down by ``close()`` (after which reads
degrade to sequential instead of failing), and the thread and process
decode paths return identical payloads.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cpg import EdgeKind
from repro.core.thunk import SubComputation
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError
from repro.store import (
    STORE_FORMAT_VERSION,
    ProvenanceStore,
    SegmentCache,
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
        store, segment_nodes=nodes_per_epoch, flush_every_epochs=1, workload="synthetic"
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
        store.close()

    def test_segment_many_stampede_decodes_each_segment_once(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=8)
        store = ProvenanceStore.open(store_dir)
        segment_ids = [info.segment_id for info in store.manifest.segments]
        threads = 12
        barrier = threading.Barrier(threads)

        def sweep(_):
            barrier.wait()
            return store.segment_many(segment_ids, parallelism=4)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            sweeps = list(pool.map(sweep, range(threads)))
        assert store.read_stats.segments_read == len(segment_ids)
        for swept in sweeps:
            assert set(swept) == set(segment_ids)
        store.close()

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
# Shared decode pools and close()
# ---------------------------------------------------------------------- #


class TestDecodePools:
    def test_executor_is_lazy_and_shared(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        store = ProvenanceStore.open(store_dir)
        segment_ids = [info.segment_id for info in store.manifest.segments]
        assert store._executor is None  # nothing parallel happened yet
        store.segment_many(segment_ids, parallelism=4)
        first = store._executor
        assert first is not None
        store.cache.invalidate(store.cache_namespace)
        store.segment_many(segment_ids, parallelism=4)
        assert store._executor is first  # reused, not a per-call pool
        store.close()

    def test_injected_executor_is_still_honored(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        store = ProvenanceStore.open(store_dir)
        segment_ids = [info.segment_id for info in store.manifest.segments]
        with ThreadPoolExecutor(max_workers=2) as pool:
            payloads = store.segment_many(segment_ids, parallelism=4, executor=pool)
        assert set(payloads) == set(segment_ids)
        assert store._executor is None  # the store never built its own
        store.close()

    def test_close_shuts_pools_and_reads_degrade_to_sequential(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        store = ProvenanceStore.open(store_dir)
        segment_ids = [info.segment_id for info in store.manifest.segments]
        store.segment_many(segment_ids, parallelism=4)
        store.close()
        assert store._executor is None
        store.cache.invalidate(store.cache_namespace)
        payloads = store.segment_many(segment_ids, parallelism=4)
        assert set(payloads) == set(segment_ids)
        assert store._executor is None  # closed stores never resurrect pools
        store.close()  # idempotent

    def test_context_manager_closes(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        with ProvenanceStore.open(store_dir) as store:
            segment_ids = [info.segment_id for info in store.manifest.segments]
            store.segment_many(segment_ids, parallelism=4)
            assert store._executor is not None
        assert store._executor is None

    def test_thread_and_process_decode_agree(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=8)
        segment_ids = [
            info.segment_id
            for info in ProvenanceStore.open(store_dir).manifest.segments
        ]

        def canonical(payloads):
            return {
                segment_id: (
                    sorted(payload.nodes),
                    sorted(payload.edges, key=repr),
                )
                for segment_id, payload in payloads.items()
            }

        by_mode = {}
        for mode in ("thread", "process"):
            store = ProvenanceStore.open(store_dir)
            store.decode_mode = mode
            by_mode[mode] = canonical(store.segment_many(segment_ids, parallelism=4))
            assert store.read_stats.segments_read == len(segment_ids)
            store.close()
        assert by_mode["thread"] == by_mode["process"]

    def test_broken_process_pool_falls_back_to_threads(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=8)
        store = ProvenanceStore.open(store_dir)
        store.decode_mode = "process"
        store._process_pool_broken = True  # as if a worker died earlier
        segment_ids = [info.segment_id for info in store.manifest.segments]
        payloads = store.segment_many(segment_ids, parallelism=4)
        assert set(payloads) == set(segment_ids)
        assert store._process_pool is None
        store.close()

    def test_missing_segment_file_is_a_store_error_in_every_mode(self, tmp_path):
        store_dir = str(tmp_path / "store")
        build_store(store_dir, epochs=4)
        for mode in ("thread", "process"):
            store = ProvenanceStore.open(store_dir)
            store.decode_mode = mode
            segment_ids = [info.segment_id for info in store.manifest.segments]
            victim = store.manifest.segment_info(segment_ids[0]).file_name
            victim_path = os.path.join(store_dir, "segments", victim)
            blob = open(victim_path, "rb").read()
            os.remove(victim_path)
            try:
                with pytest.raises(StoreError, match="missing"):
                    store.segment_many(segment_ids, parallelism=4)
                # The pool was not condemned for a store fault.
                assert not store._process_pool_broken
            finally:
                with open(victim_path, "wb") as handle:
                    handle.write(blob)
                store.close()
