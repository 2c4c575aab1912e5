"""The append-only segment log and its crash recovery.

Covers the commit protocol on top of the existing store suites: each
flush appends one framed O(epoch) record to ``segments.log`` instead of
rewriting the manifest, a cold open replays the committed log tail, torn
or corrupt tails are detected and cut, stale records left by a crash
between checkpoint and log reset are skipped by sequence number, and
missing index deltas referenced by a committed record recover by
rebuilding from segments.
"""

import json
import os

import pytest

from repro.core.cpg import EdgeKind
from repro.core.thunk import SubComputation
from repro.core.vector_clock import VectorClock
from repro.errors import StoreError
from repro.store import (
    SEGMENT_LOG_NAME,
    STORE_FORMAT_VERSION,
    ProvenanceStore,
    SegmentLog,
    StoreQueryEngine,
    StoreSink,
)
from repro.store.format import INDEX_DIR, MANIFEST_NAME, index_delta_file_name, run_index_dir_name
from repro.store.log import LOG_RECORD_MAGIC, encode_log_record


def make_node(tid, index, reads=(), writes=()):
    node = SubComputation(tid=tid, index=index, clock=VectorClock({tid: index + 1}))
    node.read_set.update(reads)
    node.write_set.update(writes)
    return node


def stream_epochs(store_dir, epochs=5, nodes_per_epoch=4, finish=False):
    """Stream a synthetic run, one flushed epoch at a time, WITHOUT finishing.

    Leaving the run unfinished keeps the epochs in ``segments.log`` (the
    run-complete checkpoint would fold them into the manifest), which is
    exactly the mid-run crash state these tests exercise.
    """
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


def log_path_of(store_dir):
    return os.path.join(store_dir, SEGMENT_LOG_NAME)


# ---------------------------------------------------------------------- #
# The log file itself (framing, scan, truncation)
# ---------------------------------------------------------------------- #


class TestSegmentLog:
    def test_append_scan_round_trip(self, tmp_path):
        log = SegmentLog(str(tmp_path / "segments.log"))
        assert not log.exists()
        assert log.record_count == 0
        for seq in (1, 2, 3):
            log.append({"seq": seq, "payload": "x" * seq})
        assert log.record_count == 3
        fresh = SegmentLog(log.path)
        records = fresh.scan()
        assert [record["seq"] for record in records] == [1, 2, 3]
        assert fresh.valid_bytes == fresh.size_bytes()

    def test_scan_stops_at_torn_frame(self, tmp_path):
        log = SegmentLog(str(tmp_path / "segments.log"))
        for seq in (1, 2):
            log.append({"seq": seq})
        with open(log.path, "ab") as handle:
            handle.write(encode_log_record({"seq": 3})[:-4])  # torn mid-body
        fresh = SegmentLog(log.path)
        assert [record["seq"] for record in fresh.scan()] == [1, 2]
        assert fresh.valid_bytes < fresh.size_bytes()

    def test_append_truncates_torn_tail(self, tmp_path):
        log = SegmentLog(str(tmp_path / "segments.log"))
        for seq in (1, 2):
            log.append({"seq": seq})
        with open(log.path, "ab") as handle:
            handle.write(LOG_RECORD_MAGIC + b"\xff\xff")  # garbage header
        recovered = SegmentLog(log.path)
        recovered.append({"seq": 3})
        assert [record["seq"] for record in SegmentLog(log.path).scan()] == [1, 2, 3]
        # Nothing left past the commit horizon.
        assert SegmentLog(log.path).valid_bytes == os.path.getsize(log.path)

    def test_corrupt_crc_invalidates_record(self, tmp_path):
        log = SegmentLog(str(tmp_path / "segments.log"))
        log.append({"seq": 1})
        log.append({"seq": 2})
        with open(log.path, "rb") as handle:
            data = handle.read()
        with open(log.path, "wb") as handle:
            handle.write(data[:-1] + bytes([data[-1] ^ 0x01]))
        assert [record["seq"] for record in SegmentLog(log.path).scan()] == [1]

    def test_shrunk_log_refuses_append(self, tmp_path):
        log = SegmentLog(str(tmp_path / "segments.log"))
        log.append({"seq": 1})
        log.append({"seq": 2})
        os.truncate(log.path, 4)  # shrank below the horizon log already saw
        with pytest.raises(StoreError, match="shrank below its commit horizon"):
            log.append({"seq": 3})

    def test_reset_empties_the_log(self, tmp_path):
        log = SegmentLog(str(tmp_path / "segments.log"))
        log.append({"seq": 1})
        log.reset()
        assert log.exists()
        assert log.record_count == 0
        assert SegmentLog(log.path).scan() == []


# ---------------------------------------------------------------------- #
# O(epoch) flushes: append to the log, not the manifest
# ---------------------------------------------------------------------- #


class TestLogAppendFlush:
    def test_each_flush_appends_one_record_and_leaves_manifest_alone(self, tmp_path):
        store_dir = str(tmp_path / "stream")
        manifest_path = os.path.join(store_dir, MANIFEST_NAME)
        store, sink = stream_epochs(store_dir, epochs=6)
        before = os.stat(manifest_path)
        state = store.log_state()
        assert state["records"] == sink.epochs_committed
        assert state["uncheckpointed_records"] == sink.epochs_committed
        assert state["checkpoint_seq"] == 0
        assert state["last_seq"] == sink.epochs_committed
        # The manifest checkpoint was written once, at creation.
        assert os.stat(manifest_path).st_mtime_ns == before.st_mtime_ns
        assert os.stat(manifest_path).st_size == before.st_size

    def test_log_records_stay_epoch_sized(self, tmp_path):
        # The whole point of v5: a late flush appends the same few bytes
        # as an early one, instead of rewriting the (grown) manifest.
        store_dir = str(tmp_path / "stream")
        store = ProvenanceStore.open_or_create(store_dir)
        run_id = store.new_run(workload="sizes")
        log = log_path_of(store_dir)
        increments = []
        previous = 0
        for position in range(12):
            store.append_segment(
                [make_node(1, position, writes={100 + position})], [], run=run_id
            )
            store.flush()
            size = os.path.getsize(log)
            increments.append(size - previous)
            previous = size
        assert max(increments) <= 2 * min(increments)

    def test_cold_reopen_replays_log_tail(self, tmp_path):
        store_dir = str(tmp_path / "stream")
        store, sink = stream_epochs(store_dir, epochs=5, nodes_per_epoch=4)
        expected = store.load_cpg(run=sink.run_id)
        reopened = ProvenanceStore.open(store_dir)
        assert reopened.manifest.segment_count == store.manifest.segment_count
        assert reopened.manifest.node_count == 20
        assert set(reopened.load_cpg(run=sink.run_id).nodes()) == set(expected.nodes())
        engine = StoreQueryEngine(reopened)
        assert engine.backward_slice((1, 19), run=sink.run_id) == StoreQueryEngine(
            store
        ).backward_slice((1, 19), run=sink.run_id)

    def test_checkpoint_interval_folds_log_into_manifest(self, tmp_path):
        store_dir = str(tmp_path / "stream")
        store = ProvenanceStore.open_or_create(store_dir)
        store.checkpoint_interval = 4
        run_id = store.new_run(workload="interval")
        for position in range(10):
            store.append_segment([make_node(1, position)], [], run=run_id)
            store.flush()
        # Flushes 5 and 10 hit the interval and checkpointed.
        assert store.log_state()["records"] == 0
        assert store.log_state()["uncheckpointed_records"] == 0
        reopened = ProvenanceStore.open(store_dir)
        assert reopened.manifest.log_seq == 8
        assert reopened.manifest.node_count == 10

    def test_finish_checkpoints_the_run(self, tmp_path):
        store_dir = str(tmp_path / "stream")
        store, sink = stream_epochs(store_dir, epochs=4, finish=True)
        # Run completion folded everything into the manifest checkpoint.
        assert store.log_state()["records"] == 0
        with open(os.path.join(store_dir, MANIFEST_NAME), "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["version"] == STORE_FORMAT_VERSION
        assert len(document["segments"]) == store.manifest.segment_count


# ---------------------------------------------------------------------- #
# Crash recovery
# ---------------------------------------------------------------------- #


class TestCrashRecovery:
    @pytest.mark.parametrize("tear", ["truncate", "bad_crc", "trailing_garbage"])
    def test_torn_tail_recovers_to_last_committed_epoch(self, tmp_path, tear):
        store_dir = str(tmp_path / "stream")
        store, sink = stream_epochs(store_dir, epochs=5, nodes_per_epoch=4)
        log = log_path_of(store_dir)
        if tear == "truncate":
            os.truncate(log, os.path.getsize(log) - 5)
        elif tear == "bad_crc":
            with open(log, "rb") as handle:
                data = handle.read()
            with open(log, "wb") as handle:
                handle.write(data[:-1] + bytes([data[-1] ^ 0x01]))
        else:
            with open(log, "ab") as handle:
                handle.write(b"\x00 half a frame")
        lost = 4 if tear in ("truncate", "bad_crc") else 0
        reopened = ProvenanceStore.open(store_dir)
        assert reopened.manifest.node_count == 20 - lost
        assert len(reopened.load_cpg(run=sink.run_id)) == 20 - lost
        # The next append lands on the commit horizon and the store is
        # fully consistent again.
        run_id = sink.run_id
        reopened.append_segment([make_node(2, 0, writes={999})], [], run=run_id)
        reopened.flush()
        final = ProvenanceStore.open(store_dir)
        assert final.manifest.node_count == 21 - lost
        assert SegmentLog(log).valid_bytes == os.path.getsize(log)

    def test_crash_between_log_append_and_index_delta_rebuilds(self, tmp_path):
        # Crash window: the log record committed (it names the epoch's
        # segment and index delta) but the delta file never reached disk.
        # The indexes must be rebuilt from the committed segments.
        store_dir = str(tmp_path / "stream")
        store, sink = stream_epochs(store_dir, epochs=5)
        expected = store.load_cpg(run=sink.run_id)
        run_info = store.manifest.run_info(sink.run_id)
        run_dir = os.path.join(store_dir, INDEX_DIR, run_index_dir_name(sink.run_id))
        os.remove(os.path.join(run_dir, index_delta_file_name(run_info.index_deltas[-1])))
        reopened = ProvenanceStore.open(store_dir)
        merged = reopened.indexes_for(sink.run_id)  # triggers the rebuild
        assert merged.needs_base
        assert len(merged.node_segments) == 20
        assert set(reopened.load_cpg(run=sink.run_id).nodes()) == set(expected.nodes())
        # The rebuild is folded into a base by the next flush.
        reopened.flush()
        clean = ProvenanceStore.open(store_dir)
        assert not clean.indexes_for(sink.run_id).needs_base

    def test_stale_records_after_checkpoint_crash_are_skipped(self, tmp_path):
        # Crash window: the checkpoint manifest renamed into place but the
        # log reset never happened.  Replay must skip every record the
        # checkpoint's log_seq already covers -- applying one would
        # double-append its segments.
        store_dir = str(tmp_path / "stream")
        store, sink = stream_epochs(store_dir, epochs=4)
        log = log_path_of(store_dir)
        with open(log, "rb") as handle:
            stale = handle.read()
        store.flush(checkpoint=True)
        with open(log, "wb") as handle:
            handle.write(stale)  # undo the reset
        reopened = ProvenanceStore.open(store_dir)
        assert reopened.manifest.node_count == 16
        assert reopened.manifest.segment_count == store.manifest.segment_count
        assert reopened.log_state()["uncheckpointed_records"] == 0
        # Appends continue past the stale tail without colliding.
        reopened.append_segment([make_node(3, 0)], [], run=sink.run_id)
        reopened.flush()
        assert ProvenanceStore.open(store_dir).manifest.node_count == 17

    def test_reader_racing_a_checkpoint_refuses_the_gapped_tail(self, tmp_path):
        # Race window (a concurrent reader, not a crash): the reader
        # loads MANIFEST.json, then the writer checkpoints -- folding
        # every log record into a newer manifest and resetting the log --
        # and appends a fresh record before the reader scans
        # segments.log.  That record's seq jumps past everything the
        # stale manifest covers; applying it across the gap would
        # silently drop the folded-in segments while node_count still
        # claims they exist.
        store_dir = str(tmp_path / "stream")
        store, sink = stream_epochs(store_dir, epochs=4)
        stale = ProvenanceStore._read_manifest(store_dir)  # reader's manifest read
        store.flush(checkpoint=True)
        store.append_segment([make_node(5, 0, writes={777})], [], run=sink.run_id)
        store.flush()  # one post-checkpoint record, seq past the stale view
        reader = ProvenanceStore(store_dir, stale)
        reader._manifest_on_disk = True
        assert reader._replay_segment_log() is False  # gap detected
        # The refused tail leaves a consistent (if stale) view: counters
        # agree with the segment table instead of advertising segments
        # the gapped record dropped.
        assert reader.manifest.node_count == sum(
            info.nodes for info in reader.manifest.segments
        )
        assert reader.log_state()["uncheckpointed_records"] == 0
        # A full open re-reads the newer manifest on the gap and replays
        # cleanly, seeing the checkpoint plus the fresh record.
        assert ProvenanceStore.open(store_dir).manifest.node_count == 17

    def test_semantically_invalid_record_stops_replay_and_forces_checkpoint(self, tmp_path):
        # A CRC-valid record whose content contradicts the manifest (here:
        # a segment id that was already committed) must be rejected whole,
        # and the next flush must checkpoint so it can never shadow live
        # appends.
        store_dir = str(tmp_path / "stream")
        store, sink = stream_epochs(store_dir, epochs=3)
        records = SegmentLog(log_path_of(store_dir)).scan()
        forged = dict(records[-1])
        forged["seq"] = records[-1]["seq"] + 1  # replay reaches it...
        forged["segments"] = records[0]["segments"]  # ...but the ids rewind
        SegmentLog(log_path_of(store_dir)).append(forged)
        reopened = ProvenanceStore.open(store_dir)
        assert reopened.manifest.node_count == 12  # forged record not applied
        reopened.flush()  # auto policy: must checkpoint
        assert reopened.log_state()["records"] == 0
        final = ProvenanceStore.open(store_dir)
        assert final.manifest.node_count == 12
        assert final.manifest.log_seq > 0


# ---------------------------------------------------------------------- #
# Introspection
# ---------------------------------------------------------------------- #


class TestIntrospection:
    def test_info_reports_segment_log_state(self, tmp_path):
        store_dir = str(tmp_path / "stream")
        store, sink = stream_epochs(store_dir, epochs=3)
        summary = store.info()
        state = summary["segment_log"]
        assert state["records"] == 3
        assert state["bytes"] > 0
        assert state["uncheckpointed_records"] == 3
        assert state["checkpoint_interval"] == store.checkpoint_interval

    def test_cli_info_surfaces_segment_log(self, tmp_path, capsys):
        from repro.store.__main__ import main as store_cli

        store_dir = str(tmp_path / "stream")
        stream_epochs(store_dir, epochs=3)
        assert store_cli(["info", store_dir, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["segment_log"]["records"] == 3
        assert store_cli(["info", store_dir]) == 0
        text = capsys.readouterr().out
        assert "segment log:" in text
        assert "uncheckpointed" in text
