"""Tests for the store's self-healing layer (:mod:`repro.store.integrity`).

Covers the whole damage lifecycle: codec-level frame checksums, the
per-file checksum columns, structural fsck (including the orphan leak a
crashed ``compact()`` leaves behind), deep scrub with quarantine and
un-quarantine, degraded queries that skip quarantined segments instead of
failing, the server's stable error ``code`` field, the scrub-vs-warm-
reader cache contract, and the cluster anti-entropy e2e: a bit-flipped
replica is detected, quarantined, healed by ``cluster repair`` through a
chaos proxy failover, and passes fsck afterwards.
"""

import json
import os
import shutil
import threading
import zlib

import pytest

from helpers.clusters import build_multirun_store
from helpers.executions import random_cpg
from helpers.faults import ChaosProxy, delete_file, flip_bytes, truncate_file

from repro.errors import CorruptSegmentError, StoreError, StoreReadOnlyError
from repro.store import (
    ClusterManifest,
    ClusterService,
    Endpoint,
    ProvenanceStore,
    ReadScope,
    ShardInfo,
    StoreCluster,
    StoreQueryEngine,
    StoreServer,
    scrub,
    verify_store,
)
from repro.store.__main__ import main as store_cli
from repro.store.codecs import CRC_FRAME_FLAG
from repro.store.format import (
    INDEX_DIR,
    MANIFEST_NAME,
    PAGES_RUNS_FILE,
    SEGMENT_LOG_NAME,
    SEGMENT_MAGIC_PREFIX,
    SEGMENTS_DIR,
    file_size_crc,
)
from repro.store.segment import (
    FRAME_UNVERIFIED,
    FRAME_VERIFIED,
    decode_segment,
    encode_segment,
    verify_frame,
)

ALL_PAGES = list(range(8))


def build_store(path, seeds=(11, 23)):
    store, runs = build_multirun_store(str(path), list(seeds))
    store.close()
    return runs


def segment_path(store_dir, info):
    return os.path.join(str(store_dir), SEGMENTS_DIR, info.file_name)


def first_segment_file(store_dir):
    with ProvenanceStore.open(str(store_dir)) as store:
        info = store.manifest.segments[0]
        return info.segment_id, segment_path(store_dir, info)


def strip_crc_frame(framed: bytes) -> bytes:
    """Rewrite a CRC-bearing frame as its pre-integrity legacy form."""
    pos = len(SEGMENT_MAGIC_PREFIX)
    frame_byte = framed[pos]
    assert frame_byte & CRC_FRAME_FLAG
    header_end = pos + 1 + 8
    return (
        framed[:pos]
        + bytes((frame_byte & ~CRC_FRAME_FLAG,))
        + framed[pos + 1 : header_end]
        + framed[header_end + 4 :]  # drop the 4-byte CRC
    )


# ---------------------------------------------------------------------- #
# Codec-level frame checksums
# ---------------------------------------------------------------------- #


class TestFrameChecksums:
    @staticmethod
    def encode_example():
        cpg = random_cpg(3)
        nodes = [cpg.subcomputation(node_id) for node_id in cpg.nodes()]
        framed, _ = encode_segment(nodes, [])
        return framed

    def test_new_frames_carry_and_verify_a_crc(self):
        framed = self.encode_example()
        assert verify_frame(framed) == FRAME_VERIFIED
        assert decode_segment(framed).nodes  # decode verifies, then parses

    def test_bit_rot_in_the_body_is_detected(self):
        framed = self.encode_example()
        rotted = bytearray(framed)
        rotted[-1] ^= 0xFF
        with pytest.raises(StoreError, match="checksum mismatch"):
            verify_frame(bytes(rotted))
        with pytest.raises(StoreError, match="checksum mismatch"):
            decode_segment(bytes(rotted))

    def test_legacy_frames_read_back_as_unverified(self):
        framed = self.encode_example()
        legacy = strip_crc_frame(framed)
        assert verify_frame(legacy) == FRAME_UNVERIFIED
        assert decode_segment(legacy).nodes == decode_segment(framed).nodes


# ---------------------------------------------------------------------- #
# Per-file checksum columns
# ---------------------------------------------------------------------- #


class TestChecksumColumns:
    def test_manifest_records_size_and_crc_for_every_file(self, tmp_path):
        build_store(tmp_path / "store")
        with ProvenanceStore.open(str(tmp_path / "store")) as store:
            assert store.manifest.segments
            for info in store.manifest.segments:
                assert info.crc is not None
                assert file_size_crc(segment_path(tmp_path / "store", info)) == [
                    info.stored_bytes,
                    info.crc,
                ]
            for run in store.manifest.runs:
                assert run.index_checksums  # at least the base is covered
                run_dir = store._run_index_dir(run.run_id)
                for name, pair in run.index_checksums.items():
                    assert file_size_crc(os.path.join(run_dir, name)) == pair
            recorded = store.manifest.pages_runs_checksum
            assert recorded is not None
            summary = os.path.join(str(tmp_path / "store"), INDEX_DIR, PAGES_RUNS_FILE)
            assert file_size_crc(summary) == recorded

    def test_compact_backfills_missing_segment_checksums(self, tmp_path):
        build_store(tmp_path / "store", seeds=(5, 6, 7))
        # Simulate a store whose manifest predates the checksum column.
        with ProvenanceStore.open(str(tmp_path / "store")) as store:
            for info in store.manifest.segments:
                info.crc = None
            store.flush(checkpoint=True)
        with ProvenanceStore.open(str(tmp_path / "store")) as store:
            assert all(info.crc is None for info in store.manifest.segments)
            store.compact(segment_nodes=64)
            assert store.manifest.segments
            assert all(info.crc is not None for info in store.manifest.segments)


# ---------------------------------------------------------------------- #
# fsck
# ---------------------------------------------------------------------- #


class TestFsck:
    def test_clean_store_passes(self, tmp_path):
        build_store(tmp_path / "store")
        report = verify_store(str(tmp_path / "store"))
        assert report["ok"]
        assert report["problems"] == []
        assert report["checked"]["segments"] > 0

    def test_missing_and_truncated_segments_are_reported(self, tmp_path):
        build_store(tmp_path / "store")
        with ProvenanceStore.open(str(tmp_path / "store")) as store:
            missing = segment_path(tmp_path / "store", store.manifest.segments[0])
            torn = segment_path(tmp_path / "store", store.manifest.segments[1])
        delete_file(missing)
        truncate_file(torn, drop_bytes=3)
        report = verify_store(str(tmp_path / "store"))
        assert not report["ok"]
        kinds = {problem["kind"] for problem in report["problems"]}
        assert {"segment_missing", "segment_size_mismatch"} <= kinds

    def test_missing_index_file_is_a_torn_delta(self, tmp_path):
        build_store(tmp_path / "store")
        with ProvenanceStore.open(str(tmp_path / "store")) as store:
            run = store.manifest.runs[0]
            run_dir = store._run_index_dir(run.run_id)
            name = next(iter(run.index_checksums))
        delete_file(os.path.join(run_dir, name))
        report = verify_store(str(tmp_path / "store"))
        assert not report["ok"]
        assert any(p["kind"] == "index_file_missing" for p in report["problems"])

    def test_torn_log_tail_is_a_warning_not_damage(self, tmp_path):
        build_store(tmp_path / "store")
        log = os.path.join(str(tmp_path / "store"), SEGMENT_LOG_NAME)
        with open(log, "ab") as handle:
            handle.write(b"\x00garbage-from-a-crashed-append")
        report = verify_store(str(tmp_path / "store"))
        assert report["ok"]
        assert any(w["kind"] == "log_torn_tail" for w in report["warnings"])
        assert report["segment_log"]["torn_bytes"] > 0

    def test_crashed_compact_leaks_orphans_fsck_repair_reclaims(self, tmp_path, monkeypatch):
        runs = build_store(tmp_path / "store", seeds=(5, 6, 7))
        store_dir = str(tmp_path / "store")
        with ProvenanceStore.open(store_dir) as store:
            baseline = StoreQueryEngine(store).lineage_of_pages(ALL_PAGES, run=runs[0])
            # Crash compact() after the manifest committed the new
            # generation but before the superseded files were deleted --
            # the orphan-leak window.
            monkeypatch.setattr(
                store,
                "_delete_segments",
                lambda ids: (_ for _ in ()).throw(RuntimeError("crash before delete")),
            )
            with pytest.raises(RuntimeError):
                store.compact(segment_nodes=64)
        report = verify_store(store_dir)
        assert not report["ok"]
        assert report["orphans"]
        assert any(p["kind"] == "orphan_file" for p in report["problems"])

        repaired = verify_store(store_dir, repair=True)
        assert repaired["repaired"] == report["orphans"]
        after = verify_store(store_dir)
        assert after["ok"] and after["orphans"] == []
        with ProvenanceStore.open(store_dir) as store:
            assert (
                StoreQueryEngine(store).lineage_of_pages(ALL_PAGES, run=runs[0])
                == baseline
            )

    def test_cli_exit_codes(self, tmp_path, capsys):
        build_store(tmp_path / "store")
        store_dir = str(tmp_path / "store")
        assert store_cli(["fsck", store_dir]) == 0
        capsys.readouterr()  # drain the human-readable report
        _, seg = first_segment_file(tmp_path / "store")
        truncate_file(seg, drop_bytes=1)
        assert store_cli(["fsck", store_dir, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert any(p["kind"] == "segment_size_mismatch" for p in report["problems"])


# ---------------------------------------------------------------------- #
# scrub + quarantine + degraded reads
# ---------------------------------------------------------------------- #


class TestScrubAndQuarantine:
    def test_clean_scrub_verifies_everything(self, tmp_path):
        build_store(tmp_path / "store")
        with ProvenanceStore.open(str(tmp_path / "store")) as store:
            report = scrub(store, throttle_mb_per_s=200.0)
        assert report["ok"]
        assert report["segments"]["damaged"] == 0
        assert report["segments"]["unverified"] == 0
        assert report["segments"]["verified"] > 0
        assert report["index_files"]["verified"] > 0
        assert report["bytes_verified"] > 0

    def test_bit_flip_is_quarantined_and_unquarantined_after_restore(self, tmp_path):
        build_store(tmp_path / "store")
        store_dir = str(tmp_path / "store")
        segment_id, seg = first_segment_file(tmp_path / "store")
        original = flip_bytes(seg, -2)
        with ProvenanceStore.open(store_dir) as store:
            report = scrub(store)
            assert not report["ok"]
            assert report["quarantined"] == [segment_id]
            assert store.is_quarantined(segment_id)
        # The mark is durable: a fresh open still refuses the segment.
        with ProvenanceStore.open(store_dir) as store:
            assert store.is_quarantined(segment_id)
            with pytest.raises(CorruptSegmentError) as exc_info:
                store.segment(segment_id)
            assert exc_info.value.code == "quarantined"
        fsck = verify_store(store_dir)
        assert not fsck["ok"]
        assert str(segment_id) in fsck["quarantined"]
        # Repair in place (restore the original bytes): scrub lifts the mark.
        with open(seg, "r+b") as handle:
            handle.seek(os.path.getsize(seg) - 2)
            handle.write(original)
        with ProvenanceStore.open(store_dir) as store:
            healed = scrub(store)
            assert healed["ok"]
            assert healed["unquarantined"] == [segment_id]
        assert verify_store(store_dir)["ok"]

    def test_scrub_without_quarantine_only_reports(self, tmp_path):
        build_store(tmp_path / "store")
        store_dir = str(tmp_path / "store")
        _, seg = first_segment_file(tmp_path / "store")
        flip_bytes(seg, -2)
        with ProvenanceStore.open(store_dir) as store:
            report = scrub(store, quarantine=False)
            assert not report["ok"]
            assert report["quarantined"] == []
        with ProvenanceStore.open(store_dir) as store:
            assert store.quarantined_segments() == {}

    def test_legacy_manifest_scrubs_unverified_without_upgrading(self, tmp_path):
        build_store(tmp_path / "store")
        store_dir = str(tmp_path / "store")
        # Strip the integrity columns: what a store written by the
        # previous release looks like after opening under this one.
        manifest_path = os.path.join(store_dir, MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            data = json.load(handle)
        for entry in data["segments"]:
            entry.pop("crc", None)
        for entry in data["runs"]:
            entry.pop("index_checksums", None)
        data.pop("pages_runs_checksum", None)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        before = os.path.getsize(manifest_path)
        with ProvenanceStore.open(store_dir) as store:
            report = scrub(store)
        # Frames still carry their CRC, so segments verify; the index
        # files have no recorded checksum and count as unverified.
        assert report["ok"]
        assert report["segments"]["damaged"] == 0
        assert report["index_files"]["unverified"] > 0
        # A clean scrub writes nothing -- it must not upgrade the store.
        assert os.path.getsize(manifest_path) == before

    def test_upgraded_legacy_store_regains_full_coverage(self, tmp_path):
        """A pre-integrity store queries unchanged; one compact() upgrades it.

        Rewrites every segment as a legacy (CRC-less) frame and strips
        the manifest's checksum columns -- what a store written before
        this release looks like -- then checks the documented ladder:
        still opens and queries, scrubs clean but `unverified`, and a
        single compact() backfills both layers so the next bit flip is
        caught.
        """
        runs = build_store(tmp_path / "store", seeds=(71,))
        store_dir = str(tmp_path / "store")
        with ProvenanceStore.open(store_dir) as store:
            baseline = StoreQueryEngine(store).lineage_of_pages(ALL_PAGES, run=runs[0])
            seg_paths = [
                segment_path(tmp_path / "store", info)
                for info in store.manifest.segments
            ]
        for seg in seg_paths:
            with open(seg, "rb") as handle:
                framed = handle.read()
            with open(seg, "wb") as handle:
                handle.write(strip_crc_frame(framed))
        manifest_path = os.path.join(store_dir, MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            data = json.load(handle)
        for entry in data["segments"]:
            entry.pop("crc", None)
            entry["stored_bytes"] -= 4  # the dropped CRC field
        for entry in data["runs"]:
            entry.pop("index_checksums", None)
        data.pop("pages_runs_checksum", None)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

        assert verify_store(store_dir)["ok"]
        with ProvenanceStore.open(store_dir) as store:
            assert (
                StoreQueryEngine(store).lineage_of_pages(ALL_PAGES, run=runs[0])
                == baseline
            )
            report = scrub(store)
            assert report["ok"]
            assert report["segments"]["unverified"] == len(seg_paths)
            assert report["segments"]["verified"] == 0
        with ProvenanceStore.open(store_dir) as store:
            store.compact(segment_nodes=64)
        with ProvenanceStore.open(store_dir) as store:
            report = scrub(store)
            assert report["ok"]
            assert report["segments"]["unverified"] == 0
            assert report["segments"]["verified"] > 0
            assert (
                StoreQueryEngine(store).lineage_of_pages(ALL_PAGES, run=runs[0])
                == baseline
            )
        # Coverage is back: damage is detectable again.
        _, seg = first_segment_file(tmp_path / "store")
        flip_bytes(seg, -2)
        with ProvenanceStore.open(store_dir) as store:
            assert not scrub(store, quarantine=False)["ok"]

    def test_corruption_sweep_every_file_class_is_caught(self, tmp_path):
        """Flip one byte in each class of store file; scrub flags each."""
        build_store(tmp_path / "store", seeds=(9,))
        store_dir = str(tmp_path / "store")
        targets = []
        with ProvenanceStore.open(store_dir) as store:
            targets.append(segment_path(tmp_path / "store", store.manifest.segments[0]))
            run = store.manifest.runs[0]
            run_dir = store._run_index_dir(run.run_id)
            targets.extend(os.path.join(run_dir, name) for name in run.index_checksums)
            targets.append(os.path.join(store_dir, INDEX_DIR, PAGES_RUNS_FILE))
        for target in targets:
            original = flip_bytes(target, len(open(target, "rb").read()) // 2)
            with ProvenanceStore.open(store_dir) as store:
                report = scrub(store, quarantine=False)
            assert not report["ok"], f"scrub missed damage in {target}"
            assert len(report["damage"]) == 1
            offset = os.path.getsize(target) // 2
            with open(target, "r+b") as handle:
                handle.seek(offset)
                handle.write(original)
        with ProvenanceStore.open(store_dir) as store:
            assert scrub(store)["ok"]

    def test_queries_degrade_instead_of_failing(self, tmp_path):
        runs = build_store(tmp_path / "store", seeds=(11,))
        store_dir = str(tmp_path / "store")
        with ProvenanceStore.open(store_dir) as store:
            engine = StoreQueryEngine(store)
            baseline = engine.lineage_of_pages(ALL_PAGES, run=runs[0])
            indexes = store.indexes_for(runs[0])
            # Pick a segment the lineage walk actually reads: the first
            # backward-expansion hop of some page writer.
            hot = next(
                segment_id
                for page in ALL_PAGES
                for writer in indexes.writers_of_page(page)
                for segment_id in indexes.in_segments(writer)
            )
            victim_nodes = list(store.segment(hot).nodes)
            info = store.manifest.segment_info(hot)
        flip_bytes(segment_path(tmp_path / "store", info), -2)
        with ProvenanceStore.open(store_dir) as store:
            scope = ReadScope()
            engine = StoreQueryEngine(store, scope=scope)
            degraded = engine.lineage_of_pages(ALL_PAGES, run=runs[0])
            assert degraded <= baseline  # skipped, never wrong or raised
            assert scope.degraded
            assert hot in scope.quarantined_segments
            assert scope.to_dict()["quarantined_segments"] == sorted(
                scope.quarantined_segments
            )
            # Point lookups have no partial answer: typed error instead.
            with pytest.raises(CorruptSegmentError) as exc_info:
                engine.subcomputation(victim_nodes[0], run=runs[0])
            assert exc_info.value.code in ("corrupt_segment", "quarantined")
            assert exc_info.value.segment_id == hot

    def test_scrub_cli_quarantines_and_exits_nonzero(self, tmp_path, capsys):
        build_store(tmp_path / "store")
        store_dir = str(tmp_path / "store")
        assert store_cli(["scrub", store_dir]) == 0
        capsys.readouterr()  # drain the human-readable report
        segment_id, seg = first_segment_file(tmp_path / "store")
        flip_bytes(seg, -2)
        assert store_cli(["scrub", store_dir, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["quarantined"] == [segment_id]
        with ProvenanceStore.open(store_dir) as store:
            assert store.is_quarantined(segment_id)


# ---------------------------------------------------------------------- #
# Scrub next to warm readers
# ---------------------------------------------------------------------- #


class TestScrubVersusWarmReaders:
    def test_scrub_leaves_the_warm_cache_alone(self, tmp_path):
        build_store(tmp_path / "store", seeds=(21, 22, 23))
        store_dir = str(tmp_path / "store")
        server = StoreServer(store_dir, parallelism=2)
        try:
            request = {"op": "lineage_across_runs", "pages": ALL_PAGES}
            baseline = server.handle_request(request)
            assert baseline["ok"]
            server.handle_request(request)  # fully warm now
            misses_before = server.cache.stats.misses
            errors = []
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    response = server.handle_request(request)
                    if not response.get("ok") or response["result"] != baseline["result"]:
                        errors.append(response)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            with ProvenanceStore.open(store_dir) as handle:
                for _ in range(3):
                    report = scrub(handle, throttle_mb_per_s=50.0)
                    assert report["ok"]
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            assert not errors
            # Scrub reads the files directly, never through the decoded-
            # segment cache: the warm working set took zero new misses.
            assert server.cache.stats.misses == misses_before
        finally:
            server.close()


# ---------------------------------------------------------------------- #
# Server error codes
# ---------------------------------------------------------------------- #


class TestServerErrorCodes:
    def test_read_only_ingest_reports_its_code(self, tmp_path):
        build_store(tmp_path / "store")
        server = StoreServer(str(tmp_path / "store"))
        try:
            response = server.handle_request({"op": "begin_run"})
            assert not response["ok"]
            assert response["code"] == "read_only"
        finally:
            server.close()

    def test_bad_requests_report_bad_request(self, tmp_path):
        build_store(tmp_path / "store")
        server = StoreServer(str(tmp_path / "store"))
        try:
            for request in (
                {"op": "no-such-op"},
                {"op": "slice"},  # missing params
                {"not": "a request"},
            ):
                response = server.handle_request(request)
                assert not response["ok"]
                assert response["code"] == "bad_request"
        finally:
            server.close()

    def test_corrupt_segment_errors_carry_their_code(self, tmp_path):
        assert CorruptSegmentError("x", segment_id=1).code == "corrupt_segment"
        assert CorruptSegmentError("x", segment_id=1, quarantined=True).code == "quarantined"
        assert StoreReadOnlyError("x").code == "read_only"
        assert StoreError("x").code == "bad_request"

    def test_stats_surface_quarantine_state(self, tmp_path):
        build_store(tmp_path / "store")
        store_dir = str(tmp_path / "store")
        segment_id, seg = first_segment_file(tmp_path / "store")
        flip_bytes(seg, -2)
        with ProvenanceStore.open(store_dir) as store:
            scrub(store)
        server = StoreServer(store_dir)
        try:
            stats = server.handle_request({"op": "stats"})["result"]
            assert stats["degraded"]
            assert stats["quarantined_segments"] == [segment_id]
        finally:
            server.close()


# ---------------------------------------------------------------------- #
# Cluster anti-entropy repair (the acceptance e2e)
# ---------------------------------------------------------------------- #


class TestClusterRepair:
    def test_kill_corrupt_repair_requery(self, tmp_path):
        """Bit rot on a replica: detected, quarantined, healed, re-verified."""
        runs = build_store(tmp_path / "primary", seeds=(31, 32))
        primary_dir = str(tmp_path / "primary")
        replica_dir = str(tmp_path / "replica")
        shutil.copytree(primary_dir, replica_dir)

        primary = StoreServer(primary_dir)
        replica = StoreServer(replica_dir)
        primary_addr = "%s:%d" % primary.start()
        replica_addr = "%s:%d" % replica.start()
        proxy = ChaosProxy(target=primary.address, mode="pass")
        try:
            manifest = ClusterManifest(
                shards=[
                    ShardInfo(
                        "shard-0",
                        Endpoint(address="%s:%d" % proxy.address, path=primary_dir),
                        replicas=[Endpoint(address=replica_addr, path=replica_dir)],
                    )
                ],
                policy="run-hash",
            )
            cluster = StoreCluster(
                manifest, client_options={"timeout": 5.0, "retries": 0}
            )
            baseline = {run: cluster.lineage(ALL_PAGES, run=run) for run in runs}

            # Bit-rot one replica segment, then scrub the replica: the
            # damage is quarantined durably without touching the primary.
            segment_id, seg = first_segment_file(tmp_path / "replica")
            flip_bytes(seg, -2)
            with ProvenanceStore.open(replica_dir) as store:
                report = scrub(store)
            assert report["quarantined"] == [segment_id]

            # Kill the primary (proxy goes dark): queries fail over to the
            # damaged replica and still answer -- degraded, never failing.
            replica.refresh()  # pick up the quarantine marks
            proxy.mode = "drop"
            for run in runs:
                degraded = cluster.lineage(ALL_PAGES, run=run)
                assert degraded <= baseline[run]
            fanout = cluster.last_fanout
            assert fanout["shards"][-1]["address"] == replica_addr

            # Primary back up: anti-entropy streams exactly the damaged
            # file (plus log + manifest) and refreshes the live replica.
            proxy.mode = "pass"
            repair_report = cluster.repair("shard-0")
            shard_report = repair_report["shards"][0]
            fetched = shard_report["replicas"][0]["fetched"]
            assert os.path.join(SEGMENTS_DIR, os.path.basename(seg)).replace(
                os.sep, "/"
            ) in fetched
            assert SEGMENT_LOG_NAME in fetched and MANIFEST_NAME in fetched
            assert shard_report["replicas"][0]["refreshed"]
            assert cluster.fanout_stats()["repairs"]["runs"] == 1
            assert cluster.fanout_stats()["repairs"]["files_fetched"] >= 3

            # The healed replica answers in full and passes fsck + scrub.
            proxy.mode = "drop"
            for run in runs:
                assert cluster.lineage(ALL_PAGES, run=run) == baseline[run]
            assert verify_store(replica_dir)["ok"]
            with ProvenanceStore.open(replica_dir) as store:
                assert scrub(store)["ok"]
                assert store.quarantined_segments() == {}
        finally:
            proxy.close()
            primary.close()
            replica.close()

    def test_repair_fetches_nothing_when_replicas_match(self, tmp_path):
        build_store(tmp_path / "primary", seeds=(41,))
        primary_dir = str(tmp_path / "primary")
        replica_dir = str(tmp_path / "replica")
        shutil.copytree(primary_dir, replica_dir)
        primary = StoreServer(primary_dir)
        address = "%s:%d" % primary.start()
        try:
            manifest = ClusterManifest(
                shards=[
                    ShardInfo(
                        "shard-0",
                        Endpoint(address=address, path=primary_dir),
                        replicas=[Endpoint(address="", path=replica_dir)],
                    )
                ],
                policy="run-hash",
            )
            cluster = StoreCluster(manifest)
            report = cluster.repair()
            replica_report = report["shards"][0]["replicas"][0]
            # Only the metadata pair is refreshed; every data file matched.
            assert replica_report["fetched"] == [SEGMENT_LOG_NAME, MANIFEST_NAME]
            assert replica_report["files_matched"] > 0
            assert verify_store(replica_dir)["ok"]
        finally:
            primary.close()

    def test_repair_cli(self, tmp_path, capsys):
        build_store(tmp_path / "primary", seeds=(51,))
        primary_dir = str(tmp_path / "primary")
        replica_dir = str(tmp_path / "replica")
        shutil.copytree(primary_dir, replica_dir)
        _, seg = first_segment_file(tmp_path / "replica")
        flip_bytes(seg, -2)
        primary = StoreServer(primary_dir)
        address = "%s:%d" % primary.start()
        try:
            manifest = ClusterManifest(
                shards=[
                    ShardInfo(
                        "shard-0",
                        Endpoint(address=address, path=primary_dir),
                        replicas=[Endpoint(address="", path=replica_dir)],
                    )
                ],
                policy="run-hash",
            )
            cluster_json = str(tmp_path / "cluster.json")
            manifest.save(cluster_json)
            assert store_cli(["cluster", "repair", cluster_json, "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["files_fetched"] >= 3
            assert verify_store(replica_dir)["ok"]
        finally:
            primary.close()

    def test_fetch_file_rejects_paths_outside_the_store(self, tmp_path):
        build_store(tmp_path / "store")
        server = StoreServer(str(tmp_path / "store"))
        try:
            for bad in ("../secrets", "segments/../MANIFEST.json.bak", "/etc/passwd", "foo"):
                response = server.handle_request({"op": "fetch_file", "path": bad})
                assert not response["ok"]
                assert "does not name a store file" in response["error"]
            digest = server.handle_request({"op": "manifest_digest"})
            assert digest["ok"]
            some_file = sorted(digest["result"]["files"])[0]
            fetched = server.handle_request({"op": "fetch_file", "path": some_file})
            assert fetched["ok"]
            data = fetched["result"]
            assert zlib.crc32(
                __import__("base64").b64decode(data["data"])
            ) & 0xFFFFFFFF == data["crc"]
        finally:
            server.close()

    def test_manifest_digest_omits_quarantined_segments(self, tmp_path):
        build_store(tmp_path / "store")
        store_dir = str(tmp_path / "store")
        segment_id, seg = first_segment_file(tmp_path / "store")
        flip_bytes(seg, -2)
        with ProvenanceStore.open(store_dir) as store:
            scrub(store)
        server = StoreServer(store_dir)
        try:
            digest = server.handle_request({"op": "manifest_digest"})["result"]
            rel = "%s/%s" % (SEGMENTS_DIR, os.path.basename(seg))
            assert rel not in digest["files"]
            assert str(segment_id) in digest["quarantined"]
        finally:
            server.close()
