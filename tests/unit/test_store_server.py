"""Tests for the warm query server (:mod:`repro.store.server`).

The server holds one decoded-segment cache and one index pinner across
many concurrent read-only queries; these tests check protocol round-trips
against the direct engine, per-query stats, snapshot refresh, and a
multithreaded reader hammer over one warm cache -- plus the full-duplex
surface: remote ingest through a writable server, follow-mode bounded
staleness, live-tail ``watch`` streams, and the client's retry policy.
"""

import contextlib
import json
import os
import socket
import tempfile
import threading
import time
from collections import defaultdict

import pytest

from helpers.faults import ChaosProxy, crashable_server

from repro.core.algorithm import ProvenanceTracker
from repro.core.cpg import EdgeKind
from repro.core.dependencies import derive_data_edges
from repro.core.queries import (
    backward_slice,
    forward_slice,
    lineage_of_pages,
    propagate_taint,
)
from repro.errors import StoreError, StoreUnreachableError
from repro.inspector.api import run_with_provenance
from repro.store import (
    ProvenanceStore,
    RemoteStoreSink,
    StoreClient,
    StoreQueryEngine,
    StoreServer,
    StoreSink,
)


def build_cpg(threads: int = 3, steps: int = 3):
    tracker = ProvenanceTracker()
    tracker.register_input_pages({500, 501})
    lock = 9
    for tid in range(1, threads + 1):
        tracker.on_thread_start(tid)
    page = 0
    for step in range(steps):
        for tid in range(1, threads + 1):
            tracker.on_sync_boundary(tid, "mutex_lock")
            tracker.on_acquire(tid, lock)
            tracker.begin_next(tid)
            tracker.on_memory_access(tid, 500 if step == 0 else page - 1, is_write=False)
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
def served(tmp_path):
    """A two-run store with a running server; yields (cpg, dir, server, client)."""
    cpg = build_cpg()
    store_dir = str(tmp_path / "store")
    store = ProvenanceStore.create(store_dir)
    store.ingest(cpg, segment_nodes=3)
    store.ingest(cpg, segment_nodes=3)
    server = StoreServer(store_dir)
    host, port = server.start()
    client = StoreClient(host, port, timeout=10.0)
    yield cpg, store_dir, server, client
    client.close()
    server.close()


class TestProtocol:
    def test_ping_info_runs(self, served):
        _, store_dir, _, client = served
        assert client.ping() is True
        info = client.info()
        assert info["segments"] == ProvenanceStore.open(store_dir).manifest.segment_count
        assert [run["id"] for run in client.runs()] == [1, 2]

    def test_queries_match_direct_engine(self, served):
        cpg, _, _, client = served
        origin = [
            n
            for n in cpg.nodes()
            if n[0] >= 0 and cpg.subcomputation(n).write_set
        ][-1]
        pages = sorted(cpg.subcomputation(origin).write_set)[:1]
        assert client.backward_slice(origin, run=1) == backward_slice(cpg, origin)
        assert client.forward_slice((1, 0), run=2) == forward_slice(cpg, (1, 0))
        assert client.lineage(pages, run=1) == lineage_of_pages(cpg, pages)
        taint = client.taint(pages, run=2)
        expected = propagate_taint(cpg, pages)
        assert taint["tainted_nodes"] == expected.tainted_nodes
        assert set(taint["tainted_pages"]) == expected.tainted_pages
        across = client.lineage_across_runs(pages)
        assert across == {1: lineage_of_pages(cpg, pages), 2: lineage_of_pages(cpg, pages)}

    def test_compare_lineage_roundtrip(self, served):
        cpg, _, _, client = served
        origin = [
            n
            for n in cpg.nodes()
            if n[0] >= 0 and cpg.subcomputation(n).write_set
        ][-1]
        page = sorted(cpg.subcomputation(origin).write_set)[0]
        diff = client.result("compare_lineage", run_a=1, run_b=2, pages=page)
        assert diff["identical"] is True
        assert diff["only_a"] == [] and diff["only_b"] == []

    def test_per_query_stats_show_warm_hits(self, served):
        cpg, _, _, client = served
        origin = [
            n
            for n in cpg.nodes()
            if n[0] >= 0 and cpg.subcomputation(n).write_set
        ][-1]
        pages = sorted(cpg.subcomputation(origin).write_set)[:1]
        cold = client.request("lineage", pages=pages, run=1)["stats"]
        assert cold["cache_misses"] > 0 and cold["segments_read"] == cold["cache_misses"]
        warm = client.request("lineage", pages=pages, run=1)["stats"]
        assert warm["segments_read"] == 0
        assert warm["cache_hits"] > 0
        assert warm["elapsed_ms"] >= 0

    def test_bad_requests_are_errors_not_disconnects(self, served):
        _, _, _, client = served
        with pytest.raises(StoreError, match="unknown op"):
            client.request("frobnicate")
        with pytest.raises(StoreError, match="bad request parameters"):
            client.request("lineage")  # pages missing
        with pytest.raises(StoreError, match="no run"):
            client.request("lineage", pages=[1], run=99)
        with pytest.raises(StoreError, match="malformed node key"):
            client.request("slice", node="garbage", run=1)
        assert client.ping() is True  # the server survived all of it

    def test_server_stats_and_shutdown(self, served):
        _, _, server, client = served
        client.ping()
        stats = client.stats()
        assert stats["queries_served"] >= 1
        assert stats["runs"] == 2
        assert stats["segment_cache"]["max_bytes"] > 0
        assert client.shutdown()["stopping"] is True


class TestSnapshotRefresh:
    def test_refresh_picks_up_new_runs_and_keeps_the_cache_warm(self, served):
        cpg, store_dir, server, client = served
        origin = [
            n
            for n in cpg.nodes()
            if n[0] >= 0 and cpg.subcomputation(n).write_set
        ][-1]
        pages = sorted(cpg.subcomputation(origin).write_set)[:1]
        client.lineage(pages, run=1)  # warm the cache
        assert len(server.cache) > 0
        # A writer lands a third run between snapshots...
        writer = ProvenanceStore.open(store_dir)
        writer.ingest(cpg, segment_nodes=3)
        assert [run["id"] for run in client.runs()] == [1, 2]  # snapshot: unchanged
        refreshed = client.refresh()
        assert refreshed["runs"] == 3
        assert [run["id"] for run in client.runs()] == [1, 2, 3]
        # ...and the warm entries survived the snapshot swap.
        assert len(server.cache) > 0
        warm = client.request("lineage", pages=pages, run=1)["stats"]
        assert warm["segments_read"] == 0 and warm["cache_hits"] > 0
        assert client.lineage(pages, run=3) == lineage_of_pages(cpg, pages)

    def test_refresh_drops_warm_state_for_a_recreated_store(self, served, tmp_path):
        """Deleting + recreating the store directory must not serve stale bytes."""
        import shutil

        cpg, store_dir, server, client = served
        origin = [
            n
            for n in cpg.nodes()
            if n[0] >= 0 and cpg.subcomputation(n).write_set
        ][-1]
        pages = sorted(cpg.subcomputation(origin).write_set)[:1]
        client.lineage(pages, run=1)  # warm the cache against the old store
        assert len(server.cache) > 0
        # Recreate the directory: a *different* graph, counters restarted.
        shutil.rmtree(store_dir)
        different = build_cpg(threads=2, steps=2)
        recreated = ProvenanceStore.create(store_dir)
        recreated.ingest(different, segment_nodes=3)
        client.refresh()
        assert [run["id"] for run in client.runs()] == [1]
        # Answers come from the recreated store, not the stale warm state:
        # a page both graphs touched gets the new graph's lineage, and the
        # old graph's origin node (absent from the new one) is an error,
        # not a cached payload.
        assert client.lineage([0], run=1) == lineage_of_pages(different, [0])
        with pytest.raises(StoreError, match="no sub-computation"):
            client.backward_slice(origin, run=1)

    def test_explicit_refreshes_serialize_with_follow_refreshes(self, served):
        # refresh() takes the refresh lock itself, so the explicit op can
        # never interleave with a follow-mode refresh and install the
        # older of two freshly opened snapshots last: a follow reader's
        # view of the store only ever moves forward, even while explicit
        # refreshes hammer the server and a writer checkpoints under it.
        cpg, store_dir, server, _ = served
        errors = []
        stop = threading.Event()

        def explicit():
            try:
                while not stop.is_set():
                    server.refresh()
                    time.sleep(0.001)
            except Exception as exc:  # noqa: BLE001 - reported via the main thread
                errors.append(exc)

        threads = [threading.Thread(target=explicit) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            host, port = server.address
            follow = StoreClient(host, port, timeout=10.0, refresh_mode="follow")
            writer = ProvenanceStore.open(store_dir)
            seen = 0
            for _ in range(5):
                writer.ingest(cpg, segment_nodes=3)
                count = len(follow.runs())
                assert count >= seen, "the served view went backwards"
                seen = count
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, f"explicit refreshes failed: {errors[:3]}"
        assert len(follow.runs()) == 7


class TestHammer:
    def test_concurrent_readers_over_one_warm_cache(self, served):
        cpg, _, server, client = served
        origin = [
            n
            for n in cpg.nodes()
            if n[0] >= 0 and cpg.subcomputation(n).write_set
        ][-1]
        pages = sorted(cpg.subcomputation(origin).write_set)[:1]
        seed = sorted(cpg.subcomputation(cpg.input_node).write_set)
        expected_slice = backward_slice(cpg, origin)
        expected_lineage = lineage_of_pages(cpg, pages)
        expected_flood = propagate_taint(cpg, seed).tainted_nodes
        errors = []
        rounds = 8

        def reader(tid: int) -> None:
            try:
                for round_no in range(rounds):
                    run = 1 + (tid + round_no) % 2
                    assert client.backward_slice(origin, run=run) == expected_slice
                    assert client.lineage(pages, run=run) == expected_lineage
                    taint = client.taint(seed, run=run)
                    assert taint["tainted_nodes"] == expected_flood
                    assert client.lineage_across_runs(pages) == {
                        1: expected_lineage,
                        2: expected_lineage,
                    }
            except Exception as exc:  # noqa: BLE001 - reported via the main thread
                errors.append((tid, exc))

        threads = [threading.Thread(target=reader, args=(tid,)) for tid in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, f"hammer readers failed: {errors[:3]}"
        stats = server.server_stats()
        assert stats["queries_served"] >= 6 * rounds * 4
        assert stats["segment_cache"]["hits"] > 0
        # The byte budget held under concurrency as well.
        assert server.cache.total_bytes <= server.cache.max_bytes
        assert server.cache.peak_bytes <= server.cache.max_bytes


# ---------------------------------------------------------------------- #
# Client retry policy
# ---------------------------------------------------------------------- #


class TestClientRetry:
    def test_dead_server_surfaces_store_error_after_retries(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = StoreClient("127.0.0.1", port, timeout=2.0, retries=1, backoff=0.001)
        with pytest.raises(StoreUnreachableError, match="unreachable after 2 attempts"):
            client.ping()

    def test_idempotent_ops_retry_but_sent_ingest_ops_fail_fast(self):
        # ChaosProxy in drop mode: accepts and immediately closes, the
        # "listener up, service dead" shape the old ad-hoc socket loop
        # here used to hand-roll.
        with ChaosProxy(mode="drop") as proxy:
            host, port = proxy.address
            client = StoreClient(host, port, timeout=2.0, retries=2, backoff=0.001)
            # Read op: the dropped reply is retried until retries exhaust.
            with pytest.raises(StoreError, match="unreachable after 3 attempts"):
                client.request("ping")
            assert proxy.connections == 3
            # Ingest op: once sent, a blind resend could double-apply.
            proxy.connections = 0
            with pytest.raises(StoreError, match="non-idempotent"):
                client.request("begin_run", workload="x")
            assert proxy.connections == 1

    def test_exhaustion_raises_immediately_without_trailing_backoff(self):
        # Regression guard: backoff must only be paid *between* attempts.
        # With retries=2 the sleeps are 0.2 + 0.4 = 0.6s; a buggy loop
        # that also sleeps the next doubled delay (0.8s) after the final
        # failure would push well past the 1.1s bound asserted here.
        with ChaosProxy(mode="drop") as proxy:
            host, port = proxy.address
            client = StoreClient(host, port, timeout=2.0, retries=2, backoff=0.2)
            start = time.monotonic()
            with pytest.raises(StoreUnreachableError, match="unreachable after 3 attempts"):
                client.request("ping")
            elapsed = time.monotonic() - start
        assert proxy.connections == 3
        assert 0.6 <= elapsed < 1.1, (
            f"exhaustion took {elapsed:.3f}s; the inter-attempt sleeps total "
            f"0.6s, so anything near 1.4s means a trailing backoff slipped back in"
        )

    def test_reset_and_half_close_faults_are_retried_through(self):
        # A real server behind the proxy: the first connection dies with
        # a hard RST (or a half-delivered response); the retry passes
        # through and must return the real answer.  The fault must reach
        # the client as a prompt reset: a retry that starts only when the
        # client's 5 s timeout ends would test the timeout instead.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store")
            ProvenanceStore.create(path).ingest(build_cpg(), workload="chaos")
            server = StoreServer(path)
            server.start()
            try:
                for mode in ("reset", "half_close"):
                    with ChaosProxy(
                        target=server.address, mode=mode, fault_budget=1
                    ) as proxy:
                        host, port = proxy.address
                        client = StoreClient(
                            host, port, timeout=5.0, retries=3, backoff=0.01
                        )
                        start = time.monotonic()
                        assert client.ping() is True
                        elapsed = time.monotonic() - start
                        assert proxy.faulted == 1
                        assert proxy.connections == 2
                        assert elapsed < 2.0, (
                            f"{mode}: the retried ping took {elapsed:.3f}s, "
                            f"so the client waited for its timeout"
                        )
            finally:
                server.close()

    def test_from_url_forms(self):
        assert StoreClient.from_url("localhost:7000").port == 7000
        assert StoreClient.from_url("store://box:7001").host == "box"
        assert StoreClient.from_url("tcp://box:7002").port == 7002
        with pytest.raises(StoreError, match="unsupported store url scheme"):
            StoreClient.from_url("http://box:80")
        with pytest.raises(StoreError, match="malformed store url"):
            StoreClient.from_url("no-port-here")


# ---------------------------------------------------------------------- #
# Kept connections
# ---------------------------------------------------------------------- #


class TestKeptConnections:
    def test_requests_share_one_kept_connection(self, served):
        _, _, server, _ = served
        with ChaosProxy(target=server.address) as proxy:
            with StoreClient(*proxy.address, timeout=10.0) as client:
                for _ in range(50):
                    assert client.ping() is True
            assert proxy.connections == 1

    def test_restarted_server_takes_ingest_on_a_fresh_connection(self, tmp_path):
        # The crash breaks the client's kept connection; the client finds
        # it closed before sending, so begin_run (never resent once sent)
        # goes out on a new connection instead of failing fast.
        store_dir = str(tmp_path / "store")
        ProvenanceStore.create(store_dir)
        with crashable_server(store_dir, writable=True) as crashable:
            with StoreClient(*crashable.address, timeout=10.0, retries=0) as client:
                assert client.begin_run(workload="before") == 1
                crashable.crash()
                crashable.restart()
                assert client.begin_run(workload="after") == 2

    def test_closed_server_answers_nothing_on_a_kept_connection(self, served):
        _, _, server, _ = served
        conn = socket.create_connection(server.address, timeout=5.0)
        with conn, conn.makefile("rb") as reader:
            conn.sendall(b'{"op": "ping"}\n')
            assert json.loads(reader.readline())["result"] == {"pong": True}
            assert server.open_connections == 1
            server.close()
            with contextlib.suppress(OSError):
                conn.sendall(b'{"op": "ping"}\n')
            assert reader.readline() == b""
        assert server.open_connections == 0

    def test_a_timed_out_reply_is_never_read_as_the_next_answer(self, served, monkeypatch):
        # The server answers one info request only after the client gave
        # up on it.  The timeout closed that connection, so the next
        # request goes out on a new one and reads its own reply, not the
        # late info reply.
        _, _, server, _ = served
        answer = server.handle_request
        late = threading.Event()

        def slow_info(request):
            if request.get("op") == "info" and not late.is_set():
                late.set()
                time.sleep(0.6)
            return answer(request)

        monkeypatch.setattr(server, "handle_request", slow_info)
        with ChaosProxy(target=server.address) as proxy:
            with StoreClient(*proxy.address, timeout=0.2, retries=0) as client:
                assert client.ping() is True
                with pytest.raises(StoreUnreachableError, match="timed out"):
                    client.info()
                assert [run["id"] for run in client.runs()] == [1, 2]
                assert client.ping() is True
            assert proxy.connections == 2

    def test_threads_sharing_a_client_open_at_most_one_connection_each(self, served):
        cpg, _, server, _ = served
        pages = sorted(cpg.subcomputation((1, 1)).write_set)
        expected = lineage_of_pages(cpg, pages)
        width = 4
        start = threading.Barrier(width)
        answers = []

        def reader() -> None:
            start.wait()
            for _ in range(20):
                answers.append(client.lineage(pages, run=1))

        with ChaosProxy(target=server.address) as proxy:
            with StoreClient(*proxy.address, timeout=10.0) as client:
                threads = [threading.Thread(target=reader) for _ in range(width)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            assert 1 <= proxy.connections <= width
        assert answers == [expected] * (width * 20)


# ---------------------------------------------------------------------- #
# Remote ingest + live tail
# ---------------------------------------------------------------------- #


def publish_run(sink, cpg, pause_every=0, pause=0.0):
    """Feed ``cpg`` through ``sink`` exactly as a live tracker would.

    Nodes go out in topological order with the control/sync edges
    recorded at their publication; the derived data edges ship in
    ``finish`` (they need the full happens-before order), same as a real
    traced run.
    """
    edges_by_target = defaultdict(list)
    for source, target, attrs in cpg.edges():
        kind = attrs["kind"]
        if kind is EdgeKind.DATA:
            continue
        extra = {key: value for key, value in attrs.items() if key != "kind"}
        edges_by_target[target].append((source, target, kind, extra))
    for position, node_id in enumerate(cpg.topological_order()):
        sink.subcomputation_published(
            cpg.subcomputation(node_id), edges_by_target.get(node_id, [])
        )
        if pause_every and position % pause_every == pause_every - 1:
            time.sleep(pause)
    sink.finish(cpg)


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


@pytest.fixture()
def writable(tmp_path):
    """An empty writable server; yields (dir, server, host, port)."""
    store_dir = str(tmp_path / "remote")
    ProvenanceStore.create(store_dir)
    server = StoreServer(store_dir, writable=True)
    host, port = server.start()
    yield store_dir, server, host, port
    server.close()


class TestRemoteIngest:
    def test_read_only_server_rejects_ingest_ops(self, served):
        _, _, _, client = served
        for op, params in (
            ("begin_run", {"workload": "x"}),
            ("append_epoch", {"run": 1, "segment": ""}),
            ("commit_run", {"run": 1}),
        ):
            with pytest.raises(StoreError, match="read-only"):
                client.request(op, **params)
        assert client.ping() is True

    def test_ingest_ops_require_an_active_run(self, writable):
        _, _, host, port = writable
        client = StoreClient(host, port, timeout=10.0)
        with pytest.raises(StoreError, match="no active remote ingest"):
            client.commit_run(99)
        with pytest.raises(StoreError, match="not valid base64"):
            run_id = client.begin_run(workload="x")
            client.request("append_epoch", run=run_id, segment="!!!not base64!!!")

    def test_remote_run_matches_local_reference_and_feeds_live_tail(self, writable, tmp_path):
        cpg = build_cpg()
        seed_page = sorted(cpg.subcomputation(cpg.input_node).write_set)[:1]
        expected_lineage = lineage_of_pages(cpg, seed_page)

        # The reference: the identical publication stream into a local sink.
        reference_dir = str(tmp_path / "reference")
        reference_store = ProvenanceStore.create(reference_dir)
        local_sink = StoreSink(reference_store, segment_nodes=3, workload="e2e")
        publish_run(local_sink, cpg)

        store_dir, server, host, port = writable
        sink = RemoteStoreSink(f"store://{host}:{port}", segment_nodes=3, workload="e2e")
        sink.attach(ProvenanceTracker())  # mints the remote run up front
        run_id = sink.run_id

        # A live-tail watcher streams the seed page's lineage as it grows.
        updates = []

        def stream():
            watcher = StoreClient(host, port, timeout=15.0)
            for update in watcher.watch(seed_page, run=run_id, interval=0.01, timeout=30.0):
                updates.append(update)

        watcher_thread = threading.Thread(target=stream, daemon=True)
        watcher_thread.start()
        # A follow-mode reader samples progress between epochs.
        follow = StoreClient(host, port, timeout=10.0, refresh_mode="follow")
        observed = []

        class SamplingSink:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def subcomputation_published(self, node, edges):
                self.inner.subcomputation_published(node, edges)
                observed.append(follow.result("watch", pages=seed_page, run=run_id))

        publish_run(SamplingSink(sink), cpg, pause_every=3, pause=0.02)
        observed.append(follow.result("watch", pages=seed_page, run=run_id))
        watcher_thread.join(timeout=30)
        assert not watcher_thread.is_alive()

        # The follow reader saw the run grow: node counts are
        # non-decreasing and more than one distinct value appeared.
        counts = [obs["progress"]["nodes"] for obs in observed]
        assert counts == sorted(counts)
        assert len(set(counts)) > 1
        assert counts[-1] == len(cpg)
        # The watch stream ended because the run completed, and its final
        # observation is the full in-memory lineage.
        assert updates, "the watch stream never emitted"
        assert updates[-1]["done"] is True
        assert "timed_out" not in updates[-1]
        assert updates[-1]["progress"]["status"] == "complete"
        assert set(updates[-1]["nodes"]) == expected_lineage
        lineage_sizes = [len(update["nodes"]) for update in updates]
        assert lineage_sizes == sorted(lineage_sizes)

        # Cold reopen: the remote store answers exactly like the local
        # reference run and the in-memory graph.
        remote = ProvenanceStore.open(store_dir)
        reference = ProvenanceStore.open(reference_dir)
        assert remote.manifest.node_count == reference.manifest.node_count
        assert canonical_edges(remote.load_cpg(run=run_id)) == canonical_edges(
            reference.load_cpg(run=local_sink.run_id)
        )
        origin = [
            n for n in cpg.nodes() if n[0] >= 0 and cpg.subcomputation(n).write_set
        ][-1]
        engine = StoreQueryEngine(remote)
        assert engine.backward_slice(origin, run=run_id) == backward_slice(cpg, origin)
        assert engine.lineage_of_pages(seed_page, run=run_id) == expected_lineage
        taint = engine.propagate_taint(seed_page, run=run_id)
        expected_taint = propagate_taint(cpg, seed_page)
        assert taint.tainted_nodes == expected_taint.tainted_nodes
        assert taint.tainted_pages == expected_taint.tainted_pages
        # Epoch accounting matches the local sink's.
        remote_meta = remote.manifest.run_info(run_id).meta
        reference_meta = reference.manifest.run_info(local_sink.run_id).meta
        assert remote_meta["epochs"] == reference_meta["epochs"]
        assert server.server_stats()["epochs_ingested"] > 0
        assert server.server_stats()["active_ingests"] == 0

    def test_run_with_provenance_streams_over_store_url(self, writable, tmp_path):
        store_dir, _, host, port = writable
        reference = run_with_provenance(
            "histogram", num_threads=2, size="small", store_path=str(tmp_path / "reference")
        )
        traced = run_with_provenance(
            "histogram", num_threads=2, size="small", store_url=f"store://{host}:{port}"
        )
        assert traced.store is None  # the run never touched the directory
        assert traced.store_run_id == 1
        remote = ProvenanceStore.open(store_dir)
        info = remote.manifest.run_info(traced.store_run_id)
        assert info.status == "complete"
        assert info.workload == "histogram"
        assert info.nodes == len(traced.cpg)
        # Identical deterministic runs: the remote store's answers equal
        # the locally ingested reference store's.
        page = sorted(reference.cpg.subcomputation(reference.cpg.input_node).write_set)[0]
        remote_engine = StoreQueryEngine(remote)
        reference_engine = StoreQueryEngine(reference.store)
        assert remote_engine.lineage_of_pages([page], run=1) == reference_engine.lineage_of_pages(
            [page], run=reference.store_run_id
        )

    def test_store_and_store_url_are_mutually_exclusive(self, tmp_path):
        from repro.inspector.session import InspectorSession

        with pytest.raises(ValueError, match="mutually exclusive"):
            InspectorSession(store=str(tmp_path / "s"), store_url="localhost:1")


class TestWatchPolling:
    def test_idle_watch_skips_the_lineage_query_between_changes(self, tmp_path):
        # An idle watch (run in progress, writer quiet) polls
        # manifest-only progress per tick; the full lineage query runs
        # only when the progress tuple moves or the deadline forces the
        # final observation.  Here nothing changes, so across ~25 ticks
        # exactly two queries are served: the initial observation and
        # the timed-out final one.
        cpg = build_cpg(threads=2, steps=2)
        store_dir = str(tmp_path / "store")
        store = ProvenanceStore.create(store_dir)
        run_id = store.new_run(workload="idle")
        nodes = [n for n in cpg.topological_order() if n[0] >= 0]
        store.append_segment([cpg.subcomputation(n) for n in nodes], [], run=run_id)
        store.flush()  # the run stays "running": the watch never sees done
        pages = sorted(cpg.subcomputation(nodes[-1]).write_set)[:1]
        server = StoreServer(store_dir)
        server.start()  # close() joins the serve loop, so it must run
        try:
            updates = list(
                server.watch_responses(
                    {
                        "op": "watch",
                        "pages": pages,
                        "run": run_id,
                        "stream": True,
                        "interval": 0.01,
                        "timeout": 0.25,
                    }
                )
            )
        finally:
            server.close()
        assert [update["ok"] for update in updates] == [True, True]
        assert updates[0]["result"]["done"] is False
        assert updates[-1]["result"]["done"] and updates[-1]["result"]["timed_out"]
        assert server.queries_served == 2


class TestFollowHammer:
    def test_one_remote_writer_many_follow_readers(self, tmp_path):
        cpg = build_cpg()
        store_dir = str(tmp_path / "store")
        store = ProvenanceStore.create(store_dir)
        store.ingest(cpg, segment_nodes=3, workload="base")
        server = StoreServer(store_dir, writable=True)
        host, port = server.start()
        try:
            origin = [
                n for n in cpg.nodes() if n[0] >= 0 and cpg.subcomputation(n).write_set
            ][-1]
            pages = sorted(cpg.subcomputation(origin).write_set)[:1]
            expected_slice = backward_slice(cpg, origin)
            expected_lineage = lineage_of_pages(cpg, pages)
            errors = []
            growth = []
            stop = threading.Event()

            def reader(tid: int) -> None:
                client = StoreClient(host, port, timeout=10.0, refresh_mode="follow")
                try:
                    while not stop.is_set():
                        # The committed run answers identically throughout.
                        assert client.backward_slice(origin, run=1) == expected_slice
                        assert client.lineage(pages, run=1) == expected_lineage
                        runs = client.runs()
                        if len(runs) > 1:
                            growth.append(runs[-1]["nodes"])
                except Exception as exc:  # noqa: BLE001 - reported via main thread
                    errors.append((tid, exc))

            threads = [threading.Thread(target=reader, args=(tid,)) for tid in range(4)]
            for thread in threads:
                thread.start()
            sink = RemoteStoreSink(f"{host}:{port}", segment_nodes=3, workload="remote")
            publish_run(sink, cpg, pause_every=3, pause=0.01)
            time.sleep(0.05)  # let the readers observe the committed run
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, f"follow readers failed: {errors[:3]}"
            # The readers watched the remote run grow mid-ingest.
            assert growth and growth[-1] == len(cpg)
            # The freshly committed run answers like the base run.
            follow = StoreClient(host, port, timeout=10.0, refresh_mode="follow")
            assert follow.backward_slice(origin, run=2) == expected_slice
            assert follow.lineage(pages, run=2) == expected_lineage
            stats = server.server_stats()
            assert stats["follow_refreshes"] > 0
            assert stats["epochs_ingested"] > 0
            assert stats["writable"] is True
            # The shared cache budget held with a writer in the mix.
            assert server.cache.total_bytes <= server.cache.max_bytes
            assert server.cache.peak_bytes <= server.cache.max_bytes
        finally:
            server.close()
