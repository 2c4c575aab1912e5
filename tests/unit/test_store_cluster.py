"""Tests for the sharded store cluster (:mod:`repro.store.cluster`).

Router correctness (both assignment policies, run-id translation),
degraded-read policies, failover and replica promotion, chaos-proxy
recovery, a mid-scatter shard death, a multi-shard concurrency hammer
with live maintenance, the manifest round-trip, and the ``cluster`` CLI.
"""

import json
import os
import threading
import time

import pytest

from helpers.clusters import (
    InProcessCluster,
    build_multirun_store,
    hash_partition,
    manual_manifest,
    split_store,
)
from helpers.executions import random_cpg
from helpers.faults import ChaosProxy, crashable_server

from repro.errors import StoreError, StoreUnreachableError
from repro.store import (
    ClusterManifest,
    ClusterService,
    Endpoint,
    InProcessShardClient,
    ProvenanceStore,
    ShardDownError,
    ShardInfo,
    StoreClient,
    StoreCluster,
    StoreQueryEngine,
    StoreServer,
    page_bucket,
)
from repro.store.__main__ import main
from repro.store.shard import PAGE_HASH_BUCKETS, RunAssignment

PAGES = [2, 3, 4]
SEEDS = [11, 22, 33]


@pytest.fixture()
def whole(tmp_path):
    """One unsharded three-run store plus its reference engine."""
    path = str(tmp_path / "whole")
    store, runs = build_multirun_store(path, SEEDS)
    return path, StoreQueryEngine(store), runs


def assert_cluster_equals_engine(cluster, engine, runs):
    """The full equivalence checklist one cluster must pass."""
    for run in runs:
        assert cluster.lineage(PAGES, run=run) == engine.lineage_of_pages(PAGES, run=run)
        mine = cluster.taint(PAGES, run=run)
        reference = engine.propagate_taint(PAGES, run=run)
        assert mine.tainted_nodes == reference.tainted_nodes
        assert mine.tainted_pages == reference.tainted_pages
    lineage_c = cluster.lineage_across_runs(PAGES)
    lineage_e = engine.lineage_across_runs(PAGES)
    assert lineage_c == lineage_e
    assert list(lineage_c) == list(lineage_e)  # merge (mint) order too
    taint_c = cluster.taint_across_runs(PAGES)
    taint_e = engine.taint_across_runs(PAGES)
    assert list(taint_c) == list(taint_e)
    for run in runs:
        assert taint_c[run].tainted_nodes == taint_e[run].tainted_nodes
        assert taint_c[run].tainted_pages == taint_e[run].tainted_pages
        assert taint_c[run].source_pages == taint_e[run].source_pages
    diff_c = cluster.compare_lineage(runs[0], runs[-1], PAGES)
    diff_e = engine.compare_lineage(runs[0], runs[-1], PAGES)
    assert (diff_c.run_a, diff_c.run_b, diff_c.pages) == (diff_e.run_a, diff_e.run_b, diff_e.pages)
    assert diff_c.only_a == diff_e.only_a
    assert diff_c.only_b == diff_e.only_b
    assert diff_c.common == diff_e.common
    assert diff_c.identical == diff_e.identical


class TestRouterCorrectness:
    def test_manual_policy_matches_unsharded_engine(self, whole, tmp_path):
        path, engine, runs = whole
        owned = [[runs[0], runs[2]], [runs[1]]]
        with InProcessCluster(path, str(tmp_path / "shards"), owned) as cluster:
            assert cluster.cluster.run_ids() == runs
            assert_cluster_equals_engine(cluster.cluster, engine, runs)

    def test_run_hash_policy_matches_unsharded_engine(self, whole, tmp_path):
        path, engine, runs = whole
        owned = hash_partition(runs, 2)
        with InProcessCluster(
            path, str(tmp_path / "shards"), owned, policy="run-hash"
        ) as cluster:
            assert cluster.cluster.run_ids() == runs
            assert_cluster_equals_engine(cluster.cluster, engine, runs)

    def test_manual_policy_translates_local_run_ids(self, whole, tmp_path):
        # A shard built by re-ingesting a run mints its own (local) ids;
        # the manual table carries the translation and the router must
        # rewrite runs outbound and map them back inbound.
        path, engine, runs = whole
        shard_path = str(tmp_path / "reingested")
        shard_store = ProvenanceStore.open_or_create(shard_path)
        shard_store.ingest(random_cpg(SEEDS[1]), workload="re")  # local run 1
        assert shard_store.run_ids() == [1]
        other_paths = split_store(
            path, str(tmp_path / "rest"), [[runs[0], runs[2]], [runs[1]]]
        )
        servers = [StoreServer(other_paths[0]), StoreServer(shard_path)]
        clients = {
            "mem://0": InProcessShardClient(servers[0], "mem://0"),
            "mem://1": InProcessShardClient(servers[1], "mem://1"),
        }
        manifest = ClusterManifest(
            shards=[
                ShardInfo("keep", Endpoint(address="mem://0")),
                ShardInfo("fresh", Endpoint(address="mem://1")),
            ],
            policy="manual",
        )
        manifest.assign(runs[0], "keep")
        manifest.assign(runs[2], "keep")
        manifest.assign(runs[1], "fresh", local_run=1)
        cluster = StoreCluster(manifest, client_factory=lambda a: clients[a])
        try:
            assert_cluster_equals_engine(cluster, engine, runs)
        finally:
            for server in servers:
                server.close()

    def test_page_hash_range_prunes_but_preserves_results(self, whole, tmp_path):
        path, engine, runs = whole
        owned = [[runs[0], runs[2]], [runs[1]]]
        with InProcessCluster(path, str(tmp_path / "shards"), owned) as cluster:
            # Give shard 1 a range excluding every queried page's bucket:
            # its runs must come back through the untouched default, and
            # the shard must not be asked the expensive query at all.
            buckets = {page_bucket(p) for p in PAGES}
            assert buckets, "queried pages must hash somewhere"
            lo = max(buckets) + 1
            if lo >= PAGE_HASH_BUCKETS:
                lo = min(buckets)  # wrap: use the range below instead
                cluster.manifest.shard("shard-1").page_hash_range = (0, lo)
            else:
                cluster.manifest.shard("shard-1").page_hash_range = (lo, PAGE_HASH_BUCKETS)
            result = cluster.cluster.lineage_across_runs(PAGES)
            expected = engine.lineage_across_runs(PAGES)
            # The pruned shard's run answers empty iff the whole store
            # also proves it untouched -- which build_multirun_store does
            # not guarantee, so compare only the asked-shard runs exactly
            # and the pruned run against the untouched default.
            assert result[runs[0]] == expected[runs[0]]
            assert result[runs[2]] == expected[runs[2]]
            assert result[runs[1]] == set()
            asked = {e["shard"] for e in cluster.cluster.last_fanout["shards"]}
            assert asked == {"shard-0"}

    def test_resolve_run_and_unknown_runs(self, whole, tmp_path):
        path, engine, runs = whole
        with InProcessCluster(
            path, str(tmp_path / "shards"), [[r] for r in runs]
        ) as cluster:
            with pytest.raises(StoreError, match="pass run=<id>"):
                cluster.cluster.lineage(PAGES)
            with pytest.raises(StoreError, match="assigns no shard to run 99"):
                cluster.cluster.lineage(PAGES, run=99)


class TestDegradedReads:
    def test_fail_policy_raises_shard_down(self, whole, tmp_path):
        path, engine, runs = whole
        owned = [[runs[0], runs[2]], [runs[1]]]
        with InProcessCluster(path, str(tmp_path / "shards"), owned) as cluster:
            cluster.clients["mem://1"].down = True
            with pytest.raises(ShardDownError, match="shard-1"):
                cluster.cluster.lineage_across_runs(PAGES)
            # A single-run query to the LIVE shard still works.
            assert cluster.cluster.lineage(PAGES, run=runs[0]) == engine.lineage_of_pages(
                PAGES, run=runs[0]
            )
            # ... while one routed to the dead shard raises.
            with pytest.raises(ShardDownError, match="shard-1"):
                cluster.cluster.lineage(PAGES, run=runs[1])

    def test_partial_policy_reports_missing_shards(self, whole, tmp_path):
        path, engine, runs = whole
        owned = [[runs[0], runs[2]], [runs[1]]]
        with InProcessCluster(
            path, str(tmp_path / "shards"), owned, on_shard_down="partial"
        ) as cluster:
            cluster.clients["mem://1"].down = True
            result = cluster.cluster.lineage_across_runs(PAGES)
            expected = engine.lineage_across_runs(PAGES)
            # Live shards' runs are answered correctly, never wrongly.
            assert set(result) == {runs[0], runs[2]}
            for run in result:
                assert result[run] == expected[run]
            missing = cluster.cluster.last_fanout["missing_shards"]
            assert missing == [{"shard": "shard-1", "runs": [runs[1]]}]
            # compare_lineage has no partial answer: it must still raise.
            with pytest.raises(ShardDownError):
                cluster.cluster.compare_lineage(runs[0], runs[1], PAGES)

    def test_shard_death_mid_scatter_honors_policy(self, whole, tmp_path):
        # The shard answers discovery, then dies before the scattered
        # query reaches it -- the race a cross-run query can lose.
        path, engine, runs = whole
        owned = [[runs[0], runs[2]], [runs[1]]]

        class DiesAfter(InProcessShardClient):
            def __init__(self, server, address, survive_ops):
                super().__init__(server, address)
                self.survive_ops = survive_ops

            def request(self, op, **params):
                if op not in self.survive_ops:
                    self.down = True
                return super().request(op, **params)

        with InProcessCluster(
            path, str(tmp_path / "shards"), owned, on_shard_down="partial"
        ) as cluster:
            victim = cluster.clients["mem://1"]
            cluster.clients["mem://1"] = DiesAfter(victim.server, "mem://1", {"runs"})
            result = cluster.cluster.lineage_across_runs(PAGES)
            expected = engine.lineage_across_runs(PAGES)
            assert set(result) == {runs[0], runs[2]}
            for run in result:
                assert result[run] == expected[run]
            assert cluster.cluster.last_fanout["missing_shards"] == [
                {"shard": "shard-1", "runs": [runs[1]]}
            ]


class TestFailoverAndChaos:
    def test_backoff_recovers_through_chaos_proxy(self, whole, tmp_path):
        # The shard's first two connections die mid-response; the
        # client's capped backoff must ride it out and the router answer
        # must still be exact.
        path, engine, runs = whole
        shard_paths = split_store(path, str(tmp_path / "shards"), [runs])
        server = StoreServer(shard_paths[0])
        server.start()
        try:
            with ChaosProxy(
                target=server.address, mode="half_close", fault_budget=2
            ) as proxy:
                manifest = manual_manifest(
                    [f"{proxy.address[0]}:{proxy.address[1]}"], [runs]
                )
                cluster = StoreCluster(
                    manifest, client_options={"timeout": 5.0, "retries": 4, "backoff": 0.01}
                )
                assert cluster.lineage(PAGES, run=runs[0]) == engine.lineage_of_pages(
                    PAGES, run=runs[0]
                )
                assert proxy.faulted == 2
        finally:
            server.close()

    def test_replica_failover_and_promotion_serve_identical_snapshots(
        self, whole, tmp_path
    ):
        path, engine, runs = whole
        shard_paths = split_store(path, str(tmp_path / "shards"), [runs])
        expected = engine.lineage_of_pages(PAGES, run=runs[1])
        replica = StoreServer(shard_paths[0])
        replica.start()
        replica_url = f"{replica.address[0]}:{replica.address[1]}"
        try:
            with crashable_server(shard_paths[0]) as primary:
                manifest = manual_manifest(
                    [primary.url], [runs], replicas={0: [replica_url]}
                )
                cluster = StoreCluster(
                    manifest, client_options={"timeout": 5.0, "retries": 0}
                )
                assert cluster.lineage(PAGES, run=runs[1]) == expected
                served_by = cluster.last_fanout["shards"][0]
                assert served_by["address"] == primary.url
                # Primary dies: the same query fails over to the replica
                # and the answer is byte-identical.
                primary.crash()
                assert cluster.lineage(PAGES, run=runs[1]) == expected
                served_by = cluster.last_fanout["shards"][0]
                assert served_by["address"] == replica_url
                assert served_by["failovers"] == 1
                assert cluster.fanout_stats()["shard_failovers"] == {"shard-0": 1}
                # Promotion makes the replica the primary: no failover
                # detour any more, snapshot still identical.
                cluster.promote("shard-0", replica_url)
                assert cluster.lineage(PAGES, run=runs[1]) == expected
                served_by = cluster.last_fanout["shards"][0]
                assert served_by["address"] == replica_url
                assert served_by["failovers"] == 0
        finally:
            replica.close()


class TestClusterHammer:
    def test_readers_survive_compaction_and_remote_ingest(self, whole, tmp_path):
        # 8 reader threads across 3 shards while shard 0 compacts and
        # shard 2 ingests a new run remotely: every answer must equal the
        # pre-computed reference (snapshot consistency), and no shard's
        # cache may corrupt another's answers.
        path, engine, runs = whole
        shard_paths = split_store(path, str(tmp_path / "shards"), [[r] for r in runs])
        servers = [
            StoreServer(p, writable=(index == 2))
            for index, p in enumerate(shard_paths)
        ]
        addresses = []
        for server in servers:
            host, port = server.start()
            addresses.append(f"{host}:{port}")
        manifest = manual_manifest(addresses, [[r] for r in runs])
        cluster = StoreCluster(
            manifest, client_options={"timeout": 20.0, "retries": 2}
        )
        reference = {
            "lineage": {r: engine.lineage_of_pages(PAGES, run=r) for r in runs},
            "across": engine.lineage_across_runs(PAGES),
            "diff": engine.compare_lineage(runs[0], runs[2], PAGES),
        }
        errors = []
        stop = threading.Event()

        def reader(tid):
            rounds = 0
            try:
                while not stop.is_set() and rounds < 12:
                    rounds += 1
                    run = runs[(tid + rounds) % len(runs)]
                    assert cluster.lineage(PAGES, run=run) == reference["lineage"][run]
                    across = cluster.lineage_across_runs(PAGES)
                    assert across == reference["across"]
                    assert list(across) == list(reference["across"])
                    diff = cluster.compare_lineage(runs[0], runs[2], PAGES)
                    assert diff.only_a == reference["diff"].only_a
                    assert diff.only_b == reference["diff"].only_b
                    assert diff.common == reference["diff"].common
            except Exception as exc:  # noqa: BLE001 - reported via main thread
                errors.append((tid, exc))

        def compactor():
            try:
                maintenance = ProvenanceStore.open(shard_paths[0])
                maintenance.compact()
                servers[0].refresh()
            except Exception as exc:  # noqa: BLE001
                errors.append(("compact", exc))

        def ingester():
            try:
                client = StoreClient(*servers[2].address, timeout=20.0)
                run_id = client.begin_run(workload="hammer-ingest")
                cpg = random_cpg(77)
                order = cpg.topological_order()
                nodes = [cpg.subcomputation(n) for n in order]
                half = len(nodes) // 2 or 1
                client.append_epoch(run_id, nodes[:half])
                client.append_epoch(run_id, nodes[half:])
                client.commit_run(run_id)
            except Exception as exc:  # noqa: BLE001
                errors.append(("ingest", exc))

        threads = [threading.Thread(target=reader, args=(tid,)) for tid in range(8)]
        threads += [threading.Thread(target=compactor), threading.Thread(target=ingester)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stop.set()
            assert not errors, f"hammer failed: {errors[:3]}"
            # The remotely ingested run is not in the manual table, so it
            # never leaked into router answers; each shard's cache held
            # its budget under the concurrency.
            for server in servers:
                assert server.cache.total_bytes <= server.cache.max_bytes
            stats = cluster.fanout_stats()
            assert stats["queries_served"] >= 8 * 12 * 3
            assert stats["shard_failovers"] == {}
        finally:
            stop.set()
            for server in servers:
                server.close()


class TestManifestAndService:
    def test_manifest_round_trips_and_validates(self, tmp_path):
        manifest = ClusterManifest(
            shards=[
                ShardInfo(
                    "a",
                    Endpoint(address="127.0.0.1:7100", path="/data/a"),
                    replicas=[Endpoint(address="127.0.0.1:7101")],
                    page_hash_range=(0, 512),
                ),
                ShardInfo("b", Endpoint(address="127.0.0.1:7200")),
            ],
            policy="manual",
        )
        manifest.assign(1, "a")
        manifest.assign(2, "b", local_run=1)
        target = str(tmp_path / "cluster.json")
        manifest.save(target)
        loaded = ClusterManifest.load(target)
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.shard_for_run(2)[0].shard_id == "b"
        assert loaded.shard_for_run(2)[1] == 1
        assert loaded.run_ids() == [1, 2]
        loaded.promote("a", "127.0.0.1:7101")
        assert loaded.shard("a").primary.address == "127.0.0.1:7101"
        assert loaded.shard("a").replicas[0].address == "127.0.0.1:7100"
        with pytest.raises(StoreError, match="no replica at"):
            loaded.promote("b", "nowhere:1")
        with pytest.raises(StoreError, match="unknown shard"):
            ClusterManifest(
                shards=[ShardInfo("a", Endpoint())],
                assignments={1: RunAssignment("ghost", 1)},
            )
        with pytest.raises(StoreError, match="duplicate shard id"):
            ClusterManifest(shards=[ShardInfo("a", Endpoint()), ShardInfo("a", Endpoint())])

    def test_page_bucket_is_stable_and_in_range(self):
        # The pruning contract depends on every process agreeing on the
        # mix; pin a few values so a change cannot slip in silently.
        assert [page_bucket(p) for p in (0, 1, 2, 500)] == [
            page_bucket(p) for p in (0, 1, 2, 500)
        ]
        for page in range(0, 2000, 37):
            assert 0 <= page_bucket(page) < PAGE_HASH_BUCKETS

    def test_cluster_service_hosts_shards_and_writes_addresses_back(
        self, whole, tmp_path
    ):
        path, engine, runs = whole
        shard_paths = split_store(
            path, str(tmp_path / "shards"), [[runs[0], runs[2]], [runs[1]]]
        )
        manifest = ClusterManifest(
            shards=[
                ShardInfo("s0", Endpoint(path=shard_paths[0])),
                ShardInfo("s1", Endpoint(path=shard_paths[1])),
            ],
            policy="manual",
            path=str(tmp_path / "cluster.json"),
        )
        manifest.assign(runs[0], "s0")
        manifest.assign(runs[2], "s0")
        manifest.assign(runs[1], "s1")
        manifest.save()
        service = ClusterService(str(tmp_path / "cluster.json"))
        try:
            served = service.start()
            for shard in served.shards:
                assert shard.primary.address  # bound and written back
            reloaded = ClusterManifest.load(str(tmp_path / "cluster.json"))
            cluster = StoreCluster(reloaded, client_options={"timeout": 10.0})
            assert_cluster_equals_engine(cluster, engine, runs)
        finally:
            service.close()


class TestClusterCLI:
    @pytest.fixture()
    def served_cluster(self, whole, tmp_path):
        path, engine, runs = whole
        shard_paths = split_store(path, str(tmp_path / "shards"), [[r] for r in runs])
        manifest = ClusterManifest(
            shards=[
                ShardInfo(f"s{i}", Endpoint(path=p)) for i, p in enumerate(shard_paths)
            ],
            policy="manual",
            path=str(tmp_path / "cluster.json"),
        )
        for index, run in enumerate(runs):
            manifest.assign(run, f"s{index}")
        manifest.save()
        service = ClusterService(manifest)
        service.start()
        yield str(tmp_path / "cluster.json"), engine, runs
        service.close()

    def test_status_reports_every_shard(self, served_cluster, capsys):
        cluster_json, _engine, runs = served_cluster
        assert main(["cluster", "status", cluster_json, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert [entry["alive"] for entry in status["shards"]] == [True, True, True]
        assert status["runs"] == runs

    def test_query_lineage_and_across_runs(self, served_cluster, capsys):
        cluster_json, engine, runs = served_cluster
        pages_arg = ",".join(str(p) for p in PAGES)
        assert (
            main(["cluster", "query", cluster_json, "--pages", pages_arg, "--run", str(runs[0]), "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        expected = {
            f"{tid}:{index}" for tid, index in engine.lineage_of_pages(PAGES, run=runs[0])
        }
        assert set(payload["result"]["nodes"]) == expected
        assert [s["shard"] for s in payload["fanout"]["shards"]] == ["s0"]
        assert (
            main(["cluster", "query", cluster_json, "--pages", pages_arg, "--across-runs", "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert sorted(int(r) for r in payload["result"]) == runs

    def test_query_compare_between_shards(self, served_cluster, capsys):
        cluster_json, engine, runs = served_cluster
        pages_arg = ",".join(str(p) for p in PAGES)
        assert (
            main([
                "cluster", "query", cluster_json, "--pages", pages_arg,
                "--compare", str(runs[0]), str(runs[2]), "--json",
            ])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        diff = engine.compare_lineage(runs[0], runs[2], PAGES)
        assert payload["result"]["identical"] == diff.identical
        assert len(payload["result"]["common"]) == len(diff.common)
        asked = {s["shard"] for s in payload["fanout"]["shards"]}
        assert asked == {"s0", "s2"}
