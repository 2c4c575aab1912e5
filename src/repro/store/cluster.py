"""A scatter-gather query router over sharded provenance stores.

:class:`StoreCluster` makes N independent :class:`~repro.store.server.
StoreServer` processes answer like one big :class:`~repro.store.query.
StoreQueryEngine`.  Runs are mapped onto shards by a
:class:`~repro.store.shard.ClusterManifest`; single-run queries
(``slice``/``lineage``/``taint``) route to exactly the shard holding the
run, cross-run queries (``*_across_runs``) fan out over every shard
concurrently, and ``compare_lineage`` fetches both runs' lineages in
parallel (possibly from two different shards) and diffs them through the
same :func:`~repro.store.query.diff_lineage` helper the single-store
engine uses.  **Equivalence is the contract**: for any sharding of a
store's runs, every cluster answer -- values, types, and the mint-order
enumeration of ``*_across_runs`` dicts -- is identical to the unsharded
engine's (the property suite in ``tests/property`` holds the router to
it).

**Failure handling.**  Each shard lists a primary and read replicas; a
request tries them in manifest order and moves on only for *transport*
failure (:class:`~repro.errors.StoreUnreachableError` -- a shard that
answered with an error is a query error, not a dead shard).  When every
endpoint of a shard is down, the degraded-read policy decides: ``fail``
(default) raises :class:`ShardDownError` naming the shard, ``partial``
lets cross-run queries return the live shards' runs and records the dead
shard (and, when the manifest knows them, its runs) in the fan-out
report.  Single-run queries and ``compare_lineage`` always raise -- a
partial answer to "what is this run's lineage" does not exist.

**Telemetry.**  Every query leaves a fan-out report
(:attr:`StoreCluster.last_fanout`): per shard, the endpoint that
answered, wall time, and the server's per-query read stats; cluster-wide
totals are folded into one :class:`~repro.store.cache.ReadScope` via
``ReadScope.absorb``, so a scatter-gathered query accounts its reads in
exactly the shape a single-store query does.

Shards are reached through :class:`~repro.store.server.StoreClient`s by
default; anything with the same ``request``/``result`` surface plugs in
-- :class:`InProcessShardClient` wraps a :class:`StoreServer` without a
socket, which is what the equivalence property uses to shard-test cheap.
"""

from __future__ import annotations

import base64
import binascii
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.queries import TaintResult
from repro.core.serialization import node_key, parse_node_key
from repro.core.thunk import NodeId
from repro.errors import StoreError, StoreUnreachableError

from repro.store import files
from repro.store.cache import DEFAULT_CACHE_BYTES, ReadScope
from repro.store.format import MANIFEST_NAME, SEGMENT_LOG_NAME, file_size_crc
from repro.store.query import LineageDiff, diff_lineage, normalize_pages, order_across_runs, untouched_taint
from repro.store.server import StoreClient, StoreServer
from repro.store.shard import ClusterManifest, Endpoint, ShardInfo

#: Degraded-read policies: what a dead shard does to a cross-run query.
DEGRADED_POLICIES = ("fail", "partial")


class ShardDownError(StoreError):
    """Every endpoint of a shard was unreachable when a query needed it.

    Attributes:
        shard_id: The dead shard.
        endpoints: The addresses that were tried, in failover order.
    """

    def __init__(self, shard_id: str, endpoints: Sequence[str], last_error: object) -> None:
        self.shard_id = shard_id
        self.endpoints = list(endpoints)
        tried = ", ".join(self.endpoints) or "no endpoints"
        super().__init__(
            f"shard {shard_id!r} is down: every endpoint unreachable "
            f"({tried}); last error: {last_error}"
        )


class InProcessShardClient:
    """A :class:`StoreClient` stand-in that calls a server without a socket.

    Wraps :meth:`StoreServer.handle_request` behind the client's
    ``request``/``result`` surface, so a :class:`StoreCluster` (or a
    test) can treat an in-process server exactly like a remote one --
    same response shapes, same error mapping, no TCP.  A wrapped server
    that has been closed raises :class:`~repro.errors.
    StoreUnreachableError`, which is how a test kills a shard.
    """

    def __init__(self, server: StoreServer, address: str = "in-process") -> None:
        self.server = server
        self.address = address
        self.down = False

    def request(self, op: str, **params) -> dict:
        if self.down:
            raise StoreUnreachableError(
                f"store server at {self.address} unreachable after 1 attempt: "
                f"shard marked down"
            )
        response = self.server.handle_request({"op": op, **params})
        if not response.get("ok"):
            error = StoreError(str(response.get("error", "unknown server error")))
            # Same error-class surfacing as StoreClient: the ``code`` field
            # is the stable machine-readable part of an error reply.
            error.code = str(response.get("code", "bad_request"))
            raise error
        return response

    def result(self, op: str, **params):
        return self.request(op, **params)["result"]


def _parse_nodes(keys: Iterable[str]) -> Set[NodeId]:
    return {parse_node_key(key) for key in keys}


def _parse_taint(entry: dict) -> TaintResult:
    return TaintResult(
        source_pages=set(entry["source_pages"]),
        tainted_pages=set(entry["tainted_pages"]),
        tainted_nodes=_parse_nodes(entry["tainted_nodes"]),
    )


class StoreCluster:
    """Routes queries over the shards a :class:`ClusterManifest` describes.

    Answers carry the engine's types -- node-id sets,
    :class:`~repro.core.queries.TaintResult`,
    :class:`~repro.store.query.LineageDiff` -- not wire dicts: the
    cluster is an engine-alike, and equivalence with
    :class:`~repro.store.query.StoreQueryEngine` is its contract.

    Args:
        manifest: The cluster layout (or a path ``ClusterManifest.load``
            accepts).
        on_shard_down: ``"fail"`` (default) or ``"partial"`` -- see the
            module docstring.
        client_factory: Builds a client from an address; defaults to
            ``StoreClient.from_url``, whose clients keep their connections
            until :meth:`close` (or the end of a ``with`` block).  Tests
            inject :class:`InProcessShardClient` factories here.
        client_options: Extra keyword arguments for the default factory
            (``timeout``, ``retries``, ``backoff`` ...).
    """

    def __init__(
        self,
        manifest,
        on_shard_down: str = "fail",
        client_factory: Optional[Callable[[str], object]] = None,
        client_options: Optional[dict] = None,
    ) -> None:
        if isinstance(manifest, str):
            manifest = ClusterManifest.load(manifest)
        if on_shard_down not in DEGRADED_POLICIES:
            raise StoreError(
                f"unknown degraded-read policy {on_shard_down!r} "
                f"(known: {', '.join(DEGRADED_POLICIES)})"
            )
        self.manifest: ClusterManifest = manifest
        self.on_shard_down = on_shard_down
        options = dict(client_options or {})
        self._client_factory = client_factory or (
            lambda address: StoreClient.from_url(address, **options)
        )
        #: Clients the default factory built are this router's to close;
        #: an injected factory's clients belong to its caller.
        self._owns_clients = client_factory is None
        self._clients: Dict[str, object] = {}
        self._lock = threading.Lock()
        #: Fan-out report of the most recent query (see module docstring).
        self.last_fanout: Optional[dict] = None
        self._totals = ReadScope()
        self._shard_requests: Dict[str, int] = {}
        self._shard_failovers: Dict[str, int] = {}
        self.queries_served = 0
        self.repairs_run = 0
        self._repair_files = 0
        self._repair_bytes = 0

    def close(self) -> None:
        """Close the shard clients this router built (their kept connections)."""
        if not self._owns_clients:
            return
        with self._lock:
            clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            client.close()

    def __enter__(self) -> "StoreCluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Shard transport
    # ------------------------------------------------------------------ #

    def _client(self, address: str):
        with self._lock:
            client = self._clients.get(address)
            if client is None:
                client = self._client_factory(address)
                self._clients[address] = client
        return client

    def _shard_request(self, shard: ShardInfo, op: str, params: dict, reports: List[dict]) -> dict:
        """One request to one shard, failing over primary -> replicas.

        Only transport exhaustion (:class:`StoreUnreachableError`) moves
        to the next endpoint; an answered error is the query's error.
        Appends one report entry (which endpoint answered, elapsed, the
        server's stats) to ``reports`` and raises :class:`ShardDownError`
        when the whole endpoint list is down.
        """
        endpoints = [e for e in shard.endpoints() if e.address]
        last_error: Optional[Exception] = None
        start = time.perf_counter()
        for index, endpoint in enumerate(endpoints):
            client = self._client(endpoint.address)
            try:
                response = client.request(op, **params)
            except StoreUnreachableError as exc:
                last_error = exc
                with self._lock:
                    if index + 1 < len(endpoints):
                        self._shard_failovers[shard.shard_id] = (
                            self._shard_failovers.get(shard.shard_id, 0) + 1
                        )
                continue
            elapsed_ms = (time.perf_counter() - start) * 1e3
            entry = {
                "shard": shard.shard_id,
                "address": endpoint.address,
                "ok": True,
                "failovers": index,
                "elapsed_ms": round(elapsed_ms, 3),
                "stats": response.get("stats", {}),
            }
            with self._lock:
                reports.append(entry)
                self._shard_requests[shard.shard_id] = (
                    self._shard_requests.get(shard.shard_id, 0) + 1
                )
                self._totals.absorb(entry["stats"])
            return response
        elapsed_ms = (time.perf_counter() - start) * 1e3
        with self._lock:
            reports.append(
                {
                    "shard": shard.shard_id,
                    "address": None,
                    "ok": False,
                    "failovers": max(len(endpoints) - 1, 0),
                    "elapsed_ms": round(elapsed_ms, 3),
                    "stats": {},
                }
            )
        raise ShardDownError(shard.shard_id, [e.address for e in endpoints], last_error)

    def _finish(self, op: str, reports: List[dict], missing: List[dict]) -> None:
        scope = ReadScope()
        for entry in reports:
            scope.absorb(entry.get("stats", {}))
        with self._lock:
            self.queries_served += 1
            self.last_fanout = {
                "op": op,
                "shards": list(reports),
                "missing_shards": list(missing),
                "stats": scope.to_dict(),
            }

    # ------------------------------------------------------------------ #
    # Run routing
    # ------------------------------------------------------------------ #

    def run_ids(self) -> List[int]:
        """The cluster's run set, ascending (= mint order; see shard.py).

        Manual policy reads it off the manifest; run-hash discovers it by
        asking every shard for its runs (a manifest-only op).  Discovery
        honors the degraded-read policy: under ``partial`` a dead shard's
        runs are simply absent.
        """
        if self.manifest.policy == "manual":
            return self.manifest.run_ids()
        reports: List[dict] = []
        discovered, _missing = self._scatter(
            "runs", {}, self.manifest.shards, reports, op_label="runs"
        )
        runs: Set[int] = set()
        for shard, response in discovered.items():
            for summary in response["result"]:
                runs.add(int(summary["id"]))
        return sorted(runs)

    def resolve_run(self, run: Optional[int]) -> int:
        """Mirror of ``ProvenanceStore.resolve_run`` over the cluster."""
        runs = self.run_ids()
        if run is None:
            if not runs:
                raise StoreError("this cluster holds no runs yet")
            if len(runs) > 1:
                listed = ", ".join(str(r) for r in runs)
                raise StoreError(
                    f"this cluster holds {len(runs)} runs ({listed}); pass run=<id>"
                )
            return runs[0]
        if int(run) not in runs:
            listed = ", ".join(str(r) for r in runs) or "none"
            raise StoreError(f"cluster has no run {run} (runs: {listed})")
        return int(run)

    def _route(self, run: Optional[int]) -> Tuple[ShardInfo, int, int]:
        """(shard, local run id, cluster run id) for one single-run query.

        An explicit run id routes straight off the manifest -- no
        cluster-wide discovery, so a query against a live shard works
        while an unrelated shard is down (the point of sharding).  The
        owning shard validates existence itself under ``run-hash``; the
        manual table validates here.  Only ``run=None`` (default-run
        resolution) needs the full run set.
        """
        cluster_run = self.resolve_run(run) if run is None else int(run)
        shard, local_run = self.manifest.shard_for_run(cluster_run)
        return shard, local_run, cluster_run

    # ------------------------------------------------------------------ #
    # Single-run queries (route to one shard)
    # ------------------------------------------------------------------ #

    def lineage(self, pages: Iterable[int], run: Optional[int] = None) -> Set[NodeId]:
        """:meth:`StoreQueryEngine.lineage_of_pages` on the owning shard."""
        shard, local_run, _ = self._route(run)
        reports: List[dict] = []
        try:
            response = self._shard_request(
                shard, "lineage", {"pages": [int(p) for p in pages], "run": local_run}, reports
            )
        finally:
            self._finish("lineage", reports, [])
        return _parse_nodes(response["result"]["nodes"])

    def backward_slice(
        self,
        node: NodeId,
        run: Optional[int] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> Set[NodeId]:
        return self._slice(node, run, kinds, forward=False)

    def forward_slice(
        self,
        node: NodeId,
        run: Optional[int] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> Set[NodeId]:
        return self._slice(node, run, kinds, forward=True)

    def _slice(self, node, run, kinds, forward: bool) -> Set[NodeId]:
        shard, local_run, _ = self._route(run)
        params = {"node": node_key(tuple(node)), "run": local_run, "forward": forward}
        if kinds is not None:
            params["kinds"] = list(kinds)
        reports: List[dict] = []
        try:
            response = self._shard_request(shard, "slice", params, reports)
        finally:
            self._finish("slice", reports, [])
        return _parse_nodes(response["result"]["nodes"])

    def taint(
        self,
        pages: Iterable[int],
        run: Optional[int] = None,
        through_thread_state: bool = False,
    ) -> TaintResult:
        """:meth:`StoreQueryEngine.propagate_taint` on the owning shard."""
        shard, local_run, _ = self._route(run)
        params = {
            "pages": [int(p) for p in pages],
            "run": local_run,
            "through_thread_state": through_thread_state,
        }
        reports: List[dict] = []
        try:
            response = self._shard_request(shard, "taint", params, reports)
        finally:
            self._finish("taint", reports, [])
        return _parse_taint(response["result"])

    # ------------------------------------------------------------------ #
    # Cross-run queries (scatter over every shard, gather, merge)
    # ------------------------------------------------------------------ #

    def _scatter(
        self,
        op: str,
        params: dict,
        shards: Sequence[ShardInfo],
        reports: List[dict],
        op_label: Optional[str] = None,
    ) -> Tuple[Dict[str, dict], List[ShardInfo]]:
        """Fan one request out; returns (shard id -> response, dead shards).

        Every shard is asked at once, one thread each.  A dead shard
        raises :class:`ShardDownError` under ``fail``; under ``partial``
        it lands in the dead list for the caller's merge to account.  Any
        *answered* error cancels the query.
        """

        def ask(shard: ShardInfo) -> Tuple[ShardInfo, object, Optional[Exception]]:
            try:
                return shard, self._shard_request(shard, op, params, reports), None
            except Exception as exc:  # sorted out below, by type
                return shard, None, exc

        answers: Dict[str, dict] = {}
        dead: List[ShardInfo] = []
        with ThreadPoolExecutor(max_workers=max(1, len(shards))) as pool:
            outcomes = list(pool.map(ask, shards))
        first_error: Optional[Exception] = None
        for shard, response, error in outcomes:
            if error is None:
                answers[shard.shard_id] = response
            elif isinstance(error, ShardDownError) and self.on_shard_down == "partial":
                dead.append(shard)
            elif first_error is None:
                first_error = error
        if first_error is not None:
            self._finish(op_label or op, reports, [{"shard": s.shard_id} for s in dead])
            raise first_error
        return answers, dead

    def _missing_entries(self, dead: Sequence[ShardInfo]) -> List[dict]:
        """What the fan-out report says about shards a partial read skipped."""
        entries = []
        for shard in dead:
            runs: Optional[List[int]] = None
            if self.manifest.policy == "manual":
                runs = sorted(self.manifest.assigned_runs(shard.shard_id))
            entries.append({"shard": shard.shard_id, "runs": runs})
        return entries

    def _across_runs(
        self,
        op: str,
        pages: List[int],
        params: dict,
        parse: Callable[[object], object],
        default: Callable[[int], object],
    ) -> Dict[int, object]:
        """Shared scatter-gather-merge of both ``*_across_runs`` queries.

        Shards whose declared page-hash range excludes every queried page
        are not sent the query -- their runs take the untouched default,
        exactly as the single-store engine answers runs the cross-run
        page summary proves untouched.  (Their run *sets* must still be
        known: the manifest's table under ``manual``, a cheap ``runs``
        probe under ``run-hash``.)
        """
        reports: List[dict] = []
        queried = [s for s in self.manifest.shards if s.may_touch_pages(pages)]
        pruned = [s for s in self.manifest.shards if not s.may_touch_pages(pages)]
        answers, dead = self._scatter(op, params, queried, reports, op_label=op)

        answered: Dict[int, object] = {}
        defaulted: Set[int] = set()
        if self.manifest.policy == "manual":
            for shard in self.manifest.shards:
                local_to_cluster = {
                    local: cluster
                    for cluster, local in self.manifest.assigned_runs(shard.shard_id).items()
                }
                if shard.shard_id in answers:
                    result = answers[shard.shard_id]["result"]
                    for local_text, value in result.items():
                        cluster_run = local_to_cluster.get(int(local_text))
                        if cluster_run is not None:  # runs beyond the table are invisible
                            answered[cluster_run] = parse(value)
                elif shard in pruned:
                    defaulted.update(local_to_cluster.values())
            run_order = self.manifest.run_ids()
            known = set(run_order)
            missing_runs = known - set(answered) - defaulted
            run_order = [r for r in run_order if r not in missing_runs]
        else:
            # run-hash: local ids are cluster ids.  Pruned shards still
            # contribute their run sets through a manifest-only probe.
            for shard_id, response in answers.items():
                for local_text, value in response["result"].items():
                    answered[int(local_text)] = parse(value)
            if pruned:
                probed, probe_dead = self._scatter("runs", {}, pruned, reports, op_label=op)
                dead = list(dead) + probe_dead
                for response in probed.values():
                    for summary in response["result"]:
                        defaulted.add(int(summary["id"]))
            run_order = sorted(set(answered) | defaulted)

        self._finish(op, reports, self._missing_entries(dead))
        return order_across_runs(answered, run_order, default)

    def lineage_across_runs(self, pages: Iterable[int]) -> Dict[int, Set[NodeId]]:
        """:meth:`StoreQueryEngine.lineage_across_runs` over every shard."""
        wanted = [int(p) for p in pages]
        return self._across_runs(
            "lineage_across_runs",
            wanted,
            {"pages": wanted},
            parse=_parse_nodes,
            default=lambda _: set(),
        )

    def taint_across_runs(
        self, source_pages: Iterable[int], through_thread_state: bool = False
    ) -> Dict[int, TaintResult]:
        """:meth:`StoreQueryEngine.taint_across_runs` over every shard."""
        sources = [int(p) for p in source_pages]
        return self._across_runs(
            "taint_across_runs",
            sources,
            {"pages": sources, "through_thread_state": through_thread_state},
            parse=_parse_taint,
            default=lambda _: untouched_taint(sources),
        )

    def compare_lineage(self, run_a: int, run_b: int, pages) -> LineageDiff:
        """:meth:`StoreQueryEngine.compare_lineage`, possibly cross-shard.

        Both lineages are fetched concurrently (two shards, or one shard
        twice) and diffed through the same helper the engine uses, so a
        cross-shard diff cannot disagree with a single-store one.  Either
        run's shard being down always raises -- there is no partial diff.
        """
        wanted = normalize_pages(pages)
        shard_a, local_a, cluster_a = self._route(int(run_a))
        shard_b, local_b, cluster_b = self._route(int(run_b))
        reports: List[dict] = []

        def fetch(shard: ShardInfo, local_run: int) -> Set[NodeId]:
            response = self._shard_request(
                shard, "lineage", {"pages": list(wanted), "run": local_run}, reports
            )
            return _parse_nodes(response["result"]["nodes"])

        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                future_a = pool.submit(fetch, shard_a, local_a)
                future_b = pool.submit(fetch, shard_b, local_b)
                lineage_a, lineage_b = future_a.result(), future_b.result()
        finally:
            self._finish("compare_lineage", reports, [])
        return diff_lineage(cluster_a, cluster_b, wanted, lineage_a, lineage_b)

    # ------------------------------------------------------------------ #
    # Introspection & administration
    # ------------------------------------------------------------------ #

    def status(self) -> dict:
        """Liveness, run counts, and endpoints of every shard."""
        shards = []
        for shard in self.manifest.shards:
            reports: List[dict] = []
            entry = {
                "shard": shard.shard_id,
                "primary": shard.primary.address,
                "replicas": [r.address for r in shard.replicas],
                "page_hash_range": list(shard.page_hash_range)
                if shard.page_hash_range
                else None,
            }
            try:
                response = self._shard_request(shard, "runs", {}, reports)
            except ShardDownError as exc:
                entry.update({"alive": False, "error": str(exc)})
            else:
                summaries = response["result"]
                entry.update(
                    {
                        "alive": True,
                        "served_by": reports[-1]["address"],
                        "runs": [int(s["id"]) for s in summaries],
                    }
                )
                if self.manifest.policy == "manual":
                    entry["assigned_runs"] = sorted(
                        self.manifest.assigned_runs(shard.shard_id)
                    )
            shards.append(entry)
        return {
            "policy": self.manifest.policy,
            "on_shard_down": self.on_shard_down,
            "shards": shards,
            "runs": sorted(
                {
                    run
                    for entry in shards
                    for run in entry.get("assigned_runs", entry.get("runs", []) or [])
                }
            ),
        }

    def promote(self, shard_id: str, address: str) -> None:
        """Promote a replica to primary (manifest mutation; takes effect
        on the next request, which re-reads endpoint order)."""
        self.manifest.promote(shard_id, address)

    # ------------------------------------------------------------------ #
    # Anti-entropy repair
    # ------------------------------------------------------------------ #

    def repair(self, shard_id: Optional[str] = None) -> dict:
        """Heal a shard's local replicas from its primary, file by file.

        The primary serves its per-file ``(size, crc)`` table
        (``manifest_digest``); every replica endpoint that carries a local
        store ``path`` is diffed against it and exactly the files that are
        missing or checksum-differently are streamed over
        (``fetch_file``, verified again on arrival, installed by
        :func:`repro.store.files.replace`).  The primary's ``segments.log`` and
        ``MANIFEST.json`` are copied last -- the manifest rename is the
        commit point, and since the primary's manifest carries no
        quarantine marks for healthy segments, a replica whose scrub had
        quarantined a now-repaired segment converges back to clean.  A
        replica that also serves an address gets a ``refresh`` so its
        live server swaps the healed snapshot in immediately.

        ``shard_id=None`` repairs every shard.  Replicas without a local
        path (served elsewhere) are skipped and reported as such; extra
        local files a replica has beyond the digest are left for its own
        fsck/maintenance to sweep.  Returns the repair report; cumulative
        counters land in :meth:`fanout_stats`.
        """
        if shard_id is None:
            shards = list(self.manifest.shards)
        else:
            shards = [s for s in self.manifest.shards if s.shard_id == shard_id]
            if not shards:
                known = ", ".join(s.shard_id for s in self.manifest.shards) or "none"
                raise StoreError(f"cluster has no shard {shard_id!r} (shards: {known})")
        report = {"shards": [], "files_fetched": 0, "bytes_fetched": 0}
        for shard in shards:
            entry = self._repair_shard(shard)
            report["shards"].append(entry)
            report["files_fetched"] += entry["files_fetched"]
            report["bytes_fetched"] += entry["bytes_fetched"]
        with self._lock:
            self.repairs_run += 1
            self._repair_files += report["files_fetched"]
            self._repair_bytes += report["bytes_fetched"]
        return report

    def _repair_shard(self, shard: ShardInfo) -> dict:
        endpoints = shard.endpoints()
        primary = endpoints[0] if endpoints else None
        if primary is None or not primary.address:
            raise StoreError(
                f"shard {shard.shard_id!r} has no addressable primary to repair from"
            )
        source = self._client(primary.address)
        digest = source.result("manifest_digest")
        files = {
            str(rel): [int(pair[0]), int(pair[1])]
            for rel, pair in dict(digest["files"]).items()
        }
        entry = {
            "shard": shard.shard_id,
            "source": primary.address,
            "replicas": [],
            "files_fetched": 0,
            "bytes_fetched": 0,
        }
        primary_root = os.path.realpath(primary.path) if primary.path else None
        for endpoint in endpoints[1:]:
            if not endpoint.path:
                entry["replicas"].append(
                    {"address": endpoint.address or None, "skipped": "no local path"}
                )
                continue
            if primary_root and os.path.realpath(endpoint.path) == primary_root:
                continue  # same directory as the source: nothing to heal
            replica = self._repair_replica(source, endpoint, files)
            entry["replicas"].append(replica)
            entry["files_fetched"] += len(replica["fetched"])
            entry["bytes_fetched"] += replica["bytes_fetched"]
        return entry

    def _repair_replica(self, source, endpoint: Endpoint, files: Dict[str, List[int]]) -> dict:
        root = endpoint.path
        fetched: List[str] = []
        bytes_fetched = 0
        matched = 0
        for rel in sorted(files):
            target = os.path.join(root, *rel.split("/"))
            try:
                local = file_size_crc(target)
            except OSError:
                local = None
            if local == files[rel]:
                matched += 1
                continue
            bytes_fetched += self._fetch_into(source, rel, root)
            fetched.append(rel)
        # Metadata last, manifest very last: data files are in place
        # before the log that names them, and the manifest rename is the
        # commit point (the same ordering the store's own flush uses).
        for rel in (SEGMENT_LOG_NAME, MANIFEST_NAME):
            bytes_fetched += self._fetch_into(source, rel, root)
            fetched.append(rel)
        refreshed = False
        if endpoint.address:
            try:
                self._client(endpoint.address).request("refresh")
                refreshed = True
            except (StoreError, StoreUnreachableError):
                refreshed = False  # not serving right now; heals on next open
        return {
            "path": root,
            "address": endpoint.address or None,
            "fetched": fetched,
            "files_matched": matched,
            "bytes_fetched": bytes_fetched,
            "refreshed": refreshed,
        }

    def _fetch_into(self, source, rel: str, root: str) -> int:
        """Fetch one file from the repair source and install it durably."""
        result = source.result("fetch_file", path=rel)
        data = base64.b64decode(str(result["data"]), validate=True)
        crc = binascii.crc32(data) & 0xFFFFFFFF
        if len(data) != int(result["size"]) or crc != int(result["crc"]):
            raise StoreError(
                f"repair fetch of {rel!r} arrived damaged "
                f"({len(data)} bytes crc {crc:#010x}, source said "
                f"{result['size']} bytes crc {int(result['crc']):#010x})"
            )
        # A crashed install leaves the old file and a scratch file the
        # store's own sweep (and fsck --repair) removes.
        files.replace(os.path.join(root, *rel.split("/")), data)
        return len(data)

    def fanout_stats(self) -> dict:
        """Cumulative fan-out accounting across every query so far."""
        with self._lock:
            return {
                "queries_served": self.queries_served,
                "shard_requests": dict(self._shard_requests),
                "shard_failovers": dict(self._shard_failovers),
                "repairs": {
                    "runs": self.repairs_run,
                    "files_fetched": self._repair_files,
                    "bytes_fetched": self._repair_bytes,
                },
                "totals": self._totals.to_dict(),
            }


class ClusterService:
    """Hosts every shard of a manifest as in-process :class:`StoreServer`s.

    The deployment story behind ``python -m repro.store cluster serve``:
    each shard (and each replica) whose manifest entry carries a store
    ``path`` gets its own server -- own cache, own snapshot -- bound to
    its configured address (``host:port``; port 0 or a missing address
    binds an ephemeral loopback port).  Bound addresses are written back
    into the manifest (and ``cluster.json``, when it was loaded from
    disk), so a router can be pointed at the file immediately.

    Endpoints without a path are assumed to be served elsewhere and are
    left alone -- mixing in-process and remote shards is fine.
    """

    def __init__(
        self,
        manifest,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        writable: bool = False,
    ) -> None:
        if isinstance(manifest, str):
            manifest = ClusterManifest.load(manifest)
        self.manifest: ClusterManifest = manifest
        self.cache_bytes = cache_bytes
        self.writable = writable
        #: (shard id, endpoint) -> the StoreServer hosting it.
        self.servers: Dict[Tuple[str, int], StoreServer] = {}

    @staticmethod
    def _bind_of(endpoint: Endpoint) -> Tuple[str, int]:
        if not endpoint.address:
            return "127.0.0.1", 0
        host, _, port_text = endpoint.address.rpartition(":")
        if not host or not port_text.isdigit():
            raise StoreError(
                f"malformed endpoint address {endpoint.address!r} (expected host:port)"
            )
        return host, int(port_text)

    def start(self) -> ClusterManifest:
        """Start a server per pathful endpoint; returns the updated manifest."""
        for shard in self.manifest.shards:
            for index, endpoint in enumerate(shard.endpoints()):
                if not endpoint.path:
                    continue
                host, port = self._bind_of(endpoint)
                server = StoreServer(
                    endpoint.path,
                    host=host,
                    port=port,
                    cache_bytes=self.cache_bytes,
                    # Only the primary may accept writes; replicas serve reads.
                    writable=self.writable and index == 0,
                )
                bound_host, bound_port = server.start()
                endpoint.address = f"{bound_host}:{bound_port}"
                self.servers[(shard.shard_id, index)] = server
        if self.manifest.path:
            self.manifest.save()
        return self.manifest

    def close(self) -> None:
        for server in self.servers.values():
            server.close()
        self.servers.clear()
