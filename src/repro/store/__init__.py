"""Persistent provenance store: durable, queryable CPGs that outlive the run.

The paper's case studies all query the Concurrent Provenance Graph *after*
the traced execution; this package is the storage layer that makes that
possible without keeping the graph in RAM or re-running the workload.
Provenance is a longitudinal record: one store holds **many traced runs**
(each run a separate node-id namespace), so the same store answers "what
happened in this run", "what happened in every run", and "what changed
between these two runs".  It provides:

* :class:`~repro.store.store.ProvenanceStore` -- an append-only, segmented
  on-disk format (format 9) whose segments are checksummed, zlib-compressed
  columnar frames (:mod:`repro.store.segment`, :mod:`repro.store.codecs`)
  that store each segment's vector clocks as a base plus differences,
  with per-run page/thread/sync secondary indexes flushed as
  append-only delta files and every flush committed as one O(epoch)
  record appended to the segment log (:mod:`repro.store.log`; the
  manifest is a periodic checkpoint replayed over on open), plus
  run-scoped maintenance (``compact`` stream-rewrites a run's segments
  and folds its index deltas, ``gc`` drops superseded runs), all
  crash-consistent through the checkpoint + log-replay commit protocol;
* :class:`~repro.store.query.StoreQueryEngine` -- slices, lineage, and
  taint propagation that load only the index-selected subgraph, within a
  run, across all runs, or diffed between two runs
  (:meth:`~repro.store.query.StoreQueryEngine.compare_lineage`);
* :class:`~repro.store.sink.StoreSink` /
  :class:`~repro.store.sink.RemoteStoreSink` -- incremental ingestion of
  a running execution, one segment per epoch, one run per sink, into a
  local directory or over TCP to a writable server;
* :mod:`repro.store.cache` -- the hot read path: a byte-budgeted LRU of
  decoded segments (:class:`~repro.store.cache.SegmentCache`) and pinned
  per-run index generations (:class:`~repro.store.cache.IndexPinner`);
* :class:`~repro.store.server.StoreServer` /
  :class:`~repro.store.server.StoreClient` -- a long-lived warm query
  server (snapshot-at-open with opt-in follow-mode bounded staleness,
  concurrent read-only queries, per-query stats, optional remote ingest,
  live-tail ``watch`` streams) and its retrying client;
* :class:`~repro.store.cluster.StoreCluster` /
  :class:`~repro.store.shard.ClusterManifest` -- horizontal reads: a
  scatter-gather router mapping runs onto shards (each an ordinary
  store server, with read replicas) behind a ``cluster.json`` manifest,
  answering every engine query identically to the unsharded engine,
  with per-shard fan-out telemetry and a configurable degraded-read
  policy when a shard is down;
* :mod:`repro.store.gate` / :mod:`repro.store.autopilot` /
  :mod:`repro.store.fleet` -- the continuous-provenance operations
  layer: blessed :class:`~repro.store.gate.ProvenanceBaseline`
  snapshots gating later runs on provenance drift, a declarative
  maintenance daemon scheduling compact/gc/scrub from policy, and a
  run-fleet generator with population-level
  :func:`~repro.store.fleet.drift_report` comparisons;
* ``python -m repro.store`` -- the ``ingest`` / ``info`` / ``runs`` /
  ``slice`` / ``lineage`` / ``taint`` / ``compact`` / ``gc`` /
  ``bless`` / ``check`` / ``autopilot`` / ``serve``
  / ``watch`` / ``cluster serve|query|status`` command-line surface.

The whole reproduction's module map lives in ``docs/architecture.md``;
this package's own design notes are in ``docs/store.md``.
"""

from repro.errors import (
    CorruptSegmentError,
    StoreError,
    StoreReadOnlyError,
    StoreUnreachableError,
)
from repro.store.autopilot import Autopilot, AutopilotDaemon, AutopilotPolicy, Decision
from repro.store.cache import (
    DEFAULT_CACHE_BYTES,
    CacheStats,
    IndexPinner,
    PinnerStats,
    ReadScope,
    SegmentCache,
)
from repro.store.cluster import (
    ClusterService,
    InProcessShardClient,
    ShardDownError,
    StoreCluster,
)
from repro.store.format import (
    DEFAULT_CHECKPOINT_INTERVAL,
    DEFAULT_SEGMENT_NODES,
    SEGMENT_LOG_NAME,
    STORE_FORMAT_VERSION,
    RunInfo,
    SegmentInfo,
    StoreManifest,
)
from repro.store.fleet import FleetResult, FleetSpec, drift_report, run_fleet
from repro.store.gate import (
    GateReport,
    ProvenanceBaseline,
    bless_baseline,
    check_against_baseline,
    list_baselines,
)
from repro.store.indexes import StoreIndexes
from repro.store.integrity import scrub, verify_store
from repro.store.log import SegmentLog
from repro.store.query import LineageDiff, StoreQueryEngine
from repro.store.server import StoreClient, StoreServer
from repro.store.shard import PAGE_HASH_BUCKETS, ClusterManifest, Endpoint, ShardInfo, page_bucket
from repro.store.sink import RemoteStoreSink, StoreSink
from repro.store.store import MaintenanceStats, ProvenanceStore, StoreReadStats

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "DEFAULT_SEGMENT_NODES",
    "SEGMENT_LOG_NAME",
    "STORE_FORMAT_VERSION",
    "PAGE_HASH_BUCKETS",
    "Autopilot",
    "AutopilotDaemon",
    "AutopilotPolicy",
    "CacheStats",
    "ClusterManifest",
    "CorruptSegmentError",
    "ClusterService",
    "Decision",
    "Endpoint",
    "FleetResult",
    "FleetSpec",
    "GateReport",
    "IndexPinner",
    "InProcessShardClient",
    "LineageDiff",
    "PinnerStats",
    "ReadScope",
    "SegmentCache",
    "SegmentLog",
    "MaintenanceStats",
    "ProvenanceBaseline",
    "ProvenanceStore",
    "RemoteStoreSink",
    "RunInfo",
    "SegmentInfo",
    "ShardDownError",
    "ShardInfo",
    "StoreClient",
    "StoreCluster",
    "StoreError",
    "StoreIndexes",
    "StoreManifest",
    "StoreQueryEngine",
    "StoreReadOnlyError",
    "StoreReadStats",
    "StoreServer",
    "StoreSink",
    "StoreUnreachableError",
    "bless_baseline",
    "check_against_baseline",
    "drift_report",
    "list_baselines",
    "page_bucket",
    "run_fleet",
    "scrub",
    "verify_store",
]
