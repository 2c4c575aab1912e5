"""Command-line surface of the persistent provenance store.

Usage::

    python -m repro.store ingest <store> <cpg.json> [--segment-nodes N] \\
        [--workload NAME]
    python -m repro.store info <store> [--stats] [--json]
    python -m repro.store runs <store> [--json]
    python -m repro.store slice <store> (--node TID:IDX | --pages 1,2) \\
        [--run R] [--forward] [--kinds data,control,sync] [--json]
    python -m repro.store lineage <store> --pages 1,2 [--run R] [--json]
    python -m repro.store taint <store> --pages 1,2 \\
        [--run R] [--through-thread-state] [--json]
    python -m repro.store compact <store> [--run R] [--segment-nodes N] [--json]
    python -m repro.store gc <store> (--keep-last N | --runs 1,2) [--json]
    python -m repro.store bless <store> [--run R] [--pages 1,2]... \\
        [--name NAME] [--no-racy] [--json]
    python -m repro.store check <store> --baseline <run-or-name> \\
        [--run R] [--no-racy] [--json]
    python -m repro.store autopilot <store> [--once] [--dry-run] \\
        [--interval S] [--keep-last N] [--max-store-bytes N] \\
        [--scrub-interval S] [--protect-runs 1,2] [--log FILE] [--json]
    python -m repro.store fsck <store> [--repair] [--json]
    python -m repro.store scrub <store> [--throttle-mb N] \\
        [--no-quarantine] [--json]
    python -m repro.store serve <store> [--host H] [--port P] \\
        [--cache-bytes N] [--writable] \\
        [--maintenance [policy.json]] [--maintenance-interval S]
    python -m repro.store watch <host:port> --pages 1,2 [--run R] \\
        [--interval S] [--timeout S] [--json]
    python -m repro.store cluster serve <cluster.json> [--cache-bytes N] \\
        [--writable]
    python -m repro.store cluster status <cluster.json> [--json]
    python -m repro.store cluster query <cluster.json> --pages 1,2 \\
        [--run R | --across-runs | --compare A B] [--taint] \\
        [--partial] [--json]
    python -m repro.store cluster repair <cluster.json> [--shard ID] [--json]

``slice --node`` answers "what does this sub-computation depend on" (or,
with ``--forward``, "what did it influence"); ``lineage --pages`` (and its
older spelling ``slice --pages``) answers the debugging case study's "why
is this page in that state" as the lineage of the pages.  A store holds
many runs: ``runs`` lists them, ``--run`` scopes a query to one (optional
while the store holds exactly one run), ``compact`` merges a run's small
segments, and ``gc`` drops superseded runs and reclaims their disk
space.  ``fsck`` is the structural integrity check (manifest/log/files
agreement plus orphan detection; ``--repair`` removes the orphans) and
``scrub`` re-reads and re-checksums every store file,
quarantining damaged segments (:mod:`repro.store.integrity`); both print
machine-readable reports with ``--json`` and exit non-zero on damage.
``bless`` snapshots a run's lineage/taint/racy-pair fingerprints as a
named baseline under ``index/baselines/`` and ``check`` gates a later
run against it, exiting non-zero with a page-level diff on provenance
drift (:mod:`repro.store.gate`) -- the CI shape.  ``autopilot`` runs the
declarative maintenance daemon (:mod:`repro.store.autopilot`): it plans
and executes ``compact``/``gc``/``scrub`` from size, age, fragmentation,
and quarantine thresholds, ``--once``/``--dry-run`` for auditing; the
same policy rides along inside a server via ``serve --maintenance``.
Every query prints how many segments it read out of how many the
store holds, making the out-of-core behaviour visible.
``serve`` keeps one warm
decoded-segment cache + pinned indexes resident and answers the same
queries over newline-delimited JSON on TCP
(:mod:`repro.store.server`); with ``--writable`` it additionally accepts
remote ingest (``begin_run``/``append_epoch``/``commit_run`` -- what a
:class:`~repro.store.sink.StoreSink` given a server URL speaks).
``watch`` tails a page set's lineage against a running server, printing
an update whenever the watched run grows.  The ``cluster`` family
operates on a sharded deployment described by a ``cluster.json``
manifest (:mod:`repro.store.shard`): ``cluster serve`` hosts every shard (and
replica) that has a local store path, ``cluster status`` probes shard
liveness and run placement, and ``cluster query`` scatter-gathers
lineage/taint/compare queries through a
:class:`~repro.store.cluster.StoreCluster` router (``--partial`` opts
into degraded reads that skip dead shards and report them).  ``cluster
repair`` runs anti-entropy: each shard's local replicas are diffed
against the primary's per-file checksum table and exactly the missing or
damaged files are streamed over and installed atomically.  ``info --stats`` reports the read-path cache
configuration, and plain ``info`` includes the segment-log state (log
records and bytes, last checkpoint sequence, uncheckpointed records).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Sequence

from repro.core.cpg import EdgeKind
from repro.core.serialization import node_key, parse_node_key
from repro.errors import InspectorError

from repro.store.autopilot import Autopilot, AutopilotDaemon, AutopilotPolicy
from repro.store.cache import DEFAULT_CACHE_BYTES
from repro.store.cluster import ClusterService, StoreCluster
from repro.store.gate import bless_baseline, check_against_baseline
from repro.store.integrity import scrub, verify_store
from repro.store.query import StoreQueryEngine
from repro.store.server import StoreClient, StoreServer
from repro.store.store import DEFAULT_CACHE_SEGMENTS, ProvenanceStore


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_pages(text: str) -> List[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed page list {text!r}: {exc}") from exc


def _parse_runs(text: str) -> List[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed run list {text!r}: {exc}") from exc


def _parse_kinds(text: str) -> List[EdgeKind]:
    kinds = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            kinds.append(EdgeKind(piece))
        except ValueError as exc:
            known = ", ".join(sorted(member.value for member in EdgeKind))
            raise argparse.ArgumentTypeError(
                f"unknown edge kind {piece!r} (known kinds: {known})"
            ) from exc
    if not kinds:
        raise argparse.ArgumentTypeError("at least one edge kind is required")
    return kinds


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.store`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Query and maintain persistent provenance stores.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="ingest a CPG JSON file (v1 or v2) as a new run")
    ingest.add_argument("store", help="store directory (created when missing)")
    ingest.add_argument("cpg", help="CPG JSON file written with write_cpg()")
    ingest.add_argument(
        "--segment-nodes", type=int, default=None, help="sub-computations per segment"
    )
    ingest.add_argument("--workload", default="", help="workload name recorded for the run")

    info = commands.add_parser("info", help="print the store summary")
    info.add_argument("store", help="store directory")
    info.add_argument(
        "--stats",
        action="store_true",
        help="also report read-path cache configuration and counters",
    )
    info.add_argument("--json", action="store_true", help="machine-readable output")

    runs = commands.add_parser("runs", help="list the store's runs")
    runs.add_argument("store", help="store directory")
    runs.add_argument("--json", action="store_true", help="machine-readable output")

    slice_cmd = commands.add_parser("slice", help="backward/forward slice or page lineage")
    slice_cmd.add_argument("store", help="store directory")
    slice_cmd.add_argument("--node", help="slice origin as TID:INDEX")
    slice_cmd.add_argument("--pages", type=_parse_pages, help="lineage of these pages (comma-separated)")
    slice_cmd.add_argument(
        "--run", type=int, default=None, help="run to query (optional for single-run stores)"
    )
    slice_cmd.add_argument("--forward", action="store_true", help="forward slice instead of backward")
    slice_cmd.add_argument(
        "--kinds",
        type=_parse_kinds,
        default=[EdgeKind.DATA],
        help="edge kinds to follow (default: data)",
    )
    slice_cmd.add_argument("--json", action="store_true", help="machine-readable output")

    lineage = commands.add_parser("lineage", help="lineage of pages (alias of slice --pages)")
    lineage.add_argument("store", help="store directory")
    lineage.add_argument(
        "--pages", type=_parse_pages, required=True, help="comma-separated page list"
    )
    lineage.add_argument(
        "--run", type=int, default=None, help="run to query (optional for single-run stores)"
    )
    lineage.add_argument("--json", action="store_true", help="machine-readable output")

    taint = commands.add_parser("taint", help="propagate page-granularity taint")
    taint.add_argument("store", help="store directory")
    taint.add_argument("--pages", type=_parse_pages, required=True, help="source pages")
    taint.add_argument(
        "--run", type=int, default=None, help="run to query (optional for single-run stores)"
    )
    taint.add_argument(
        "--through-thread-state",
        action="store_true",
        help="conservative mode: a tainted thread stays tainted",
    )
    taint.add_argument("--json", action="store_true", help="machine-readable output")

    compact = commands.add_parser("compact", help="merge a run's small segments")
    compact.add_argument("store", help="store directory")
    compact.add_argument(
        "--run", type=int, default=None, help="run to compact (default: every run)"
    )
    compact.add_argument(
        "--segment-nodes", type=int, default=None, help="sub-computations per rewritten segment"
    )
    compact.add_argument("--json", action="store_true", help="machine-readable output")

    gc = commands.add_parser("gc", help="drop superseded runs and reclaim disk space")
    gc.add_argument("store", help="store directory")
    gc.add_argument("--keep-last", type=int, default=None, help="keep the N most recent runs")
    gc.add_argument("--runs", type=_parse_runs, default=None, help="drop exactly these run ids")
    gc.add_argument("--json", action="store_true", help="machine-readable output")

    bless = commands.add_parser(
        "bless", help="snapshot a run's provenance fingerprints as a named baseline"
    )
    bless.add_argument("store", help="store directory")
    bless.add_argument(
        "--run", type=int, default=None, help="run to bless (optional for single-run stores)"
    )
    bless.add_argument(
        "--pages",
        type=_parse_pages,
        action="append",
        default=None,
        metavar="1,2",
        help="fingerprint this page set (repeatable; default: every touched page)",
    )
    bless.add_argument("--name", default=None, help="baseline name (default: run-<id>)")
    bless.add_argument(
        "--no-racy", action="store_true", help="skip recording the run's racy pairs"
    )
    bless.add_argument("--json", action="store_true", help="machine-readable output")

    check = commands.add_parser(
        "check", help="gate a run against a blessed baseline (exits non-zero on drift)"
    )
    check.add_argument("store", help="store directory")
    check.add_argument(
        "--baseline",
        required=True,
        help="baseline name, or a blessed run id (persisted or computed on the fly)",
    )
    check.add_argument(
        "--run", type=int, default=None, help="candidate run (default: the most recent)"
    )
    check.add_argument(
        "--no-racy", action="store_true", help="skip the racy-pair comparison"
    )
    check.add_argument("--json", action="store_true", help="machine-readable output")

    autopilot = commands.add_parser(
        "autopilot", help="policy-driven maintenance daemon (compact/gc/scrub)"
    )
    autopilot.add_argument("store", help="store directory")
    autopilot.add_argument(
        "--once", action="store_true", help="run one maintenance cycle and exit"
    )
    autopilot.add_argument(
        "--dry-run", action="store_true", help="plan and report, execute nothing"
    )
    autopilot.add_argument(
        "--interval", type=float, default=5.0, help="seconds between cycles (default: 5)"
    )
    autopilot.add_argument(
        "--keep-last", type=int, default=None, help="gc down to the N most recent live runs"
    )
    autopilot.add_argument(
        "--max-store-bytes",
        type=int,
        default=None,
        help="gc oldest runs while segments exceed this byte budget",
    )
    autopilot.add_argument(
        "--scrub-interval",
        type=float,
        default=None,
        help="scrub at least this often in seconds (quarantine always triggers one)",
    )
    autopilot.add_argument(
        "--compact-min-delta-files",
        type=int,
        default=None,
        help="compact a run once this many index delta files pend",
    )
    autopilot.add_argument(
        "--protect-runs",
        type=_parse_runs,
        default=None,
        help="never gc these run ids (baseline-blessed runs are protected by default)",
    )
    autopilot.add_argument(
        "--log", default=None, help="append structured decisions to this JSONL file"
    )
    autopilot.add_argument("--json", action="store_true", help="machine-readable output")

    fsck = commands.add_parser(
        "fsck", help="structural integrity check (manifest/log/files agreement, orphans)"
    )
    fsck.add_argument("store", help="store directory")
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="remove orphan files left behind by a crashed compact/gc",
    )
    fsck.add_argument("--json", action="store_true", help="machine-readable output")

    scrub_cmd = commands.add_parser(
        "scrub", help="re-read and re-checksum every store file; quarantine damage"
    )
    scrub_cmd.add_argument("store", help="store directory")
    scrub_cmd.add_argument(
        "--throttle-mb",
        type=float,
        default=None,
        help="cap scrub read bandwidth at this many MB/s (default: unthrottled)",
    )
    scrub_cmd.add_argument(
        "--no-quarantine",
        action="store_true",
        help="report damage without marking segments quarantined",
    )
    scrub_cmd.add_argument("--json", action="store_true", help="machine-readable output")

    serve = commands.add_parser(
        "serve", help="serve read-only queries from one warm cache (JSON lines over TCP)"
    )
    serve.add_argument("store", help="store directory")
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind (default: loopback)")
    serve.add_argument("--port", type=int, default=0, help="TCP port (default: pick a free one)")
    serve.add_argument(
        "--cache-bytes",
        type=_positive_int,
        default=DEFAULT_CACHE_BYTES,
        help=f"decoded-segment cache byte budget (default: {DEFAULT_CACHE_BYTES})",
    )
    serve.add_argument(
        "--writable",
        action="store_true",
        help="accept remote ingest ops (begin_run/append_epoch/commit_run)",
    )
    serve.add_argument(
        "--maintenance",
        nargs="?",
        const="",
        default=None,
        metavar="POLICY_JSON",
        help="run a maintenance autopilot in-process "
        "(optionally configured from a policy JSON file; default policy otherwise)",
    )
    serve.add_argument(
        "--maintenance-interval",
        type=float,
        default=5.0,
        help="seconds between autopilot cycles (default: 5)",
    )

    watch = commands.add_parser(
        "watch", help="tail a page set's lineage against a running store server"
    )
    watch.add_argument("server", help="server address as host:port (or store://host:port)")
    watch.add_argument(
        "--pages", type=_parse_pages, required=True, help="comma-separated page list"
    )
    watch.add_argument(
        "--run", type=int, default=None, help="run to watch (optional for single-run stores)"
    )
    watch.add_argument(
        "--interval", type=float, default=0.2, help="seconds between observations (default: 0.2)"
    )
    watch.add_argument(
        "--timeout", type=float, default=60.0, help="give up after this many seconds (default: 60)"
    )
    watch.add_argument("--json", action="store_true", help="machine-readable output (JSON lines)")

    cluster = commands.add_parser(
        "cluster", help="operate a sharded store cluster (see cluster.json manifests)"
    )
    cluster_cmds = cluster.add_subparsers(dest="cluster_command", required=True)

    cserve = cluster_cmds.add_parser(
        "serve", help="host every shard/replica with a local store path in one process"
    )
    cserve.add_argument("cluster", help="cluster.json manifest (or its directory)")
    cserve.add_argument(
        "--cache-bytes",
        type=_positive_int,
        default=DEFAULT_CACHE_BYTES,
        help=f"per-shard decoded-segment cache budget (default: {DEFAULT_CACHE_BYTES})",
    )
    cserve.add_argument(
        "--writable",
        action="store_true",
        help="shard primaries accept remote ingest (replicas stay read-only)",
    )

    cstatus = cluster_cmds.add_parser(
        "status", help="probe shard liveness, replicas, and run placement"
    )
    cstatus.add_argument("cluster", help="cluster.json manifest (or its directory)")
    cstatus.add_argument("--json", action="store_true", help="machine-readable output")

    cquery = cluster_cmds.add_parser(
        "query", help="scatter-gather a lineage/taint/compare query over the shards"
    )
    cquery.add_argument("cluster", help="cluster.json manifest (or its directory)")
    cquery.add_argument(
        "--pages", type=_parse_pages, required=True, help="comma-separated page list"
    )
    cquery.add_argument(
        "--run", type=int, default=None, help="query one run (optional for single-run clusters)"
    )
    cquery.add_argument(
        "--across-runs",
        action="store_true",
        help="fan the query out over every run of every shard",
    )
    cquery.add_argument(
        "--compare",
        nargs=2,
        type=int,
        metavar=("RUN_A", "RUN_B"),
        help="diff the pages' lineage between two runs (possibly on different shards)",
    )
    cquery.add_argument(
        "--taint", action="store_true", help="propagate taint instead of lineage"
    )
    cquery.add_argument(
        "--partial",
        action="store_true",
        help="degraded reads: cross-run queries skip dead shards and report them",
    )
    cquery.add_argument("--json", action="store_true", help="machine-readable output")

    crepair = cluster_cmds.add_parser(
        "repair",
        help="anti-entropy: heal local replicas from their shard primaries",
    )
    crepair.add_argument("cluster", help="cluster.json manifest (or its directory)")
    crepair.add_argument(
        "--shard", default=None, help="repair one shard (default: every shard)"
    )
    crepair.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _print_read_footer(engine: StoreQueryEngine) -> None:
    total = engine.store.manifest.segment_count
    print(f"[segments read: {engine.segments_loaded} / {total}]")


def _cmd_ingest(args: argparse.Namespace) -> int:
    store = ProvenanceStore.open_or_create(args.store)
    kwargs = {}
    if args.segment_nodes is not None:
        kwargs["segment_nodes"] = args.segment_nodes
    segments = store.ingest_json_file(args.cpg, workload=args.workload, **kwargs)
    run_id = store.manifest.runs[-1].run_id
    print(
        f"ingested {args.cpg} into {args.store} as run {run_id}: "
        f"{segments} new segment(s), {store.manifest.node_count} node(s) total"
    )
    return 0


def _print_cache_stats(store: ProvenanceStore) -> None:
    cache_info = store.cache_info()
    cache = cache_info["segment_cache"]
    print("  read-path cache:")
    print(
        f"    segment cache:  {cache['max_bytes']} byte budget "
        f"(default {DEFAULT_CACHE_BYTES}), "
        f"{cache['max_entries'] if cache['max_entries'] is not None else 'unbounded'} "
        f"entry cap (default {DEFAULT_CACHE_SEGMENTS})"
    )
    print(
        f"    resident:       {cache['entries']} segment(s), {cache['total_bytes']} byte(s) "
        f"(peak {cache['peak_bytes']})"
    )
    print(
        f"    traffic:        {cache['hits']} hit(s), {cache['misses']} miss(es), "
        f"{cache['evictions']} eviction(s)"
    )
    pinner = cache_info["index_pinner"]
    if pinner is None:
        print("    index pinner:   none attached (one-shot CLI queries merge per open)")
    else:
        print(
            f"    index pinner:   {pinner['pinned_runs']} run(s) pinned, "
            f"{pinner['hits']} hit(s), {pinner['misses']} miss(es)"
        )


def _cmd_info(args: argparse.Namespace) -> int:
    store = ProvenanceStore.open(args.store)
    summary = store.info()
    if args.stats:
        summary["cache"] = store.cache_info()
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
        return 0
    print(f"provenance store at {summary['path']}")
    print(f"  format version:   {summary['format_version']}")
    print(f"  runs:             {len(summary['runs'])}")
    print(f"  segments:         {summary['segments']}")
    print(f"  sub-computations: {summary['nodes']}")
    print(f"  edges:            {summary['edges']}")
    print(f"  threads:          {summary['threads']}")
    print(f"  pages indexed:    {summary['pages_indexed']}")
    print(f"  sync objects:     {summary['sync_objects']}")
    print(
        f"  segment bytes:    {summary['stored_bytes']} on disk "
        f"({summary['raw_bytes']} raw, {summary['compression_ratio']}x)"
    )
    print(
        f"  index deltas:     {summary['index_delta_files']} pending file(s), "
        f"{summary['index_delta_bytes']} byte(s)"
    )
    log = summary["segment_log"]
    print(
        f"  segment log:      {log['records']} record(s), {log['bytes']} byte(s) "
        f"(checkpoint seq {log['checkpoint_seq']}, last seq {log['last_seq']}, "
        f"{log['uncheckpointed_records']} uncheckpointed)"
    )
    for run in summary["runs"]:
        print(
            f"  run {run['id']:4d}:         {run['workload'] or '?'} "
            f"[{run['status']}] {run['nodes']} node(s), {run['segments']} segment(s) "
            f"(index base gen {run['index_base_gen']}, "
            f"{run['index_delta_files']} delta(s), {run['index_delta_bytes']} byte(s) pending)"
        )
    if args.stats:
        _print_cache_stats(store)
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    store = ProvenanceStore.open(args.store)
    summaries = [store.run_summary(run_id) for run_id in store.run_ids()]
    if args.json:
        print(json.dumps(summaries, sort_keys=True, indent=2))
        return 0
    if not summaries:
        print(f"store at {args.store} holds no runs")
        return 0
    print(f"{'run':>4s} {'workload':20s} {'status':9s} {'nodes':>7s} {'segments':>9s} {'bytes':>10s} created")
    for run in summaries:
        print(
            f"{run['id']:4d} {(run['workload'] or '?'):20s} {run['status']:9s} "
            f"{run['nodes']:7d} {run['segments']:9d} {run['stored_bytes']:10d} {run['created_at']}"
        )
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    if (args.node is None) == (args.pages is None):
        print("slice needs exactly one of --node or --pages", file=sys.stderr)
        return 2
    if args.pages is not None and (args.forward or args.kinds != [EdgeKind.DATA]):
        # Lineage is defined as the backward data-slice of the pages'
        # writers; silently ignoring the flags would answer a different
        # question than the one asked.
        print("--forward/--kinds apply to --node slices, not --pages lineage", file=sys.stderr)
        return 2
    store = ProvenanceStore.open(args.store)
    run_id = store.resolve_run(args.run)
    engine = StoreQueryEngine(store)
    if args.node is not None:
        origin = parse_node_key(args.node)
        if args.forward:
            nodes = engine.forward_slice(origin, kinds=tuple(args.kinds), run=run_id)
        else:
            nodes = engine.backward_slice(origin, kinds=tuple(args.kinds), run=run_id)
        label = ("forward" if args.forward else "backward") + f" slice of {args.node}"
    else:
        nodes = engine.lineage_of_pages(args.pages, run=run_id)
        label = f"lineage of pages {args.pages}"
    label += f" (run {run_id})"
    ordered = sorted(nodes)
    if args.json:
        print(
            json.dumps(
                {"query": label, "run": run_id, "nodes": [node_key(node) for node in ordered]}
            )
        )
        return 0
    print(f"{label}: {len(ordered)} sub-computation(s)")
    for node in ordered:
        print(f"  {node_key(node)}")
    _print_read_footer(engine)
    return 0


def _cmd_lineage(args: argparse.Namespace) -> int:
    # `lineage` is the first-class spelling of `slice --pages`; delegate so
    # the two subcommands cannot drift apart.
    args.node = None
    args.forward = False
    args.kinds = [EdgeKind.DATA]
    return _cmd_slice(args)


def _cmd_taint(args: argparse.Namespace) -> int:
    store = ProvenanceStore.open(args.store)
    run_id = store.resolve_run(args.run)
    engine = StoreQueryEngine(store)
    result = engine.propagate_taint(
        args.pages, through_thread_state=args.through_thread_state, run=run_id
    )
    if args.json:
        print(
            json.dumps(
                {
                    "run": run_id,
                    "source_pages": sorted(result.source_pages),
                    "tainted_pages": sorted(result.tainted_pages),
                    "tainted_nodes": [node_key(node) for node in sorted(result.tainted_nodes)],
                }
            )
        )
        return 0
    print(f"taint from pages {sorted(result.source_pages)} (run {run_id}):")
    print(f"  tainted pages: {sorted(result.tainted_pages)}")
    print(f"  tainted sub-computations: {len(result.tainted_nodes)}")
    for node in sorted(result.tainted_nodes):
        print(f"    {node_key(node)}")
    _print_read_footer(engine)
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    store = ProvenanceStore.open(args.store)
    kwargs = {}
    if args.segment_nodes is not None:
        kwargs["segment_nodes"] = args.segment_nodes
    stats = store.compact(run=args.run, **kwargs)
    if args.json:
        print(json.dumps(stats.to_dict(), sort_keys=True))
        return 0
    scope = f"run {args.run}" if args.run is not None else "every run"
    print(
        f"compacted {scope}: {stats.segments_before} -> {stats.segments_after} segment(s), "
        f"{stats.bytes_reclaimed} byte(s) reclaimed, "
        f"{stats.index_delta_files_reclaimed} index delta file(s) folded"
    )
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    if (args.keep_last is None) == (args.runs is None):
        print("gc needs exactly one of --keep-last or --runs", file=sys.stderr)
        return 2
    store = ProvenanceStore.open(args.store)
    stats = store.gc(keep_last=args.keep_last, runs=args.runs)
    if args.json:
        print(json.dumps(stats.to_dict(), sort_keys=True))
        return 0
    dropped = ", ".join(str(run) for run in stats.runs_dropped) or "nothing"
    print(
        f"gc dropped {dropped}: {stats.segments_before} -> {stats.segments_after} segment(s), "
        f"{stats.bytes_reclaimed} byte(s) reclaimed"
    )
    return 0


def _cmd_bless(args: argparse.Namespace) -> int:
    with ProvenanceStore.open(args.store) as store:
        baseline = bless_baseline(
            store,
            run=args.run,
            pages=args.pages,
            name=args.name,
            include_racy=not args.no_racy,
        )
        path = baseline.save(store)
    if args.json:
        print(json.dumps(baseline.to_dict(), sort_keys=True, indent=2))
        return 0
    racy = (
        f", {baseline.racy_pair_count} racy pair(s)"
        if baseline.racy_pairs is not None
        else ""
    )
    print(
        f"blessed run {baseline.run_id} as baseline {baseline.name!r}: "
        f"{len(baseline.page_sets)} page set(s){racy} -> {path}"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    with ProvenanceStore.open(args.store) as store:
        report = check_against_baseline(
            store,
            args.baseline,
            run=args.run,
            include_racy=False if args.no_racy else None,
        )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        for line in report.explain():
            print(line)
    return 0 if report.ok else 1


def _print_decision(decision) -> None:
    if decision.dry_run:
        status = "planned"
    elif decision.error is not None:
        status = "FAILED"
    else:
        status = "done"
    line = f"  [{status}] {decision.action}"
    if decision.run is not None:
        line += f" run {decision.run}"
    line += f": {decision.reason}"
    if decision.error:
        line += f" ({decision.error})"
    print(line)


def _cmd_autopilot(args: argparse.Namespace) -> int:
    policy_kwargs = {"dry_run": args.dry_run}
    if args.keep_last is not None:
        policy_kwargs["gc_keep_last"] = args.keep_last
    if args.max_store_bytes is not None:
        policy_kwargs["gc_max_store_bytes"] = args.max_store_bytes
    if args.scrub_interval is not None:
        policy_kwargs["scrub_interval_s"] = args.scrub_interval
    if args.compact_min_delta_files is not None:
        policy_kwargs["compact_min_delta_files"] = args.compact_min_delta_files
    if args.protect_runs is not None:
        policy_kwargs["protect_runs"] = tuple(args.protect_runs)
    policy = AutopilotPolicy(**policy_kwargs)
    with ProvenanceStore.open(args.store) as store:
        pilot = Autopilot(store, policy, log_path=args.log)
        if args.once:
            decisions = pilot.run_once()
            if args.json:
                print(
                    json.dumps(
                        [decision.to_dict() for decision in decisions],
                        sort_keys=True,
                        indent=2,
                    )
                )
            else:
                if not decisions:
                    print(f"autopilot on {args.store}: nothing to do")
                else:
                    print(f"autopilot on {args.store}: {len(decisions)} decision(s)")
                    for decision in decisions:
                        _print_decision(decision)
            return 1 if any(d.error for d in decisions) else 0
        mode = "dry-run" if args.dry_run else "active"
        print(
            f"autopilot on {args.store} ({mode}; every {args.interval}s); Ctrl-C to stop"
        )
        with AutopilotDaemon(pilot, interval_s=args.interval):
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                print("stopped")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    report = verify_store(args.store, repair=args.repair)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0 if report["ok"] else 1
    checked = report["checked"]
    print(
        f"fsck {report['path']}: checked {checked['segments']} segment(s), "
        f"{checked['index_files']} index file(s)"
    )
    log = report["segment_log"]
    if log["torn_bytes"]:
        print(f"  segment log: {log['records']} record(s), {log['torn_bytes']} torn byte(s)")
    for warning in report["warnings"]:
        print(f"  warning [{warning['kind']}] {warning['path']}: {warning['detail']}")
    for rel in report["repaired"]:
        print(f"  repaired: removed orphan {rel}")
    for problem in report["problems"]:
        print(f"  PROBLEM [{problem['kind']}] {problem['path']}: {problem['detail']}")
    print("store is clean" if report["ok"] else f"{len(report['problems'])} problem(s) found")
    return 0 if report["ok"] else 1


def _cmd_scrub(args: argparse.Namespace) -> int:
    with ProvenanceStore.open(args.store) as store:
        report = scrub(
            store,
            throttle_mb_per_s=args.throttle_mb,
            quarantine=not args.no_quarantine,
        )
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0 if report["ok"] else 1
    segments = report["segments"]
    index_files = report["index_files"]
    print(
        f"scrub {report['path']}: {report['files_scanned']} file(s), "
        f"{report['bytes_verified']} byte(s) in {report['elapsed_s']}s "
        f"({report['mb_per_s']} MB/s)"
    )
    print(
        f"  segments:    {segments['verified']} verified, {segments['damaged']} damaged"
    )
    print(
        f"  index files: {index_files['verified']} verified, "
        f"{index_files['unverified']} unverified, {index_files['damaged']} damaged"
    )
    for problem in report["damage"]:
        print(f"  DAMAGE [{problem['kind']}] {problem['path']}: {problem['detail']}")
    if report["quarantined"]:
        marked = ", ".join(str(s) for s in report["quarantined"])
        print(f"  quarantined segment(s): {marked}")
    if report["unquarantined"]:
        lifted = ", ".join(str(s) for s in report["unquarantined"])
        print(f"  quarantine lifted (verified clean): {lifted}")
    print("store is clean" if report["ok"] else f"{len(report['damage'])} damaged file(s)")
    return 0 if report["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    maintenance = None
    if args.maintenance is not None:
        if args.maintenance:
            with open(args.maintenance, "r", encoding="utf-8") as handle:
                maintenance = AutopilotPolicy.from_dict(json.load(handle))
        else:
            maintenance = AutopilotPolicy()
    server = StoreServer(
        args.store,
        host=args.host,
        port=args.port,
        cache_bytes=args.cache_bytes,
        writable=args.writable,
        maintenance=maintenance,
        maintenance_interval_s=args.maintenance_interval,
    )
    host, port = server.address
    mode = "read-write" if args.writable else "read-only"
    upkeep = (
        f", autopilot every {args.maintenance_interval}s" if maintenance is not None else ""
    )
    print(
        f"serving {args.store} on {host}:{port} ({mode}; "
        f"cache budget {args.cache_bytes} bytes{upkeep}); Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
        print("stopped")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    client = StoreClient.from_url(args.server, refresh_mode="follow")
    for update in client.watch(
        args.pages, run=args.run, interval=args.interval, timeout=args.timeout
    ):
        if args.json:
            printable = dict(update)
            printable["nodes"] = [node_key(node) for node in update["nodes"]]
            print(json.dumps(printable, sort_keys=True), flush=True)
        else:
            progress = update["progress"]
            tail = " [complete]" if update.get("done") and not update.get("timed_out") else ""
            tail = " [timed out]" if update.get("timed_out") else tail
            print(
                f"run {update['run']} [{progress['status']}]: "
                f"{progress['nodes']} node(s), {progress['edges']} edge(s), "
                f"{progress['segments']} segment(s); lineage of {args.pages}: "
                f"{len(update['nodes'])} sub-computation(s){tail}",
                flush=True,
            )
    return 0


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    service = ClusterService(
        args.cluster,
        cache_bytes=args.cache_bytes,
        writable=args.writable,
    )
    manifest = service.start()
    if not service.servers:
        print(
            "error: no shard in the manifest has a local store path to serve",
            file=sys.stderr,
        )
        return 1
    mode = "read-write primaries" if args.writable else "read-only"
    print(f"serving {len(service.servers)} endpoint(s) ({mode}); Ctrl-C to stop")
    for shard in manifest.shards:
        endpoints = shard.endpoints()
        served = ", ".join(
            f"{e.address}{' (replica)' if i else ''}"
            for i, e in enumerate(endpoints)
            if (shard.shard_id, i) in service.servers
        )
        print(f"  shard {shard.shard_id}: {served or 'served elsewhere'}")
    if manifest.path:
        print(f"bound addresses written back to {manifest.path}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        service.close()
        print("stopped")
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    with StoreCluster(args.cluster) as cluster:
        status = cluster.status()
    if args.json:
        print(json.dumps(status, sort_keys=True, indent=2))
        return 0
    print(f"cluster policy: {status['policy']} (degraded reads: {status['on_shard_down']})")
    for entry in status["shards"]:
        if entry["alive"]:
            runs = ", ".join(str(r) for r in entry.get("runs", [])) or "none"
            line = f"  shard {entry['shard']}: up via {entry['served_by']} (runs: {runs})"
            if entry.get("assigned_runs") is not None:
                assigned = ", ".join(str(r) for r in entry["assigned_runs"]) or "none"
                line += f" (assigned: {assigned})"
        else:
            line = f"  shard {entry['shard']}: DOWN ({entry['error']})"
        if entry["replicas"]:
            line += f" [replicas: {', '.join(str(r) for r in entry['replicas'])}]"
        print(line)
    runs = ", ".join(str(r) for r in status["runs"]) or "none"
    print(f"cluster runs: {runs}")
    return any(not entry["alive"] for entry in status["shards"])


def _cmd_cluster_query(args: argparse.Namespace) -> int:
    modes = sum(1 for flag in (args.across_runs, args.compare is not None) if flag)
    if modes > 1 or (args.run is not None and modes):
        print(
            "cluster query takes at most one of --run, --across-runs, --compare",
            file=sys.stderr,
        )
        return 2
    if args.compare is not None and args.taint:
        print("--compare diffs lineage; it does not combine with --taint", file=sys.stderr)
        return 2
    with StoreCluster(
        args.cluster, on_shard_down="partial" if args.partial else "fail"
    ) as cluster:
        return _cluster_query(cluster, args)


def _cluster_query(cluster: StoreCluster, args: argparse.Namespace) -> int:
    if args.compare is not None:
        diff = cluster.compare_lineage(args.compare[0], args.compare[1], args.pages)
        payload = {
            "run_a": diff.run_a,
            "run_b": diff.run_b,
            "pages": list(diff.pages),
            "only_a": [node_key(n) for n in sorted(diff.only_a)],
            "only_b": [node_key(n) for n in sorted(diff.only_b)],
            "common": [node_key(n) for n in sorted(diff.common)],
            "identical": diff.identical,
        }
        if not args.json:
            print(
                f"lineage of pages {args.pages}: run {diff.run_a} vs run {diff.run_b} "
                f"({'identical' if diff.identical else 'diverged'})"
            )
            print(f"  only run {diff.run_a}: {len(diff.only_a)} sub-computation(s)")
            print(f"  only run {diff.run_b}: {len(diff.only_b)} sub-computation(s)")
            print(f"  common:       {len(diff.common)} sub-computation(s)")
    elif args.across_runs:
        if args.taint:
            by_run = cluster.taint_across_runs(args.pages)
            payload = {
                str(run): {
                    "source_pages": sorted(result.source_pages),
                    "tainted_pages": sorted(result.tainted_pages),
                    "tainted_nodes": [node_key(n) for n in sorted(result.tainted_nodes)],
                }
                for run, result in by_run.items()
            }
            if not args.json:
                print(f"taint from pages {args.pages} across {len(by_run)} run(s):")
                for run, result in by_run.items():
                    print(
                        f"  run {run}: {sorted(result.tainted_pages)} tainted, "
                        f"{len(result.tainted_nodes)} sub-computation(s)"
                    )
        else:
            by_run = cluster.lineage_across_runs(args.pages)
            payload = {
                str(run): [node_key(n) for n in sorted(nodes)]
                for run, nodes in by_run.items()
            }
            if not args.json:
                print(f"lineage of pages {args.pages} across {len(by_run)} run(s):")
                for run, nodes in by_run.items():
                    print(f"  run {run}: {len(nodes)} sub-computation(s)")
    elif args.taint:
        result = cluster.taint(args.pages, run=args.run)
        payload = {
            "source_pages": sorted(result.source_pages),
            "tainted_pages": sorted(result.tainted_pages),
            "tainted_nodes": [node_key(n) for n in sorted(result.tainted_nodes)],
        }
        if not args.json:
            print(f"taint from pages {args.pages}:")
            print(f"  tainted pages: {sorted(result.tainted_pages)}")
            print(f"  tainted sub-computations: {len(result.tainted_nodes)}")
    else:
        nodes = cluster.lineage(args.pages, run=args.run)
        payload = {"nodes": [node_key(n) for n in sorted(nodes)]}
        if not args.json:
            print(f"lineage of pages {args.pages}: {len(nodes)} sub-computation(s)")
            for node in sorted(nodes):
                print(f"  {node_key(node)}")
    fanout = cluster.last_fanout or {}
    if args.json:
        payload = {"result": payload, "fanout": fanout}
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    shards = fanout.get("shards", [])
    answered = ", ".join(
        f"{entry['shard']}@{entry['address']} ({entry['stats'].get('elapsed_ms', '?')}ms)"
        for entry in shards
        if entry["ok"]
    )
    print(f"[fan-out: {answered or 'no shards asked'}]")
    missing = fanout.get("missing_shards", [])
    if missing:
        for entry in missing:
            runs = entry.get("runs")
            detail = f" (runs {', '.join(str(r) for r in runs)})" if runs else ""
            print(f"[missing shard: {entry['shard']}{detail}]")
    return 0


def _cmd_cluster_repair(args: argparse.Namespace) -> int:
    with StoreCluster(args.cluster) as cluster:
        report = cluster.repair(args.shard)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0
    for entry in report["shards"]:
        print(f"shard {entry['shard']} (source {entry['source']}):")
        for replica in entry["replicas"]:
            if replica.get("skipped"):
                print(f"  replica {replica['address']}: skipped ({replica['skipped']})")
                continue
            fetched = len(replica["fetched"])
            print(
                f"  replica {replica['path']}: {fetched} file(s) fetched "
                f"({replica['bytes_fetched']} bytes), "
                f"{replica['files_matched']} already matched"
                + (", server refreshed" if replica["refreshed"] else "")
            )
    print(
        f"repair complete: {report['files_fetched']} file(s), "
        f"{report['bytes_fetched']} bytes fetched"
    )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    return {
        "serve": _cmd_cluster_serve,
        "status": _cmd_cluster_status,
        "query": _cmd_cluster_query,
        "repair": _cmd_cluster_repair,
    }[args.cluster_command](args)


_COMMANDS = {
    "ingest": _cmd_ingest,
    "info": _cmd_info,
    "runs": _cmd_runs,
    "slice": _cmd_slice,
    "lineage": _cmd_lineage,
    "taint": _cmd_taint,
    "compact": _cmd_compact,
    "gc": _cmd_gc,
    "bless": _cmd_bless,
    "check": _cmd_check,
    "autopilot": _cmd_autopilot,
    "fsck": _cmd_fsck,
    "scrub": _cmd_scrub,
    "serve": _cmd_serve,
    "watch": _cmd_watch,
    "cluster": _cmd_cluster,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.store``."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InspectorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into something like `head` that closed early;
        # suppress the noisy traceback the interpreter would print while
        # flushing stdout at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
