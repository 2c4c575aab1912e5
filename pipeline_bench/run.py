"""End-to-end pipeline benchmark of the INSPECTOR reproduction.

Usage (from the root of a checkout)::

    python3 pipeline_bench/run.py --workload trace_kmeans --seed 1 --seconds 35 --trace 0

It drives the real pipeline through public entry points -- a workload
traced on the simulated threads runtime, the CPG built and its data edges
derived, the graph streamed into the store, and provenance queries served
over TCP -- checks every output, and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  The lines before it record the host (cores, Python,
commit, and a fixed-loop speed probe before and after the run), each
metric with its unit, sample counts, and ``error_rate`` (failed or
incorrect operations / attempted ones).

Each run uses a fresh store under ``.pipeline_bench_tmp/`` in the
checkout and removes it afterwards; one warm-up operation is excluded
from timing and ``gc.collect()`` runs between timed operations.

Every time the benchmark reports is CPU time in *reference seconds*
(``hostspeed.py``).  On the shared hosts it runs on, raw wall times of
the same code spread 30-40% between runs: wall time takes in the
hypervisor running other tenants (steal time) and fsyncs on a shared disk
(the store fsyncs each segment-log append), and a CPU's speed swings by
up to 1.7x within seconds and drifts between runs, independently per CPU.
So an interval counts the CPU time the processes doing the work spent in
it (the kernel leaves stolen time out of it), read from this process's
clock, a reaped child's usage, or the server's per-process CPU clock.
Each measuring process is pinned to one CPU (the fastest of a 0.4 s trial
of each at the run's start) and probes that CPU's speed with a fixed loop
every 20 ms from a ``SIGALRM`` handler; an interval's CPU time, less the
probes' own, is scaled by the mean speed the probes saw during it (and
0.1 s either side) relative to a fixed reference.  Less work still reads
as less time; a busy neighbour, a stolen timeslice or a slow disk does
not.  The report lines give each CPU's probe count and speed range, and
the share of wall time that was CPU time.

Workloads (the seed picks the generated inputs; the program sees only
those):

``trace_kmeans``
    ``run_with_provenance("kmeans", 16, size="small")`` in a closed loop,
    one run at a time, into one local store that grows across the
    operations.  ``derive_data_edges`` dominates it (1250 nodes, 417
    simulated processes; 3.1-4.5 s of a 4.9-6.3 s run on a 2-core host).
    The workload for faster data-edge derivation; the runtime's handoff
    (1249 context switches) is most of the rest.  The 16 threads are
    simulated and run one at a time, so the load generator is a single
    client.  (A ``reverse_index`` twin, dominated by runtime handoff, was
    left out: its inputs change the shape of its graph with the seed, so
    its query latencies spread 30-50% between seeds on top of the host's
    noise.)
``serve_mixed``
    Set-up traces kmeans-16, reverse_index-16 and canneal-medium-4 into a
    fresh store and starts ``python -m repro.store serve --writable``.
    A reader connection cycles a fixed-composition mix, in seeded order,
    of ``lineage`` (1-2 pages), ``backward_slice``, ``forward_slice`` and
    ``taint`` over the preloaded runs, while a writer process re-streams
    the captured kmeans CPG through ``RemoteStoreSink``; both are closed
    loops.  It never runs the tracking layers, so it is the bypass case
    for tracking optimisations, and where a write-path change that costs
    readers shows.  The server and the reader share the fastest CPU, the
    writer has the other.  The reverse_index run has one fixed input (its
    graph changes size with its seed); the seed picks the kmeans and
    canneal inputs and the order of the query pool.

End-to-end metrics (``--trace 0``; every metric on every workload):

``setup_s``
    Cold start, median of 5: a fresh interpreter importing the pipeline,
    creating a store and generating the input (trace_*); a fresh
    ``serve --writable`` process opening the preloaded store until it
    answers a ping (serve_mixed).
``run_p50_s``
    Median time of one traced run (trace_*); of one remote re-stream of
    the captured run (serve_mixed: the writer's CPU time, normalised with
    its probes, plus the server's CPU time during each of its requests,
    normalised with the server CPU's).
``store_bytes_per_run``
    Store bytes on disk per stored run (trace_*); bytes added per
    re-streamed run (serve_mixed).
``query_p50_ms`` / ``query_p99_ms`` / ``lineage_p50_ms``
    Percentiles across the distinct queries of a fixed query set; each
    query's latency combines every time the run answered it.  trace_*:
    the in-process check queries (taint and lineage) on each freshly
    stored run, a query's median answer (every operation answers the same queries on
    an identical run), an answer under 10 ms timed as the fastest of
    repeats; serve_mixed: a query's fastest answer over TCP in the run's
    cycles, each answer the CPU time the server and the reader spent while
    it was outstanding (the server's work on writer requests interleaved
    with it included, so contention with the writer is part of what it
    measures for the queries that outlast a GIL switch interval).  The
    report line gives the answer count and the highest per-answer
    percentile with at least ten answers beyond it.
``queries_per_s``
    Distinct queries over the sum of their latencies: one pass of the
    query set, answered back to back.
``ingest_epochs_per_s``
    Store segments appended per second of run time (trace_*); per second
    of re-streaming (serve_mixed).
``peak_rss_mb``
    Peak RSS of the benchmark process (trace_*); of the serving process
    (serve_mixed).

Per-layer metrics (``--trace 1``), and the end-to-end metric each should
move; a layer (or query kind) a workload never runs reports 0:

* ``workloads.generate_dataset_s`` -> ``run_p50_s`` on trace_*; expected
  near zero (a control).
* ``threads.runtime_run_s`` (self time, sink epochs excluded),
  ``threads.context_switches``, ``threads.process_creations`` ->
  ``run_p50_s`` on trace_kmeans (after derivation, the largest part of a
  run); no effect on serve_mixed.
* ``inspector.page_faults``, ``inspector.commits``, ``inspector.pt_bytes``
  (``RunStats`` counts) explain runtime self time on trace_*;
  ``inspector.load_input_s`` is backend construction.
* ``core.finalize_s``, ``core.derive_data_edges_s``, ``core.cpg_nodes``,
  ``core.data_edges`` -> ``run_p50_s``, mostly on trace_kmeans.
* ``perf.finish_s``, ``perf.log_bytes`` -> ``run_p50_s`` on trace_*.
* ``store.sink_epoch_s``, ``store.append_segment_s``, ``store.flush_s``,
  ``store.sink_finish_s``, ``store.epochs`` -> ``run_p50_s`` on trace_*
  (about 2-5% of a run) and ``store_bytes_per_run``; on serve_mixed
  (an in-process replay of the writer's stream) ``ingest_epochs_per_s``.
* ``store.query.{lineage,backward_slice,forward_slice,taint}_ms``,
  ``store.segments_read_per_query``, ``store.cache_hit_ratio``,
  ``store.taint_sweep_share`` (in-process ``StoreQueryEngine``; on
  serve_mixed a cold+warm replay of the reader's queries) ->
  ``query_p50_ms``, ``query_p99_ms``, ``lineage_p50_ms``.
* ``server.overhead_ms`` (client minus warm engine latency of the same
  query), ``server.append_epoch_ms``, ``server.commit_run_ms`` ->
  ``query_p50_ms`` and ``ingest_epochs_per_s`` on serve_mixed.
* ``trace.parity`` (1 when the re-wired traced run's CPG and counter
  digest equal the untraced reference), ``trace.overhead_s`` (traced
  minus untraced wall time), ``trace.unattributed_s`` (wall time no layer
  span covers), ``trace.wall_s``, ``trace.operations``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional

import benchlib
import hostspeed

#: End-to-end metrics and their units (must match BENCHMARK.json).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "run_p50_s": "s",
    "store_bytes_per_run": "bytes",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "lineage_p50_ms": "ms",
    "queries_per_s": "1/s",
    "ingest_epochs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics and their units (must match BENCHMARK.json).
PER_LAYER: Dict[str, str] = {
    "workloads.generate_dataset_s": "s",
    "inspector.load_input_s": "s",
    "threads.runtime_run_s": "s",
    "threads.context_switches": "count",
    "threads.process_creations": "count",
    "inspector.page_faults": "count",
    "inspector.commits": "count",
    "inspector.pt_bytes": "bytes",
    "core.finalize_s": "s",
    "core.derive_data_edges_s": "s",
    "core.cpg_nodes": "count",
    "core.data_edges": "count",
    "perf.finish_s": "s",
    "perf.log_bytes": "bytes",
    "store.sink_epoch_s": "s",
    "store.append_segment_s": "s",
    "store.flush_s": "s",
    "store.sink_finish_s": "s",
    "store.epochs": "count",
    "store.query.lineage_ms": "ms",
    "store.query.backward_slice_ms": "ms",
    "store.query.forward_slice_ms": "ms",
    "store.query.taint_ms": "ms",
    "store.segments_read_per_query": "count",
    "store.cache_hit_ratio": "ratio",
    "store.taint_sweep_share": "ratio",
    "server.overhead_ms": "ms",
    "server.append_epoch_ms": "ms",
    "server.commit_run_ms": "ms",
    "trace.parity": "ratio",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.operations": "count",
}

WORKLOADS = ("trace_kmeans", "serve_mixed")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    wrong_answer: bool = False,
    trace_spec=None,
    preload=None,
) -> dict:
    """Run one workload; ``trace_spec``/``preload`` override the sizes (self-check).

    The workload pins this process to a CPU; the CPUs it was allowed on
    before are restored afterwards.
    """
    allowed = hostspeed.allowed_cpus()
    try:
        if name == "serve_mixed":
            import serve_workload

            return serve_workload.run(
                seed, seconds, trace, preload=preload or serve_workload.PRELOAD,
                wrong_answer=wrong_answer,
            )
        from trace_workloads import TraceSpec, run

        return run(trace_spec or TraceSpec("kmeans", 16, "small"), seed, seconds, trace,
                   wrong_answer=wrong_answer)
    finally:
        os.sched_setaffinity(0, allowed)


def result_object(out: dict, trace: bool) -> dict:
    """The final JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``."""
    table = PER_LAYER if trace else END_TO_END
    values = out["layers"] if trace else out["metrics"]
    missing = [name for name in table if name not in values]
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in table.items()
        if name in values
    }
    return {
        "correct": out["failed"] == 0 and not missing,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        benchlib.require_sources()
    except benchlib.BenchmarkSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    probe_before = benchlib.host_probe_ms()
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    probe_after = benchlib.host_probe_ms()
    result = result_object(out, bool(args.trace))
    print(f"host: {json.dumps(benchlib.host_info(), sort_keys=True)}")
    print(f"host speed probe: {probe_before:.1f} ms before, {probe_after:.1f} ms after")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in out["report"]:
        print(f"  {line}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    error_rate = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"  error_rate = {error_rate:.6g} ({out['failed']} of {out['attempted']} operations)")
    for failure in out["failures"]:
        print(f"  failure: {failure}")
    missing = [name for name in (PER_LAYER if args.trace else END_TO_END) if name not in result["metrics"]]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if not missing else 1


if __name__ == "__main__":
    sys.exit(main())
