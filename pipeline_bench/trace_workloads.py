"""Trace workloads: one traced run at a time into one growing local store.

An *operation* is ``run_with_provenance(workload, threads, size=size,
seed=dataset_seed, store_path=store)`` followed by its checks: the
workload's own ``verify``, the CPG + ``RunStats`` counter digest against
the reference run made at set-up (which is also the untimed warm-up), and
a fixed query set over the freshly stored run (``taint`` from every
written page, ``lineage`` of every program-written page) whose answers
must equal the in-memory ``repro.core.queries`` answers on the reference
CPG.  Those in-process queries are what the query metrics of these
workloads measure: the first questions a user asks of a run just traced.

With ``--trace 1`` every other operation goes through :func:`pipeline`,
which re-wires ``InspectorSession.run`` from the same public calls with a
span around each layer.  Its digest must equal the reference digest.

The whole run, cold starts included, is pinned to the fastest CPU at its
start, and every time it reports is CPU time in reference seconds
(:mod:`hostspeed`); a traced operation's layer times (spans of this
process's CPU time) are scaled by that operation's speed factor.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import hostspeed
from benchlib import (
    QUERY_KINDS,
    Query,
    Spans,
    answer_engine,
    answer_memory,
    build_queries,
    counters_of,
    derived_seed,
    describe,
    dir_bytes,
    patched,
    peak_rss_mb,
    query_latencies,
    run_digest,
    scratch_dir,
    subprocess_env,
    wrong,
)

from repro.core.cpg import EdgeKind
from repro.core.dependencies import derive_data_edges
from repro.inspector.api import run_with_provenance
from repro.inspector.config import InspectorConfig
from repro.inspector.interpose import InspectorBackend
from repro.inspector.session import make_scheduler
from repro.store.cache import ReadScope
from repro.store.format import DEFAULT_SEGMENT_NODES
from repro.store.query import StoreQueryEngine
from repro.store.sink import StoreSink
from repro.store.store import ProvenanceStore
from repro.threads.program import ProgramAPI
from repro.threads.runtime import SimRuntime
from repro.workloads.base import InputDescriptor, Workload
from repro.workloads.registry import get_workload

#: The check set has no slices: on these runs most data slices are empty
#: (microseconds) and the rest take milliseconds, so with them the median
#: would sit on that jump; taint and lineage answers are all milliseconds.
CHECK_SLICES = 0
#: A check query is answered repeatedly until this much CPU time has passed;
#: its latency is the fastest answer.  A millisecond answer alone is too
#: jittery: a probe, a preemption, or another tenant's run on the CPU just
#: before it (whose cache traffic it then pays for) moves it by a tenth or
#: more.  The fastest answer is one that met none of these.
MIN_TIMED_S = 0.01
#: Cold starts timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5

_COLD_START = """
import sys
from repro.inspector.api import run_with_provenance
from repro.store.store import ProvenanceStore
from repro.workloads.registry import get_workload
ProvenanceStore.create(sys.argv[1]).close()
get_workload(sys.argv[2]).generate_dataset(size=sys.argv[3], seed=int(sys.argv[4]))
"""


@dataclass
class TraceSpec:
    workload: str
    threads: int
    size: str


@dataclass
class CapturedRun:
    """A run's published stream, for re-streaming it through another sink."""

    stream: List[Tuple[object, list]] = field(default_factory=list)

    def subcomputation_published(self, node, edges) -> None:
        self.stream.append((node, list(edges)))


def pipeline_counters(backend, runtime, cpg, perf_data) -> Dict[str, int]:
    """The digest counters, read from the layers as ``InspectorSession`` does."""
    faults = backend.fault_counts()
    stats = backend.committer.stats
    return {
        "instructions": backend.counters.instructions,
        "sync_ops": backend.counters.sync_ops,
        "process_creations": runtime.process_creations,
        "context_switches": runtime.context_switches,
        "page_faults": faults["total"],
        "commits": stats.commits,
        "pages_committed": stats.pages_committed,
        "bytes_committed": stats.bytes_committed,
        "pt_bytes": backend.pmu.total_bytes_emitted(),
        "perf_log_bytes": perf_data.total_size,
        "cpg_nodes": len(cpg),
        "cpg_control_edges": cpg.edge_count(EdgeKind.CONTROL),
        "cpg_sync_edges": cpg.edge_count(EdgeKind.SYNC),
        "cpg_data_edges": cpg.edge_count(EdgeKind.DATA),
    }


def pipeline(
    workload: Workload,
    threads: int,
    size: str,
    seed: int,
    store: ProvenanceStore,
    spans: Spans,
    listeners: Tuple[object, ...] = (),
) -> dict:
    """``InspectorSession.run`` re-wired from public calls, one span per layer.

    Returns the workload result, dataset, CPG, the store run id, the digest
    counters and the per-layer numbers.
    """
    with spans.span("workloads.generate_dataset_s"):
        spec = workload.generate_dataset(size=size, seed=seed)
    with spans.span("inspector.load_input_s"):
        config = InspectorConfig()
        config.validate()
        backend = InspectorBackend(config, command=f"{workload.name} -t {threads}")
        base = backend.load_input(spec.payload)
        descriptor = InputDescriptor(base=base, size=len(spec.payload), meta=spec.meta)
        runtime = SimRuntime(scheduler=make_scheduler(config), backend=backend)
        sink = StoreSink(store, segment_nodes=DEFAULT_SEGMENT_NODES, workload=workload.name)
        sink.attach(backend.tracker)
        for listener in listeners:
            backend.tracker.add_listener(listener)

    def entry(proc):
        return workload.run(ProgramAPI(runtime, backend, proc), descriptor, threads)

    with patched(sink, "commit_epoch", spans.wrap("store.sink_epoch_s", sink.commit_epoch)), \
            patched(store, "append_segment", spans.wrap("store.append_segment_s", store.append_segment)), \
            patched(store, "flush", spans.wrap("store.flush_s", store.flush)):
        with spans.span("threads.runtime_run_s"):
            result = runtime.run(entry, name=f"{workload.name}-main")
        with spans.span("core.finalize_s"):
            cpg = backend.tracker.finalize()
        if config.derive_data_edges:
            with spans.span("core.derive_data_edges_s"):
                derive_data_edges(cpg)
        with spans.span("store.sink_finish_s"):
            sink.finish(
                cpg,
                run_meta={
                    "workload": workload.name,
                    "threads": threads,
                    "size": size,
                    "seed": seed,
                    "scheduler": config.scheduler,
                    "input_bytes": spec.size_bytes,
                    "nodes": len(cpg),
                },
            )
    with spans.span("perf.finish_s"):
        perf_data = backend.perf_session.finish()
    counters = pipeline_counters(backend, runtime, cpg, perf_data)
    layers = {
        "workloads.generate_dataset_s": spans.total.get("workloads.generate_dataset_s", 0.0),
        "inspector.load_input_s": spans.total.get("inspector.load_input_s", 0.0),
        "threads.runtime_run_s": spans.self_time.get("threads.runtime_run_s", 0.0),
        "threads.context_switches": runtime.context_switches,
        "threads.process_creations": runtime.process_creations,
        "inspector.page_faults": counters["page_faults"],
        "inspector.commits": counters["commits"],
        "inspector.pt_bytes": counters["pt_bytes"],
        "core.finalize_s": spans.self_time.get("core.finalize_s", 0.0),
        "core.derive_data_edges_s": spans.total.get("core.derive_data_edges_s", 0.0),
        "core.cpg_nodes": counters["cpg_nodes"],
        "core.data_edges": counters["cpg_data_edges"],
        "perf.finish_s": spans.total.get("perf.finish_s", 0.0),
        "perf.log_bytes": counters["perf_log_bytes"],
        "store.sink_epoch_s": spans.total.get("store.sink_epoch_s", 0.0),
        "store.append_segment_s": spans.total.get("store.append_segment_s", 0.0),
        "store.flush_s": spans.total.get("store.flush_s", 0.0),
        "store.sink_finish_s": spans.total.get("store.sink_finish_s", 0.0),
        "store.epochs": sink.epochs_committed,
    }
    return {
        "result": result,
        "dataset": spec,
        "cpg": cpg,
        "run_id": sink.run_id,
        "counters": counters,
        "layers": layers,
    }


def query_layers(samples: List[Tuple[int, str, float, ReadScope, Optional[str]]]) -> Dict[str, float]:
    """Per-layer query metrics from ``(index, kind, ms, scope, taint_mode)`` samples."""
    layers: Dict[str, float] = {}
    for kind in QUERY_KINDS:
        values = [ms for _, name, ms, _, _ in samples if name == kind]
        layers[f"store.query.{kind}_ms"] = statistics.median(values) if values else 0.0
    scopes = [scope for _, _, _, scope, _ in samples]
    hits = sum(scope.cache_hits for scope in scopes)
    misses = sum(scope.cache_misses for scope in scopes)
    layers["store.segments_read_per_query"] = (
        sum(scope.segments_read for scope in scopes) / len(scopes) if scopes else 0.0
    )
    layers["store.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    modes = [mode for _, name, _, _, mode in samples if name == "taint"]
    layers["store.taint_sweep_share"] = modes.count("sweep") / len(modes) if modes else 0.0
    return layers


def scaled_times(layers: Dict[str, float], factor: float) -> Dict[str, float]:
    """``layers`` with every time (``*_s``, ``*_ms``) multiplied by ``factor``."""
    return {
        name: value * factor if name.endswith(("_s", "_ms")) else value
        for name, value in layers.items()
    }


class TraceBench:
    """State of one trace-workload benchmark run (one fresh store)."""

    def __init__(self, spec: TraceSpec, seed: int, workdir: str, wrong_answer: bool = False) -> None:
        self.spec = spec
        self.workload = get_workload(spec.workload)
        self.dataset_seed = derived_seed(seed, f"dataset:{spec.workload}")
        self.store_path = os.path.join(workdir, "store")
        self.workdir = workdir
        self.wrong_answer = wrong_answer
        self.store: Optional[ProvenanceStore] = None
        self.reference_digest = ""
        self.checks: List[Tuple[Query, object]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.sampler = hostspeed.SpeedSampler()
        #: Wall and CPU seconds of the untraced runs, for the report.
        self.run_wall_s = 0.0
        self.run_cpu_s = 0.0

    # -------------------------------------------------------------- set-up

    def time_cold_start(self, index: int) -> float:
        """Fresh interpreter: import the pipeline, create a store, make the input.

        The child inherits this process's CPU, so this process's probes
        measure the CPU it runs on; its CPU time is read once it is reaped.
        """
        before = hostspeed.children_cpu_s()
        start = time.perf_counter()
        subprocess.run(
            [
                sys.executable,
                "-c",
                _COLD_START,
                os.path.join(self.workdir, f"cold-{index}"),
                self.spec.workload,
                self.spec.size,
                str(self.dataset_seed),
            ],
            env=subprocess_env(),
            check=True,
            timeout=120,
        )
        end = time.perf_counter()
        return (hostspeed.children_cpu_s() - before) * self.sampler.speed(start, end)

    def setup(self) -> List[float]:
        """Time the cold starts, make the reference run (the warm-up), open the store."""
        self.sampler.start()
        setup_times = [self.time_cold_start(index) for index in range(SETUP_REPEATS)]
        gc.collect()
        reference = run_with_provenance(
            self.workload, self.spec.threads, size=self.spec.size, seed=self.dataset_seed
        )
        self.workload.verify(reference.result, reference.dataset)
        self.reference_digest = run_digest(reference.cpg, counters_of(reference.stats))
        if self.wrong_answer:
            self.reference_digest = "0" * 64
        cpg = reference.cpg
        pages = {page for node in cpg.subcomputations() for page in node.write_set}
        program_pages = {
            page for node in cpg.subcomputations() if node.tid >= 0 for page in node.write_set
        }
        queries = build_queries(None, pages, program_pages, cpg.nodes(), CHECK_SLICES, pairs=False)
        self.checks = [(query, answer_memory(cpg, query)) for query in queries]
        if self.wrong_answer:
            query, answer = self.checks[0]
            self.checks[0] = (query, wrong(answer))
        self.store = ProvenanceStore.create(self.store_path)
        return setup_times

    def close(self) -> None:
        self.sampler.stop()
        if self.store is not None:
            self.store.close()

    # ---------------------------------------------------------- operations

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def check_run(self, result, dataset, digest: str, run_id: int) -> list:
        """Verify one stored run; returns ``(index, kind, ms, scope, taint_mode)`` samples."""
        self.attempted += 1
        try:
            self.workload.verify(result, dataset)
            if digest != self.reference_digest:
                raise AssertionError("CPG/counter digest differs from the reference run")
        except AssertionError as exc:
            self._fail(f"run {run_id}: {exc or 'verify failed'}")
        # The traced run's garbage would otherwise be collected in the middle
        # of whichever query happens to trip the collector.
        gc.collect()
        samples = []
        for index, ((kind, _, arg), expected) in enumerate(self.checks):
            self.attempted += 1
            query = (kind, run_id, arg)
            scope = ReadScope()  # read accounting of the first answer only
            engine = StoreQueryEngine(self.store, scope=scope)
            start = time.perf_counter()
            answers: List[float] = []
            try:
                cpu_start = time.process_time()
                answer = answer_engine(engine, query)
                answers.append(time.process_time() - cpu_start)
                while sum(answers) < MIN_TIMED_S:
                    cpu_start = time.process_time()
                    answer_engine(StoreQueryEngine(self.store), query)
                    answers.append(time.process_time() - cpu_start)
            except Exception as exc:  # an operation boundary: count it, keep going
                self._fail(f"{kind}{arg} on run {run_id}: {exc!r}")
                continue
            speed = self.sampler.speed(start, time.perf_counter())
            elapsed_ms = min(answers) * speed * 1e3
            if answer != expected:
                self._fail(f"{kind}{arg} on run {run_id}: answer differs from the in-memory CPG")
            samples.append((index, kind, elapsed_ms, scope, engine.last_taint_mode))
        return samples

    def plain_op(self) -> Tuple[Optional[float], list]:
        """One untraced operation; returns its run seconds and query samples."""
        gc.collect()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            traced = run_with_provenance(
                self.workload,
                self.spec.threads,
                size=self.spec.size,
                seed=self.dataset_seed,
                store_path=self.store,
            )
        except Exception as exc:  # an operation boundary: count it, keep going
            self.attempted += 1
            self._fail(f"run_with_provenance raised {exc!r}")
            return None, []
        end, cpu = time.perf_counter(), time.process_time() - cpu_start
        run_s = self.sampler.work_s(start, end, cpu)
        self.run_wall_s += end - start
        self.run_cpu_s += cpu
        digest = run_digest(traced.cpg, counters_of(traced.stats))
        result, dataset, run_id = traced.result, traced.dataset, traced.store_run_id
        del traced
        samples = self.check_run(result, dataset, digest, run_id)
        return run_s, samples

    def traced_op(self) -> Tuple[Optional[float], Dict[str, float]]:
        """One operation through :func:`pipeline`; returns its seconds and layers."""
        gc.collect()
        spans = Spans()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            out = pipeline(
                self.workload, self.spec.threads, self.spec.size, self.dataset_seed, self.store, spans
            )
        except Exception as exc:  # an operation boundary: count it, keep going
            self.attempted += 1
            self._fail(f"traced pipeline raised {exc!r}")
            return None, {}
        end, cpu = time.perf_counter(), time.process_time() - cpu_start
        op_s = self.sampler.work_s(start, end, cpu)
        factor = op_s / cpu if cpu > 0 else 1.0
        digest = run_digest(out.pop("cpg"), out["counters"])
        samples = self.check_run(out["result"], out["dataset"], digest, out["run_id"])
        layers = scaled_times(out["layers"], factor)
        layers["trace.parity"] = 1.0 if digest == self.reference_digest else 0.0
        layers["trace.wall_s"] = op_s
        layers["trace.unattributed_s"] = (cpu - spans.top) * factor
        layers.update(query_layers(samples))
        return op_s, layers


#: Server-side layers a trace workload never exercises (reported as 0).
_SERVER_LAYERS = ("server.overhead_ms", "server.append_epoch_ms", "server.commit_run_ms")


def run(spec: TraceSpec, seed: int, seconds: float, trace: bool, wrong_answer: bool = False) -> dict:
    """Run one trace workload for ``seconds``; returns metrics and report lines."""
    cpu = hostspeed.pin_to_cpu(hostspeed.cpus_by_speed()[0])
    with scratch_dir() as workdir:
        bench = TraceBench(spec, seed, workdir, wrong_answer=wrong_answer)
        try:
            setup_times = bench.setup()
            run_times: List[float] = []
            samples: list = []
            traced: List[Dict[str, float]] = []
            traced_walls: List[float] = []
            start = time.perf_counter()
            index = 0
            while index == 0 or time.perf_counter() - start < seconds:
                if trace and index % 2 == 1:
                    wall, layers = bench.traced_op()
                    if wall is not None:
                        traced_walls.append(wall)
                        traced.append(layers)
                else:
                    run_s, op_samples = bench.plain_op()
                    if run_s is not None:
                        run_times.append(run_s)
                        samples.extend(op_samples)
                index += 1
            if trace and not traced:  # at least one traced operation per traced run
                wall, layers = bench.traced_op()
                if wall is not None:
                    traced_walls.append(wall)
                    traced.append(layers)
            store_runs = len(bench.store.run_ids())
            store_bytes = dir_bytes(bench.store_path)
            epochs = sum(len(bench.store.manifest.segments_of_run(r)) for r in bench.store.run_ids())
        finally:
            bench.close()

    report = [
        f"CPU {cpu}: {hostspeed.summary(bench.sampler.durations)}",
        f"setup_s (cold start x{len(setup_times)}): {describe(setup_times)}",
        f"run_s: {describe(run_times)}",
        f"untraced runs: CPU time {bench.run_cpu_s / max(bench.run_wall_s, 1e-9):.1%} of wall time "
        "(the rest waited on the disk or the hypervisor, and is not counted)",
    ]
    query_ms = [ms for _, _, ms, _, _ in samples]
    metrics: Dict[str, float] = {}
    if run_times and query_ms:
        # Every operation answers the same queries over an identical run, so
        # each query's latency is the median of its answers.
        latencies = query_latencies([(index, kind, ms) for index, kind, ms, _, _ in samples])
        report.append(
            f"query_ms: {latencies.pop('distinct')} distinct check queries, "
            f"answers {describe(query_ms)}"
        )
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_p50_s": statistics.median(run_times),
            "store_bytes_per_run": store_bytes / store_runs,
            **latencies,
            "ingest_epochs_per_s": epochs / (sum(run_times) + sum(traced_walls)),
            "peak_rss_mb": peak_rss_mb(),
        }
    layers: Dict[str, float] = {}
    if traced:
        layers = {name: statistics.median(op[name] for op in traced) for name in traced[0]}
        layers["trace.parity"] = min(op["trace.parity"] for op in traced)
        layers["trace.operations"] = len(traced)
        overhead = statistics.median(traced_walls) - (
            statistics.median(run_times) if run_times else 0.0
        )
        layers["trace.overhead_s"] = overhead
        for name in _SERVER_LAYERS:
            layers[name] = 0.0
        report.append(
            f"traced run: parity {'ok' if layers['trace.parity'] else 'FAILED'}, "
            f"{len(traced)} traced vs {len(run_times)} untraced operations, "
            f"overhead {overhead:+.3f} s, unattributed {layers['trace.unattributed_s']:.3f} s"
        )
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "report": report,
    }

