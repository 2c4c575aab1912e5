"""serve_mixed: provenance queries and remote ingest against a store server.

Set-up traces a fixed set of runs into a fresh store, computes every
pool query's answer in-process with ``StoreQueryEngine``, and starts
``python -m repro.store serve --writable`` as a subprocess.  Then two
connections run closed loops at once:

* a reader cycles through the seeded order of a fixed-composition query
  pool (``lineage`` of 1 and 2 pages, ``backward_slice``,
  ``forward_slice``, ``taint``), comparing each answer with the set-up
  answer, and stops after the first full cycle that ends past the
  deadline (so every run answers whole cycles of the same mix);
* a writer process re-streams the captured kmeans run through
  ``RemoteStoreSink`` (``begin_run`` / ``append_epoch`` / ``commit_run``)
  until the reader stops, checking each commit's node and edge counts.

With ``--trace 1`` the writer's requests are reported by op, the reader's
query list is replayed in-process on ``StoreQueryEngine`` (twice: cold, then
warm) and the captured stream is replayed once into a local ``StoreSink``,
which splits the served latencies into engine and server time.

Times are CPU time in reference seconds (:mod:`hostspeed`).  The server
runs under ``sampled_server.py`` on the fastest CPU at the start, which
this process (the reader) shares.  A reader's answer takes the CPU time
the server process and the reader used while it was outstanding (the
server's handling of concurrent writer requests included); a writer
request, the server's CPU time while it was outstanding; the server's
start-up, its CPU time until it answered a ping.  All three are
normalised with the server's speed probes.  The writer runs on the other
CPU; its own CPU time is normalised with probes of its own, and the
in-process replays with this process's probes.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import pickle
import random
import select
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import hostspeed
from benchlib import (
    BENCH_DIR,
    ROOT,
    Spans,
    answer_client,
    answer_engine,
    build_queries,
    derived_seed,
    describe,
    dir_bytes,
    patched,
    query_latencies,
    scratch_dir,
    subprocess_env,
    wrong,
)
from trace_workloads import CapturedRun, TraceSpec, pipeline, query_layers

from repro.inspector.api import run_with_provenance
from repro.store.cache import ReadScope
from repro.store.format import DEFAULT_SEGMENT_NODES
from repro.store.query import StoreQueryEngine
from repro.store.server import StoreClient
from repro.store.sink import RemoteStoreSink, StoreSink
from repro.store.store import ProvenanceStore
from repro.workloads.registry import get_workload

#: Runs traced into the store at set-up; the first is captured as the
#: writer's stream.
PRELOAD = (
    TraceSpec("kmeans", 16, "small"),
    TraceSpec("reverse_index", 16, "small"),
    TraceSpec("canneal", 4, "medium"),
)
#: Preloaded workloads whose graph changes size with the dataset seed
#: (reverse_index small: 782-842 nodes over four seeds, while kmeans and
#: canneal keep theirs).  They get one fixed input, so that the query
#: metrics do not move between seeds with the graph; the seed still picks
#: the other inputs and the order of the query pool.
FIXED_INPUT_SEEDS = {"reverse_index": 12}
#: Nodes per preloaded run in the query pool (backward + forward slice each).
POOL_SLICES = 16
#: Pages per preloaded run in the query pool's taint and lineage lists.
POOL_PAGES = 8
#: Server starts timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5

#: Layers the serving workload never runs (reported as 0).
_TRACKING_LAYERS = (
    "workloads.generate_dataset_s",
    "inspector.load_input_s",
    "threads.runtime_run_s",
    "threads.context_switches",
    "threads.process_creations",
    "inspector.page_faults",
    "inspector.commits",
    "inspector.pt_bytes",
    "core.finalize_s",
    "core.derive_data_edges_s",
    "core.cpg_nodes",
    "core.data_edges",
    "perf.finish_s",
    "perf.log_bytes",
    "trace.wall_s",
    "trace.unattributed_s",
    "trace.overhead_s",
)


class ServerProcess:
    """One ``serve --writable`` subprocess on ``cpu``; always stopped by :meth:`stop`.

    ``ready_cpu_s`` is the server's CPU time when it first answered a
    ping.  After :meth:`stop` its speed probes are in ``probe_ends`` and
    ``probe_durations``.
    """

    def __init__(self, store_path: str, samples_path: str, cpu: int) -> None:
        self.client: Optional[StoreClient] = None
        self.peak_rss_mb = 0.0
        self.samples_path = samples_path
        self.probe_ends: List[float] = []
        self.probe_durations: List[float] = []
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "sampled_server.py"), samples_path, str(cpu),
             "serve", store_path, "--writable", "--port", "0"],
            stdout=subprocess.PIPE,
            env=subprocess_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if " on " not in line:
                raise RuntimeError(f"store server did not start (said {line!r})")
            address = line.split(" on ", 1)[1].split(" ", 1)[0]
            self.client = StoreClient.from_url(address, timeout=120.0)
            self.client.ping()
            self.ready = time.perf_counter()
            self.ready_cpu_s = self.cpu_s()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Ask the server to shut down (kill it if it will not) and reap it.

        Reaping through ``os.wait4`` records the server's own peak RSS.
        """
        if self.proc.returncode is None:
            try:
                if self.client is None:
                    raise RuntimeError("never answered")
                self.client.shutdown()
            except Exception:  # a server that cannot answer is killed
                self.proc.kill()
            deadline = time.monotonic() + 30.0
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    pid, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.02)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()
        if os.path.exists(self.samples_path):
            with open(self.samples_path, "r", encoding="utf-8") as handle:
                samples = json.load(handle)
            self.probe_ends = [end for end, _ in samples]
            self.probe_durations = [duration for _, duration in samples]

    def cpu_s(self) -> float:
        """CPU seconds the running server has used so far."""
        return hostspeed.process_cpu_s(self.proc.pid)

    def work_s(self, start: float, end: float, cpu_s: float) -> float:
        """Reference seconds of ``cpu_s`` spent on the server's CPU in ``[start, end]``.

        Valid after :meth:`stop`, which loads the server's probes.
        """
        return hostspeed.work_s(self.probe_ends, self.probe_durations, start, end, cpu_s)


def restream(client: StoreClient, captured: CapturedRun, cpg, workload: str) -> dict:
    """Ship a captured run through ``RemoteStoreSink``; returns the commit reply."""
    sink = RemoteStoreSink(client, segment_nodes=DEFAULT_SEGMENT_NODES, workload=workload)
    commit = client.commit_run
    replies: List[dict] = []

    def committed(*args, **kwargs):
        replies.append(commit(*args, **kwargs))
        return replies[-1]

    with patched(client, "commit_run", committed):
        for node, edges in captured.stream:
            sink.subcomputation_published(node, edges)
        sink.finish(cpg, run_meta={"workload": workload, "nodes": len(cpg)})
    return replies[-1]


def writer_main(argv: List[str]) -> int:
    """Writer process: re-stream the captured run until told to stop.

    ``serve_workload.py writer HOST PORT PAYLOAD CPU SERVER_PID``: loads the
    pickled ``(captured, cpg)`` this benchmark wrote to ``PAYLOAD``, pins
    itself to ``CPU``, prints ``ready``, re-streams until a line arrives on
    stdin, then prints one JSON summary: each re-stream's wall interval,
    own CPU time and segment count, the wall interval of every request it
    sent with the server's CPU time during it, and its speed probes
    (:func:`restream_work_s` turns these into reference seconds).  A
    process of its own, so the reader's latencies are not measured through
    this interpreter's lock.
    """
    host, port, payload_path, cpu, server_pid = argv
    server_pid = int(server_pid)
    hostspeed.pin_to_cpu(int(cpu))
    with open(payload_path, "rb") as handle:
        captured, cpg = pickle.load(handle)  # bytes this benchmark pickled itself
    client = StoreClient(host, int(port), timeout=120.0)
    calls: List[Tuple[str, float, float, float]] = []
    request = client.request

    def timed_request(op: str, **params) -> dict:
        served = hostspeed.process_cpu_s(server_pid)
        begin = time.perf_counter()
        reply = request(op, **params)
        end = time.perf_counter()
        calls.append((op, begin, end, hostspeed.process_cpu_s(server_pid) - served))
        return reply

    client.request = timed_request
    streams: List[Tuple[float, float, float, int]] = []
    failures: List[str] = []
    attempted = 0
    sampler = hostspeed.SpeedSampler().start()
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], 0)[0]:
        attempted += 1
        begin, own = time.perf_counter(), time.process_time()
        try:
            reply = restream(client, captured, cpg, "restream")
        except Exception as exc:  # an operation boundary: count it, keep going
            failures.append(f"re-stream raised {exc!r}")
            continue
        end, own = time.perf_counter(), time.process_time() - own
        if reply["nodes"] != len(cpg) or reply["edges"] != cpg.edge_count():
            failures.append(f"re-stream committed {reply['nodes']} nodes / {reply['edges']} edges")
        streams.append((begin, end, own, int(reply["segments"])))
    sampler.stop()
    print(json.dumps({
        "streams": streams,
        "calls": calls,
        "probes": sampler.samples(),
        "attempted": attempted,
        "failures": failures,
    }), flush=True)
    return 0


def restream_work_s(writes: dict, server: ServerProcess) -> Tuple[List[float], Dict[str, float]]:
    """Reference seconds of each re-stream, and mean ms per request op.

    A re-stream is the writer's own CPU time, normalised with its probes,
    plus the server's CPU time during each of its requests, normalised
    with the server's.
    """
    ends = [end for end, _ in writes["probes"]]
    durations = [duration for _, duration in writes["probes"]]
    calls = sorted(writes["calls"], key=lambda call: call[1])
    starts = [call[1] for call in calls]
    per_op: Dict[str, List[float]] = {}
    streams = []
    for begin, end, own_cpu, _ in writes["streams"]:
        total = hostspeed.work_s(ends, durations, begin, end, own_cpu)
        for op, call_begin, call_end, served_cpu in calls[bisect.bisect_left(starts, begin):]:
            if call_end > end:
                break
            served = server.work_s(call_begin, call_end, served_cpu)
            per_op.setdefault(op, []).append(served * 1e3)
            total += served
        streams.append(total)
    return streams, {op: statistics.fmean(values) for op, values in per_op.items()}


class ServeBench:
    """State of one serve_mixed benchmark run."""

    def __init__(self, seed: int, workdir: str, preload=PRELOAD, wrong_answer: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.preload = preload
        self.store_path = os.path.join(workdir, "store")
        self.wrong_answer = wrong_answer
        self.rng = random.Random(derived_seed(seed, "serve-queries"))
        self.captured = CapturedRun()
        self.captured_cpg = None
        self.pool: List[Tuple[tuple, object]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def _count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def setup(self) -> None:
        """Trace the preload, build the query pool and its expected answers."""
        with ProvenanceStore.create(self.store_path) as store:
            for index, spec in enumerate(self.preload):
                workload = get_workload(spec.workload)
                seed = FIXED_INPUT_SEEDS.get(spec.workload)
                if seed is None:
                    seed = derived_seed(self.seed, f"serve:{spec.workload}")
                gc.collect()
                if index == 0:
                    out = pipeline(
                        workload, spec.threads, spec.size, seed, store, Spans(),
                        listeners=(self.captured,),
                    )
                    result, dataset, self.captured_cpg = out["result"], out["dataset"], out["cpg"]
                else:
                    traced = run_with_provenance(
                        workload, spec.threads, size=spec.size, seed=seed, store_path=store
                    )
                    result, dataset = traced.result, traced.dataset
                workload.verify(result, dataset)
            engine = StoreQueryEngine(store)
            for run in store.run_ids():
                indexes = store.indexes_for(run)
                pages = list(indexes.page_writers)
                program_pages = [
                    page for page in pages
                    if any(tid >= 0 for tid, _ in indexes.writers_of_page(page))
                ]
                queries = build_queries(
                    run, pages, program_pages, indexes.nodes(), POOL_SLICES, max_pages=POOL_PAGES
                )
                self.pool.extend((query, answer_engine(engine, query)) for query in queries)
        self.rng.shuffle(self.pool)
        if self.wrong_answer:
            query, answer = self.pool[0]
            self.pool[0] = (query, wrong(answer))

    # ------------------------------------------------------------- loops

    def reader(
        self, client: StoreClient, server_cpu_s: Callable[[], float], seconds: float, samples: list
    ) -> None:
        """Whole cycles over the pool until one ends past ``seconds``.

        Appends ``(index, kind, begin, end, cpu)`` per answer: its wall
        interval and the CPU seconds the server (``server_cpu_s``) and this
        process used in it.
        """
        start = time.perf_counter()
        while True:
            for index, (query, expected) in enumerate(self.pool):
                try:
                    served, own = server_cpu_s(), time.process_time()
                    begin = time.perf_counter()
                    answer = answer_client(client, query)
                    end = time.perf_counter()
                    cpu = time.process_time() - own + server_cpu_s() - served
                except Exception as exc:  # an operation boundary: count it, keep going
                    self._count(False, f"{query}: {exc!r}")
                    continue
                self._count(answer == expected, f"{query}: answer differs from set-up")
                samples.append((index, query[0], begin, end, cpu))
            if time.perf_counter() - start >= seconds:
                return

    def read_while_writing(
        self, server: ServerProcess, seconds: float, samples: list, writer_cpu: int
    ) -> dict:
        """Run the reader here and the writer process at once; returns the writer's summary."""
        address = (server.client.host, server.client.port)
        payload = os.path.join(self.workdir, "writer-stream.pickle")
        with open(payload, "wb") as handle:
            pickle.dump((self.captured, self.captured_cpg), handle)
        writer = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "writer", address[0], str(address[1]),
             payload, str(writer_cpu), str(server.proc.pid)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=subprocess_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            ready, _, _ = select.select([writer.stdout], [], [], 120.0)
            if not ready or writer.stdout.readline().strip() != "ready":
                raise RuntimeError("writer process did not start")
            self.reader(server.client, server.cpu_s, seconds, samples)
            writer.stdin.write("stop\n")
            writer.stdin.close()
            ready, _, _ = select.select([writer.stdout], [], [], 150.0)
            if not ready:
                raise RuntimeError("writer process did not finish its last re-stream")
            writes = json.loads(writer.stdout.readline())
            writer.wait(timeout=30.0)
        finally:
            if writer.poll() is None:
                writer.kill()
                writer.wait(timeout=30.0)
            writer.stdout.close()
            if not writer.stdin.closed:
                writer.stdin.close()
        self.attempted += writes["attempted"]
        self.failed += len(writes["failures"])
        self.failures.extend(writes["failures"][: max(0, 10 - len(self.failures))])
        return writes

    # ------------------------------------------------------------ replays

    def replay_queries(self) -> Tuple[Dict[int, float], list]:
        """Answer the reader's queries in-process, cold then warm."""
        warm_ms: Dict[int, float] = {}
        samples = []
        with ProvenanceStore.open(self.store_path) as store, hostspeed.SpeedSampler() as sampler:
            for warm in (False, True):
                for index, (query, expected) in enumerate(self.pool):
                    scope = ReadScope()
                    engine = StoreQueryEngine(store, scope=scope)
                    begin, cpu = time.perf_counter(), time.process_time()
                    answer = answer_engine(engine, query)
                    cpu = time.process_time() - cpu
                    elapsed_ms = sampler.work_s(begin, time.perf_counter(), cpu) * 1e3
                    self._count(answer == expected, f"in-process replay of {query} differs")
                    samples.append((index, query[0], elapsed_ms, scope, engine.last_taint_mode))
                    if warm:
                        warm_ms[index] = elapsed_ms
        return warm_ms, samples

    def replay_ingest(self) -> Dict[str, float]:
        """Re-stream the captured run into a local ``StoreSink`` with store spans."""
        spans = Spans()
        start, cpu = time.perf_counter(), time.process_time()
        with ProvenanceStore.open(self.store_path) as store, hostspeed.SpeedSampler() as sampler:
            sink = StoreSink(store, segment_nodes=DEFAULT_SEGMENT_NODES, workload="replay")
            with patched(sink, "commit_epoch", spans.wrap("store.sink_epoch_s", sink.commit_epoch)), \
                    patched(store, "append_segment", spans.wrap("store.append_segment_s", store.append_segment)), \
                    patched(store, "flush", spans.wrap("store.flush_s", store.flush)):
                for node, edges in self.captured.stream:
                    sink.subcomputation_published(node, edges)
                with spans.span("store.sink_finish_s"):
                    sink.finish(self.captured_cpg)
            cpu = time.process_time() - cpu
            factor = sampler.work_s(start, time.perf_counter(), cpu) / cpu if cpu > 0 else 1.0
        layers = {name: spans.total.get(name, 0.0) * factor for name in (
            "store.sink_epoch_s", "store.append_segment_s", "store.flush_s", "store.sink_finish_s",
        )}
        layers["store.epochs"] = sink.epochs_committed
        return layers


def run(seed: int, seconds: float, trace: bool, preload=PRELOAD, wrong_answer: bool = False) -> dict:
    """Run serve_mixed for ``seconds``; returns metrics and report lines."""
    cpus = hostspeed.cpus_by_speed()
    server_cpu, writer_cpu = cpus[0], cpus[1 % len(cpus)]
    hostspeed.pin_to_cpu(server_cpu)  # the reader shares the server's CPU
    with scratch_dir() as workdir:
        bench = ServeBench(seed, workdir, preload=preload, wrong_answer=wrong_answer)
        bench.setup()
        servers: List[ServerProcess] = []
        timed: List[Tuple[int, str, float, float, float]] = []
        writes: dict = {}
        try:
            for index in range(SETUP_REPEATS):
                if servers:
                    servers[-1].stop()
                servers.append(ServerProcess(
                    bench.store_path, os.path.join(workdir, f"probes-{index}.json"), server_cpu
                ))
            server = servers[-1]
            # Warm-up operation, not timed: one re-stream (it also warms the writer path).
            restream(StoreClient(server.client.host, server.client.port, timeout=120.0),
                     bench.captured, bench.captured_cpg, "warmup")
            bytes_before = dir_bytes(bench.store_path)
            writes = bench.read_while_writing(server, seconds, timed, writer_cpu)
            bytes_after = dir_bytes(bench.store_path)
        finally:
            if servers:
                servers[-1].stop()
        rss = server.peak_rss_mb
        stream_s, request_ms = restream_work_s(writes, server)
        segments = sum(stream[-1] for stream in writes["streams"])
        setup_times = [s.work_s(s.started, s.ready, s.ready_cpu_s) for s in servers]
        samples = [
            (index, kind, server.work_s(begin, end, cpu) * 1e3)
            for index, kind, begin, end, cpu in timed
        ]

        report = [
            f"server CPU {server_cpu}: {hostspeed.summary(server.probe_durations)}",
            f"writer CPU {writer_cpu}: "
            f"{hostspeed.summary([duration for _, duration in writes['probes']])}",
            f"setup_s (server start to first ping x{len(setup_times)}): {describe(setup_times)}",
            f"writer re-streams: {describe(stream_s)}",
        ]
        wall = sum(end - begin for _, _, begin, end, _ in timed)
        report.append(
            f"reader: server+reader CPU time {sum(t[-1] for t in timed) / max(wall, 1e-9):.1%} "
            "of the answers' wall time"
        )
        query_ms = [ms for _, _, ms in samples]
        metrics: Dict[str, float] = {}
        if stream_s and query_ms:
            # A query's latency is its fastest answer.  The server's CPU also
            # serves the writer: an answer that meets one of its requests
            # waits up to a GIL switch interval (5 ms) while the writer's
            # thread runs, and how many answers do depends on how fast the
            # writer's CPU is.  The fastest of the cycles' answers is the
            # one that met none; the writer's work interleaved with a long
            # answer is in every answer, so it still counts.
            fastest: Dict[int, Tuple[str, float]] = {}
            for index, kind, ms in samples:
                if index not in fastest or ms < fastest[index][1]:
                    fastest[index] = (kind, ms)
            latencies = query_latencies([(i, kind, ms) for i, (kind, ms) in fastest.items()])
            report.append(
                f"query_ms: {latencies.pop('distinct')}-query pool x "
                f"{len(query_ms) // len(bench.pool)} cycles, answers {describe(query_ms)}"
            )
            metrics = {
                "setup_s": statistics.median(setup_times),
                "run_p50_s": statistics.median(stream_s),
                "store_bytes_per_run": (bytes_after - bytes_before) / len(stream_s),
                **latencies,
                "ingest_epochs_per_s": segments / sum(stream_s),
                "peak_rss_mb": rss,
            }

        layers: Dict[str, float] = {}
        if trace and samples:
            failed_before = bench.failed
            warm_ms, replay_samples = bench.replay_queries()
            # Parity: the in-process replay answers exactly what the server did.
            layers["trace.parity"] = 1.0 if bench.failed == failed_before else 0.0
            layers.update(query_layers(replay_samples))
            by_query: Dict[int, List[float]] = {}
            # The first cycle is the server's cold pass; compare warm with warm.
            cold = len(bench.pool) if len(samples) > len(bench.pool) else 0
            for index, _, ms in samples[cold:]:
                by_query.setdefault(index, []).append(ms)
            layers["server.overhead_ms"] = statistics.median(
                statistics.median(values) - warm_ms[index] for index, values in by_query.items()
            )
            layers["server.append_epoch_ms"] = request_ms.get("append_epoch", 0.0)
            layers["server.commit_run_ms"] = request_ms.get("commit_run", 0.0)
            layers.update(bench.replay_ingest())
            for name in _TRACKING_LAYERS:
                layers[name] = 0.0
            layers["trace.operations"] = len(samples) + len(stream_s)
            report.append(
                f"traced run: in-process replay of {len(bench.pool)} queries cold+warm; "
                f"server overhead {layers['server.overhead_ms']:.3f} ms/query"
            )
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "report": report,
    }


if __name__ == "__main__" and sys.argv[1:2] == ["writer"]:
    sys.exit(writer_main(sys.argv[2:]))
