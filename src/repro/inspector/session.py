"""The INSPECTOR session: run a workload under full provenance tracking.

A session wires together the whole stack -- the instrumented backend, the
cooperative runtime, the PT/perf pipeline, and the provenance tracker --
runs one workload, and returns the completed CPG together with the runtime
statistics every benchmark figure is derived from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Union

from repro.core.algorithm import ProvenanceTracker
from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.dependencies import derive_data_edges
from repro.inspector.config import InspectorConfig
from repro.inspector.costmodel import CostModel, CostParameters
from repro.inspector.interpose import InspectorBackend, OutputRecord
from repro.inspector.stats import RunStats
from repro.perf.events import PerfData
from repro.store.format import DEFAULT_SEGMENT_NODES
from repro.store.sink import StoreSink
from repro.store.store import ProvenanceStore
from repro.threads.program import ProgramAPI
from repro.threads.runtime import SimRuntime
from repro.threads.scheduler import RandomScheduler, RoundRobinScheduler, Scheduler
from repro.workloads.base import DatasetSpec, InputDescriptor, Workload


@dataclass
class InspectorRunResult:
    """Everything produced by one INSPECTOR run.

    Attributes:
        workload: Name of the workload that ran.
        result: The workload's return value (its computed output).
        cpg: The completed Concurrent Provenance Graph.
        stats: Runtime statistics with the cost model applied.
        outputs: Records of data written through the output shim.
        perf_data: The recorded perf/PT log.
        dataset: The dataset the workload consumed.
        backend: The backend, exposed for advanced analyses (DIFT, NUMA).
        store: The persistent store the run was ingested into, when the
            session was created with one.
        store_run_id: Id of the run minted in the store for this execution
            (the namespace to query it under), when a store was used.
    """

    workload: str
    result: Any
    cpg: ConcurrentProvenanceGraph
    stats: RunStats
    outputs: List[OutputRecord] = field(default_factory=list)
    perf_data: Optional[PerfData] = None
    dataset: Optional[DatasetSpec] = None
    backend: Optional[InspectorBackend] = None
    store: Optional[ProvenanceStore] = None
    store_run_id: Optional[int] = None

    @property
    def tracker(self) -> ProvenanceTracker:
        """The provenance tracker that built the CPG."""
        return self.backend.tracker  # type: ignore[union-attr]


def make_scheduler(config: InspectorConfig) -> Scheduler:
    """Instantiate the scheduler named by ``config``."""
    if config.scheduler == "random":
        return RandomScheduler(seed=config.scheduler_seed)
    return RoundRobinScheduler()


class InspectorSession:
    """Runs workloads under the INSPECTOR library.

    Args:
        config: Library configuration (defaults are fine for most uses).
        cost_params: Optional cost-model parameter overrides.
        store: Optional persistent provenance store (or a path to one; it
            is opened or created as needed).  When given, each run streams
            its CPG into the store while executing -- one segment per
            ingest epoch -- and the derived data edges are appended when
            the run completes.  Every run gets its own run id (namespace)
            in the store, so one session (and one store) can trace any
            number of runs of any workloads; query them individually or
            compare them with
            :meth:`repro.store.StoreQueryEngine.compare_lineage`.
        store_url: Address of a **writable store server**
            (``host:port`` or ``store://host:port``) to stream runs to
            over TCP instead of a local store directory -- the traced
            process never touches the store's filesystem.  Mutually
            exclusive with ``store``.
        store_segment_nodes: Sub-computations per ingest epoch.
    """

    def __init__(
        self,
        config: Optional[InspectorConfig] = None,
        cost_params: Optional[CostParameters] = None,
        store: Optional[Union[str, ProvenanceStore]] = None,
        store_url: Optional[str] = None,
        store_segment_nodes: int = DEFAULT_SEGMENT_NODES,
    ) -> None:
        self.config = config if config is not None else InspectorConfig()
        self.config.validate()
        self.cost_model = CostModel(cost_params)
        if store is not None and store_url is not None:
            raise ValueError("store and store_url are mutually exclusive; pass one")
        if isinstance(store, str):
            store = ProvenanceStore.open_or_create(store)
        self.store = store
        self.store_url = store_url
        self.store_segment_nodes = store_segment_nodes

    def run(
        self,
        workload: Workload,
        num_threads: int = 4,
        size: str = "medium",
        dataset: Optional[DatasetSpec] = None,
        seed: int = 42,
        run_meta: Optional[dict] = None,
    ) -> InspectorRunResult:
        """Execute ``workload`` under provenance tracking.

        Args:
            workload: The workload to run.
            num_threads: Number of worker threads the workload should use.
            size: Dataset size label (ignored when ``dataset`` is given).
            dataset: Pre-generated dataset to reuse across runs.
            seed: Dataset generation seed.
            run_meta: Extra metadata recorded with the store's run entry
                (e.g. a caller-supplied wall-clock timestamp as
                ``created_at``, ticket ids, experiment labels).  Ignored
                when the session has no store.
        """
        if num_threads <= 0:
            raise ValueError(f"num_threads must be positive, got {num_threads}")
        spec = dataset if dataset is not None else workload.generate_dataset(size=size, seed=seed)
        backend = InspectorBackend(self.config, command=f"{workload.name} -t {num_threads}")
        base = backend.load_input(spec.payload)
        descriptor = InputDescriptor(base=base, size=len(spec.payload), meta=spec.meta)
        runtime = SimRuntime(scheduler=make_scheduler(self.config), backend=backend)
        destination = self.store if self.store is not None else self.store_url
        sink: Optional[StoreSink] = None
        if destination is not None:
            sink = StoreSink(
                destination,
                segment_nodes=self.store_segment_nodes,
                workload=workload.name,
                run_meta=run_meta,
            )
            sink.attach(backend.tracker)

        def entry(proc):
            api = ProgramAPI(runtime, backend, proc)
            return workload.run(api, descriptor, num_threads)

        result = runtime.run(entry, name=f"{workload.name}-main")

        cpg = backend.tracker.finalize()
        if self.config.derive_data_edges:
            derive_data_edges(cpg)
        if sink is not None:
            sink.finish(
                cpg,
                run_meta={
                    "workload": workload.name,
                    "threads": num_threads,
                    "size": size if dataset is None else "custom",
                    "seed": seed,
                    "scheduler": self.config.scheduler,
                    "input_bytes": spec.size_bytes,
                    "nodes": len(cpg),
                },
            )
        perf_data = backend.perf_session.finish()
        stats = self._collect_stats(workload, num_threads, spec, backend, runtime, cpg, perf_data)
        return InspectorRunResult(
            workload=workload.name,
            result=result,
            cpg=cpg,
            stats=stats,
            outputs=list(backend.outputs),
            perf_data=perf_data,
            dataset=spec,
            backend=backend,
            store=self.store,
            store_run_id=sink.run_id if sink is not None else None,
        )

    # ------------------------------------------------------------------ #
    # Statistics collection
    # ------------------------------------------------------------------ #

    def _collect_stats(
        self,
        workload: Workload,
        num_threads: int,
        dataset: DatasetSpec,
        backend: InspectorBackend,
        runtime: SimRuntime,
        cpg: ConcurrentProvenanceGraph,
        perf_data: PerfData,
    ) -> RunStats:
        counters = backend.counters
        faults = backend.fault_counts()
        stats = RunStats(
            workload=workload.name,
            mode="inspector",
            threads=num_threads,
            input_bytes=dataset.size_bytes,
            instructions=counters.instructions,
            loads=counters.loads,
            stores=counters.stores,
            branches=counters.branches,
            indirect_branches=counters.indirect_branches,
            compute_units=counters.compute_units,
            per_thread_instructions=dict(counters.per_tid_instructions),
            sync_ops=counters.sync_ops,
            process_creations=runtime.process_creations,
            context_switches=runtime.context_switches,
            page_faults=faults["total"],
            read_faults=faults["read"],
            write_faults=faults["write"],
            locked_faults=backend.locked_faults,
            commits=backend.committer.stats.commits,
            pages_committed=backend.committer.stats.pages_committed,
            bytes_committed=backend.committer.stats.bytes_committed,
            allocations=counters.allocations,
            false_sharing_stores=0,
            pt_bytes=backend.pmu.total_bytes_emitted(),
            pt_bytes_lost=backend.pmu.total_bytes_lost(),
            pt_packets=sum(
                backend.pmu.encoder(pid).stats.packets for pid in backend.pmu.traced_pids()
            ),
            psb_groups=sum(
                backend.pmu.encoder(pid).stats.psb_groups for pid in backend.pmu.traced_pids()
            ),
            perf_log_bytes=perf_data.total_size,
            cpg_nodes=len(cpg),
            cpg_control_edges=cpg.edge_count(EdgeKind.CONTROL),
            cpg_sync_edges=cpg.edge_count(EdgeKind.SYNC),
            cpg_data_edges=cpg.edge_count(EdgeKind.DATA),
            snapshots_taken=(
                backend.snapshotter.stats.snapshots_taken if backend.snapshotter is not None else 0
            ),
        )
        return self.cost_model.apply(stats)
