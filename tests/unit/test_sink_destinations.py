"""One sink, two destinations: a local store and a writable store server
record the same run entry and refuse the same broken input."""

from collections import defaultdict

import pytest

from repro.core.algorithm import ProvenanceTracker
from repro.core.cpg import EdgeKind
from repro.core.dependencies import derive_data_edges
from repro.errors import StoreError
from repro.store import ProvenanceStore, StoreServer, StoreSink
from repro.store.format import RUN_COMPLETE

CREATED_AT = "2020-01-02T03:04:05+00:00"


def build_cpg(threads: int = 2, steps: int = 3):
    """A lock-ordered run where each critical section reads the previous one's page."""
    tracker = ProvenanceTracker()
    tracker.register_input_pages({500})
    for tid in range(1, threads + 1):
        tracker.on_thread_start(tid)
    page = 0
    for step in range(steps):
        for tid in range(1, threads + 1):
            tracker.on_sync_boundary(tid, "mutex_lock")
            tracker.on_acquire(tid, 9)
            tracker.begin_next(tid)
            tracker.on_memory_access(tid, 500 if page == 0 else page - 1, is_write=False)
            tracker.on_memory_access(tid, page, is_write=True)
            page += 1
            tracker.on_sync_boundary(tid, "mutex_unlock")
            tracker.on_release(tid, 9)
            tracker.begin_next(tid)
    for tid in range(1, threads + 1):
        tracker.on_thread_end(tid)
    cpg = tracker.finalize()
    derive_data_edges(cpg)
    return cpg


def publish(sink, cpg, run_meta=None, skip=()):
    """Feed ``cpg`` through ``sink`` as a live tracker would, leaving out ``skip``."""
    recorded = defaultdict(list)
    for source, target, attrs in cpg.edges():
        if attrs["kind"] is not EdgeKind.DATA:
            extra = {key: value for key, value in attrs.items() if key != "kind"}
            recorded[target].append((source, target, attrs["kind"], extra))
    for node_id in cpg.topological_order():
        if node_id not in skip:
            sink.subcomputation_published(cpg.subcomputation(node_id), recorded[node_id])
    sink.finish(cpg, run_meta=run_meta)


@pytest.fixture(params=["local", "server"])
def destination(request, tmp_path):
    """Yields ``(what the sink is given, store directory)`` for each destination."""
    root = str(tmp_path / "store")
    store = ProvenanceStore.create(root)
    if request.param == "local":
        yield store, root
        store.close()
        return
    store.close()
    server = StoreServer(root, writable=True)
    host, port = server.start()
    yield f"{host}:{port}", root
    server.close()


def only_run(root):
    with ProvenanceStore.open(root) as store:
        (run,) = store.manifest.runs
        return run


def test_a_caller_created_at_is_the_runs(destination):
    target, root = destination
    sink = StoreSink(target, segment_nodes=2, workload="w", run_meta={"created_at": CREATED_AT})
    publish(sink, build_cpg())
    run = only_run(root)
    assert run.created_at == CREATED_AT
    assert run.status == RUN_COMPLETE


def test_a_workload_named_only_at_finish_is_recorded(destination):
    target, root = destination
    sink = StoreSink(target, segment_nodes=2)
    publish(sink, build_cpg(), run_meta={"workload": "named-at-finish"})
    run = only_run(root)
    assert run.workload == "named-at-finish"
    assert run.meta["epochs"] == sink.epochs_committed > 0


def test_a_data_edge_to_an_unpublished_node_is_refused(destination):
    target, root = destination
    cpg = build_cpg()
    unpublished = max(target_id for _, target_id, _ in cpg.edges(EdgeKind.DATA))
    sink = StoreSink(target, segment_nodes=2, workload="w")
    with pytest.raises(StoreError, match="no sub-computation"):
        publish(sink, cpg, skip={unpublished})
    run = only_run(root)
    assert run.status != RUN_COMPLETE
    assert run.nodes == len(cpg) - 1
