"""The read and write maps and the causal order on every path that fills a run view.

:attr:`StoreIndexes.node_reads` and :attr:`StoreIndexes.node_writes`
(node id -> pages it read / wrote) are the inversions of the page-reader
and page-writer families, kept in memory only; taint reads them, and
:meth:`StoreIndexes.causal_order`, instead of node records.  Every path
that builds a run's indexes must fill them: a sink stream, ``ingest``, a
writable server's ``append_epoch``, a reopen that replays deltas, a
reopen after ``compact`` (the base file is the only source), a rebuild
after a torn index generation, and a second handle served by an
:class:`IndexPinner`.  On each, the maps must equal the inversions and
the run's read and write sets, the causal order must equal the graph's,
and store taint from every written page, in both modes, must equal the
in-memory answer.  kmeans writes about one page per node; canneal's nodes
write a dozen or more each.

The in-memory graph keeps the same maps (``page_writers``,
``page_readers``, ``node_reads``, ``node_writes``), a per-thread index
list and the causal order, filled as nodes are added, so the queries run
on either.  On every path that builds a graph -- the tracker,
``cpg_from_dict``, ``load_cpg`` and the process-granularity collapse --
they must equal the inversion of the nodes' read and write sets, and for
a stored run they must equal the run's index maps.

Both views cache the causal order as a position map built on first use.
A sink-streamed run queried on the writer's handle after its first flush
and again after ``finish`` must answer taint over the nodes present each
time, so a map built mid-stream is rebuilt once nodes were added.
"""

import os
import shutil
from collections import defaultdict

import pytest

from repro.baselines.process_prov import collapse_to_process_granularity
from repro.core.cpg import ConcurrentProvenanceGraph, causal_key
from repro.core.queries import propagate_taint
from repro.core.serialization import cpg_from_dict, cpg_to_dict
from repro.inspector.api import run_with_provenance
from repro.store import ProvenanceStore, StoreQueryEngine, StoreServer, StoreSink
from repro.store.cache import IndexPinner
from repro.store.format import INDEX_DIR, index_delta_file_name, run_index_dir_name

WORKLOADS = ("kmeans", "canneal")
THREADS = 4


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request, tmp_path_factory):
    """A small traced run streamed into a store: the traced result."""
    store_dir = str(tmp_path_factory.mktemp(request.param))
    return run_with_provenance(request.param, THREADS, size="small", store_path=store_dir)


def copy_store(traced, tmp_path):
    """A copy of the traced run's store directory, for paths that change it."""
    copy = str(tmp_path / "copy")
    shutil.copytree(traced.store.path, copy)
    return copy


def inverted(page_map):
    """Node id -> the set of pages whose entry in ``page_map`` lists it."""
    pages_of = defaultdict(set)
    for page, node_ids in page_map.items():
        for node_id in node_ids:
            pages_of[node_id].add(page)
    return dict(pages_of)


def assert_maps_and_taint(store, run, cpg):
    indexes = store.indexes_for(run)
    for node_map, page_map, access in (
        (indexes.node_reads, indexes.page_readers, "read_set"),
        (indexes.node_writes, indexes.page_writers, "write_set"),
    ):
        assert all(type(pages) is tuple for pages in node_map.values())
        as_sets = {node_id: set(pages) for node_id, pages in node_map.items()}
        assert as_sets == inverted(page_map)
        assert as_sets == {
            node.node_id: set(getattr(node, access))
            for node in cpg.subcomputations()
            if getattr(node, access)
        }
    assert indexes.causal_order() == cpg.causal_order()
    engine = StoreQueryEngine(store)
    for page in indexes.page_writers:
        for through_thread_state in (False, True):
            stored = engine.propagate_taint([page], through_thread_state, run=run)
            expected = propagate_taint(cpg, [page], through_thread_state)
            assert (stored.tainted_nodes, stored.tainted_pages) == (
                expected.tainted_nodes,
                expected.tainted_pages,
            ), (page, through_thread_state)


def test_sink_stream(traced):
    assert_maps_and_taint(traced.store, traced.store_run_id, traced.cpg)


def test_ingest(traced, tmp_path):
    store = ProvenanceStore.create(str(tmp_path / "ingest"))
    store.ingest(traced.cpg)
    assert_maps_and_taint(store, store.run_ids()[-1], traced.cpg)


def test_writable_server_append_epoch(traced, tmp_path):
    store_dir = str(tmp_path / "remote")
    ProvenanceStore.create(store_dir)
    server = StoreServer(store_dir, writable=True)
    host, port = server.start()
    try:
        remote = run_with_provenance(
            traced.workload, THREADS, size="small", store_url=f"store://{host}:{port}"
        )
        # The writer handle's indexes were filled epoch by epoch.
        assert_maps_and_taint(server._writer, remote.store_run_id, remote.cpg)
    finally:
        server.close()


def test_reopen_replays_deltas(traced):
    store = ProvenanceStore.open(traced.store.path)
    info = store.manifest.run_info(traced.store_run_id)
    assert info.index_base == 0 and info.index_deltas
    assert_maps_and_taint(store, traced.store_run_id, traced.cpg)


def compacted_copy(traced, tmp_path):
    """A copy of the store whose run index is one base file and no deltas."""
    store_dir = copy_store(traced, tmp_path)
    ProvenanceStore.open(store_dir).compact(segment_nodes=16)
    info = ProvenanceStore.open(store_dir).manifest.run_info(traced.store_run_id)
    assert info.index_base and not info.index_deltas
    return store_dir


def test_reopen_after_compact_loads_the_base_only(traced, tmp_path):
    store = ProvenanceStore.open(compacted_copy(traced, tmp_path))
    assert_maps_and_taint(store, traced.store_run_id, traced.cpg)


def test_rebuild_after_torn_generation(traced, tmp_path):
    store_dir = copy_store(traced, tmp_path)
    run = traced.store_run_id
    info = ProvenanceStore.open(store_dir).manifest.run_info(run)
    victim = os.path.join(
        store_dir, INDEX_DIR, run_index_dir_name(run), index_delta_file_name(info.index_deltas[0])
    )
    with open(victim, "rb") as handle:
        data = handle.read()
    with open(victim, "wb") as handle:
        handle.write(data[: len(data) // 2])
    store = ProvenanceStore.open(store_dir)
    assert store.indexes_for(run).needs_base  # rebuilt from the segments
    assert_maps_and_taint(store, run, traced.cpg)


def test_second_handle_served_by_the_pinner(traced, tmp_path):
    store_dir = compacted_copy(traced, tmp_path)
    run = traced.store_run_id
    pinner = IndexPinner()
    first = ProvenanceStore.open(store_dir, index_pinner=pinner).indexes_for(run)
    second = ProvenanceStore.open(store_dir, index_pinner=pinner)
    assert second.indexes_for(run) is first and pinner.stats.hits == 1
    assert_maps_and_taint(second, run, traced.cpg)


def assert_graph_maps(cpg):
    """The graph's page maps and thread lists equal the inversion of its nodes."""
    writers, readers, threads = defaultdict(list), defaultdict(list), defaultdict(list)
    for node in cpg.subcomputations():
        for page in node.write_set:
            writers[page].append(node.node_id)
        for page in node.read_set:
            readers[page].append(node.node_id)
        threads[node.tid].append(node.node_id)
    assert {page: sorted(ids) for page, ids in cpg.page_writers.items()} == {
        page: sorted(ids) for page, ids in writers.items()
    }
    assert {page: sorted(ids) for page, ids in cpg.page_readers.items()} == {
        page: sorted(ids) for page, ids in readers.items()
    }
    assert cpg.node_reads == {
        node.node_id: tuple(sorted(node.read_set))
        for node in cpg.subcomputations()
        if node.read_set
    }
    assert cpg.node_writes == {
        node.node_id: tuple(sorted(node.write_set))
        for node in cpg.subcomputations()
        if node.write_set
    }
    assert cpg.causal_order() == [node.node_id for node in sorted(cpg.subcomputations(), key=causal_key)]
    for tid, node_ids in threads.items():
        assert cpg.thread_nodes(tid) == sorted(node_ids)
        assert cpg.thread_nodes_from(tid, 1) == sorted(node_ids)[1:]


def test_graph_maps_on_every_graph_building_path(traced):
    assert_graph_maps(traced.cpg)
    assert_graph_maps(cpg_from_dict(cpg_to_dict(traced.cpg)))
    assert_graph_maps(traced.store.load_cpg(run=traced.store_run_id))
    assert_graph_maps(collapse_to_process_granularity(traced.cpg))


def test_graph_maps_equal_the_stored_run_indexes(traced):
    cpg = traced.cpg
    indexes = traced.store.indexes_for(traced.store_run_id)
    for graph_map, index_map in (
        (cpg.page_writers, indexes.page_writers),
        (cpg.page_readers, indexes.page_readers),
    ):
        assert {page: sorted(ids) for page, ids in graph_map.items()} == {
            page: sorted(ids) for page, ids in index_map.items()
        }
    assert cpg.node_reads == indexes.node_reads
    assert cpg.node_writes == indexes.node_writes
    assert cpg.causal_order() == indexes.causal_order()
    assert {node_id[0] for node_id in cpg.nodes()} == set(indexes.thread_indexes)
    for tid in indexes.thread_indexes:
        assert cpg.thread_nodes(tid) == indexes.thread_nodes_from(tid, 0)


def assert_taint_over_present_nodes(store, run, graph):
    """Stored taint equals the replay over ``graph``, the nodes the run holds so far."""
    indexes = store.indexes_for(run)
    assert set(indexes.causal_order()) == set(graph.nodes())
    input_pages = [page for node_id, pages in graph.node_writes.items() if node_id[0] < 0 for page in pages]
    queries = [([page], mode) for page in graph.page_writers for mode in (False, True)]
    queries.append((input_pages, False))
    engine = StoreQueryEngine(store)
    for sources, through_thread_state in queries:
        stored = engine.propagate_taint(sources, through_thread_state, run=run)
        expected = propagate_taint(graph, sources, through_thread_state)
        assert (stored.tainted_nodes, stored.tainted_pages) == (
            expected.tainted_nodes,
            expected.tainted_pages,
        ), (sources, through_thread_state)


def test_a_causal_order_built_mid_stream_is_rebuilt(traced, tmp_path):
    # The graph's nodes in the order the tracker published them.  Taint
    # reads no edge, so the stream carries the nodes alone.
    published = list(traced.cpg.subcomputations())
    first = len(published) // 3
    store = ProvenanceStore.create(str(tmp_path / "stream"))
    sink = StoreSink(store, segment_nodes=first)
    present = ConcurrentProvenanceGraph()
    for node in published[: first + 1]:
        sink.subcomputation_published(node, [])
    assert sink.epochs_committed == 1
    for node in published[:first]:
        present.add_subcomputation(node)
    # Both views build their position maps over the first epoch here ...
    assert_taint_over_present_nodes(store, sink.run_id, present)
    for node in published[first + 1 :]:
        sink.subcomputation_published(node, [])
    sink.finish()
    for node in published[first:]:
        present.add_subcomputation(node)
    # ... and must rebuild them over the whole run here.
    assert_taint_over_present_nodes(store, sink.run_id, present)
    assert len(store.indexes_for(sink.run_id).causal_order()) == len(published)
