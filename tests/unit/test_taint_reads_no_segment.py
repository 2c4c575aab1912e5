"""Stored taint is an index-only query.

Taint replays from a run's page maps, read and write maps and causal
order, all in the run's in-memory indexes, so it decodes no segment:
neither from a single written page (the candidate closure, ``indexed``)
nor from the input pages (the flood, ``sweep``), in either
``through_thread_state`` mode.  Both the handle's ``read_stats`` and the
query's :class:`ReadScope` count zero segments and zero cache lookups on
a cold handle over a sink-streamed kmeans-4 run.

Because the indexes hold the same page sets as the segments, a taint
answer stays exact, and its scope is not ``degraded``, when every segment
of the run is quarantined.  A lineage on the same handle walks data edges
out of the segments and still reports the skipped segments.
"""

import pytest

from repro.core.queries import propagate_taint
from repro.inspector.api import run_with_provenance
from repro.store import ProvenanceStore, ReadScope, StoreQueryEngine


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """``(store dir, run id, in-memory CPG)`` of a sink-streamed kmeans-4 run."""
    store_dir = str(tmp_path_factory.mktemp("kmeans"))
    traced = run_with_provenance("kmeans", 4, size="small", store_path=store_dir)
    traced.store.close()
    return store_dir, traced.store_run_id, traced.cpg


def taint_queries(cpg):
    """``(sources, through_thread_state)``: each written page in both modes, then the input pages."""
    queries = [
        ([page], through_thread_state)
        for page in sorted(cpg.page_writers)
        for through_thread_state in (False, True)
    ]
    queries.append((sorted(cpg.node_writes[cpg.input_node]), False))
    return queries


def assert_taint_answers(store, run, cpg):
    """Every taint query equals the in-memory answer; returns the modes and scopes."""
    modes, scopes = [], []
    for sources, through_thread_state in taint_queries(cpg):
        scope = ReadScope()
        engine = StoreQueryEngine(store, scope=scope)
        stored = engine.propagate_taint(sources, through_thread_state, run=run)
        expected = propagate_taint(cpg, sources, through_thread_state)
        assert (stored.tainted_nodes, stored.tainted_pages) == (
            expected.tainted_nodes,
            expected.tainted_pages,
        ), (sources, through_thread_state)
        assert stored.flooded == expected.flooded
        modes.append(engine.last_taint_mode)
        scopes.append(scope)
    return modes, scopes


def test_taint_reads_no_segment_on_a_cold_handle(streamed):
    store_dir, run, cpg = streamed
    with ProvenanceStore.open(store_dir) as store:
        assert len(store.manifest.segments_of_run(run)) > 1
        modes, scopes = assert_taint_answers(store, run, cpg)
        assert modes[-1] == "sweep" and "indexed" in modes[:-1]
        for scope in scopes:
            assert (scope.segments_read, scope.cache_hits, scope.cache_misses) == (0, 0, 0)
            assert not scope.degraded
        assert store.read_stats.segments_read == 0


def test_taint_stays_exact_with_every_segment_quarantined(streamed):
    store_dir, run, cpg = streamed
    with ProvenanceStore.open(store_dir) as store:
        segments = [info.segment_id for info in store.manifest.segments_of_run(run)]
        for segment_id in segments:
            store.quarantine_segment(segment_id, "test: every segment of the run")
        _, scopes = assert_taint_answers(store, run, cpg)
        assert not any(scope.degraded for scope in scopes)
        # A lineage walks data edges out of the segments: the page every
        # worker writes (the centroids) reaches across them and degrades.
        hot_page = max(cpg.page_writers, key=lambda page: len(cpg.page_writers[page]))
        scope = ReadScope()
        StoreQueryEngine(store, scope=scope).lineage_of_pages([hot_page], run=run)
        assert scope.degraded and scope.quarantined_segments <= set(segments)
        assert store.read_stats.segments_read == 0
