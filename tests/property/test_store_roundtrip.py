"""Property tests for the persistent provenance store.

Random lock-schedule executions (with occasional unsynchronized accesses,
so sync, control, *and* data edges plus racy structure all appear) are
recorded through the tracker, ingested into a store, and read back: the
round trip must preserve every vertex and every edge with its attributes,
and the out-of-core query engine must return exactly what the in-memory
query functions return on the same graph.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cpg import EdgeKind
from repro.core.queries import (
    DEFAULT_SLICE_KINDS,
    backward_slice,
    forward_slice,
    lineage_of_pages,
    propagate_taint,
)
from repro.store import ProvenanceStore, StoreQueryEngine

from helpers.executions import random_cpg


def canonical_edges(cpg):
    entries = []
    for source, target, attrs in cpg.edges():
        kind = attrs["kind"]
        if kind is EdgeKind.SYNC:
            extra = (attrs.get("object_id"), attrs.get("operation", ""))
        elif kind is EdgeKind.DATA:
            extra = (tuple(sorted(attrs.get("pages", ()))),)
        else:
            extra = ()
        entries.append((source, target, kind.value, extra))
    return sorted(entries)


def ingested_copy(cpg, segment_nodes: int):
    """Ingest ``cpg`` into a throwaway store and reopen it cold."""
    tmp = tempfile.mkdtemp(prefix="inspector-store-")
    path = os.path.join(tmp, "store")
    ProvenanceStore.create(path).ingest(cpg, segment_nodes=segment_nodes)
    return ProvenanceStore.open(path)


class TestStoreRoundTripProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=15)
    @given(st.integers(0, 10_000), st.integers(2, 9))
    def test_round_trip_preserves_nodes_and_all_edge_kinds(self, seed, segment_nodes):
        cpg = random_cpg(seed)
        store = ingested_copy(cpg, segment_nodes)
        clone = store.load_cpg()
        assert clone.nodes() == cpg.nodes()
        assert canonical_edges(clone) == canonical_edges(cpg)
        for node_id in cpg.nodes():
            original = cpg.subcomputation(node_id)
            copy = clone.subcomputation(node_id)
            assert copy.read_set == original.read_set
            assert copy.write_set == original.write_set
            assert copy.clock == original.clock
            assert copy.started_by == original.started_by
            assert copy.ended_by == original.ended_by
            assert copy.faults == original.faults

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=15)
    @given(st.integers(0, 10_000), st.integers(2, 9))
    def test_indexed_slices_equal_in_memory_queries(self, seed, segment_nodes):
        cpg = random_cpg(seed)
        engine = StoreQueryEngine(ingested_copy(cpg, segment_nodes))
        for node_id in cpg.nodes()[::3]:
            assert engine.backward_slice(node_id) == backward_slice(cpg, node_id)
            assert engine.forward_slice(node_id) == forward_slice(cpg, node_id)
            assert engine.backward_slice(node_id, kinds=DEFAULT_SLICE_KINDS) == backward_slice(
                cpg, node_id, kinds=DEFAULT_SLICE_KINDS
            )

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=15)
    @given(
        st.integers(0, 10_000),
        st.integers(2, 9),
        st.sets(st.integers(0, 7), min_size=1, max_size=3),
        st.booleans(),
    )
    def test_indexed_taint_and_lineage_equal_in_memory_queries(
        self, seed, segment_nodes, pages, through_thread_state
    ):
        cpg = random_cpg(seed)
        engine = StoreQueryEngine(ingested_copy(cpg, segment_nodes))
        assert engine.lineage_of_pages(pages) == lineage_of_pages(cpg, pages)
        mine = engine.propagate_taint(pages, through_thread_state=through_thread_state)
        reference = propagate_taint(cpg, pages, through_thread_state=through_thread_state)
        assert mine.tainted_nodes == reference.tainted_nodes
        assert mine.tainted_pages == reference.tainted_pages
        assert mine.source_pages == reference.source_pages
