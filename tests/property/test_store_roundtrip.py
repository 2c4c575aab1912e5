"""Property tests for the persistent provenance store.

Random lock-schedule executions (with occasional unsynchronized accesses,
so sync, control, *and* data edges plus racy structure all appear) are
recorded through the tracker, ingested into a store, and read back: the
round trip must preserve every vertex and every edge with its attributes,
and the out-of-core query engine must return exactly what the in-memory
query functions return on the same graph.  Racy pairs on the stored run
must equal the in-memory answer and the brute-force pair scan.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cpg import EdgeKind
from repro.core.queries import (
    DEFAULT_SLICE_KINDS,
    backward_slice,
    find_racy_pairs,
    forward_slice,
    lineage_of_pages,
    propagate_taint,
)
from repro.store import ProvenanceStore, StoreQueryEngine

from helpers.executions import random_cpg
from tests.unit.test_store import _reference_racy_pairs


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


def reference_lineage(cpg, pages):
    """Lineage by its definition, with no query code: the pages' writers
    from the read/write sets, then a fixpoint adding every data-edge
    source whose target is already in."""
    wanted = set(pages)
    lineage = {node.node_id for node in cpg.subcomputations() if node.write_set & wanted}
    data_edges = [(source, target) for source, target, _ in cpg.edges(EdgeKind.DATA)]
    grew = True
    while grew:
        grew = False
        for source, target in data_edges:
            if target in lineage and source not in lineage:
                lineage.add(source)
                grew = True
    return lineage


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
        racy = find_racy_pairs(cpg)
        assert racy == _reference_racy_pairs(cpg)
        assert find_racy_pairs(engine.run_view()) == racy
        starts = cpg.nodes()[::3]
        for walk in (cpg.ancestors, cpg.descendants):
            # One walk from many starts reaches what a walk from each reaches.
            assert walk(*starts, kinds=DEFAULT_SLICE_KINDS) == set().union(
                *(walk(node_id, kinds=DEFAULT_SLICE_KINDS) for node_id in starts)
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
        # Both lineage implementations are pinned to the definition, not
        # just to each other.
        expected = reference_lineage(cpg, pages)
        assert lineage_of_pages(cpg, pages) == expected
        assert engine.lineage_of_pages(pages) == expected
        mine = engine.propagate_taint(pages, through_thread_state=through_thread_state)
        reference = propagate_taint(cpg, pages, through_thread_state=through_thread_state)
        assert mine.tainted_nodes == reference.tainted_nodes
        assert mine.tainted_pages == reference.tainted_pages
        assert mine.source_pages == reference.source_pages
