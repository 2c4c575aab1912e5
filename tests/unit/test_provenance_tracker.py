"""Unit tests for the provenance algorithm, CPG, dependency derivation, queries."""

import pytest

from repro.core.algorithm import ProvenanceTracker
from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.dependencies import derive_data_edges
from repro.core.queries import (
    backward_slice,
    find_racy_pairs,
    forward_slice,
    graph_statistics,
    lineage_of_pages,
    propagate_taint,
    schedule_of,
)
from repro.core.serialization import cpg_from_json, cpg_to_json, serialized_size
from repro.core.thunk import INPUT_NODE, SubComputation
from repro.core.vector_clock import VectorClock
from repro.errors import ProvenanceError


# Node ids of the named sub-computations in the Figure-1 example below.
# Each thread's very first sub-computation (index 0) is the empty stretch
# before its first lock() call, so the critical sections land on index 1+.
T1A = (1, 1)
T1B = (1, 3)
T2A = (2, 1)


def build_lock_example():
    """Replay the paper's Figure 1 example: two threads, one lock, x and y.

    Thread 1 runs sub-computations T1.a and T1.b; thread 2 runs T2.a, and
    the schedule is T1.a -> T2.a -> T1.b.  Pages: x lives on page 100,
    y on page 101, flag on page 102.
    """
    tracker = ProvenanceTracker(keep_event_log=True)
    LOCK = 7

    tracker.on_thread_start(1)
    tracker.on_thread_start(2)

    # T1.a: lock(); x = ++y (reads flag, y; writes x, y); unlock()
    tracker.on_sync_boundary(1, "mutex_lock")
    tracker.on_acquire(1, LOCK, "mutex_lock")
    tracker.begin_next(1)
    tracker.on_memory_access(1, 102, is_write=False)
    tracker.on_branch(1, site=0x1234, taken=True)
    tracker.on_memory_access(1, 101, is_write=False)
    tracker.on_memory_access(1, 101, is_write=True)
    tracker.on_memory_access(1, 100, is_write=True)
    tracker.on_sync_boundary(1, "mutex_unlock")
    tracker.on_release(1, LOCK, "mutex_unlock")
    tracker.begin_next(1)

    # T2.a: lock(); y = 2 * x (reads x, writes y); unlock()
    tracker.on_sync_boundary(2, "mutex_lock")
    tracker.on_acquire(2, LOCK, "mutex_lock")
    tracker.begin_next(2)
    tracker.on_memory_access(2, 100, is_write=False)
    tracker.on_memory_access(2, 101, is_write=True)
    tracker.on_sync_boundary(2, "mutex_unlock")
    tracker.on_release(2, LOCK, "mutex_unlock")
    tracker.begin_next(2)

    # T1.b: lock(); y = y / 2 (reads and writes y); unlock()
    tracker.on_sync_boundary(1, "mutex_lock")
    tracker.on_acquire(1, LOCK, "mutex_lock")
    tracker.begin_next(1)
    tracker.on_memory_access(1, 101, is_write=False)
    tracker.on_memory_access(1, 101, is_write=True)

    tracker.on_thread_end(1)
    tracker.on_thread_end(2)
    cpg = tracker.finalize()
    derive_data_edges(cpg)
    return tracker, cpg


class TestTrackerBasics:
    def test_thread_cannot_start_twice(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        with pytest.raises(ProvenanceError):
            tracker.on_thread_start(1)

    def test_memory_access_requires_started_thread(self):
        tracker = ProvenanceTracker()
        with pytest.raises(ProvenanceError):
            tracker.on_memory_access(3, 1, is_write=False)

    def test_begin_next_requires_closed_subcomputation(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        with pytest.raises(ProvenanceError):
            tracker.begin_next(1)

    def test_read_and_write_sets_recorded(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        tracker.on_memory_access(1, 10, is_write=False)
        tracker.on_memory_access(1, 11, is_write=True)
        current = tracker.current_subcomputation(1)
        assert current.read_set == {10}
        assert current.write_set == {11}

    def test_branches_create_thunks(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        tracker.on_branch(1, site=0x10, taken=True)
        tracker.on_branch(1, site=0x20, taken=False)
        current = tracker.current_subcomputation(1)
        assert current.branch_count == 2
        assert [t.start_branch.taken for t in current.thunks if t.start_branch] == [True, False]

    def test_finalize_closes_open_subcomputations(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        tracker.on_memory_access(1, 5, is_write=True)
        cpg = tracker.finalize()
        assert (1, 0) in cpg.nodes()

    def test_sync_boundary_increments_alpha(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        tracker.on_sync_boundary(1, "mutex_lock")
        tracker.on_acquire(1, 3)
        tracker.begin_next(1)
        assert tracker.current_subcomputation(1).index == 1

    def test_thread_clock_tracks_alpha(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        for expected_alpha in range(1, 4):
            tracker.on_sync_boundary(1, "op")
            tracker.begin_next(1)
            # The stored component is alpha + 1 (see _begin_subcomputation).
            assert tracker.thread_clock(1).get(1) == expected_alpha + 1

    def test_release_updates_sync_clock(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        tracker.on_sync_boundary(1, "unlock")
        tracker.on_release(1, 42)
        tracker.begin_next(1)
        # Clock component of the released sub-computation (alpha = 0 -> 1).
        assert tracker.sync_clock(42).get(1) == 1

        tracker.on_sync_boundary(1, "unlock")
        tracker.on_release(1, 42)
        tracker.begin_next(1)
        assert tracker.sync_clock(42).get(1) == 2

    def test_acquire_merges_sync_clock_into_thread_clock(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        tracker.on_thread_start(2)
        tracker.on_sync_boundary(1, "unlock")
        tracker.on_release(1, 9)
        tracker.begin_next(1)
        tracker.on_sync_boundary(2, "lock")
        tracker.on_acquire(2, 9)
        tracker.begin_next(2)
        assert tracker.thread_clock(2).get(1) == tracker.sync_clock(9).get(1)

    def test_event_log_records_order(self):
        tracker, _ = build_lock_example()
        log = tracker.event_log
        assert log is not None
        assert len(log) > 0
        sequences = [event.sequence for event in log.events]
        assert sequences == sorted(sequences)

    def test_stats_counters(self):
        tracker, _ = build_lock_example()
        assert tracker.stats.threads == 2
        assert tracker.stats.subcomputations >= 3
        assert tracker.stats.sync_acquires >= 3
        assert tracker.stats.sync_releases >= 2


class TestFigureOneExample:
    def test_named_subcomputations_present(self):
        _, cpg = build_lock_example()
        assert T1A in cpg.nodes()
        assert T2A in cpg.nodes()
        assert T1B in cpg.nodes()

    def test_control_edges_follow_program_order(self):
        _, cpg = build_lock_example()
        assert (1, 1) in cpg.successors((1, 0), EdgeKind.CONTROL)
        assert (1, 2) in cpg.successors(T1A, EdgeKind.CONTROL)

    def test_sync_edge_from_release_to_acquire(self):
        _, cpg = build_lock_example()
        sync_edges = {(s, t) for s, t, _ in cpg.edges(EdgeKind.SYNC)}
        assert (T1A, T2A) in sync_edges
        assert (T2A, T1B) in sync_edges

    def test_happens_before_chain(self):
        _, cpg = build_lock_example()
        assert cpg.happens_before(T1A, T2A)
        assert cpg.happens_before(T2A, T1B)
        assert cpg.happens_before(T1A, T1B)
        assert not cpg.happens_before(T1B, T1A)

    def test_data_edges_track_update_use(self):
        _, cpg = build_lock_example()
        data_edges = {(s, t) for s, t, _ in cpg.edges(EdgeKind.DATA)}
        # T2.a reads x (page 100) written by T1.a; T1.b reads y (page 101)
        # most recently written by T2.a.
        assert (T1A, T2A) in data_edges
        assert (T2A, T1B) in data_edges

    def test_closer_writer_shadows_farther_writer(self):
        _, cpg = build_lock_example()
        # y (page 101) read by T1.b must come from T2.a, not from T1.a which
        # also wrote it but is superseded.
        pages_from_t1a = [
            attrs.get("pages", frozenset())
            for s, t, attrs in cpg.edges(EdgeKind.DATA)
            if s == T1A and t == T1B
        ]
        for pages in pages_from_t1a:
            assert 101 not in pages

    def test_cpg_is_acyclic(self):
        _, cpg = build_lock_example()
        assert cpg.is_acyclic()

    def test_schedule_respects_partial_order(self):
        _, cpg = build_lock_example()
        order = schedule_of(cpg)
        assert order.index(T1A) < order.index(T2A) < order.index(T1B)

    def test_no_races_in_well_locked_program(self):
        _, cpg = build_lock_example()
        assert find_racy_pairs(cpg) == []

    def test_statistics(self):
        _, cpg = build_lock_example()
        stats = graph_statistics(cpg)
        assert stats["threads"] == 2
        assert stats["data_edges"] >= 2
        assert stats["branches"] >= 1


class TestCPGStructure:
    def test_duplicate_node_rejected(self):
        cpg = ConcurrentProvenanceGraph()
        cpg.add_subcomputation(SubComputation(tid=1, index=0))
        with pytest.raises(ProvenanceError):
            cpg.add_subcomputation(SubComputation(tid=1, index=0))

    def test_control_edge_across_threads_rejected(self):
        cpg = ConcurrentProvenanceGraph()
        cpg.add_subcomputation(SubComputation(tid=1, index=0))
        cpg.add_subcomputation(SubComputation(tid=2, index=0))
        with pytest.raises(ProvenanceError):
            cpg.add_control_edge((1, 0), (2, 0))

    def test_edge_requires_existing_nodes(self):
        cpg = ConcurrentProvenanceGraph()
        cpg.add_subcomputation(SubComputation(tid=1, index=0))
        with pytest.raises(ProvenanceError):
            cpg.add_sync_edge((1, 0), (9, 9), object_id=1)

    def test_is_acyclic_checks_every_edge_against_the_clocks(self):
        def graph(source, target):
            cpg = ConcurrentProvenanceGraph()
            cpg.add_subcomputation(SubComputation(tid=1, index=0, clock=VectorClock({1: 1})))
            cpg.add_subcomputation(
                SubComputation(tid=2, index=0, clock=VectorClock({1: 1, 2: 1}))
            )
            cpg.add_sync_edge(source, target, object_id=1)
            return cpg

        assert graph((1, 0), (2, 0)).is_acyclic()
        # No cycle, but the edge runs against the clocks.
        assert not graph((2, 0), (1, 0)).is_acyclic()

    def test_thread_nodes_sorted(self):
        cpg = ConcurrentProvenanceGraph()
        for index in (2, 0, 1):
            cpg.add_subcomputation(SubComputation(tid=4, index=index))
        assert cpg.thread_nodes(4) == [(4, 0), (4, 1), (4, 2)]

    def test_summary_counts(self):
        _, cpg = build_lock_example()
        summary = cpg.summary()
        assert summary["nodes"] == len(cpg.nodes())
        assert summary["sync_edges"] == cpg.edge_count(EdgeKind.SYNC)


class TestDataDependencyDerivation:
    def test_input_node_feeds_first_reader(self):
        tracker = ProvenanceTracker()
        tracker.register_input_pages({500, 501})
        tracker.on_thread_start(1)
        tracker.on_memory_access(1, 500, is_write=False)
        cpg = tracker.finalize()
        derive_data_edges(cpg)
        assert cpg.input_node == INPUT_NODE
        data_edges = {(s, t) for s, t, _ in cpg.edges(EdgeKind.DATA)}
        assert (INPUT_NODE, (1, 0)) in data_edges

    def test_no_edge_without_happens_before(self):
        # Two concurrent threads touch the same page without synchronizing:
        # no data edge may be derived between them.
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        tracker.on_thread_start(2)
        tracker.on_memory_access(1, 7, is_write=True)
        tracker.on_memory_access(2, 7, is_write=False)
        cpg = tracker.finalize()
        derive_data_edges(cpg)
        assert cpg.edge_count(EdgeKind.DATA) == 0

    def test_readers_and_writers_of_pages(self):
        _, cpg = build_lock_example()
        assert T2A in cpg.page_readers[100]
        assert T1A in cpg.page_writers[100]

    def test_derive_is_idempotent_on_edge_count(self):
        tracker, cpg = build_lock_example()
        before = cpg.edge_count(EdgeKind.DATA)
        # Deriving again adds duplicate edges (MultiDiGraph), so callers run
        # it exactly once; this documents the contract.
        assert before >= 2


class TestQueries:
    def test_backward_slice_reaches_source(self):
        _, cpg = build_lock_example()
        slice_nodes = backward_slice(cpg, T1B, kinds=(EdgeKind.DATA,))
        assert T2A in slice_nodes
        assert T1A in slice_nodes

    def test_forward_slice_reaches_sink(self):
        _, cpg = build_lock_example()
        slice_nodes = forward_slice(cpg, T1A, kinds=(EdgeKind.DATA,))
        assert T2A in slice_nodes
        assert T1B in slice_nodes

    def test_lineage_of_pages(self):
        _, cpg = build_lock_example()
        lineage = lineage_of_pages(cpg, [101])
        assert T1A in lineage
        assert T2A in lineage

    def test_taint_propagation(self):
        _, cpg = build_lock_example()
        result = propagate_taint(cpg, source_pages=[100])
        assert result.is_node_tainted(T2A)
        assert result.is_page_tainted(101)

    def test_taint_does_not_flow_backwards_into_writer(self):
        _, cpg = build_lock_example()
        result = propagate_taint(cpg, source_pages=[100])
        # T1.a writes x (page 100) but never reads it, so it is not tainted;
        # the consumers T2.a and T1.b are.
        assert T1A not in result.tainted_nodes
        assert T2A in result.tainted_nodes
        assert T1B in result.tainted_nodes

    def test_races_detected_for_unsynchronized_conflict(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        tracker.on_thread_start(2)
        tracker.on_memory_access(1, 7, is_write=True)
        tracker.on_memory_access(2, 7, is_write=True)
        cpg = tracker.finalize()
        racy = find_racy_pairs(cpg)
        assert len(racy) == 1
        assert racy[0][2] == frozenset({7})


class TestSerialization:
    def test_round_trip_preserves_structure(self):
        _, cpg = build_lock_example()
        clone = cpg_from_json(cpg_to_json(cpg))
        assert clone.nodes() == cpg.nodes()
        assert clone.summary() == cpg.summary()

    def test_round_trip_preserves_read_write_sets(self):
        _, cpg = build_lock_example()
        clone = cpg_from_json(cpg_to_json(cpg))
        for node_id in cpg.nodes():
            assert clone.subcomputation(node_id).read_set == cpg.subcomputation(node_id).read_set
            assert clone.subcomputation(node_id).write_set == cpg.subcomputation(node_id).write_set

    def test_round_trip_preserves_clocks(self):
        _, cpg = build_lock_example()
        clone = cpg_from_json(cpg_to_json(cpg))
        for node_id in cpg.nodes():
            assert clone.subcomputation(node_id).clock == cpg.subcomputation(node_id).clock

    def test_round_trip_preserves_thunks(self):
        _, cpg = build_lock_example()
        clone = cpg_from_json(cpg_to_json(cpg))
        original = cpg.subcomputation((1, 0))
        copy = clone.subcomputation((1, 0))
        assert copy.branch_count == original.branch_count

    def test_serialized_size_positive_and_monotonic(self):
        _, cpg = build_lock_example()
        all_size = serialized_size(cpg)
        partial = serialized_size(cpg, nodes=[(1, 0)])
        assert 0 < partial < all_size

    def test_unsupported_version_rejected(self):
        with pytest.raises(ProvenanceError):
            from repro.core.serialization import cpg_from_dict

            cpg_from_dict({"format_version": 99, "nodes": [], "edges": []})

    def test_write_and_read_file(self, tmp_path):
        from repro.core.serialization import read_cpg, write_cpg

        _, cpg = build_lock_example()
        path = tmp_path / "cpg.json"
        write_cpg(cpg, str(path))
        clone = read_cpg(str(path))
        assert clone.nodes() == cpg.nodes()


class TestVectorClockIntegrationWithCPG:
    def test_clock_of_later_subcomputation_dominates(self):
        _, cpg = build_lock_example()
        first = cpg.subcomputation((1, 0)).clock
        later = cpg.subcomputation((1, 1)).clock
        assert first.dominated_by(later)

    def test_concurrent_subcomputations_have_incomparable_clocks(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        tracker.on_thread_start(2)
        tracker.on_sync_boundary(1, "op")
        tracker.begin_next(1)
        tracker.on_sync_boundary(2, "op")
        tracker.begin_next(2)
        cpg = tracker.finalize()
        a = cpg.subcomputation((1, 1)).clock
        b = cpg.subcomputation((2, 1)).clock
        assert a.concurrent_with(b)

    def test_explicit_clock_values_match_paper_scheme(self):
        tracker = ProvenanceTracker()
        tracker.on_thread_start(1)
        # First sub-computation (alpha = 0) carries component 1.
        assert tracker.current_subcomputation(1).clock == VectorClock({1: 1})
        tracker.on_sync_boundary(1, "op")
        tracker.begin_next(1)
        assert tracker.current_subcomputation(1).clock.get(1) == 2
