"""Data-edge derivation against two references.

``derive_data_edges`` must produce exactly the update-use edges of its
definition: reader ``r`` gets an edge from writer ``w`` for page ``p`` when
``w`` wrote ``p``, ``r`` read ``p``, ``w`` happens-before ``r`` by the
vector clocks (:meth:`ConcurrentProvenanceGraph.happens_before`; the
virtual input node is earliest), and no other writer of ``p`` that
happens-before ``r`` follows ``w``.  :func:`definition_edges` is that
definition, brute force.  Hypothesis drives the tracker through executions
with mutexes, release-only and acquire-only objects, barrier rounds and
spawned threads, and the derived edge set must equal the definition's.

:func:`scan_reference` is the earlier derivation: a walk in a topological
order of the control + sync edges that scans every earlier writer of the
page.  Control + sync reachability is weaker than the clock order after a
barrier round (each party has a sync edge from the last arrival only), so
that walk can resolve a reader before a writer that happens-before it; the
pinned barrier execution below is such a case.  On the shipped workloads
the two derivations agree, which the registry test checks.
"""

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.algorithm import ProvenanceTracker
from repro.core.cpg import EdgeKind
from repro.core.dependencies import derive_data_edges
from repro.core.thunk import INPUT_NODE
from repro.inspector.api import run_with_provenance
from repro.workloads.registry import list_workloads

MAX_THREADS = 6
PAGES = 4
INPUT_PAGES = {0, 1}
MUTEX = 100
#: Objects only ever released (posted) or only ever acquired (waited on),
#: so some acquires pull clocks without a matching release and vice versa.
POST_ONLY, WAIT_ONLY, POST_AND_WAIT = 200, 201, 202
BARRIER_BASE = 300
START_TOKEN_BASE = 1000


def precedes(cpg, first, second):
    """Happens-before with the virtual input node as the earliest vertex."""
    if first == INPUT_NODE:
        return second != INPUT_NODE
    if second == INPUT_NODE:
        return False
    return cpg.happens_before(first, second)


def definition_edges(cpg):
    """``{(source, target, pages)}`` straight from the definition (brute force)."""
    nodes = list(cpg.subcomputations())
    pending = defaultdict(set)
    for reader in nodes:
        for page in reader.read_set:
            earlier = [
                writer.node_id
                for writer in nodes
                if page in writer.write_set and precedes(cpg, writer.node_id, reader.node_id)
            ]
            for writer in earlier:
                if not any(precedes(cpg, writer, other) for other in earlier):
                    pending[(writer, reader.node_id)].add(page)
    return {(source, target, frozenset(pages)) for (source, target), pages in pending.items()}


def scan_reference(cpg):
    """``{(source, target, pages)}`` from the earlier topological-order scan."""
    order = cpg.topological_order()
    if cpg.input_node is not None:
        order.remove(cpg.input_node)
        order.insert(0, cpg.input_node)
    writers_by_page = defaultdict(list)
    pending = defaultdict(set)
    for node_id in order:
        node = cpg.subcomputation(node_id)
        for page in sorted(node.read_set):
            selected = []
            for candidate in reversed(writers_by_page[page]):
                if candidate == node_id or not precedes(cpg, candidate, node_id):
                    continue
                if any(precedes(cpg, candidate, chosen) for chosen in selected):
                    continue
                selected.append(candidate)
            for source in selected:
                pending[(source, node_id)].add(page)
        for page in node.write_set:
            writers_by_page[page].append(node_id)
    return {(source, target, frozenset(pages)) for (source, target), pages in pending.items()}


def derived_edges(cpg):
    """The data edges ``derive_data_edges`` added, as ``{(source, target, pages)}``."""
    return {(source, target, attrs["pages"]) for source, target, attrs in cpg.edges(EdgeKind.DATA)}


# --------------------------------------------------------------------------- #
# Random tracker executions
# --------------------------------------------------------------------------- #

#: Action kinds a thread takes in its turn, repeated to weight the draw:
#: accesses make the dependencies, posts make threads' sync chains differ
#: in length (what separates clock order from control + sync reachability).
ACTIONS = ("access",) * 3 + ("post",) * 2 + ("lock", "unlock", "wait", "spawn")
#: ``(kind, page, flag)``: ``flag`` is the access's ``is_write``, or picks
#: the shared object over the post-only / wait-only one.
actions = st.tuples(st.sampled_from(ACTIONS), st.integers(0, PAGES - 1), st.booleans())


@st.composite
def executions(draw):
    """``(threads, initially_running, rounds, tail)`` for :func:`record`.

    Each round gives every thread a turn (its own list of actions), then
    runs a barrier whose parties arrive in a drawn order; ``tail`` is one
    more set of turns after the last barrier.
    """
    threads = draw(st.integers(2, MAX_THREADS))
    turns = st.lists(st.lists(actions, max_size=6), min_size=threads, max_size=threads)
    arrivals = st.permutations(range(1, threads + 1))
    rounds = draw(st.lists(st.tuples(turns, arrivals), min_size=1, max_size=3))
    return threads, draw(st.integers(1, threads)), rounds, draw(turns)


def sync(tracker, tid, operation, release=(), acquire=()):
    """One synchronization call: end the sub-computation, release, acquire, go on."""
    tracker.on_sync_boundary(tid, operation)
    for object_id in release:
        tracker.on_release(tid, object_id, operation)
    for object_id in acquire:
        tracker.on_acquire(tid, object_id, operation)
    tracker.begin_next(tid)


def barrier(tracker, parties, object_id):
    """A barrier round: every party arrives (releases), then every party leaves (acquires)."""
    for tid in parties:
        tracker.on_sync_boundary(tid, "barrier_wait")
        tracker.on_release(tid, object_id, "barrier_wait")
    for tid in parties:
        tracker.on_acquire(tid, object_id, "barrier_wait")
        tracker.begin_next(tid)


def record(execution):
    """Replay an :func:`executions` draw on a tracker; return the finalized CPG.

    Threads ``1..initially_running`` start with no parent; a ``spawn``
    starts the next thread through a start token.  Actions that are not
    possible at their point (an unstarted thread, a mutex held by another
    thread, no thread left to spawn) are skipped, so every draw is valid.
    """
    threads, initially_running, rounds, tail = execution
    tracker = ProvenanceTracker()
    tracker.register_input_pages(INPUT_PAGES)
    running = list(range(1, initially_running + 1))
    for tid in running:
        tracker.on_thread_start(tid)
    holder = None

    def turn(tid, kind, page, flag):
        nonlocal holder
        if kind == "access":
            tracker.on_memory_access(tid, page, is_write=flag)
        elif kind == "lock" and holder is None:
            sync(tracker, tid, "mutex_lock", acquire=[MUTEX])
            holder = tid
        elif kind == "unlock" and holder == tid:
            sync(tracker, tid, "mutex_unlock", release=[MUTEX])
            holder = None
        elif kind == "post":
            sync(tracker, tid, "sem_post", release=[POST_AND_WAIT if flag else POST_ONLY])
        elif kind == "wait":
            sync(tracker, tid, "sem_wait", acquire=[POST_AND_WAIT if flag else WAIT_ONLY])
        elif kind == "spawn" and len(running) < threads:
            child = len(running) + 1
            sync(tracker, tid, "thread_create", release=[START_TOKEN_BASE + child])
            tracker.on_thread_start(child, parent_tid=tid, start_object_id=START_TOKEN_BASE + child)
            running.append(child)

    def take_turns(turns):
        for tid, actions_of_tid in enumerate(turns, start=1):
            for action in actions_of_tid:
                if tid in running:
                    turn(tid, *action)

    for number, (turns, arrivals) in enumerate(rounds):
        take_turns(turns)
        barrier(tracker, [tid for tid in arrivals if tid in running], BARRIER_BASE + number)
    take_turns(tail)
    return tracker.finalize()


class TestDerivationOracle:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=300)
    @given(executions())
    def test_derived_edges_equal_the_definition(self, execution):
        cpg = record(execution)
        expected = definition_edges(cpg)
        derive_data_edges(cpg)
        assert derived_edges(cpg) == expected

    def test_write_before_a_barrier_reaches_a_reader_with_no_sync_path_from_it(self):
        # Thread 1 locks and unlocks a mutex, writes page 2, and arrives at
        # the barrier first; thread 2 arrives last, so both parties' sync edges
        # come from thread 2's arrival.  The clocks still order thread 1's
        # write before thread 2's read after the barrier, but the write lies
        # deeper in the control + sync graph than the read, and a walk in
        # its topological order resolved the read first and missed it.
        tracker = ProvenanceTracker()
        for tid in (1, 2):
            tracker.on_thread_start(tid)
        sync(tracker, 1, "mutex_lock", acquire=[MUTEX])
        sync(tracker, 1, "mutex_unlock", release=[MUTEX])
        tracker.on_memory_access(1, 2, is_write=True)
        barrier(tracker, [1, 2], BARRIER_BASE)
        tracker.on_memory_access(2, 2, is_write=False)
        cpg = tracker.finalize()
        writer, reader = (1, 2), (2, 1)
        assert cpg.happens_before(writer, reader)
        assert writer not in cpg.ancestors(reader, kinds=[EdgeKind.CONTROL, EdgeKind.SYNC])
        derive_data_edges(cpg)
        assert derived_edges(cpg) == definition_edges(cpg) == {(writer, reader, frozenset({2}))}


@pytest.mark.parametrize("workload", list_workloads())
def test_registry_workload_edges_equal_the_scan(workload):
    cpg = run_with_provenance(workload, 4, size="small").cpg
    assert derived_edges(cpg) == scan_reference(cpg)
