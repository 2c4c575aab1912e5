"""Data-edge derivation and taint against references.

``derive_data_edges`` must produce exactly the update-use edges of its
definition: reader ``r`` gets an edge from writer ``w`` for page ``p`` when
``w`` wrote ``p``, ``r`` read ``p``, ``w`` happens-before ``r`` by the
vector clocks (:meth:`ConcurrentProvenanceGraph.happens_before`; the
virtual input node is earliest), and no other writer of ``p`` that
happens-before ``r`` follows ``w``.  :func:`definition_edges` is that
definition, brute force.  Hypothesis drives the tracker through executions
with mutexes, release-only and acquire-only objects, barrier rounds,
spawned, exited and joined threads, and the derived edge set must equal
the definition's.

:func:`thread_scan_edges` is the derivation before the page frontier: one
bisect per thread that ever wrote a page, for every read of it.  The
derived edge *list* (source, target, pages, in the order the edges were
added) must equal the scan's, on the Hypothesis draws and on every
registry workload at 4 and 16 threads: the order fixes ``cpg_to_json``
and the stored bytes, and a set comparison passes a reordering.

:func:`scan_reference` is the earlier derivation: a walk in a topological
order of the control + sync edges that scans every earlier writer of the
page.  Control + sync reachability is weaker than the clock order after a
barrier round (each party has a sync edge from the last arrival only), so
that walk can resolve a reader before a writer that happens-before it; the
pinned barrier execution below is such a case.  On the shipped workloads
the two derivations agree, which the registry test checks.

Taint replays the page policy in the causal order, from the view's read
and write maps.  Over the same executions it must be closed under data
edges, equal a replay in a random linear extension of happens-before when
no conflicting pair is concurrent, and give the same answer in memory, on
an ``ingest`` store and on a store a sink streamed while the execution
was recorded.  :func:`record_replay` is the replay before taint read the
maps: the policy over every node's own record, in :func:`causal_key`
order.  It is the reference for every path, racy draws included, and the
maps' replay must equal it on the causal order and on the extension.

Both the graph and the stores answer taint from a candidate closure
computed over the page maps in set-level rounds.
:func:`worklist_taint_candidates` is the earlier closure, a page and node
worklist that inverts the writer index on every call; on both stores the
closure, and its decision to give up on a flood, must equal the
worklist's.
"""

import contextlib
import graphlib
import tempfile
from bisect import bisect_left
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.algorithm import ProvenanceTracker
from repro.core.cpg import EdgeKind, causal_key, happens_before
from repro.core.dependencies import derive_data_edges
from repro.core.queries import find_racy_pairs, propagate_taint, replay_taint, taint_candidates
from repro.core.thunk import INPUT_NODE, INPUT_TID
from repro.inspector.api import run_with_provenance
from repro.store import ProvenanceStore, StoreQueryEngine, StoreSink
from repro.store.query import TAINT_FLOOD_FRACTION
from repro.workloads.registry import list_workloads

#: Thread ids a draw may start; exits and joins let later spawns outnumber
#: the threads alive at once.
MAX_THREADS = 8
PAGES = 4
INPUT_PAGES = {0, 1}
MUTEX = 100
#: Objects only ever released (posted) or only ever acquired (waited on),
#: so some acquires pull clocks without a matching release and vice versa.
POST_ONLY, WAIT_ONLY, POST_AND_WAIT = 200, 201, 202
BARRIER_BASE = 300
START_TOKEN_BASE = 1000
EXIT_TOKEN_BASE = 2000
#: Small segments, so stored runs span several and the replay must order
#: nodes across them.
SEGMENT_NODES = 4


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


def control_sync_order(cpg):
    """A topological order of the control + sync edges, input node first.

    The order the earlier derivation walked, drawn from ``graphlib`` so it
    stays apart from :meth:`ConcurrentProvenanceGraph.topological_order`,
    which is the causal order.
    """
    sorter = graphlib.TopologicalSorter({node_id: () for node_id in cpg.nodes()})
    for kind in (EdgeKind.CONTROL, EdgeKind.SYNC):
        for source, target, _ in cpg.edges(kind):
            sorter.add(target, source)
    order = list(sorter.static_order())
    if cpg.input_node is not None:
        order.remove(cpg.input_node)
        order.insert(0, cpg.input_node)
    return order


def scan_reference(cpg):
    """``{(source, target, pages)}`` from the earlier topological-order scan."""
    order = control_sync_order(cpg)
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


def thread_scan_edges(cpg):
    """``[(source, target, pages)]`` from the per-thread scan, in the order it adds them.

    The derivation before the page frontier.  It walks the nodes in the
    causal order and keeps, per page, each writing thread's ascending writer
    indices.  For every page a node reads it visits every thread that ever
    wrote the page, in the order they first wrote it: one bisect finds the
    thread's latest writer the reader sees, which is dropped when it
    happens-before a writer chosen so far, and replaces the chosen writers
    that happen-before it.
    """
    nodes = sorted((node for node in cpg.subcomputations() if node.tid != INPUT_TID), key=causal_key)
    input_node = cpg.input_node
    input_pages = cpg.subcomputation(input_node).write_set if input_node is not None else set()
    writers_by_page = defaultdict(dict)
    pending = defaultdict(set)
    for node in nodes:
        for page in sorted(node.read_set):
            chosen = []
            for tid, indices in writers_by_page[page].items():
                count = bisect_left(indices, node.clock.get(tid))
                if not count:
                    continue
                index = indices[count - 1]
                if any(other.clock.get(tid) > index for other in chosen):
                    continue
                writer = cpg.subcomputation((tid, index))
                chosen = [other for other in chosen if writer.clock.get(other.tid) <= other.index]
                chosen.append(writer)
            for source in chosen:
                pending[(source.node_id, node.node_id)].add(page)
            if not chosen and page in input_pages:
                pending[(input_node, node.node_id)].add(page)
        for page in node.write_set:
            writers_by_page[page].setdefault(node.tid, []).append(node.index)
    return [(source, target, frozenset(pages)) for (source, target), pages in pending.items()]


def worklist_taint_candidates(indexes, source_pages, through_thread_state):
    """The nodes taint can reach in a stored run, by a page and node worklist.

    Inverts the writer index, then expands one page or one node at a time
    until nothing new is reached.  Returns ``None`` as soon as the reached
    read pages exceed :data:`TAINT_FLOOD_FRACTION` of the run's read pages.
    """
    written_by = defaultdict(set)
    for page in indexes.page_writers:
        for node_id in indexes.writers_of_page(page):
            written_by[node_id].add(page)
    readable = set(indexes.page_readers)
    flood_at = len(readable) * TAINT_FLOOD_FRACTION
    pages = set(source_pages)
    reached = len(pages & readable)
    if readable and reached > flood_at:
        return None
    candidates = set()
    page_frontier = list(pages)
    node_frontier = []

    def add_node(node_id):
        if node_id not in candidates:
            candidates.add(node_id)
            node_frontier.append(node_id)

    while page_frontier or node_frontier:
        while page_frontier:
            page = page_frontier.pop()
            for reader in indexes.readers_of_page(page):
                add_node(reader)
        while node_frontier:
            node_id = node_frontier.pop()
            for page in written_by.get(node_id, ()):
                if page not in pages:
                    pages.add(page)
                    page_frontier.append(page)
                    if page in readable:
                        reached += 1
                        if reached > flood_at:
                            return None
            if through_thread_state:
                for later in indexes.thread_nodes_from(node_id[0], node_id[1]):
                    add_node(later)
    return candidates


def derived_edge_list(cpg):
    """The data edges ``derive_data_edges`` added, as ``[(source, target, pages)]`` in order."""
    return [(source, target, attrs["pages"]) for source, target, attrs in cpg.edges(EdgeKind.DATA)]


def derived_edges(cpg):
    """The data edges ``derive_data_edges`` added, as ``{(source, target, pages)}``."""
    return set(derived_edge_list(cpg))


# --------------------------------------------------------------------------- #
# Random tracker executions
# --------------------------------------------------------------------------- #

#: Action kinds a thread takes in its turn, repeated to weight the draw:
#: accesses make the dependencies, posts make threads' sync chains differ
#: in length (what separates clock order from control + sync reachability).
#: Exits and joins make finished threads whose writes a joiner's later
#: writes shadow, the shape of a program that re-spawns its workers.
ACTIONS = ("access",) * 3 + ("post",) * 2 + ("lock", "unlock", "wait", "spawn", "exit", "join")
#: ``(kind, page, flag)``: ``flag`` is the access's ``is_write``, or picks
#: the shared object over the post-only / wait-only one; a join takes the
#: ``page``-th exited thread not joined yet (modulo their number).
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


def record(execution, listener=None):
    """Replay an :func:`executions` draw on a tracker; return the finalized CPG.

    Threads ``1..initially_running`` start with no parent; a ``spawn``
    starts the next thread id through a start token.  An ``exit`` ends the
    thread and releases its exit token, and a ``join`` acquires the token
    of an exited thread, once per thread.  Actions that are not possible at
    their point (an unstarted or exited thread, a mutex held by another
    thread, no thread id left to spawn, no thread left to join, an exit
    while holding the mutex) are skipped, so every draw is valid.
    ``listener`` (a :class:`StoreSink`, say) sees every published
    sub-computation.
    """
    threads, initially_running, rounds, tail = execution
    tracker = ProvenanceTracker()
    if listener is not None:
        tracker.add_listener(listener)
    tracker.register_input_pages(INPUT_PAGES)
    running = list(range(1, initially_running + 1))
    for tid in running:
        tracker.on_thread_start(tid)
    started = len(running)
    joinable = []
    holder = None

    def turn(tid, kind, page, flag):
        nonlocal holder, started
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
        elif kind == "spawn" and started < threads:
            started += 1
            child = started
            sync(tracker, tid, "thread_create", release=[START_TOKEN_BASE + child])
            tracker.on_thread_start(child, parent_tid=tid, start_object_id=START_TOKEN_BASE + child)
            running.append(child)
        elif kind == "exit" and holder != tid:
            tracker.on_thread_end(tid)
            tracker.on_release(tid, EXIT_TOKEN_BASE + tid, "thread_exit")
            running.remove(tid)
            joinable.append(tid)
        elif kind == "join" and joinable:
            child = joinable.pop(page % len(joinable))
            sync(tracker, tid, "thread_join", acquire=[EXIT_TOKEN_BASE + child])

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


def record_barrier_case(taint_path=False, listener=None):
    """The pinned barrier execution; return the finalized CPG.

    Thread 1 locks and unlocks a mutex, writes page 2 in ``(1, 2)``, and
    arrives at the barrier first; thread 2 arrives last, so both parties'
    sync edges come from thread 2's arrival.  After the barrier ``(2, 1)``
    reads page 2.  ``taint_path`` adds a flow for taint to follow:
    ``(1, 2)`` first reads input page 0, and ``(2, 1)`` writes page 3
    after its read.
    """
    tracker = ProvenanceTracker()
    if listener is not None:
        tracker.add_listener(listener)
    for tid in (1, 2):
        tracker.on_thread_start(tid)
    sync(tracker, 1, "mutex_lock", acquire=[MUTEX])
    sync(tracker, 1, "mutex_unlock", release=[MUTEX])
    if taint_path:
        tracker.register_input_pages({0})
        tracker.on_memory_access(1, 0, is_write=False)
    tracker.on_memory_access(1, 2, is_write=True)
    barrier(tracker, [1, 2], BARRIER_BASE)
    tracker.on_memory_access(2, 2, is_write=False)
    if taint_path:
        tracker.on_memory_access(2, 3, is_write=True)
    return tracker.finalize()


@contextlib.contextmanager
def recorded_in_stores(record_with):
    """Record an execution into memory and two stores; yield ``(cpg, taint, closures)``.

    ``record_with(sink)`` records the execution while a :class:`StoreSink`
    streams it into run 1; once data edges are derived, the finalized CPG
    is ingested as run 2.  ``taint(sources, through_thread_state)`` returns
    ``{path: (tainted nodes, tainted pages)}`` for the ``memory``,
    ``sink`` and ``ingest`` paths; ``closures(sources,
    through_thread_state)`` returns ``{path: (engine candidates, worklist
    candidates)}`` for the two store paths.
    """
    with tempfile.TemporaryDirectory() as directory:
        store = ProvenanceStore.create(directory)
        sink = StoreSink(store, segment_nodes=SEGMENT_NODES)
        cpg = record_with(sink)
        derive_data_edges(cpg)
        sink.finish(cpg)
        store.ingest(cpg, segment_nodes=SEGMENT_NODES)
        runs = {"sink": sink.run_id, "ingest": store.manifest.runs[-1].run_id}
        engine = StoreQueryEngine(store)

        def taint(sources, through_thread_state):
            results = {"memory": propagate_taint(cpg, sources, through_thread_state)}
            for path, run in runs.items():
                results[path] = engine.propagate_taint(sources, through_thread_state, run=run)
            return {
                path: (result.tainted_nodes, result.tainted_pages)
                for path, result in results.items()
            }

        def closures(sources, through_thread_state):
            return {
                path: (
                    taint_candidates(engine.run_view(run), set(sources), through_thread_state),
                    worklist_taint_candidates(
                        store.indexes_for(run), sources, through_thread_state
                    ),
                )
                for path, run in runs.items()
            }

        yield cpg, taint, closures


def record_replay(records, source_pages, through_thread_state):
    """``(tainted nodes, tainted pages)`` of the page policy over ``(node id, record)`` pairs.

    The replay as it read node records, before the views' read and write
    maps: a node is tainted when its read set meets a tainted page (or,
    with ``through_thread_state``, its thread was tainted before), and its
    write set then becomes tainted.  The input node only defines sources.
    """
    tainted_nodes, tainted_pages, tainted_threads = set(), set(source_pages), set()
    for node_id, node in records:
        if node.write_set and node.tid < 0:
            continue
        tainted = not node.read_set.isdisjoint(tainted_pages)
        if through_thread_state and node.tid in tainted_threads:
            tainted = True
        if tainted:
            tainted_nodes.add(node_id)
            tainted_pages |= node.write_set
            tainted_threads.add(node.tid)
    return tainted_nodes, tainted_pages


def random_linear_extension(cpg, rng):
    """A linear extension of :func:`precedes` over every vertex, drawn with ``rng``."""
    nodes = cpg.nodes()
    waiting = {node: sum(precedes(cpg, other, node) for other in nodes) for node in nodes}
    ready = [node for node in nodes if not waiting[node]]
    order = []
    while ready:
        node = ready.pop(rng.randrange(len(ready)))
        order.append(node)
        for later in nodes:
            if precedes(cpg, node, later):
                waiting[later] -= 1
                if not waiting[later]:
                    ready.append(later)
    return order


class TestDerivationOracle:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=300)
    @given(executions())
    def test_derived_edges_equal_the_definition(self, execution):
        cpg = record(execution)
        expected = definition_edges(cpg)
        derive_data_edges(cpg)
        assert derived_edges(cpg) == expected

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=300)
    @given(executions())
    def test_derived_edge_list_equals_the_thread_scan(self, execution):
        cpg = record(execution)
        expected = thread_scan_edges(cpg)
        derive_data_edges(cpg)
        assert derived_edge_list(cpg) == expected

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=300)
    @given(executions())
    def test_one_lookup_happens_before_equals_the_clock_order(self, execution):
        # ``happens_before`` answers tracker nodes with one clock lookup; on
        # every ordered pair (the input node included) it must agree with
        # the full component-wise comparison.
        nodes = list(record(execution).subcomputations())
        for first in nodes:
            for second in nodes:
                assert happens_before(first, second) == first.clock.happens_before(second.clock)

    def test_write_before_a_barrier_reaches_a_reader_with_no_sync_path_from_it(self):
        # The clocks order thread 1's write before thread 2's read after
        # the barrier, but the write lies deeper in the control + sync
        # graph than the read, and a walk in its topological order resolves
        # the read first and misses the edge.
        cpg = record_barrier_case()
        writer, reader = (1, 2), (2, 1)
        assert cpg.happens_before(writer, reader)
        assert writer not in cpg.ancestors(reader, kinds=[EdgeKind.CONTROL, EdgeKind.SYNC])
        assert scan_reference(cpg) == set()
        derive_data_edges(cpg)
        assert derived_edges(cpg) == definition_edges(cpg) == {(writer, reader, frozenset({2}))}


class TestTaintOracle:
    def test_taint_reaches_a_reader_after_the_barrier(self):
        # (1, 2) reads input page 0 and writes page 2; (2, 1) reads page 2
        # after the barrier and writes page 3.  A topological order of the
        # control + sync edges visits (2, 1) first, so a replay in it
        # leaves (2, 1) and page 3 untainted.
        with recorded_in_stores(
            lambda sink: record_barrier_case(taint_path=True, listener=sink)
        ) as (cpg, taint, _):
            order = control_sync_order(cpg)
            assert order.index((2, 1)) < order.index((1, 2))
            answers = taint([0], through_thread_state=False)
        expected = ({(1, 2), (2, 1)}, {0, 2, 3})
        assert answers == {"memory": expected, "sink": expected, "ingest": expected}

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=300)
    @given(executions(), st.randoms(use_true_random=False))
    def test_taint_is_closed_order_independent_and_equal_on_every_path(self, execution, rng):
        with recorded_in_stores(lambda sink: record(execution, listener=sink)) as (
            cpg,
            taint,
            _,
        ):
            race_free = not find_racy_pairs(cpg)
            event("race-free" if race_free else "racy")
            causal = sorted(cpg.nodes(), key=lambda node: causal_key(cpg.subcomputation(node)))
            assert cpg.causal_order() == causal
            orders = [causal]
            if race_free:
                orders.append(random_linear_extension(cpg, rng))
            for page in range(PAGES):
                for through_thread_state in (False, True):
                    answers = taint([page], through_thread_state)
                    nodes, pages = answers["memory"]
                    for source, target, _ in cpg.edges(EdgeKind.DATA):
                        assert source not in nodes or target in nodes
                    for order in orders:
                        reference = record_replay(
                            ((node, cpg.subcomputation(node)) for node in order),
                            [page],
                            through_thread_state,
                        )
                        assert reference == (nodes, pages)
                        replayed = replay_taint(cpg, order, [page], through_thread_state)
                        assert (replayed.tainted_nodes, replayed.tainted_pages) == reference
                    assert answers["sink"] == answers["ingest"] == answers["memory"]

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=300)
    @given(executions())
    def test_store_closure_equals_the_worklist_reference(self, execution):
        with recorded_in_stores(lambda sink: record(execution, listener=sink)) as (
            _,
            _,
            closures,
        ):
            for sources in [[page] for page in range(PAGES)] + [sorted(INPUT_PAGES)]:
                for through_thread_state in (False, True):
                    for engine, reference in closures(sources, through_thread_state).values():
                        event("flood" if reference is None else "closure")
                        assert engine == reference


@pytest.mark.parametrize("workload", list_workloads())
def test_registry_workload_edges_equal_the_scan(workload):
    cpg = run_with_provenance(workload, 4, size="small").cpg
    assert derived_edges(cpg) == scan_reference(cpg)


@pytest.mark.parametrize("threads", [4, 16])
@pytest.mark.parametrize("workload", list_workloads())
def test_registry_workload_edge_list_equals_the_thread_scan(workload, threads):
    cpg = run_with_provenance(workload, threads, size="small").cpg
    assert derived_edge_list(cpg) == thread_scan_edges(cpg)
