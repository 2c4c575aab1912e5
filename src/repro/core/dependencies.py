"""Derivation of data-dependence (update-use) edges.

The tracker records read and write sets and a vector clock per
sub-computation.  Data dependence edges are derived from those two
ingredients: a sub-computation ``n`` depends on ``m`` for page ``p`` when
``m`` wrote ``p``, ``n`` read ``p``, ``m`` happens-before ``n``, and no
other writer of ``p`` lies between them in the partial order (closer
writers shadow farther ones, the same way a later store to the same page
supersedes an earlier one under the last-writer-wins commit).

Three facts the derivation rests on:

* **Happens-before is the vector-clock order**
  (:meth:`ConcurrentProvenanceGraph.happens_before`), which is a strict
  superset of reachability over control and synchronization edges.  A
  synchronization object's clock carries every release into it, but its
  sync edge comes only from its last releaser; after a barrier round
  (every party releases, then every party acquires) each party is ordered
  after every arrival by the clocks, yet has a sync edge from the last
  arrival only.
* **The walk order must be a linear extension of happens-before**, so
  every writer that happens-before a reader is registered before the
  reader is resolved.  A topological order of the control + sync edges is
  not one (see above); the causal order
  (:func:`~repro.core.cpg.causal_key`) is.
* **The lookup relies on ``clock[tid] == index + 1``**, which the tracker
  sets for every sub-computation it starts
  (:meth:`ProvenanceTracker._begin_subcomputation`).  With it, a writer
  ``(u, i)`` happens-before a node ``n`` exactly when ``i + 1 <=
  n.clock[u]``: one lookup tells whether a reader sees a writer, or whether
  a new writer covers a page's frontier entry, and one bisect over a
  thread's writer indices finds the latest writer of that thread a reader
  sees.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Callable, Dict, List, Set, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.thunk import INPUT_TID, NodeId, SubComputation
from repro.errors import ProvenanceError


def derive_data_edges(cpg: ConcurrentProvenanceGraph) -> int:
    """Add update-use edges to ``cpg`` and return how many were added.

    The derivation walks the sub-computations in the causal order
    (:func:`~repro.core.cpg.causal_key`), a linear extension of the
    vector-clock happens-before order, so a node is registered as a writer
    only after every writer that happens-before it.  For every page it
    keeps (:class:`_PageWriters`) each writing thread's writer indices, the
    page's *frontier* (per thread, its latest writer while no registered
    writer follows it) and, per writing thread, which other threads'
    frontier entries its writers removed.  A reader's sources are the
    frontier entries it sees, plus the latest writer it sees of each thread
    reached from an unseen frontier entry through removals made by writers
    it does not see; of those, the ones another one follows are shadowed.
    The sources of one read come in the order their threads first wrote
    the page, and the edges in the order of their first page.

    The virtual input node (when present) is the earliest writer of every
    input page: a reader of an input page gets an edge from it exactly when
    no other writer of that page happens-before the reader.

    Raises:
        ProvenanceError: If ``cpg`` already has data edges (a second
            derivation would add every edge again), or if a
            sub-computation's own clock component is not ``index + 1``
            (the graph was not built by the tracker).
    """
    if cpg.edge_count(EdgeKind.DATA):
        raise ProvenanceError(
            f"the graph already has {cpg.edge_count(EdgeKind.DATA)} data edges; "
            f"derive_data_edges runs once per graph"
        )
    nodes = [node for node in cpg.subcomputations() if node.tid != INPUT_TID]
    for node in nodes:
        if node.clock.get(node.tid) != node.index + 1:
            raise ProvenanceError(
                f"sub-computation {node.node_id} has clock component "
                f"{node.clock.get(node.tid)} for its own thread, expected {node.index + 1}"
            )
    input_node = cpg.input_node
    input_pages = cpg.subcomputation(input_node).write_set if input_node is not None else set()
    subcomputation = cpg.subcomputation

    writers_by_page: Dict[int, _PageWriters] = {}
    # Pairs already linked (source, target) -> pages, to merge multi-page
    # dependencies into a single labelled edge.
    pending: Dict[Tuple[NodeId, NodeId], Set[int]] = defaultdict(set)

    for node_id in cpg.topological_order():
        if node_id[0] == INPUT_TID:
            continue
        node = subcomputation(node_id)
        # 1. resolve this node's reads against earlier writers
        seen = node.clock.get
        for page in sorted(node.read_set):
            writers = writers_by_page.get(page)
            sources = writers.sources(seen, subcomputation) if writers is not None else ()
            for source in sources:
                pending[(source, node_id)].add(page)
            if not sources and page in input_pages:
                pending[(input_node, node_id)].add(page)
        # 2. register this node's writes
        for page in node.write_set:
            writers = writers_by_page.get(page)
            if writers is None:
                writers = writers_by_page[page] = _PageWriters()
            writers.register(node)

    for (source, target), pages in pending.items():
        cpg.add_data_edge(source, target, pages)
    return len(pending)


class _PageWriters:
    """The writers of one page registered so far, arranged for reader lookups.

    Writers are registered in a linear extension of happens-before, so a
    new writer follows no registered writer yet, and no registered writer
    follows it.  ``frontier`` maps each thread to its latest writer while
    no other registered writer follows that writer: the maximal writers,
    one per thread at most.  A new writer replaces its own thread's entry
    and removes every other entry it follows; ``removed[u]`` records, for
    each thread ``v`` whose entry a writer of ``u`` removed, the latest such
    writer's index, in ascending order of that index.

    A reader's maximal writer ``(v, m)`` is the latest writer of ``v`` it
    sees, and the walk reaches ``v``.  Either ``v``'s latest writer is in
    the frontier (it is ``(v, m)``, or an unseen entry the walk starts
    from), or a writer of another thread ``u`` removed it.  The reader does
    not see that remover (else ``(v, m)`` would happen-before a writer it
    sees), so ``removed[u][v]`` is at least ``seen(u)`` and exploring ``u``
    reaches ``v``.  ``u``'s latest writer is unseen too and was registered
    after ``v``'s, so the same argument applies to it, until the chain ends
    at an unseen frontier entry.  Each thread is explored once per read, and
    removals made by writers the reader sees are never visited.
    """

    __slots__ = ("indices", "first_write", "frontier", "removed")

    def __init__(self) -> None:
        #: tid -> ascending indices of the thread's writers of the page
        self.indices: Dict[int, List[int]] = {}
        #: tid -> position of the thread's first write among the page's writing threads
        self.first_write: Dict[int, int] = {}
        #: tid -> index of the thread's latest writer, while no registered writer follows it
        self.frontier: Dict[int, int] = {}
        #: tid -> {other tid -> latest index of tid that removed other's frontier entry}
        self.removed: Dict[int, Dict[int, int]] = {}

    def register(self, writer: SubComputation) -> None:
        """Register ``writer``, which follows no writer registered so far."""
        tid, index = writer.tid, writer.index
        indices = self.indices.get(tid)
        if indices is None:
            self.indices[tid] = [index]
            self.first_write[tid] = len(self.first_write)
        else:
            indices.append(index)
        frontier = self.frontier
        frontier.pop(tid, None)
        follows = writer.clock.get
        covered = [other for other, other_index in frontier.items() if follows(other) > other_index]
        if covered:
            removed = self.removed.setdefault(tid, {})
            for other in covered:
                del frontier[other]
                removed.pop(other, None)  # re-inserted last: ascending by index
                removed[other] = index
        frontier[tid] = index

    def sources(
        self, seen: Callable[[int], int], subcomputation: Callable[[NodeId], SubComputation]
    ) -> List[NodeId]:
        """The maximal writers a reader sees, in the order their threads first wrote the page.

        ``seen`` is the reader's clock lookup: the reader sees ``(u, i)``
        exactly when ``i < seen(u)``.  The reader itself is not registered
        yet.
        """
        chosen: List[NodeId] = []
        unseen: List[int] = []
        for tid, index in self.frontier.items():
            if seen(tid) > index:
                chosen.append((tid, index))  # no registered writer follows it
            else:
                unseen.append(tid)
        if unseen:
            candidates = self._explore(unseen, seen)
            every = chosen + candidates
            for tid, index in candidates:
                # (tid, index) happens-before another candidate: shadowed
                if not any(
                    subcomputation(other).clock.get(tid) > index for other in every if other[0] != tid
                ):
                    chosen.append((tid, index))
        if len(chosen) > 1:
            first_write = self.first_write
            chosen.sort(key=lambda node_id: first_write[node_id[0]])
        return chosen

    def _explore(self, unseen: List[int], seen: Callable[[int], int]) -> List[NodeId]:
        """Latest seen writer of each thread reached from the ``unseen`` frontier threads."""
        visited = set(self.frontier)
        candidates: List[NodeId] = []
        while unseen:
            tid = unseen.pop()
            bound = seen(tid)
            indices = self.indices[tid]
            count = bisect_left(indices, bound)
            if count:
                candidates.append((tid, indices[count - 1]))
            removed = self.removed.get(tid)
            if removed:
                for other, index in reversed(removed.items()):
                    if index < bound:
                        break  # removed by writers the reader sees
                    if other not in visited:
                        visited.add(other)
                        unseen.append(other)
        return candidates
