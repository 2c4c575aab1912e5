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
  not one (see above); ascending sum of clock components is, because
  ``a`` happens-before ``b`` implies ``a.clock <= b.clock`` component-wise
  with at least one strict inequality.
* **The lookup relies on ``clock[tid] == index + 1``**, which the tracker
  sets for every sub-computation it starts
  (:meth:`ProvenanceTracker._begin_subcomputation`).  With it, a writer
  ``(u, i)`` happens-before a reader exactly when ``i + 1 <=
  reader.clock[u]``, so one bisect per writing thread finds that thread's
  latest eligible writer, and a candidate ``(u, i)`` is shadowed by
  another writer ``w`` exactly when ``w.clock[u] >= i + 1``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.thunk import INPUT_TID, NodeId, SubComputation
from repro.errors import ProvenanceError


def derive_data_edges(cpg: ConcurrentProvenanceGraph) -> int:
    """Add update-use edges to ``cpg`` and return how many were added.

    The derivation walks the sub-computations in ascending order of the sum
    of their clock components (then node id), a linear extension of the
    vector-clock happens-before order.  For every page it keeps, per
    writing thread, the ascending indices of that thread's writers seen so
    far.  A writer ``(u, i)`` precedes a reader exactly when ``i + 1 <=
    reader.clock[u]``, so one bisect per thread finds that thread's latest
    writer preceding the reader.  Of those candidates (at most one per
    thread), the ones that happen-before another candidate are shadowed;
    the rest are the reader's sources.

    The virtual input node (when present) is the earliest writer of every
    input page: a reader of an input page gets an edge from it exactly when
    no other writer of that page happens-before the reader.

    Raises:
        ProvenanceError: If a sub-computation's own clock component is not
            ``index + 1`` (the graph was not built by the tracker).
    """
    nodes = [node for node in cpg.subcomputations() if node.tid != INPUT_TID]
    for node in nodes:
        if node.clock.get(node.tid) != node.index + 1:
            raise ProvenanceError(
                f"sub-computation {node.node_id} has clock component "
                f"{node.clock.get(node.tid)} for its own thread, expected {node.index + 1}"
            )
    nodes.sort(key=lambda node: (sum(node.clock.as_dict().values()), node.node_id))
    input_node = cpg.input_node
    input_pages = cpg.subcomputation(input_node).write_set if input_node is not None else set()

    # page -> writing thread -> ascending indices of its writers of the page
    writers_by_page: Dict[int, Dict[int, List[int]]] = defaultdict(dict)
    # Pairs already linked (source, target) -> pages, to merge multi-page
    # dependencies into a single labelled edge.
    pending: Dict[Tuple[NodeId, NodeId], Set[int]] = defaultdict(set)

    for node in nodes:
        node_id = node.node_id
        # 1. resolve this node's reads against earlier writers
        reader_clock = node.clock.as_dict()
        for page in sorted(node.read_set):
            sources = _maximal_writers(cpg, writers_by_page.get(page, {}), reader_clock)
            for source in sources:
                pending[(source.node_id, node_id)].add(page)
            if not sources and page in input_pages:
                pending[(input_node, node_id)].add(page)
        # 2. register this node's writes
        for page in node.write_set:
            writers_by_page[page].setdefault(node.tid, []).append(node.index)

    for (source, target), pages in pending.items():
        cpg.add_data_edge(source, target, pages)
    return len(pending)


def _maximal_writers(
    cpg: ConcurrentProvenanceGraph, by_thread: Dict[int, List[int]], reader_clock: Dict[int, int]
) -> List[SubComputation]:
    """Return the writers that precede the reader and that no other such writer follows.

    ``by_thread`` maps each thread to the ascending indices of its writers
    of one page, registered so far; ``reader_clock`` is the reader's clock,
    and a writer ``(u, i)`` precedes the reader exactly when ``i <
    reader_clock[u]`` (the reader itself is not registered yet).  Every
    writer of a thread that precedes the reader also precedes that
    thread's latest such writer, so only those candidates (one per thread)
    can be maximal.  ``chosen`` holds the maximal candidates seen so far;
    any visiting order gives the same set.
    """
    chosen: List[SubComputation] = []
    for tid, indices in by_thread.items():
        count = bisect_left(indices, reader_clock.get(tid, 0))
        if not count:
            continue
        index = indices[count - 1]
        if any(other.clock.get(tid) > index for other in chosen):
            continue  # (tid, index) happens-before a chosen writer
        writer = cpg.subcomputation((tid, index))
        # Drop the chosen writers that happen-before the new one.
        chosen = [other for other in chosen if writer.clock.get(other.tid) <= other.index]
        chosen.append(writer)
    return chosen


def data_dependencies_of(
    cpg: ConcurrentProvenanceGraph, node_id: NodeId
) -> List[Tuple[NodeId, frozenset]]:
    """Return ``(source, pages)`` for every data edge ending at ``node_id``."""
    result = []
    for source, target, attrs in cpg.edges(EdgeKind.DATA):
        if target == node_id:
            result.append((source, attrs.get("pages", frozenset())))
    return result


def readers_of_pages(cpg: ConcurrentProvenanceGraph, pages: Iterable[int]) -> Set[NodeId]:
    """Return every sub-computation whose read set intersects ``pages``."""
    wanted = set(pages)
    return {
        node.node_id
        for node in cpg.subcomputations()
        if node.read_set & wanted
    }


def writers_of_pages(cpg: ConcurrentProvenanceGraph, pages: Iterable[int]) -> Set[NodeId]:
    """Return every sub-computation whose write set intersects ``pages``."""
    wanted = set(pages)
    return {
        node.node_id
        for node in cpg.subcomputations()
        if node.write_set & wanted
    }
