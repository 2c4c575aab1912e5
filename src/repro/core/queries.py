"""Provenance queries over a run: the in-memory CPG or a stored run.

These are the operations the paper's case studies (§VIII) need: backward
and forward slices ("why does this memory look like this" for debugging),
lineage of particular pages, taint propagation for dynamic information-flow
tracking, racy pairs, and simple structural statistics.

Each query is written once, against a *run view*.  Two implementations
exist: the in-memory :class:`~repro.core.cpg.ConcurrentProvenanceGraph`,
and ``repro.store.query.StoredRun``, which answers from a stored run's
indexes and reads node records and edges from its segments.  A view
provides:

* ``check_nodes(ids)`` -- raises the view's own error for an unknown id
  (:class:`~repro.errors.ProvenanceError` in memory,
  :class:`~repro.errors.StoreError` for a stored run);
* ``neighbours(node, forward, kinds)`` -- the node ids across the node's
  out-edges (``forward``) or in-edges of ``kinds`` (all kinds when
  ``None``);
* ``page_writers`` and ``page_readers`` -- page -> node ids that wrote /
  read it;
* ``node_reads`` and ``node_writes`` -- node id -> the pages it read /
  wrote (absent if none);
* ``causal_order(ids)`` -- ``ids`` (every node when ``None``) sorted by
  :func:`~repro.core.cpg.causal_key`;
* ``thread_nodes_from(tid, index)`` -- node ids ``(tid, i)`` with
  ``i >= index``, in execution order;
* ``records(ids)`` -- node id -> sub-computation for ``ids``, or for
  every node when ``ids`` is ``None``.  A stored run leaves out the nodes
  of a quarantined segment and records the segment in its read scope.

The page maps, the read and write maps, the causal order and the thread
lists answer from memory on both views, so taint reads no segment;
``neighbours`` (slices, lineage) and ``records`` (racy pairs) are what a
stored run reads segments for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind, closure, concurrent
from repro.core.thunk import NodeId

#: Edge kinds that carry provenance by default (control stays within a
#: thread and is usually included; sync edges order but do not move data,
#: data edges move data).
DEFAULT_SLICE_KINDS = (EdgeKind.DATA, EdgeKind.CONTROL, EdgeKind.SYNC)

#: Fraction of a run's read pages the taint frontier may reach before
#: :func:`taint_candidates` gives up and taint replays every node.
TAINT_FLOOD_FRACTION = 0.5


def backward_slice(
    view,
    node_id: NodeId,
    kinds: Sequence[EdgeKind] = (EdgeKind.DATA,),
    include_start: bool = True,
) -> Set[NodeId]:
    """Return every sub-computation that ``node_id`` (transitively) depends on.

    Args:
        view: The run view (data edges must already be derived).
        node_id: The sub-computation being explained.
        kinds: Edge kinds to follow (data-only by default, i.e. a pure
            dataflow slice).
        include_start: Whether the starting node is part of the result.
    """
    result = closure(view, (node_id,), kinds, forward=False)
    if include_start:
        result.add(node_id)
    return result


def forward_slice(
    view,
    node_id: NodeId,
    kinds: Sequence[EdgeKind] = (EdgeKind.DATA,),
    include_start: bool = True,
) -> Set[NodeId]:
    """Return every sub-computation (transitively) influenced by ``node_id``."""
    result = closure(view, (node_id,), kinds, forward=True)
    if include_start:
        result.add(node_id)
    return result


def lineage_of_pages(view, pages: Iterable[int]) -> Set[NodeId]:
    """Explain the final contents of ``pages``.

    Returns the sub-computations that wrote any of the pages plus everything
    those writers transitively depend on through data edges -- the paper's
    "why is the memory state like that" debugging query.  One backward
    walk from all the writers at once expands each ancestor once, however
    many writers share it.
    """
    writers = {node_id for page in pages for node_id in view.page_writers.get(page, ())}
    return writers | closure(view, writers, (EdgeKind.DATA,), forward=False)


@dataclass
class TaintResult:
    """Outcome of propagating taint through the CPG.

    Attributes:
        tainted_nodes: Sub-computations that observed tainted data.
        tainted_pages: Pages that (transitively) carry tainted data.
        source_pages: The original taint sources.
        flooded: Whether the candidate closure flooded, so the replay
            went over every node of the run (not part of equality).
    """

    tainted_nodes: Set[NodeId] = field(default_factory=set)
    tainted_pages: Set[int] = field(default_factory=set)
    source_pages: Set[int] = field(default_factory=set)
    flooded: bool = field(default=False, compare=False)

    def is_node_tainted(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` observed tainted data."""
        return node_id in self.tainted_nodes

    def is_page_tainted(self, page: int) -> bool:
        """Whether ``page`` carries tainted data."""
        return page in self.tainted_pages


def replay_taint(
    view,
    ordered_ids: Iterable[NodeId],
    source_pages: Iterable[int],
    through_thread_state: bool = False,
) -> TaintResult:
    """Replay the page-level taint policy over ``ordered_ids``, a linear
    extension of the happens-before order, from the view's read and write
    maps.

    This is the single definition of the DIFT policy; :func:`propagate_taint`
    replays through it on every run view.
    """
    node_reads = view.node_reads
    node_writes = view.node_writes
    result = TaintResult(source_pages=set(source_pages))
    result.tainted_pages = tainted_pages = set(result.source_pages)
    tainted_nodes = result.tainted_nodes
    tainted_threads: Set[int] = set()
    for node_id in ordered_ids:
        tid = node_id[0]
        if tid < 0 and node_id in node_writes:
            # The virtual input node defines the sources; writing input
            # pages does not by itself taint the node.
            continue
        if (through_thread_state and tid in tainted_threads) or not tainted_pages.isdisjoint(
            node_reads.get(node_id, ())
        ):
            tainted_nodes.add(node_id)
            tainted_pages.update(node_writes.get(node_id, ()))
            tainted_threads.add(tid)
    return result


def taint_candidates(
    view, source_pages: Iterable[int], through_thread_state: bool
) -> Optional[Set[NodeId]]:
    """Closed superset of the nodes taint can reach, from the page maps alone.

    Expands in rounds of set operations: the readers of the pages new in
    the last round, then the pages the new nodes wrote (``node_writes``),
    each minus what was already reached -- work linear in the closure, not
    in the run.  With ``through_thread_state`` a tainted node taints the
    rest of its thread, so each round adds, per thread, the nodes from its
    earliest new node on.  Returns ``None`` when the reached read pages
    flood past :data:`TAINT_FLOOD_FRACTION` of the run's read pages.  That
    count only grows, so the decision is the closure's, whatever the
    order.
    """
    # Only pages somebody *reads* spread taint further, so the flood
    # metric counts read-pages: write-only pages (e.g. final outputs)
    # grow the result but never the frontier.
    readers = view.page_readers
    written = view.node_writes
    flood_at = len(readers) * TAINT_FLOOD_FRACTION
    pages = set(source_pages)
    reached = len(pages & readers.keys())
    candidates: Set[NodeId] = set()
    new_pages = pages
    while new_pages:
        if reached > flood_at:
            return None
        new_nodes: Set[NodeId] = set()
        for page in new_pages:
            new_nodes.update(readers.get(page, ()))
        new_nodes -= candidates
        if through_thread_state:
            earliest: Dict[int, int] = {}
            for tid, index in new_nodes:
                if index < earliest.get(tid, index + 1):
                    earliest[tid] = index
            for tid, index in earliest.items():
                new_nodes.update(view.thread_nodes_from(tid, index))
            new_nodes -= candidates
        candidates |= new_nodes
        new_pages = set()
        for node_id in new_nodes:
            new_pages.update(written.get(node_id, ()))
        new_pages -= pages
        pages |= new_pages
        reached += len(new_pages & readers.keys())
    return candidates


def propagate_taint(
    view,
    source_pages: Iterable[int],
    through_thread_state: bool = False,
) -> TaintResult:
    """Propagate page-granularity taint in the causal order.

    A sub-computation becomes tainted when it reads a tainted page; every
    page it subsequently writes becomes tainted as well (the conservative
    page-level policy of the DIFT case study).

    The replay runs over :func:`taint_candidates` only: a node outside that
    closure can neither become tainted nor taint a page, so the result is
    the whole-run replay's, bit for bit.  When the closure floods, the
    replay goes over every node and the result says ``flooded``.  Either
    way it reads the view's page, read and write maps and its causal
    order, never a node record, so a stored run reads no segment.

    Args:
        view: The run view.
        source_pages: Initially tainted pages (usually the input pages).
        through_thread_state: When true, a thread that once observed
            tainted data keeps carrying the taint in its registers/stack,
            so every later sub-computation of that thread is tainted as
            well.  This is the conservative setting the DIFT policy checker
            uses; the default keeps taint strictly page-carried.
    """
    sources = set(source_pages)
    candidates = taint_candidates(view, sources, through_thread_state)
    result = replay_taint(view, view.causal_order(candidates), sources, through_thread_state)
    result.flooded = candidates is None
    return result


def schedule_of(cpg: ConcurrentProvenanceGraph) -> List[NodeId]:
    """Return the real sub-computations in the causal order.

    The order is :func:`~repro.core.cpg.causal_key`, a linear extension of
    happens-before; concurrent sub-computations appear by clock sum, then
    node id, not in the order the run interleaved them.
    """
    return [node for node in cpg.topological_order() if node[0] >= 0]


def graph_statistics(cpg: ConcurrentProvenanceGraph) -> Dict[str, float]:
    """Return summary statistics used by EXPERIMENTS.md and the examples."""
    nodes = [n for n in cpg.subcomputations() if n.tid >= 0]
    reads = sum(len(n.read_set) for n in nodes)
    writes = sum(len(n.write_set) for n in nodes)
    branches = sum(n.branch_count for n in nodes)
    summary = cpg.summary()
    return {
        "nodes": float(summary["nodes"]),
        "threads": float(summary["threads"]),
        "control_edges": float(summary["control_edges"]),
        "sync_edges": float(summary["sync_edges"]),
        "data_edges": float(summary["data_edges"]),
        "pages_read": float(reads),
        "pages_written": float(writes),
        "branches": float(branches),
        "mean_read_set": reads / len(nodes) if nodes else 0.0,
        "mean_write_set": writes / len(nodes) if nodes else 0.0,
    }


def find_racy_pairs(view) -> List[tuple]:
    """Return pairs of concurrent sub-computations with conflicting page accesses.

    Two sub-computations conflict when they are unordered by happens-before
    and one writes a page the other reads or writes.  Under the POSIX data-
    race-free assumption this list should be empty for page-disjoint
    programs; the debugging example uses it to locate synchronization bugs.

    Instead of testing every node pair (quadratic in the graph size, with a
    reachability test per pair), candidate pairs are generated from the
    page maps: only pairs that actually share a page with at least one
    writer are checked for concurrency.  The accessor set is built once
    per page (not per writer), and pages that cannot yield a pair -- a
    single accessor, or all real accessors on one thread -- are skipped
    before any pairing work.  Only the candidates' records are read; a
    pair whose record a stored run could not read (a quarantined segment,
    recorded in its scope) is left out.
    """
    candidates: Set[Tuple[NodeId, NodeId]] = set()
    for page, writers in view.page_writers.items():
        readers = view.page_readers.get(page, ())
        if len(writers) == 1 and not readers:
            continue  # the lone accessor cannot race with itself
        accessors = set(writers) | set(readers)
        if len({node[0] for node in accessors if node[0] >= 0}) < 2:
            continue  # a race needs two distinct real threads on the page
        for writer in writers:
            if writer[0] < 0:
                continue
            for other in accessors:
                if other == writer or other[0] < 0 or other[0] == writer[0]:
                    continue
                candidates.add((min(writer, other), max(writer, other)))
    records = view.records({node_id for pair in candidates for node_id in pair})
    racy = []
    for a, b in sorted(candidates):
        if a not in records or b not in records:
            continue
        sub_a = records[a]
        sub_b = records[b]
        writes_conflict = (
            (sub_a.write_set & (sub_b.read_set | sub_b.write_set))
            or (sub_b.write_set & sub_a.read_set)
        )
        if writes_conflict and concurrent(sub_a, sub_b):
            racy.append((a, b, frozenset(writes_conflict)))
    return racy
