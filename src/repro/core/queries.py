"""Provenance queries over the Concurrent Provenance Graph.

These are the operations the paper's case studies (§VIII) need: backward
and forward slices ("why does this memory look like this" for debugging),
lineage of particular pages, taint propagation for dynamic information-flow
tracking, and simple structural statistics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.dependencies import writers_of_pages
from repro.core.thunk import NodeId

#: Edge kinds that carry provenance by default (control stays within a
#: thread and is usually included; sync edges order but do not move data,
#: data edges move data).
DEFAULT_SLICE_KINDS = (EdgeKind.DATA, EdgeKind.CONTROL, EdgeKind.SYNC)


def backward_slice(
    cpg: ConcurrentProvenanceGraph,
    node_id: NodeId,
    kinds: Sequence[EdgeKind] = (EdgeKind.DATA,),
    include_start: bool = True,
) -> Set[NodeId]:
    """Return every sub-computation that ``node_id`` (transitively) depends on.

    Args:
        cpg: The provenance graph (data edges must already be derived).
        node_id: The sub-computation being explained.
        kinds: Edge kinds to follow (data-only by default, i.e. a pure
            dataflow slice).
        include_start: Whether the starting node is part of the result.
    """
    result = cpg.ancestors(node_id, kinds=kinds)
    if include_start:
        result.add(node_id)
    return result


def forward_slice(
    cpg: ConcurrentProvenanceGraph,
    node_id: NodeId,
    kinds: Sequence[EdgeKind] = (EdgeKind.DATA,),
    include_start: bool = True,
) -> Set[NodeId]:
    """Return every sub-computation (transitively) influenced by ``node_id``."""
    result = cpg.descendants(node_id, kinds=kinds)
    if include_start:
        result.add(node_id)
    return result


def lineage_of_pages(cpg: ConcurrentProvenanceGraph, pages: Iterable[int]) -> Set[NodeId]:
    """Explain the final contents of ``pages``.

    Returns the sub-computations that wrote any of the pages plus everything
    those writers transitively depend on through data edges -- the paper's
    "why is the memory state like that" debugging query.  One backward
    walk from all the writers at once expands each ancestor once, however
    many writers share it.
    """
    writers = writers_of_pages(cpg, pages)
    return writers | cpg.ancestors(*writers, kinds=(EdgeKind.DATA,))


@dataclass
class TaintResult:
    """Outcome of propagating taint through the CPG.

    Attributes:
        tainted_nodes: Sub-computations that observed tainted data.
        tainted_pages: Pages that (transitively) carry tainted data.
        source_pages: The original taint sources.
    """

    tainted_nodes: Set[NodeId] = field(default_factory=set)
    tainted_pages: Set[int] = field(default_factory=set)
    source_pages: Set[int] = field(default_factory=set)

    def is_node_tainted(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` observed tainted data."""
        return node_id in self.tainted_nodes

    def is_page_tainted(self, page: int) -> bool:
        """Whether ``page`` carries tainted data."""
        return page in self.tainted_pages


def replay_taint(
    ordered_nodes: Iterable[tuple],
    source_pages: Iterable[int],
    through_thread_state: bool = False,
) -> TaintResult:
    """Replay the page-level taint policy over ``(node_id, sub-computation)``
    pairs in a linear extension of the happens-before order.

    This is the single definition of the DIFT policy: both the in-memory
    :func:`propagate_taint` and the store's out-of-core
    ``StoreQueryEngine.propagate_taint`` replay through it, which is what
    keeps their results interchangeable.
    """
    result = TaintResult(source_pages=set(source_pages))
    result.tainted_pages = set(result.source_pages)
    tainted_threads: Set[int] = set()
    for node_id, node in ordered_nodes:
        if node.write_set and node.tid < 0:
            # The virtual input node defines the sources; writing input
            # pages does not by itself taint the node.
            continue
        tainted = not node.read_set.isdisjoint(result.tainted_pages)
        if through_thread_state and node.tid in tainted_threads:
            tainted = True
        if tainted:
            result.tainted_nodes.add(node_id)
            result.tainted_pages |= node.write_set
            tainted_threads.add(node.tid)
    return result


def propagate_taint(
    cpg: ConcurrentProvenanceGraph,
    source_pages: Iterable[int],
    through_thread_state: bool = False,
) -> TaintResult:
    """Propagate page-granularity taint in the causal order.

    A sub-computation becomes tainted when it reads a tainted page; every
    page it subsequently writes becomes tainted as well (the conservative
    page-level policy of the DIFT case study).

    Args:
        cpg: The provenance graph.
        source_pages: Initially tainted pages (usually the input pages).
        through_thread_state: When true, a thread that once observed
            tainted data keeps carrying the taint in its registers/stack,
            so every later sub-computation of that thread is tainted as
            well.  This is the conservative setting the DIFT policy checker
            uses; the default keeps taint strictly page-carried.
    """
    ordered = ((node_id, cpg.subcomputation(node_id)) for node_id in cpg.topological_order())
    return replay_taint(ordered, source_pages, through_thread_state=through_thread_state)


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


@dataclass
class PageAccessIndex:
    """Inverted index mapping each page to the sub-computations touching it.

    Built once per graph (O(sum of access-set sizes)); the persistent store
    serializes the same structure as its page index, so in-memory analyses
    and out-of-core queries share one definition of "who touched this page".

    Attributes:
        writers: page -> node ids whose write set contains the page,
            sorted by ``(tid, index)``.
        readers: page -> node ids whose read set contains the page,
            sorted by ``(tid, index)``.
    """

    writers: Dict[int, List[NodeId]] = field(default_factory=dict)
    readers: Dict[int, List[NodeId]] = field(default_factory=dict)

    def writers_of(self, page: int) -> List[NodeId]:
        """Node ids that wrote ``page`` (empty when nothing did)."""
        return self.writers.get(page, [])

    def readers_of(self, page: int) -> List[NodeId]:
        """Node ids that read ``page`` (empty when nothing did)."""
        return self.readers.get(page, [])

    def accessors_of(self, page: int) -> Set[NodeId]:
        """Every node id that read or wrote ``page``."""
        return set(self.writers_of(page)) | set(self.readers_of(page))

    def pages(self) -> Set[int]:
        """Every page with at least one recorded access."""
        return set(self.writers) | set(self.readers)


def build_page_index(cpg: ConcurrentProvenanceGraph) -> PageAccessIndex:
    """Build the page -> accessors inverted index over every vertex of ``cpg``
    (including the virtual input node, whose write set is the program input)."""
    writers: Dict[int, List[NodeId]] = defaultdict(list)
    readers: Dict[int, List[NodeId]] = defaultdict(list)
    for node_id in cpg.nodes():
        node = cpg.subcomputation(node_id)
        for page in node.write_set:
            writers[page].append(node_id)
        for page in node.read_set:
            readers[page].append(node_id)
    return PageAccessIndex(writers=dict(writers), readers=dict(readers))


def find_racy_pairs(cpg: ConcurrentProvenanceGraph) -> List[tuple]:
    """Return pairs of concurrent sub-computations with conflicting page accesses.

    Two sub-computations conflict when they are unordered by happens-before
    and one writes a page the other reads or writes.  Under the POSIX data-
    race-free assumption this list should be empty for page-disjoint
    programs; the debugging example uses it to locate synchronization bugs.

    Instead of testing every node pair (quadratic in the graph size, with a
    reachability test per pair), candidate pairs are generated from the
    page -> accessors inverted index: only pairs that actually share a page
    with at least one writer are checked for concurrency.  The accessor set
    is built once per page (not per writer), and pages that cannot yield a
    pair -- a single accessor, or all real accessors on one thread -- are
    skipped before any pairing work.
    """
    index = build_page_index(cpg)
    candidates: Set[Tuple[NodeId, NodeId]] = set()
    for page, writers in index.writers.items():
        if len(writers) == 1 and not index.readers_of(page):
            continue  # the lone accessor cannot race with itself
        accessors = index.accessors_of(page)
        if len({node[0] for node in accessors if node[0] >= 0}) < 2:
            continue  # a race needs two distinct real threads on the page
        for writer in writers:
            if writer[0] < 0:
                continue
            for other in accessors:
                if other == writer or other[0] < 0 or other[0] == writer[0]:
                    continue
                candidates.add((min(writer, other), max(writer, other)))
    racy = []
    for a, b in sorted(candidates):
        sub_a = cpg.subcomputation(a)
        sub_b = cpg.subcomputation(b)
        writes_conflict = (
            (sub_a.write_set & (sub_b.read_set | sub_b.write_set))
            or (sub_b.write_set & sub_a.read_set)
        )
        if writes_conflict and cpg.concurrent(a, b):
            racy.append((a, b, frozenset(writes_conflict)))
    return racy
