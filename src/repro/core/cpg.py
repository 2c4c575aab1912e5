"""The Concurrent Provenance Graph (CPG).

The CPG is a directed acyclic graph whose vertices are sub-computations and
whose edges record the three dependency kinds of the paper: *control* edges
(intra-thread program order), *synchronization* edges (release -> acquire
pairs, i.e. the sync schedule), and *data* edges (update-use relationships
between write sets and read sets, ordered by happens-before).

Every consumer that walks the graph in order -- data-edge derivation,
taint, schedules, NUMA first touch, the store's ingest, compaction and
taint replay -- uses one order, :func:`causal_key`; the graph and a
stored run's indexes both hand it out as ``causal_order()``.

The graph is also a *run view* (see :mod:`repro.core.queries`): the
queries and :func:`closure` read it through the same members a stored run
provides, so each algorithm is written once.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.thunk import INPUT_NODE, NodeId, SubComputation
from repro.errors import ProvenanceError


class EdgeKind(enum.Enum):
    """The dependency kind an edge records."""

    CONTROL = "control"
    SYNC = "sync"
    DATA = "data"


#: ``(source, target, attributes)``; ``attributes["kind"]`` is the
#: :class:`EdgeKind`.
Edge = Tuple[NodeId, NodeId, dict]


def causal_key(node: SubComputation) -> Tuple[int, NodeId]:
    """Sort key of the causal order: ``(sum of clock components, node id)``.

    A linear extension of vector-clock happens-before: ``a``
    happens-before ``b`` implies ``a.clock <= b.clock`` component-wise with
    at least one strict inequality, so ``a``'s sum is smaller.  The virtual
    input node carries the empty clock and comes first.  Because the
    tracker keeps ``clock[tid] == index + 1``, the sum counts the
    sub-computations in the node's causal past, itself included; the store
    keeps it as each node's rank.
    """
    return (node.clock.total(), node.node_id)


def causal_positions(ranks: Dict[NodeId, int]) -> Dict[NodeId, int]:
    """Node id -> its position in the causal order, from node id -> causal rank.

    The keys iterate in that order.  Both run views keep this map and
    sort by it, so an order costs one lookup per node, not a key tuple.
    """
    order = sorted(ranks, key=lambda node_id: (ranks[node_id], node_id))
    return {node_id: position for position, node_id in enumerate(order)}


def happens_before(first: SubComputation, second: SubComputation) -> bool:
    """Happens-before between two sub-computations, from their vector clocks.

    When ``first`` keeps the tracker's invariant ``clock[tid] == index + 1``
    (see :mod:`repro.core.dependencies`), ``second`` knows ``first`` exactly
    when its own component for ``first``'s thread passed ``first.index``:
    every clock is the join of the clocks in its causal past, so one
    lookup decides.  Other nodes (the virtual input node, hand-built
    graphs) get the full component-wise comparison.
    """
    if first.tid == second.tid:
        return first.index < second.index
    if first.clock.get(first.tid) == first.index + 1:
        return second.clock.get(first.tid) > first.index
    return first.clock.happens_before(second.clock)


def concurrent(first: SubComputation, second: SubComputation) -> bool:
    """Whether two sub-computations are unordered by happens-before."""
    return not happens_before(first, second) and not happens_before(second, first)


def closure(
    view, starts: Iterable[NodeId], kinds: Optional[Sequence[EdgeKind]], forward: bool
) -> Set[NodeId]:
    """Every node reachable from ``starts`` across edges of ``kinds`` (all when ``None``).

    ``view`` is a run view (:mod:`repro.core.queries`): the in-memory graph
    or a stored run.  The walk goes along edges when ``forward``, against
    them otherwise.  One walk from every start at once: each reached node
    is expanded once, however many starts share it.  A start is part of
    the result only when another start reaches it.  An unknown start
    raises the view's own error (its ``check_nodes``).
    """
    starts = set(starts)
    view.check_nodes(starts)
    allowed = tuple(kinds) if kinds is not None else None
    neighbours = view.neighbours
    seen: Set[NodeId] = set()
    frontier = list(starts)
    while frontier:
        for nxt in neighbours(frontier.pop(), forward, allowed):
            if nxt not in seen:
                seen.add(nxt)
                if nxt not in starts:
                    frontier.append(nxt)
    return seen


class ConcurrentProvenanceGraph:
    """The CPG: sub-computations plus control/sync/data dependency edges.

    The graph is built incrementally by the provenance tracker while the
    program runs; data edges are usually derived afterwards (or at snapshot
    time) by :mod:`repro.core.dependencies`.  Edges are kept in one list
    per kind and, for the walks, in per-node incoming and outgoing lists.

    Adding a node also files it in the page maps, the read and write
    maps, the per-thread index list and a causal rank map, the way the
    store's ``StoreIndexes`` fills its own.  The maps read the node's
    access sets and clock once, so every path adds complete nodes: the
    tracker when a sub-computation ends,
    :func:`~repro.core.serialization.cpg_from_dict`,
    ``ProvenanceStore.load_cpg`` and the process-granularity baseline.
    """

    def __init__(self) -> None:
        self._subcomputations: Dict[NodeId, SubComputation] = {}
        self._edges: Dict[EdgeKind, List[Edge]] = {kind: [] for kind in EdgeKind}
        self._in: Dict[NodeId, List[Edge]] = {}
        self._out: Dict[NodeId, List[Edge]] = {}
        #: page -> node ids that wrote it, in the order they were added
        self.page_writers: Dict[int, List[NodeId]] = {}
        #: page -> node ids that read it, in the order they were added
        self.page_readers: Dict[int, List[NodeId]] = {}
        #: node id -> sorted pages it read (absent if none)
        self.node_reads: Dict[NodeId, Tuple[int, ...]] = {}
        #: node id -> sorted pages it wrote (absent if none)
        self.node_writes: Dict[NodeId, Tuple[int, ...]] = {}
        #: tid -> sorted sub-computation indexes of the thread
        self._thread_indexes: Dict[int, List[int]] = {}
        #: node id -> causal rank (the first part of its causal_key)
        self._rank: Dict[NodeId, int] = {}
        #: node id -> position in the causal order, keys in that order;
        #: built on first use, rebuilt once nodes were added
        self._positions: Dict[NodeId, int] = {}

    # ------------------------------------------------------------------ #
    # Vertices
    # ------------------------------------------------------------------ #

    def add_subcomputation(self, node: SubComputation) -> NodeId:
        """Add a sub-computation vertex.

        Raises:
            ProvenanceError: If a vertex with the same ``(tid, index)``
                already exists.
        """
        node_id = node.node_id
        if node_id in self._subcomputations:
            raise ProvenanceError(f"sub-computation {node_id} already present in the CPG")
        self._subcomputations[node_id] = node
        self._in[node_id] = []
        self._out[node_id] = []
        if node.read_set:
            self.node_reads[node_id] = tuple(sorted(node.read_set))
        if node.write_set:
            self.node_writes[node_id] = tuple(sorted(node.write_set))
        for page in node.write_set:
            self.page_writers.setdefault(page, []).append(node_id)
        for page in node.read_set:
            self.page_readers.setdefault(page, []).append(node_id)
        insort(self._thread_indexes.setdefault(node.tid, []), node.index)
        self._rank[node_id] = node.clock.total()
        return node_id

    def subcomputation(self, node_id: NodeId) -> SubComputation:
        """Return the sub-computation stored at ``node_id``."""
        try:
            return self._subcomputations[node_id]
        except KeyError as exc:
            raise ProvenanceError(f"no sub-computation {node_id} in the CPG") from exc

    def has_node(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` is a vertex of the CPG."""
        return node_id in self._subcomputations

    def nodes(self) -> List[NodeId]:
        """Every vertex id, sorted by (tid, index)."""
        return sorted(self._subcomputations)

    def subcomputations(self) -> Iterator[SubComputation]:
        """Iterate over every stored sub-computation."""
        return iter(self._subcomputations.values())

    def thread_nodes(self, tid: int) -> List[NodeId]:
        """Vertices of thread ``tid`` in execution order."""
        return [(tid, index) for index in self._thread_indexes.get(tid, ())]

    def thread_nodes_from(self, tid: int, index: int) -> List[NodeId]:
        """Vertices ``(tid, i)`` with ``i >= index``, in execution order."""
        indexes = self._thread_indexes.get(tid, [])
        return [(tid, i) for i in indexes[bisect_left(indexes, index):]]

    def threads(self) -> List[int]:
        """Thread ids present in the graph (excluding the virtual input node)."""
        return sorted({tid for tid, _ in self._subcomputations if (tid, 0) != INPUT_NODE or tid >= 0})

    @property
    def input_node(self) -> Optional[NodeId]:
        """The virtual input vertex, if present."""
        return INPUT_NODE if INPUT_NODE in self._subcomputations else None

    # ------------------------------------------------------------------ #
    # Edges
    # ------------------------------------------------------------------ #

    def _add_edge(self, source: NodeId, target: NodeId, attrs: dict) -> None:
        if source not in self._subcomputations:
            raise ProvenanceError(f"edge source {source} is not a CPG vertex")
        if target not in self._subcomputations:
            raise ProvenanceError(f"edge target {target} is not a CPG vertex")
        edge = (source, target, attrs)
        self._edges[attrs["kind"]].append(edge)
        self._out[source].append(edge)
        self._in[target].append(edge)

    def add_control_edge(self, source: NodeId, target: NodeId) -> None:
        """Add an intra-thread program-order edge."""
        if source[0] != target[0]:
            raise ProvenanceError(
                f"control edge must stay within one thread: {source} -> {target}"
            )
        self._add_edge(source, target, {"kind": EdgeKind.CONTROL})

    def add_sync_edge(
        self,
        source: NodeId,
        target: NodeId,
        object_id: int,
        operation: str = "",
    ) -> None:
        """Add a release -> acquire edge through synchronization object ``object_id``."""
        self._add_edge(
            source, target, {"kind": EdgeKind.SYNC, "object_id": object_id, "operation": operation}
        )

    def add_data_edge(self, source: NodeId, target: NodeId, pages: Iterable[int]) -> None:
        """Add an update-use edge labelled with the pages that carry the data."""
        self._add_edge(source, target, {"kind": EdgeKind.DATA, "pages": frozenset(pages)})

    def edges(self, kind: Optional[EdgeKind] = None) -> List[Edge]:
        """Return ``(source, target, attributes)`` for every edge of ``kind`` (or all)."""
        if kind is not None:
            return list(self._edges[kind])
        return [edge for edges in self._edges.values() for edge in edges]

    def edge_count(self, kind: Optional[EdgeKind] = None) -> int:
        """Number of edges of ``kind`` (or all edges)."""
        if kind is not None:
            return len(self._edges[kind])
        return sum(len(edges) for edges in self._edges.values())

    def successors(self, node_id: NodeId, kind: Optional[EdgeKind] = None) -> List[NodeId]:
        """Direct successors of ``node_id`` reachable through edges of ``kind``."""
        return self.neighbours(node_id, True, None if kind is None else (kind,))

    def predecessors(self, node_id: NodeId, kind: Optional[EdgeKind] = None) -> List[NodeId]:
        """Direct predecessors of ``node_id`` through edges of ``kind``."""
        return self.neighbours(node_id, False, None if kind is None else (kind,))

    # ------------------------------------------------------------------ #
    # Run view (see repro.core.queries)
    # ------------------------------------------------------------------ #

    def check_nodes(self, node_ids: Iterable[NodeId]) -> None:
        """Raise :class:`ProvenanceError` for the first id that is not a vertex."""
        for node_id in node_ids:
            if node_id not in self._subcomputations:
                raise ProvenanceError(f"no sub-computation {node_id} in the CPG")

    def neighbours(
        self, node_id: NodeId, forward: bool, kinds: Optional[Iterable[EdgeKind]] = None
    ) -> List[NodeId]:
        """Vertices across ``node_id``'s out-edges (``forward``) or in-edges of ``kinds``."""
        adjacency, end = (self._out, 1) if forward else (self._in, 0)
        return [
            edge[end]
            for edge in adjacency.get(node_id, ())
            if kinds is None or edge[2]["kind"] in kinds
        ]

    def causal_key(self, node_id: NodeId) -> Tuple[int, NodeId]:
        """:func:`causal_key` of the vertex ``node_id``, from the rank kept at insertion."""
        return (self._rank[node_id], node_id)

    def causal_order(self, node_ids: Optional[Iterable[NodeId]] = None) -> List[NodeId]:
        """``node_ids`` (every vertex when ``None``) in the causal order (:func:`causal_key`)."""
        if len(self._positions) != len(self._rank):
            self._positions = causal_positions(self._rank)
        if node_ids is None:
            return list(self._positions)
        return sorted(node_ids, key=self._positions.__getitem__)

    def records(self, node_ids: Optional[Iterable[NodeId]] = None) -> Dict[NodeId, SubComputation]:
        """The sub-computations of ``node_ids`` (every vertex when ``None``)."""
        if node_ids is None:
            return dict(self._subcomputations)
        return {node_id: self._subcomputations[node_id] for node_id in node_ids}

    # ------------------------------------------------------------------ #
    # Order and structure
    # ------------------------------------------------------------------ #

    def is_acyclic(self) -> bool:
        """Whether every edge goes forward in the causal order.

        Every edge the tracker and
        :func:`~repro.core.dependencies.derive_data_edges` add (control,
        sync, data and input-node edges) does, and a graph whose edges all
        go forward in one order has no cycle.  A hand-built graph whose
        clocks contradict its edges fails the check even without a cycle.
        """
        return all(
            self.causal_key(source) < self.causal_key(target)
            for edges in self._edges.values()
            for source, target, _ in edges
        )

    def happens_before(self, first: NodeId, second: NodeId) -> bool:
        """Happens-before test using the recorded vector clocks."""
        return happens_before(self.subcomputation(first), self.subcomputation(second))

    def concurrent(self, first: NodeId, second: NodeId) -> bool:
        """Whether two sub-computations are unordered by happens-before."""
        return concurrent(self.subcomputation(first), self.subcomputation(second))

    def topological_order(self) -> List[NodeId]:
        """Every vertex in the causal order (:func:`causal_key`)."""
        return self.causal_order()

    def ancestors(self, *node_ids: NodeId, kinds: Optional[Sequence[EdgeKind]] = None) -> Set[NodeId]:
        """Every vertex from which any of ``node_ids`` is reachable through edges of ``kinds``."""
        return closure(self, node_ids, kinds, forward=False)

    def descendants(self, *node_ids: NodeId, kinds: Optional[Sequence[EdgeKind]] = None) -> Set[NodeId]:
        """Every vertex reachable from any of ``node_ids`` through edges of ``kinds``."""
        return closure(self, node_ids, kinds, forward=True)

    # ------------------------------------------------------------------ #
    # Summary
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, int]:
        """Return basic size statistics of the graph."""
        return {
            "nodes": len(self._subcomputations),
            "threads": len({tid for tid, _ in self._subcomputations if tid >= 0}),
            "control_edges": self.edge_count(EdgeKind.CONTROL),
            "sync_edges": self.edge_count(EdgeKind.SYNC),
            "data_edges": self.edge_count(EdgeKind.DATA),
        }

    def __len__(self) -> int:
        return len(self._subcomputations)
