"""The Concurrent Provenance Graph (CPG).

The CPG is a directed acyclic graph whose vertices are sub-computations and
whose edges record the three dependency kinds of the paper: *control* edges
(intra-thread program order), *synchronization* edges (release -> acquire
pairs, i.e. the sync schedule), and *data* edges (update-use relationships
between write sets and read sets, ordered by happens-before).

Every consumer that walks the graph in order -- data-edge derivation,
taint, schedules, NUMA first touch, the store's ingest, compaction and
taint replay -- uses one order, :func:`causal_key`.
"""

from __future__ import annotations

import enum
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


class ConcurrentProvenanceGraph:
    """The CPG: sub-computations plus control/sync/data dependency edges.

    The graph is built incrementally by the provenance tracker while the
    program runs; data edges are usually derived afterwards (or at snapshot
    time) by :mod:`repro.core.dependencies`.  Edges are kept in one list
    per kind and, for the walks, in per-node incoming and outgoing lists.
    """

    def __init__(self) -> None:
        self._subcomputations: Dict[NodeId, SubComputation] = {}
        self._edges: Dict[EdgeKind, List[Edge]] = {kind: [] for kind in EdgeKind}
        self._in: Dict[NodeId, List[Edge]] = {}
        self._out: Dict[NodeId, List[Edge]] = {}

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
        return sorted(node for node in self._subcomputations if node[0] == tid)

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
        return [
            target
            for _, target, attrs in self._out.get(node_id, ())
            if kind is None or attrs["kind"] is kind
        ]

    def predecessors(self, node_id: NodeId, kind: Optional[EdgeKind] = None) -> List[NodeId]:
        """Direct predecessors of ``node_id`` through edges of ``kind``."""
        return [
            source
            for source, _, attrs in self._in.get(node_id, ())
            if kind is None or attrs["kind"] is kind
        ]

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
        keys = {node_id: causal_key(node) for node_id, node in self._subcomputations.items()}
        return all(
            keys[source] < keys[target]
            for edges in self._edges.values()
            for source, target, _ in edges
        )

    def happens_before(self, first: NodeId, second: NodeId) -> bool:
        """Happens-before test using the recorded vector clocks."""
        a = self.subcomputation(first)
        b = self.subcomputation(second)
        if a.tid == b.tid:
            return a.index < b.index
        return a.clock.happens_before(b.clock)

    def concurrent(self, first: NodeId, second: NodeId) -> bool:
        """Whether two sub-computations are unordered by happens-before."""
        return not self.happens_before(first, second) and not self.happens_before(second, first)

    def topological_order(self) -> List[NodeId]:
        """Every vertex in the causal order (:func:`causal_key`)."""
        return [node.node_id for node in sorted(self._subcomputations.values(), key=causal_key)]

    def ancestors(self, *node_ids: NodeId, kinds: Optional[Sequence[EdgeKind]] = None) -> Set[NodeId]:
        """Every vertex from which any of ``node_ids`` is reachable through edges of ``kinds``."""
        return self._closure(node_ids, kinds, forward=False)

    def descendants(self, *node_ids: NodeId, kinds: Optional[Sequence[EdgeKind]] = None) -> Set[NodeId]:
        """Every vertex reachable from any of ``node_ids`` through edges of ``kinds``."""
        return self._closure(node_ids, kinds, forward=True)

    def _closure(
        self, starts: Iterable[NodeId], kinds: Optional[Sequence[EdgeKind]], forward: bool
    ) -> Set[NodeId]:
        # One walk from every start at once: each reached vertex is
        # expanded once, however many starts share it.
        starts = set(starts)
        for node_id in starts:
            if node_id not in self._subcomputations:
                raise ProvenanceError(f"no sub-computation {node_id} in the CPG")
        allowed = set(kinds) if kinds is not None else None
        adjacency, end = (self._out, 1) if forward else (self._in, 0)
        seen: Set[NodeId] = set()
        frontier = list(starts)
        while frontier:
            current = frontier.pop()
            for edge in adjacency[current]:
                if allowed is not None and edge[2]["kind"] not in allowed:
                    continue
                nxt = edge[end]
                if nxt not in seen:
                    seen.add(nxt)
                    if nxt not in starts:
                        frontier.append(nxt)
        return seen

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
