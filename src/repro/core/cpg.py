"""The Concurrent Provenance Graph (CPG).

The CPG is a directed acyclic graph whose vertices are sub-computations and
whose edges record the three dependency kinds of the paper: *control* edges
(intra-thread program order), *synchronization* edges (release -> acquire
pairs, i.e. the sync schedule), and *data* edges (update-use relationships
between write sets and read sets, ordered by happens-before).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.core.thunk import INPUT_NODE, NodeId, SubComputation
from repro.errors import ProvenanceError


class EdgeKind(enum.Enum):
    """The dependency kind an edge records."""

    CONTROL = "control"
    SYNC = "sync"
    DATA = "data"


class ConcurrentProvenanceGraph:
    """The CPG: sub-computations plus control/sync/data dependency edges.

    The graph is built incrementally by the provenance tracker while the
    program runs; data edges are usually derived afterwards (or at snapshot
    time) by :mod:`repro.core.dependencies`.
    """

    def __init__(self) -> None:
        self._graph = nx.MultiDiGraph()
        self._subcomputations: Dict[NodeId, SubComputation] = {}

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
        self._graph.add_node(node_id)
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

    def _check_nodes(self, source: NodeId, target: NodeId) -> None:
        if source not in self._subcomputations:
            raise ProvenanceError(f"edge source {source} is not a CPG vertex")
        if target not in self._subcomputations:
            raise ProvenanceError(f"edge target {target} is not a CPG vertex")

    def add_control_edge(self, source: NodeId, target: NodeId) -> None:
        """Add an intra-thread program-order edge."""
        self._check_nodes(source, target)
        if source[0] != target[0]:
            raise ProvenanceError(
                f"control edge must stay within one thread: {source} -> {target}"
            )
        self._graph.add_edge(source, target, kind=EdgeKind.CONTROL)

    def add_sync_edge(
        self,
        source: NodeId,
        target: NodeId,
        object_id: int,
        operation: str = "",
    ) -> None:
        """Add a release -> acquire edge through synchronization object ``object_id``."""
        self._check_nodes(source, target)
        self._graph.add_edge(
            source, target, kind=EdgeKind.SYNC, object_id=object_id, operation=operation
        )

    def add_data_edge(self, source: NodeId, target: NodeId, pages: Iterable[int]) -> None:
        """Add an update-use edge labelled with the pages that carry the data."""
        self._check_nodes(source, target)
        self._graph.add_edge(source, target, kind=EdgeKind.DATA, pages=frozenset(pages))

    def edges(self, kind: Optional[EdgeKind] = None) -> List[Tuple[NodeId, NodeId, dict]]:
        """Return ``(source, target, attributes)`` for every edge of ``kind`` (or all)."""
        result = []
        for source, target, attrs in self._graph.edges(data=True):
            if kind is None or attrs.get("kind") is kind:
                result.append((source, target, attrs))
        return result

    def edge_count(self, kind: Optional[EdgeKind] = None) -> int:
        """Number of edges of ``kind`` (or all edges)."""
        return len(self.edges(kind))

    def successors(self, node_id: NodeId, kind: Optional[EdgeKind] = None) -> List[NodeId]:
        """Direct successors of ``node_id`` reachable through edges of ``kind``."""
        result = []
        for _, target, attrs in self._graph.out_edges(node_id, data=True):
            if kind is None or attrs.get("kind") is kind:
                result.append(target)
        return result

    def predecessors(self, node_id: NodeId, kind: Optional[EdgeKind] = None) -> List[NodeId]:
        """Direct predecessors of ``node_id`` through edges of ``kind``."""
        result = []
        for source, _, attrs in self._graph.in_edges(node_id, data=True):
            if kind is None or attrs.get("kind") is kind:
                result.append(source)
        return result

    # ------------------------------------------------------------------ #
    # Order and structure
    # ------------------------------------------------------------------ #

    def is_acyclic(self) -> bool:
        """Whether the CPG is a DAG (it always should be)."""
        return nx.is_directed_acyclic_graph(self._graph)

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
        """A linear extension of the recorded partial order (control + sync edges)."""
        restricted = nx.MultiDiGraph()
        restricted.add_nodes_from(self._graph.nodes)
        for source, target, attrs in self._graph.edges(data=True):
            if attrs.get("kind") in (EdgeKind.CONTROL, EdgeKind.SYNC):
                restricted.add_edge(source, target)
        try:
            return list(nx.topological_sort(restricted))
        except nx.NetworkXUnfeasible as exc:  # pragma: no cover - defensive
            raise ProvenanceError("control/sync edges of the CPG contain a cycle") from exc

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
        seen: Set[NodeId] = set()
        frontier = list(starts)
        while frontier:
            current = frontier.pop()
            if forward:
                neighbours = self._graph.out_edges(current, data=True)
                step = lambda edge: edge[1]  # noqa: E731 - tiny local helper
            else:
                neighbours = self._graph.in_edges(current, data=True)
                step = lambda edge: edge[0]  # noqa: E731
            for edge in neighbours:
                attrs = edge[2]
                if allowed is not None and attrs.get("kind") not in allowed:
                    continue
                nxt = step(edge)
                if nxt not in seen:
                    seen.add(nxt)
                    if nxt not in starts:
                        frontier.append(nxt)
        return seen

    # ------------------------------------------------------------------ #
    # Export and summary
    # ------------------------------------------------------------------ #

    def to_networkx(self) -> nx.MultiDiGraph:
        """Return a copy of the underlying networkx graph (for external analysis)."""
        return self._graph.copy()

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
