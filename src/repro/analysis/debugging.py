"""Case study 1 (§VIII): debugging multithreaded programs with provenance.

Conventional debugging shows *what* the memory state is; the CPG explains
*why*.  Given a run and the addresses of a suspicious value, this module
answers: which sub-computations (in which threads, started and ended by
which synchronization calls) wrote those addresses, what did they read,
and which schedule of sub-computations led to the final value.  It also
surfaces conflicting concurrent accesses -- the tell-tale of a missing
lock -- by checking for write conflicts between sub-computations that are
unordered by happens-before.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.queries import find_racy_pairs, lineage_of_pages
from repro.core.thunk import NodeId
from repro.memory.layout import DEFAULT_PAGE_SIZE, page_id


@dataclass
class MemoryExplanation:
    """Why a set of memory locations holds the values it does.

    Attributes:
        pages: The pages the questioned addresses live on.
        direct_writers: Sub-computations whose write set intersects the pages.
        explanation: The lineage of the pages: the direct writers plus
            every sub-computation they transitively depend on through
            data edges.
        schedule: The recorded global schedule restricted to the explanation,
            in causal order.
        racy_pairs: Conflicting concurrent accesses touching the pages.
    """

    pages: Set[int] = field(default_factory=set)
    direct_writers: Set[NodeId] = field(default_factory=set)
    explanation: Set[NodeId] = field(default_factory=set)
    schedule: List[NodeId] = field(default_factory=list)
    racy_pairs: List[Tuple[NodeId, NodeId, frozenset]] = field(default_factory=list)

    @property
    def threads_involved(self) -> Set[int]:
        """Thread ids that contributed to the questioned memory state."""
        return {tid for tid, _ in self.explanation if tid >= 0}

    def summary_lines(self, view) -> List[str]:
        """Human-readable rendering used by the example script (``view``: the run view)."""
        lines = [
            f"pages under question      : {sorted(self.pages)}",
            f"direct writers            : {sorted(self.direct_writers)}",
            f"threads involved          : {sorted(self.threads_involved)}",
            f"sub-computations in slice : {len(self.explanation)}",
            f"suspicious concurrent accesses : {len(self.racy_pairs)}",
        ]
        records = view.records(self.schedule)
        for node_id in self.schedule:
            if node_id in records:
                node = records[node_id]
                lines.append(
                    f"  {node_id} started_by={node.started_by!r} ended_by={node.ended_by!r} "
                    f"reads={len(node.read_set)} writes={len(node.write_set)}"
                )
        return lines


def explain_memory_state(
    view,
    addresses: Iterable[int],
    page_size: int = DEFAULT_PAGE_SIZE,
) -> MemoryExplanation:
    """Explain the final contents of ``addresses`` using the provenance graph.

    Args:
        view: The run view: a completed CPG with data edges derived, or a
            stored run.
        addresses: Byte addresses the user is asking about.
        page_size: Page size the run used (provenance is page granular).
    """
    pages = {page_id(address, page_size) for address in addresses}
    writers = {node for page in pages for node in view.page_writers.get(page, ())}
    explanation = lineage_of_pages(view, pages)
    order = view.causal_order(node for node in explanation if node[0] >= 0)
    racy = [
        (a, b, conflict)
        for a, b, conflict in find_racy_pairs(view)
        if conflict & pages
    ]
    return MemoryExplanation(
        pages=pages,
        direct_writers=writers,
        explanation=explanation,
        schedule=order,
        racy_pairs=racy,
    )


def compare_schedules(
    first: ConcurrentProvenanceGraph, second: ConcurrentProvenanceGraph
) -> Dict[str, object]:
    """Compare the recorded schedules of two runs of the same program.

    Useful when a bug reproduces only under some interleavings: the
    comparison reports sub-computations whose happens-before neighbourhood
    differs between the two runs.
    """
    first_edges = {(s, t) for s, t, _ in first.edges(EdgeKind.SYNC)}
    second_edges = {(s, t) for s, t, _ in second.edges(EdgeKind.SYNC)}
    return {
        "only_in_first": sorted(first_edges - second_edges),
        "only_in_second": sorted(second_edges - first_edges),
        "common": len(first_edges & second_edges),
        "identical": first_edges == second_edges,
    }


def blame_threads(view, pages: Sequence[int]) -> Dict[int, int]:
    """Count, per thread, how many sub-computations wrote the given pages (any run view)."""
    writers = {node for page in pages for node in view.page_writers.get(page, ())}
    return dict(Counter(tid for tid, _ in writers if tid >= 0))
