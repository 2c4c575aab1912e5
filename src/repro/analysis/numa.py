"""Case study 3 (§VIII): NUMA-aware memory placement from the CPG.

The CPG records, per sub-computation and therefore per thread, exactly
which pages were read and written.  Given a NUMA topology (nodes, a
thread-to-node mapping, and per-hop interconnect costs), this module
estimates the remote-access traffic of a page placement and proposes a
better placement (each page on the node that accesses it most), which is
precisely the optimisation opportunity the paper sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph


@dataclass(frozen=True)
class NUMATopology:
    """A NUMA machine model.

    Attributes:
        nodes: Number of NUMA nodes.
        hop_cost: Relative cost of one remote access (local access costs 1).
        interconnect: Optional explicit node-to-node cost matrix; when
            omitted every remote pair costs ``hop_cost``.
    """

    nodes: int
    hop_cost: float = 2.0
    interconnect: Optional[Tuple[Tuple[float, ...], ...]] = None

    def cost(self, from_node: int, to_node: int) -> float:
        """Access cost between two nodes (1.0 locally)."""
        if from_node == to_node:
            return 1.0
        if self.interconnect is not None:
            return self.interconnect[from_node][to_node]
        return self.hop_cost


def round_robin_thread_mapping(threads: Sequence[int], topology: NUMATopology) -> Dict[int, int]:
    """Assign threads to NUMA nodes round robin (the common OS default)."""
    return {tid: index % topology.nodes for index, tid in enumerate(sorted(threads))}


@dataclass
class PlacementReport:
    """Evaluation of one page placement.

    Attributes:
        placement: Page id -> NUMA node.
        total_cost: Modelled access cost of the whole run under the placement.
        remote_accesses: Number of page accesses served from a remote node.
        local_accesses: Number served locally.
    """

    placement: Dict[int, int] = field(default_factory=dict)
    total_cost: float = 0.0
    remote_accesses: int = 0
    local_accesses: int = 0

    @property
    def remote_fraction(self) -> float:
        """Fraction of accesses that were remote."""
        total = self.remote_accesses + self.local_accesses
        return self.remote_accesses / total if total else 0.0


def page_access_matrix(
    cpg: ConcurrentProvenanceGraph, thread_to_node: Mapping[int, int], nodes: int
) -> Dict[int, List[int]]:
    """Count page accesses per NUMA node from the CPG's read/write sets.

    Returns:
        page id -> per-node access counts.
    """
    matrix: Dict[int, List[int]] = {}
    for sub in cpg.subcomputations():
        if sub.tid < 0:
            continue
        node = thread_to_node.get(sub.tid, 0)
        for page in sub.read_set | sub.write_set:
            counts = matrix.setdefault(page, [0] * nodes)
            counts[node] += 1
    return matrix


def evaluate_placement(
    cpg: ConcurrentProvenanceGraph,
    topology: NUMATopology,
    thread_to_node: Mapping[int, int],
    placement: Mapping[int, int],
) -> PlacementReport:
    """Compute the modelled cost of ``placement`` for the recorded run."""
    report = PlacementReport(placement=dict(placement))
    matrix = page_access_matrix(cpg, thread_to_node, topology.nodes)
    for page, counts in matrix.items():
        page_node = placement.get(page, 0)
        for node, count in enumerate(counts):
            if count == 0:
                continue
            cost = topology.cost(node, page_node)
            report.total_cost += cost * count
            if node == page_node:
                report.local_accesses += count
            else:
                report.remote_accesses += count
    return report


def first_touch_placement(
    cpg: ConcurrentProvenanceGraph, thread_to_node: Mapping[int, int]
) -> Dict[int, int]:
    """The kernel's default policy: a page lives where it was first touched.

    "First" is the causal order (:func:`~repro.core.cpg.causal_key`).
    """
    placement: Dict[int, int] = {}
    for node_id in cpg.topological_order():
        sub = cpg.subcomputation(node_id)
        if sub.tid < 0:
            continue
        node = thread_to_node.get(sub.tid, 0)
        for page in sorted(sub.read_set | sub.write_set):
            placement.setdefault(page, node)
    return placement


def optimise_placement(
    cpg: ConcurrentProvenanceGraph,
    topology: NUMATopology,
    thread_to_node: Mapping[int, int],
) -> Dict[int, int]:
    """Place every page on the node that accesses it the most (CPG-guided)."""
    matrix = page_access_matrix(cpg, thread_to_node, topology.nodes)
    return {
        page: max(range(topology.nodes), key=lambda node: counts[node])
        for page, counts in matrix.items()
    }


def placement_improvement(
    cpg: ConcurrentProvenanceGraph,
    topology: NUMATopology,
    thread_to_node: Optional[Mapping[int, int]] = None,
) -> Dict[str, float]:
    """Compare first-touch placement against the CPG-optimised placement.

    Returns a dictionary with both costs and the relative saving, which is
    what the NUMA example prints.
    """
    threads = [tid for tid in cpg.threads() if tid >= 0]
    mapping = (
        dict(thread_to_node)
        if thread_to_node is not None
        else round_robin_thread_mapping(threads, topology)
    )
    baseline = evaluate_placement(cpg, topology, mapping, first_touch_placement(cpg, mapping))
    optimised = evaluate_placement(cpg, topology, mapping, optimise_placement(cpg, topology, mapping))
    saving = 0.0
    if baseline.total_cost > 0:
        saving = 1.0 - optimised.total_cost / baseline.total_cost
    return {
        "first_touch_cost": baseline.total_cost,
        "optimised_cost": optimised.total_cost,
        "first_touch_remote_fraction": baseline.remote_fraction,
        "optimised_remote_fraction": optimised.remote_fraction,
        "relative_saving": saving,
    }
