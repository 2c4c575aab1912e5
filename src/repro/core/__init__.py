"""The provenance core: the paper's primary contribution.

Vector clocks, sub-computations and thunks, the Concurrent Provenance
Graph, the parallel recording algorithm, data-dependence derivation, and
query/serialization utilities.

Where this package sits in the whole reproduction: ``docs/architecture.md``.
"""

from repro.core.algorithm import ProvenanceTracker, TrackerStats
from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.dependencies import derive_data_edges
from repro.core.events import (
    BranchEvent,
    EventLog,
    MemoryAccessEvent,
    OutputEvent,
    SyncOperationEvent,
    SyncSemantics,
    ThreadEndEvent,
    ThreadStartEvent,
)
from repro.core.queries import (
    TaintResult,
    backward_slice,
    find_racy_pairs,
    forward_slice,
    graph_statistics,
    lineage_of_pages,
    propagate_taint,
    schedule_of,
)
from repro.core.serialization import (
    cpg_from_dict,
    cpg_from_json,
    cpg_to_dict,
    cpg_to_json,
    read_cpg,
    serialized_size,
    write_cpg,
)
from repro.core.thunk import (
    INPUT_NODE,
    INPUT_TID,
    BranchRecord,
    NodeId,
    SubComputation,
    Thunk,
    make_input_node,
)
from repro.core.vector_clock import VectorClock, merge_all

__all__ = [
    "ProvenanceTracker",
    "TrackerStats",
    "ConcurrentProvenanceGraph",
    "EdgeKind",
    "derive_data_edges",
    "BranchEvent",
    "EventLog",
    "MemoryAccessEvent",
    "OutputEvent",
    "SyncOperationEvent",
    "SyncSemantics",
    "ThreadEndEvent",
    "ThreadStartEvent",
    "TaintResult",
    "backward_slice",
    "find_racy_pairs",
    "forward_slice",
    "graph_statistics",
    "lineage_of_pages",
    "propagate_taint",
    "schedule_of",
    "cpg_from_dict",
    "cpg_from_json",
    "cpg_to_dict",
    "cpg_to_json",
    "read_cpg",
    "serialized_size",
    "write_cpg",
    "INPUT_NODE",
    "INPUT_TID",
    "BranchRecord",
    "NodeId",
    "SubComputation",
    "Thunk",
    "make_input_node",
    "VectorClock",
    "merge_all",
]
