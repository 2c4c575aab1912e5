"""Serialization of the Concurrent Provenance Graph.

The perf-style tooling and the snapshot facility both need a compact,
self-contained representation of (parts of) the CPG: the snapshot ring
buffer stores serialized slots, EXPERIMENTS.md reports serialized sizes,
and users of the library export graphs for offline analysis.

Two wire formats exist:

* **v1** is the original whole-graph JSON document: edge endpoints are
  ``[tid, index]`` lists.
* **v2** is the compact form (the persistent store's compaction spills
  edges in it): edge endpoints are ``"tid:index"`` keys and the document
  may carry a ``meta`` object.  Node payloads are identical in both
  versions.

:func:`cpg_from_dict` accepts either version and raises
:class:`~repro.errors.ProvenanceError` (never ``KeyError``) for unknown
versions, unknown edge kinds, or structurally incomplete records.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.thunk import BranchRecord, NodeId, SubComputation, Thunk
from repro.core.vector_clock import VectorClock
from repro.errors import ProvenanceError

#: The original whole-graph JSON format.
FORMAT_VERSION = 1

#: The segmented-store format (compact edge endpoints, optional metadata).
FORMAT_VERSION_V2 = 2

#: Every version :func:`cpg_from_dict` understands.
SUPPORTED_FORMAT_VERSIONS = (FORMAT_VERSION, FORMAT_VERSION_V2)


# ---------------------------------------------------------------------- #
# Node identifiers
# ---------------------------------------------------------------------- #


def node_key(node_id: NodeId) -> str:
    """Render a node id as the compact ``"tid:index"`` key used by v2."""
    return f"{node_id[0]}:{node_id[1]}"


def parse_node_key(key: str) -> NodeId:
    """Invert :func:`node_key`.

    Raises:
        ProvenanceError: If ``key`` is not of the form ``"tid:index"``.
    """
    try:
        tid_text, index_text = key.split(":", 1)
        return (int(tid_text), int(index_text))
    except (AttributeError, ValueError) as exc:
        raise ProvenanceError(f"malformed node key {key!r} (expected 'tid:index')") from exc


def _node_id_from(value: object) -> NodeId:
    """Accept either endpoint representation (v1 list or v2 key string)."""
    if isinstance(value, str):
        return parse_node_key(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return (int(value[0]), int(value[1]))
        except (TypeError, ValueError) as exc:
            raise ProvenanceError(f"malformed node id {value!r}") from exc
    raise ProvenanceError(f"malformed node id {value!r} (expected [tid, index] or 'tid:index')")


# ---------------------------------------------------------------------- #
# Sub-computations
# ---------------------------------------------------------------------- #


def subcomputation_to_dict(node: SubComputation) -> dict:
    """Convert one sub-computation into plain JSON-serializable data."""
    return {
        "tid": node.tid,
        "index": node.index,
        "clock": {str(tid): value for tid, value in node.clock.as_dict().items()},
        "read_set": sorted(node.read_set),
        "write_set": sorted(node.write_set),
        "started_by": node.started_by,
        "ended_by": node.ended_by,
        "faults": node.faults,
        "thunks": [
            {
                "index": thunk.index,
                "instructions": thunk.instructions,
                "branch": (
                    {
                        "site": thunk.start_branch.site,
                        "taken": thunk.start_branch.taken,
                        "indirect": thunk.start_branch.is_indirect,
                    }
                    if thunk.start_branch is not None
                    else None
                ),
            }
            for thunk in node.thunks
        ],
    }


def subcomputation_from_dict(data: dict) -> SubComputation:
    """Rebuild a sub-computation from :func:`subcomputation_to_dict` output.

    Raises:
        ProvenanceError: If the mandatory ``tid``/``index`` fields are
            missing or malformed.
    """
    if not isinstance(data, dict):
        raise ProvenanceError(f"node record must be an object, got {type(data).__name__}")
    missing = [key for key in ("tid", "index") if key not in data]
    if missing:
        raise ProvenanceError(f"node record is missing field(s) {missing}: {data!r}")
    try:
        node = SubComputation(
            tid=int(data["tid"]),
            index=int(data["index"]),
            clock=VectorClock({int(tid): value for tid, value in data.get("clock", {}).items()}),
            started_by=data.get("started_by"),
            ended_by=data.get("ended_by"),
            faults=int(data.get("faults", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ProvenanceError(f"malformed node record {data!r}") from exc
    node.read_set.update(data.get("read_set", ()))
    node.write_set.update(data.get("write_set", ()))
    for thunk_data in data.get("thunks", ()):
        branch = thunk_data.get("branch")
        record = (
            BranchRecord(
                site=int(branch["site"]),
                taken=bool(branch["taken"]),
                is_indirect=bool(branch.get("indirect", False)),
            )
            if branch is not None
            else None
        )
        node.thunks.append(
            Thunk(
                index=int(thunk_data["index"]),
                start_branch=record,
                instructions=int(thunk_data.get("instructions", 0)),
            )
        )
    return node


# ---------------------------------------------------------------------- #
# Edges
# ---------------------------------------------------------------------- #


def edge_to_dict(
    source: NodeId, target: NodeId, attrs: dict, version: int = FORMAT_VERSION
) -> dict:
    """Serialize one edge (as returned by :meth:`ConcurrentProvenanceGraph.edges`)."""
    kind = attrs.get("kind")
    if not isinstance(kind, EdgeKind):
        raise ProvenanceError(f"edge {source} -> {target} has no EdgeKind: {attrs!r}")
    if version == FORMAT_VERSION_V2:
        entry: Dict[str, object] = {
            "source": node_key(source),
            "target": node_key(target),
            "kind": kind.value,
        }
    else:
        entry = {"source": list(source), "target": list(target), "kind": kind.value}
    if kind is EdgeKind.SYNC:
        entry["object_id"] = attrs.get("object_id")
        entry["operation"] = attrs.get("operation", "")
    if kind is EdgeKind.DATA:
        entry["pages"] = sorted(attrs.get("pages", ()))
    return entry


def edge_from_dict(edge: dict) -> Tuple[NodeId, NodeId, EdgeKind, dict]:
    """Parse one serialized edge into ``(source, target, kind, attributes)``.

    Both endpoint representations (v1 and v2) are accepted.

    Raises:
        ProvenanceError: For missing ``source``/``target``/``kind`` fields
            or an edge kind this version does not know.
    """
    if not isinstance(edge, dict):
        raise ProvenanceError(f"edge record must be an object, got {type(edge).__name__}")
    missing = [key for key in ("source", "target", "kind") if key not in edge]
    if missing:
        raise ProvenanceError(f"edge record is missing field(s) {missing}: {edge!r}")
    source = _node_id_from(edge["source"])
    target = _node_id_from(edge["target"])
    try:
        kind = EdgeKind(edge["kind"])
    except ValueError as exc:
        known = ", ".join(sorted(member.value for member in EdgeKind))
        raise ProvenanceError(
            f"unknown edge kind {edge['kind']!r} (known kinds: {known})"
        ) from exc
    attrs: Dict[str, object] = {}
    if kind is EdgeKind.SYNC:
        attrs["object_id"] = edge.get("object_id")
        attrs["operation"] = edge.get("operation", "")
    if kind is EdgeKind.DATA:
        attrs["pages"] = frozenset(edge.get("pages", ()))
    return source, target, kind, attrs


def apply_edge(
    cpg: ConcurrentProvenanceGraph,
    source: NodeId,
    target: NodeId,
    kind: EdgeKind,
    attrs: dict,
) -> None:
    """Add one parsed edge to ``cpg`` (the single kind-dispatch point)."""
    if kind is EdgeKind.CONTROL:
        cpg.add_control_edge(source, target)
    elif kind is EdgeKind.SYNC:
        cpg.add_sync_edge(
            source, target, object_id=attrs.get("object_id"), operation=attrs.get("operation", "")
        )
    else:
        cpg.add_data_edge(source, target, attrs.get("pages", ()))


def apply_edge_dict(cpg: ConcurrentProvenanceGraph, edge: dict) -> None:
    """Parse one serialized edge and add it to ``cpg``."""
    apply_edge(cpg, *edge_from_dict(edge))


# ---------------------------------------------------------------------- #
# Whole graphs
# ---------------------------------------------------------------------- #


def cpg_to_dict(
    cpg: ConcurrentProvenanceGraph,
    nodes: Optional[Iterable[NodeId]] = None,
    version: int = FORMAT_VERSION,
) -> dict:
    """Serialize ``cpg`` (or the induced subgraph over ``nodes``) to a dictionary."""
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise ProvenanceError(f"cannot write CPG format version {version!r}")
    wanted = set(nodes) if nodes is not None else None
    node_payload = []
    for node in cpg.subcomputations():
        if wanted is None or node.node_id in wanted:
            node_payload.append(subcomputation_to_dict(node))
    edge_payload: List[dict] = []
    for source, target, attrs in cpg.edges():
        if wanted is not None and (source not in wanted or target not in wanted):
            continue
        edge_payload.append(edge_to_dict(source, target, attrs, version=version))
    return {
        "format_version": version,
        "nodes": node_payload,
        "edges": edge_payload,
    }


def cpg_from_dict(data: dict) -> ConcurrentProvenanceGraph:
    """Rebuild a CPG from :func:`cpg_to_dict` output (v1 or v2).

    Raises:
        ProvenanceError: For an unsupported format version, unknown edge
            kinds, or node/edge records with missing mandatory fields.
    """
    version = data.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_FORMAT_VERSIONS)
        raise ProvenanceError(
            f"unsupported CPG format version {version!r} (supported: {supported})"
        )
    cpg = ConcurrentProvenanceGraph()
    for node_data in data.get("nodes", ()):
        cpg.add_subcomputation(subcomputation_from_dict(node_data))
    for edge in data.get("edges", ()):
        apply_edge_dict(cpg, edge)
    return cpg


def cpg_to_json(
    cpg: ConcurrentProvenanceGraph,
    indent: Optional[int] = None,
    version: int = FORMAT_VERSION,
) -> str:
    """Serialize ``cpg`` to a JSON string."""
    return json.dumps(cpg_to_dict(cpg, version=version), indent=indent, sort_keys=True)


def cpg_from_json(payload: str) -> ConcurrentProvenanceGraph:
    """Deserialize a CPG from a JSON string (either format version)."""
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ProvenanceError(f"CPG payload is not valid JSON: {exc}") from exc
    return cpg_from_dict(data)


def write_cpg(
    cpg: ConcurrentProvenanceGraph,
    path: str,
    indent: Optional[int] = 2,
    version: int = FORMAT_VERSION,
) -> None:
    """Write ``cpg`` to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(cpg_to_json(cpg, indent=indent, version=version))


def read_cpg(path: str) -> ConcurrentProvenanceGraph:
    """Read a CPG previously written with :func:`write_cpg`."""
    with open(path, "r", encoding="utf-8") as handle:
        return cpg_from_json(handle.read())


def serialized_size(cpg: ConcurrentProvenanceGraph, nodes: Optional[Iterable[NodeId]] = None) -> int:
    """Return the size in bytes of the compact (no indentation) serialization."""
    return len(json.dumps(cpg_to_dict(cpg, nodes=nodes), sort_keys=True).encode("utf-8"))
