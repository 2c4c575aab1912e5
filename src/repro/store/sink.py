"""Incremental ingestion of a running execution into a store.

:class:`StoreSink` subscribes to the provenance tracker's publication
stream (:meth:`repro.core.algorithm.ProvenanceTracker.add_listener`) and
buffers sub-computations as they are closed, together with the control and
synchronization edges recorded with them.  Every ``segment_nodes``
publications -- one ingest *epoch* -- the buffer is sealed into a segment,
so a long run streams to the store instead of accumulating in memory and
the store stays readable mid-run up to the last committed epoch.

Each sink owns one **run**: a run id is minted when the sink attaches (or
lazily at its first commit), recorded in the manifest with the workload
name and wall-clock metadata, and marked complete by :meth:`StoreSink.finish`.
Because runs are separate node-id namespaces, any number of traced runs --
of the same workload or different ones -- can stream into one store, each
through its own sink.

Data edges are derived only after the run (they need the full happens-
before order), so :meth:`StoreSink.finish` appends them at the end, grouped
by the segment the sink sealed each edge's target node into, to preserve
the locality the query engine expects.  (These edge-only tail segments are
what :meth:`~repro.store.store.ProvenanceStore.compact` later folds back
into the node segments.)

The destination is a local :class:`~repro.store.store.ProvenanceStore` or
a **writable store server**.  Either way the sink makes the same four
store calls: ``new_run``, ``append_segment``, ``flush`` and
``complete_run``.  For a server they become ``begin_run``,
``append_epoch``, nothing and ``commit_run`` of its JSON-line protocol:
epochs travel as framed segments, so the traced process needs no
filesystem access to the store at all, and each ``append_epoch`` reply
arrives only after the server flushed the epoch, so a slow store
back-pressures the sink instead of silently lagging it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Union

from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.serialization import node_key
from repro.core.thunk import NodeId, SubComputation
from repro.errors import StoreError

from repro.store.format import DEFAULT_SEGMENT_NODES
from repro.store.segment import EdgeTuple
from repro.store.server import StoreClient
from repro.store.store import ProvenanceStore


class _ServerStore:
    """The four store calls a sink makes, sent to a writable store server."""

    def __init__(self, client: StoreClient) -> None:
        self.client = client

    def new_run(self, workload: str = "", meta: Optional[dict] = None) -> int:
        return self.client.begin_run(workload=workload, meta=meta)

    def append_segment(
        self, nodes: Sequence[SubComputation], edges: Sequence[EdgeTuple], run: int
    ) -> int:
        return int(self.client.append_epoch(run, nodes, edges)["segment"])

    def flush(self) -> None:
        """Nothing to do: the server flushed each epoch before it replied."""

    def complete_run(self, run: int, meta: Optional[dict] = None) -> None:
        self.client.commit_run(run, meta=meta)


class StoreSink:
    """Streams published sub-computations into one run of a store.

    Args:
        store: The destination: a :class:`ProvenanceStore` (may already
            hold other runs), or a writable store server as a
            :class:`~repro.store.server.StoreClient` or a ``host:port`` /
            ``store://host:port`` URL.  A client built here from a URL is
            closed by :meth:`finish`; a store or client passed in belongs
            to the caller.
        segment_nodes: Epoch length -- sub-computations per sealed segment.
            Every sealed epoch is flushed: one O(epoch) index delta file
            and one record appended to the segment log, so the flush cost
            does not grow with the run.  It does grow with the store's
            run count, because each record carries the whole run table,
            and ``finish`` rewrites the whole manifest (ROADMAP item 6).
        workload: Workload name recorded in the minted run's manifest entry.
        run_meta: Initial run metadata (config, wall-clock ``created_at``,
            ...); merged with whatever ``finish`` supplies.
    """

    def __init__(
        self,
        store: Union[ProvenanceStore, StoreClient, str],
        segment_nodes: int = DEFAULT_SEGMENT_NODES,
        workload: str = "",
        run_meta: Optional[dict] = None,
    ) -> None:
        if segment_nodes <= 0:
            raise ValueError(f"segment_nodes must be positive, got {segment_nodes}")
        self._owns_client = isinstance(store, str)
        if self._owns_client:
            store = StoreClient.from_url(store)
        self.store = _ServerStore(store) if isinstance(store, StoreClient) else store
        self.segment_nodes = segment_nodes
        self.workload = workload
        self.run_meta = dict(run_meta or {})
        self.epochs_committed = 0
        self.run_id: Optional[int] = None
        self._nodes: List[SubComputation] = []
        self._edges: List[EdgeTuple] = []
        #: The segment each published node was sealed into: what
        #: ``finish`` groups the derived data edges by.
        self._segment_of: Dict[NodeId, int] = {}
        self._finished = False

    def attach(self, tracker) -> None:
        """Subscribe to ``tracker``'s publication stream and mint the run.

        Minting up front (rather than at the first epoch) records the run's
        wall-clock start; the run entry becomes durable with the first
        flushed epoch.
        """
        self._ensure_run()
        tracker.add_listener(self)

    def _ensure_run(self) -> int:
        if self.run_id is None:
            self.run_id = self.store.new_run(workload=self.workload, meta=self.run_meta)
        return self.run_id

    # Called by the tracker (listener protocol).
    def subcomputation_published(self, node: SubComputation, edges: List[EdgeTuple]) -> None:
        """Buffer one published sub-computation and its recorded edges."""
        self._nodes.append(node)
        self._edges.extend(edges)
        if len(self._nodes) >= self.segment_nodes:
            self.commit_epoch()

    def commit_epoch(self) -> Optional[int]:
        """Seal the current buffer into a segment and flush; returns its id (or None).

        Every epoch is flushed, so the store stays readable -- up to the
        last sealed epoch -- even if the traced process dies mid-run.
        """
        if not self._nodes and not self._edges:
            return None
        segment_id = self.store.append_segment(self._nodes, self._edges, run=self._ensure_run())
        for node in self._nodes:
            self._segment_of[node.node_id] = segment_id
        self._nodes = []
        self._edges = []
        self.epochs_committed += 1
        self.store.flush()
        return segment_id

    def finish(
        self, cpg: Optional[ConcurrentProvenanceGraph] = None, run_meta: Optional[dict] = None
    ) -> None:
        """Commit the final epoch, append derived data edges, and complete the run.

        Args:
            cpg: The finalized graph; its data edges (derived after the run)
                are appended as edge-only segments grouped by the segment of
                their target node.
            run_meta: Additional run metadata merged into the manifest entry.

        Raises:
            StoreError: If a data edge's target was never published to
                this sink.
        """
        if self._finished:
            return
        try:
            run_id = self._ensure_run()
            self.commit_epoch()
            if cpg is not None:
                by_segment: Dict[int, List[EdgeTuple]] = defaultdict(list)
                for source, target, attrs in cpg.edges(EdgeKind.DATA):
                    if target not in self._segment_of:
                        raise StoreError(
                            f"no sub-computation {node_key(target)} in run {run_id}: "
                            f"the data edge from {node_key(source)} targets a node "
                            f"this sink never published"
                        )
                    by_segment[self._segment_of[target]].append(
                        (source, target, EdgeKind.DATA, {"pages": attrs.get("pages", frozenset())})
                    )
                for segment_id in sorted(by_segment):
                    self.store.append_segment([], by_segment[segment_id], run=run_id)
            meta = dict(run_meta or {})
            meta.setdefault("epochs", self.epochs_committed)
            self.store.complete_run(run_id, meta)
            self._finished = True
        finally:
            if self._owns_client:
                self.store.client.close()


#: A second name for :class:`StoreSink`, which the pipeline benchmark
#: imports.
RemoteStoreSink = StoreSink
