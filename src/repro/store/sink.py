"""Incremental ingestion of a running execution into a store.

:class:`StoreSink` subscribes to the provenance tracker's publication
stream (:meth:`repro.core.algorithm.ProvenanceTracker.add_listener`) and
buffers sub-computations as they are closed, together with the control and
synchronization edges recorded with them.  Every ``segment_nodes``
publications -- one ingest *epoch* -- the buffer is sealed into a segment,
so a long run streams to disk instead of accumulating in memory and the
store stays readable mid-run up to the last committed epoch.

Each sink owns one **run**: a run id is minted when the sink attaches (or
lazily at its first commit), recorded in the manifest with the workload
name and wall-clock metadata, and marked complete by :meth:`StoreSink.finish`.
Because runs are separate node-id namespaces, any number of traced runs --
of the same workload or different ones -- can stream into one store, each
through its own sink.

Data edges are derived only after the run (they need the full happens-
before order), so :meth:`StoreSink.finish` appends them at the end, grouped
by the segment of their target node to preserve the locality the query
engine expects.  (These edge-only tail segments are what
:meth:`~repro.store.store.ProvenanceStore.compact` later folds back into
the node segments.)

:class:`RemoteStoreSink` is the same listener protocol pointed at a
**writable store server** instead of a local directory: epochs travel as
framed segments over the server's JSON-line protocol
(``begin_run`` / ``append_epoch`` / ``commit_run``), so the traced
process needs no filesystem access to the store at all -- and each
``append_epoch`` reply arrives only after the server flushed the epoch,
so a slow store back-pressures the sink instead of silently lagging it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Union

from repro.core.cpg import ConcurrentProvenanceGraph, EdgeKind
from repro.core.thunk import NodeId, SubComputation

from repro.store.format import DEFAULT_SEGMENT_NODES, RUN_COMPLETE
from repro.store.segment import EdgeTuple
from repro.store.store import ProvenanceStore


class StoreSink:
    """Streams published sub-computations into one run of a :class:`ProvenanceStore`.

    Args:
        store: The destination store (may already hold other runs).
        segment_nodes: Epoch length -- sub-computations per sealed segment.
            Every sealed epoch is flushed: one O(epoch) index delta file
            and one O(epoch) record appended to the segment log, so the
            flush cost does not grow with the run or the store.
        workload: Workload name recorded in the minted run's manifest entry.
        run_meta: Initial run metadata (config, wall-clock args, ...);
            merged with whatever ``finish`` supplies.
    """

    def __init__(
        self,
        store: ProvenanceStore,
        segment_nodes: int = DEFAULT_SEGMENT_NODES,
        workload: str = "",
        run_meta: Optional[dict] = None,
    ) -> None:
        if segment_nodes <= 0:
            raise ValueError(f"segment_nodes must be positive, got {segment_nodes}")
        self.store = store
        self.segment_nodes = segment_nodes
        self.workload = workload
        self.run_meta = dict(run_meta or {})
        self.epochs_committed = 0
        self.run_id: Optional[int] = None
        self._nodes: List[SubComputation] = []
        self._edges: List[EdgeTuple] = []
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
            self.run_id = self.store.new_run(
                workload=self.workload,
                meta=self.run_meta,
                created_at=(
                    str(self.run_meta["created_at"]) if "created_at" in self.run_meta else None
                ),
            )
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
        self._nodes = []
        self._edges = []
        self.epochs_committed += 1
        self.store.flush()
        return segment_id

    def finish(
        self, cpg: Optional[ConcurrentProvenanceGraph] = None, run_meta: Optional[dict] = None
    ) -> None:
        """Commit the final epoch, append derived data edges, and flush.

        Args:
            cpg: The finalized graph; its data edges (derived after the run)
                are appended as edge-only segments grouped by the segment of
                their target node.
            run_meta: Additional run metadata merged into the manifest entry.
        """
        if self._finished:
            return
        run_id = self._ensure_run()
        self.commit_epoch()
        if cpg is not None:
            indexes = self.store.indexes_for(run_id)
            by_segment: Dict[int, List[EdgeTuple]] = defaultdict(list)
            for source, target, attrs in cpg.edges(EdgeKind.DATA):
                segment_id = indexes.segment_of(target)
                by_segment[segment_id].append(
                    (source, target, EdgeKind.DATA, {"pages": attrs.get("pages", frozenset())})
                )
            for segment_id in sorted(by_segment):
                self.store.append_segment([], by_segment[segment_id], run=run_id)
        run_info = self.store.manifest.run_info(run_id)
        if run_meta is not None:
            run_info.meta.update(run_meta)
            if "workload" in run_meta and not run_info.workload:
                run_info.workload = str(run_meta["workload"])
        run_info.meta.setdefault("epochs", self.epochs_committed)
        run_info.status = RUN_COMPLETE
        # Run completion is a checkpoint: the manifest alone then names
        # every segment of the finished run (no replay needed to read it).
        self.store.flush(checkpoint=True)
        self._finished = True


class RemoteStoreSink:
    """Streams a run into a **writable store server** over TCP.

    Same listener protocol as :class:`StoreSink` (``attach`` /
    ``subcomputation_published`` / ``finish``), but the destination is a
    :class:`~repro.store.server.StoreClient` instead of a local store
    handle -- the traced process never touches the store directory.

    Args:
        client: A ``StoreClient`` pointed at a writable server, or a
            ``host:port`` / ``store://host:port`` URL string.
        segment_nodes: Epoch length -- sub-computations per shipped segment.
        workload: Workload name recorded with the minted run.
        run_meta: Initial run metadata sent with ``begin_run``.
    """

    def __init__(
        self,
        client: Union["StoreClient", str],
        segment_nodes: int = DEFAULT_SEGMENT_NODES,
        workload: str = "",
        run_meta: Optional[dict] = None,
    ) -> None:
        from repro.store.server import StoreClient  # cycle: server imports store

        if segment_nodes <= 0:
            raise ValueError(f"segment_nodes must be positive, got {segment_nodes}")
        self.client = StoreClient.from_url(client) if isinstance(client, str) else client
        #: A client built here from a URL is closed by ``finish``; a
        #: client passed in belongs to the caller.
        self._owns_client = isinstance(client, str)
        self.segment_nodes = segment_nodes
        self.workload = workload
        self.run_meta = dict(run_meta or {})
        self.epochs_committed = 0
        self.run_id: Optional[int] = None
        self._nodes: List[SubComputation] = []
        self._edges: List[EdgeTuple] = []
        #: Which shipped segment holds each published node -- what lets
        #: ``finish`` group the derived data edges by their target's
        #: segment exactly like the local sink does.
        self._segment_of: Dict[NodeId, int] = {}
        self._finished = False

    def attach(self, tracker) -> None:
        """Subscribe to ``tracker`` and mint the remote run up front."""
        self._ensure_run()
        tracker.add_listener(self)

    def _ensure_run(self) -> int:
        if self.run_id is None:
            self.run_id = self.client.begin_run(workload=self.workload, meta=self.run_meta)
        return self.run_id

    # Called by the tracker (listener protocol).
    def subcomputation_published(self, node: SubComputation, edges: List[EdgeTuple]) -> None:
        """Buffer one published sub-computation and its recorded edges."""
        self._nodes.append(node)
        self._edges.extend(edges)
        if len(self._nodes) >= self.segment_nodes:
            self.commit_epoch()

    def commit_epoch(self) -> Optional[int]:
        """Ship the current buffer as one epoch; returns its segment id.

        Synchronous: returns only once the server flushed the epoch
        durably, so the traced run can never get more than one buffered
        epoch ahead of the store.
        """
        if not self._nodes and not self._edges:
            return None
        run_id = self._ensure_run()
        reply = self.client.append_epoch(run_id, self._nodes, self._edges)
        segment_id = int(reply["segment"])
        for node in self._nodes:
            self._segment_of[node.node_id] = segment_id
        self._nodes = []
        self._edges = []
        self.epochs_committed += 1
        return segment_id

    def finish(
        self, cpg: Optional[ConcurrentProvenanceGraph] = None, run_meta: Optional[dict] = None
    ) -> None:
        """Ship the final epoch and derived data edges, then commit the run.

        Mirrors :meth:`StoreSink.finish`: the finalized graph's data edges
        go out as edge-only epochs grouped by the segment of their target
        node (tracked client-side from the ``append_epoch`` replies), and
        ``commit_run`` marks the run complete -- the server checkpoints.
        A client the sink built from a URL is closed on the way out.
        """
        if self._finished:
            return
        try:
            run_id = self._ensure_run()
            self.commit_epoch()
            if cpg is not None:
                by_segment: Dict[int, List[EdgeTuple]] = defaultdict(list)
                for source, target, attrs in cpg.edges(EdgeKind.DATA):
                    segment_id = self._segment_of.get(target, self._segment_of.get(source, -1))
                    by_segment[segment_id].append(
                        (source, target, EdgeKind.DATA, {"pages": attrs.get("pages", frozenset())})
                    )
                for segment_id in sorted(by_segment):
                    self.client.append_epoch(run_id, [], by_segment[segment_id])
            meta = dict(run_meta or {})
            meta.setdefault("epochs", self.epochs_committed)
            self.client.commit_run(run_id, meta=meta)
            self._finished = True
        finally:
            if self._owns_client:
                self.client.close()
