"""Out-of-core provenance queries over a persistent store.

:class:`StoreQueryEngine` answers the same questions as
:mod:`repro.core.queries` -- backward/forward slices, page lineage, taint
propagation -- but against a :class:`~repro.store.store.ProvenanceStore`,
loading only the segments the secondary indexes select instead of
materializing the whole graph.

Every query is answered **within one run** (node ids are only unique per
run); the ``run`` argument defaults to the store's only run and must be
given explicitly on multi-run stores.  Cross-run questions have their own
entry points: the ``*_across_runs`` methods fan one query out over every
run, and :meth:`StoreQueryEngine.compare_lineage` diffs the lineage of a
page between two runs -- the longitudinal "what changed between yesterday's
run and today's" query the multi-run store exists for.

Every query returns exactly what the in-memory functions return on the
stored CPG, whichever path wrote the run (``ingest``, a streaming sink,
or a server).  Taint replays in the causal order both sides share
(:func:`repro.core.cpg.causal_key`; the index keeps each node's rank), so
racy executions agree as well.

Slices walk the edge-segment index (node -> segments holding its in-/out-
edges), so a slice confined to one corner of the graph touches only the
segments of that corner.  Lineage is the pages' writers plus one backward
walk over data edges started from all of them at once, so each ancestor's
segments are looked up once however many writers share it.

Taint propagation first computes, from the in-memory indexes alone (no
segment I/O), a closed superset of the nodes the taint frontier can ever
reach -- readers of reached pages, the pages they wrote, to a fixpoint --
then replays the in-memory policy over just those nodes in the causal
order -- nodes outside the closure can neither become tainted nor taint a
page, so restricting the replay preserves the result bit for bit.  When
the closure floods (the frontier touches a majority of the run's *read*
pages -- write-only pages never spread taint further) the engine stops
expanding it and falls back to one sequential sweep of the run's
segments: each segment is processed exactly once, which is the optimal
access pattern for a query whose answer genuinely spans the run.

Every segment read goes through the store's byte-budgeted decoded-segment
cache (:mod:`repro.store.cache`), so repeated queries on a warm engine --
the profile :class:`~repro.store.server.StoreServer` serves -- cost no
decode at all.  A query reads and decodes its segments in the thread
that runs it; concurrent queries (one per server connection) share the
cache, whose single-flight fills decode a segment once however many of
them miss it together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cpg import EdgeKind
from repro.core.queries import TaintResult, replay_taint
from repro.core.thunk import NodeId, SubComputation
from repro.errors import CorruptSegmentError

from repro.store.cache import ReadScope
from repro.store.indexes import StoreIndexes
from repro.store.segment import EdgeTuple
from repro.store.store import ProvenanceStore

#: Fraction of a run's read pages the taint frontier may reach before the
#: engine abandons the index closure for one sequential segment sweep.
TAINT_FLOOD_FRACTION = 0.5


# ---------------------------------------------------------------------- #
# Merge helpers
#
# The pieces of the cross-run query semantics that are pure set/ordering
# logic live here as free functions so the sharded cluster router
# (:mod:`repro.store.cluster`) merges scattered per-shard answers through
# the *same* code the single-store engine uses -- the two cannot drift.
# ---------------------------------------------------------------------- #


def normalize_pages(pages) -> Tuple[int, ...]:
    """The ``pages`` argument of ``compare_lineage``: one page or many."""
    return (pages,) if isinstance(pages, int) else tuple(pages)


def untouched_taint(source_pages: Iterable[int]) -> "TaintResult":
    """The exact taint result of a run that never saw any source page.

    Taint only spreads through reads of tainted pages, so a run the
    cross-run page summary proves untouched reports the sources and
    nothing else -- without opening its indexes or segments.
    """
    sources = set(source_pages)
    return TaintResult(source_pages=sources, tainted_pages=set(sources))


def order_across_runs(answered: Dict[int, object], run_ids: Iterable[int], default) -> Dict[int, object]:
    """Assemble one ``*_across_runs`` result dict in run-id order.

    Every run in ``run_ids`` gets an entry -- the answered value, or
    ``default(run_id)`` for runs that were skipped (proven untouched) --
    and the dict enumerates runs in exactly the order given, which is the
    store's mint order.  Merge order is part of the documented result
    shape (the server serializes it as-is), so the cluster router feeds
    this the same mint-ordered id list a single store would.
    """
    return {
        run_id: answered[run_id] if run_id in answered else default(run_id)
        for run_id in run_ids
    }


def diff_lineage(
    run_a: int,
    run_b: int,
    pages: Tuple[int, ...],
    lineage_a: Set[NodeId],
    lineage_b: Set[NodeId],
) -> LineageDiff:
    """Partition two runs' lineages into the :class:`LineageDiff` shape."""
    return LineageDiff(
        run_a=run_a,
        run_b=run_b,
        pages=pages,
        only_a=lineage_a - lineage_b,
        only_b=lineage_b - lineage_a,
        common=lineage_a & lineage_b,
    )


@dataclass
class LineageDiff:
    """Result of :meth:`StoreQueryEngine.compare_lineage`.

    Node ids are comparable across runs because both runs execute the same
    program shape: ``(tid, index)`` names "the index-th sub-computation of
    thread tid", so the diff shows where the two executions' histories for
    the same pages diverge.

    Attributes:
        run_a: First run id.
        run_b: Second run id.
        pages: The pages whose lineage was compared.
        only_a: Lineage nodes present in run A but not run B.
        only_b: Lineage nodes present in run B but not run A.
        common: Lineage nodes present in both runs.
    """

    run_a: int
    run_b: int
    pages: Tuple[int, ...]
    only_a: Set[NodeId] = field(default_factory=set)
    only_b: Set[NodeId] = field(default_factory=set)
    common: Set[NodeId] = field(default_factory=set)

    @property
    def identical(self) -> bool:
        """Whether both runs produced the pages the same way."""
        return not self.only_a and not self.only_b


class StoreQueryEngine:
    """Indexed queries over one provenance store (any number of runs).

    Args:
        store: The store to query (may share a warm
            :class:`~repro.store.cache.SegmentCache` with other handles).
        scope: Optional :class:`~repro.store.cache.ReadScope` collecting
            this engine's per-query read accounting (the server attaches
            one per request).
    """

    def __init__(
        self,
        store: ProvenanceStore,
        scope: Optional[ReadScope] = None,
    ) -> None:
        self.store = store
        self.scope = scope
        #: How the last ``propagate_taint`` ran: ``"indexed"`` (closure
        #: from the indexes) or ``"sweep"`` (segment-scan flood
        #: fallback).  ``taint_across_runs`` answers touched runs in
        #: run-id order, so afterwards it holds the mode of the highest
        #: touched run, and it is left unchanged when no run is touched.
        self.last_taint_mode: Optional[str] = None

    @property
    def segments_loaded(self) -> int:
        """Segments decoded from disk so far (the out-of-core metric)."""
        return self.store.read_stats.segments_read

    # ------------------------------------------------------------------ #
    # Node access
    # ------------------------------------------------------------------ #

    def _segment(self, segment_id: int):
        return self.store.segment(segment_id, scope=self.scope)

    def _note_quarantined(self, segment_ids: Iterable[int]) -> None:
        if self.scope is not None:
            self.scope.record_quarantined(segment_ids)

    def _segment_or_none(self, segment_id: int):
        """One segment's payload, or ``None`` when it is quarantined/corrupt.

        Set-valued queries (slices, lineage, taint) degrade instead of
        aborting: a damaged segment is skipped, the skip is recorded in
        the engine's scope (``degraded`` / ``quarantined_segments``), and
        the rest of the answer comes from the healthy segments -- the
        single-store analogue of the cluster's partial fan-out with its
        ``missing_shards``.  Point lookups (:meth:`subcomputation`) still
        raise the typed :class:`~repro.errors.CorruptSegmentError`: there
        is no partial answer to a question about one specific node.
        """
        if self.store.is_quarantined(segment_id):
            self._note_quarantined((segment_id,))
            return None
        try:
            return self._segment(segment_id)
        except CorruptSegmentError as exc:
            self._note_quarantined(
                (segment_id if exc.segment_id is None else exc.segment_id,)
            )
            return None

    def _iter_payloads(self, segment_ids: Sequence[int]):
        """Yield ``(segment_id, payload)`` for each healthy segment, once each.

        Payloads are handed out one at a time, so a scan's resident set is
        whatever the caller keeps plus what the byte-budgeted cache
        retains, even when the scanned segments exceed the cache budget.
        """
        for segment_id in dict.fromkeys(segment_ids):
            payload = self._segment_or_none(segment_id)
            if payload is not None:
                yield segment_id, payload

    def subcomputation(self, node_id: NodeId, run: Optional[int] = None) -> SubComputation:
        """Load the sub-computation stored at ``node_id`` of ``run``."""
        payload = self._segment(self.store.indexes_for(run).segment_of(node_id))
        return payload.nodes[node_id]

    def _edges_at(self, node_id: NodeId, forward: bool, indexes: StoreIndexes) -> List[EdgeTuple]:
        segments = indexes.out_segments(node_id) if forward else indexes.in_segments(node_id)
        edges: List[EdgeTuple] = []
        for segment_id in segments:
            payload = self._segment_or_none(segment_id)
            if payload is None:
                continue
            grouped = payload.edges_by_source if forward else payload.edges_by_target
            edges.extend(grouped.get(node_id, ()))
        return edges

    def _closure(
        self,
        starts: Iterable[NodeId],
        kinds: Optional[Sequence[EdgeKind]],
        forward: bool,
        run: int,
    ) -> Set[NodeId]:
        # Mirrors ConcurrentProvenanceGraph._closure, but expands through
        # the edge-segment index instead of an in-memory adjacency list.
        indexes = self.store.indexes_for(run)
        starts = set(starts)
        for node_id in starts:
            indexes.segment_of(node_id)  # raises for unknown nodes
        allowed = set(kinds) if kinds is not None else None
        seen: Set[NodeId] = set()
        frontier = list(starts)
        while frontier:
            current = frontier.pop()
            for source, target, kind, _ in self._edges_at(current, forward, indexes):
                if allowed is not None and kind not in allowed:
                    continue
                nxt = target if forward else source
                if nxt not in seen:
                    seen.add(nxt)
                    if nxt not in starts:
                        frontier.append(nxt)
        return seen

    # ------------------------------------------------------------------ #
    # Slices
    # ------------------------------------------------------------------ #

    def backward_slice(
        self,
        node_id: NodeId,
        kinds: Sequence[EdgeKind] = (EdgeKind.DATA,),
        include_start: bool = True,
        run: Optional[int] = None,
    ) -> Set[NodeId]:
        """Every sub-computation ``node_id`` transitively depends on (in ``run``)."""
        run_id = self.store.resolve_run(run)
        result = self._closure((node_id,), kinds, forward=False, run=run_id)
        if include_start:
            result.add(node_id)
        return result

    def forward_slice(
        self,
        node_id: NodeId,
        kinds: Sequence[EdgeKind] = (EdgeKind.DATA,),
        include_start: bool = True,
        run: Optional[int] = None,
    ) -> Set[NodeId]:
        """Every sub-computation transitively influenced by ``node_id`` (in ``run``)."""
        run_id = self.store.resolve_run(run)
        result = self._closure((node_id,), kinds, forward=True, run=run_id)
        if include_start:
            result.add(node_id)
        return result

    def lineage_of_pages(self, pages: Iterable[int], run: Optional[int] = None) -> Set[NodeId]:
        """Writers of ``pages`` plus everything they depend on through data edges.

        One backward walk from all the writers at once: every ancestor is
        expanded once, however many writers share it.
        """
        run_id = self.store.resolve_run(run)
        indexes = self.store.indexes_for(run_id)
        writers: Set[NodeId] = set()
        for page in pages:
            writers.update(indexes.writers_of_page(page))
        return writers | self._closure(writers, (EdgeKind.DATA,), forward=False, run=run_id)

    # ------------------------------------------------------------------ #
    # Cross-run queries
    # ------------------------------------------------------------------ #

    def run_progress(self, run: Optional[int] = None) -> dict:
        """How far one run has grown, from the manifest alone (no I/O).

        The ``watch`` op polls this between lineage observations: a
        follow-mode engine's numbers advance as a live writer's flushes
        land, and ``status`` flipping to complete is the end-of-stream
        signal.
        """
        run_id = self.store.resolve_run(run)
        info = self.store.manifest.run_info(run_id)
        return {
            "run": run_id,
            "status": info.status,
            "nodes": info.nodes,
            "edges": info.edges,
            "segments": len(self.store.manifest.segments_of_run(run_id)),
        }

    def runs_containing(self, node_id: NodeId) -> List[int]:
        """Every run that recorded a sub-computation named ``node_id``."""
        return [
            run_id
            for run_id in self.store.run_ids()
            if self.store.indexes_for(run_id).has_node(node_id)
        ]

    def backward_slice_across_runs(
        self,
        node_id: NodeId,
        kinds: Sequence[EdgeKind] = (EdgeKind.DATA,),
        include_start: bool = True,
    ) -> Dict[int, Set[NodeId]]:
        """:meth:`backward_slice` in every run that holds ``node_id``."""
        return {
            run_id: self.backward_slice(node_id, kinds=kinds, include_start=include_start, run=run_id)
            for run_id in self.runs_containing(node_id)
        }

    def lineage_across_runs(self, pages: Iterable[int]) -> Dict[int, Set[NodeId]]:
        """:meth:`lineage_of_pages` in every run of the store.

        Runs the cross-run page summary (``index/pages_runs.json``) proves
        never touched any of ``pages`` are answered with an empty lineage
        without opening their per-run indexes.
        """
        wanted = list(pages)
        answered = {
            run_id: self.lineage_of_pages(wanted, run=run_id)
            for run_id in sorted(self.store.runs_touching_pages(wanted))
        }
        return order_across_runs(answered, self.store.run_ids(), lambda _: set())

    def taint_across_runs(
        self, source_pages: Iterable[int], through_thread_state: bool = False
    ) -> Dict[int, TaintResult]:
        """:meth:`propagate_taint` in every run of the store.

        A run that never read or wrote any source page cannot taint a
        node or another page (taint only spreads through reads of tainted
        pages), so the cross-run page summary lets those runs be answered
        -- exactly -- without opening their indexes or segments.  Touched
        runs are answered in run-id order (see :attr:`last_taint_mode`).
        """
        sources = list(source_pages)
        answered = {
            run_id: self.propagate_taint(
                sources, through_thread_state=through_thread_state, run=run_id
            )
            for run_id in sorted(self.store.runs_touching_pages(sources))
        }
        return order_across_runs(
            answered, self.store.run_ids(), lambda _: untouched_taint(sources)
        )

    def compare_lineage(self, run_a: int, run_b: int, pages) -> LineageDiff:
        """Diff the lineage of ``pages`` between two runs.

        ``pages`` may be a single page or an iterable of pages.  The result
        partitions the union of both lineages into nodes exclusive to each
        run and nodes common to both -- empty exclusives mean the two
        executions produced those pages through the same history.
        """
        wanted = normalize_pages(pages)
        lineage_a = self.lineage_of_pages(wanted, run=run_a)
        lineage_b = self.lineage_of_pages(wanted, run=run_b)
        return diff_lineage(run_a, run_b, wanted, lineage_a, lineage_b)

    # ------------------------------------------------------------------ #
    # Taint propagation
    # ------------------------------------------------------------------ #

    def propagate_taint(
        self,
        source_pages: Iterable[int],
        through_thread_state: bool = False,
        run: Optional[int] = None,
    ) -> TaintResult:
        """Page-granularity taint propagation, replayed out of core.

        Matches :func:`repro.core.queries.propagate_taint` on the stored
        graph (see the module docstring for why restricting the replay to
        the index-computed closure is exact).  When the closure floods --
        taint reaches a majority of the run's read pages -- the engine
        early-exits to one sequential sweep of the run's segments instead
        of finishing the fixpoint and re-reading segments node by node;
        the replay policy is identical either way, so only the access
        pattern (not the result) changes.
        """
        run_id = self.store.resolve_run(run)
        indexes = self.store.indexes_for(run_id)
        sources = set(source_pages)
        candidates = self._taint_candidates(sources, through_thread_state, indexes)
        if candidates is None:
            self.last_taint_mode = "sweep"
            return self._sweep_taint(sources, through_thread_state, run_id)
        self.last_taint_mode = "indexed"
        order = sorted(candidates, key=indexes.causal_key)
        # The segments the replay needs are known up front from the node
        # index; scan them once and keep only the candidate *node
        # records* -- the replay needs them all anyway, while each
        # payload's edge maps are dropped as the scan moves on, so each
        # segment is decoded at most once per query even when the
        # closure outgrows the cache budget.
        wanted: Dict[int, List[NodeId]] = {}
        for node_id in order:
            wanted.setdefault(indexes.segment_of(node_id), []).append(node_id)
        records: Dict[NodeId, SubComputation] = {}
        for segment_id, payload in self._iter_payloads(list(wanted)):
            for node_id in wanted[segment_id]:
                records[node_id] = payload.nodes[node_id]
        # A quarantined segment drops its nodes from the replay (the scope
        # reports the answer as degraded); every healthy node still plays
        # in the causal order.
        ordered = ((node_id, records[node_id]) for node_id in order if node_id in records)
        return replay_taint(ordered, sources, through_thread_state=through_thread_state)

    def _taint_candidates(
        self, source_pages: Set[int], through_thread_state: bool, indexes: StoreIndexes
    ) -> Optional[Set[NodeId]]:
        """Closed superset of the nodes taint can reach, from indexes alone.

        Expands in rounds of set operations: the readers of the pages new
        in the last round, then the pages the new nodes wrote (the index's
        write map), each minus what was already reached -- work linear in
        the closure, not in the run.  Returns ``None`` when the reached
        read pages flood past :data:`TAINT_FLOOD_FRACTION` of the run's
        read pages -- the signal to sweep sequentially.  That count only
        grows, so the decision is the closure's, whatever the order.
        """
        # Only pages somebody *reads* spread taint further, so the flood
        # metric counts read-pages: write-only pages (e.g. final outputs)
        # grow the result but never the frontier.
        readers = indexes.page_readers
        written = indexes.node_writes
        flood_at = len(readers) * TAINT_FLOOD_FRACTION
        pages = set(source_pages)
        reached = len(pages & readers.keys())
        candidates: Set[NodeId] = set()
        new_pages = pages
        while new_pages:
            if reached > flood_at:
                return None
            new_nodes: Set[NodeId] = set()
            for page in new_pages:
                new_nodes.update(readers.get(page, ()))
            new_nodes -= candidates
            if through_thread_state:
                for tid, index in list(new_nodes):
                    new_nodes.update(indexes.thread_nodes_from(tid, index))
                new_nodes -= candidates
            candidates |= new_nodes
            new_pages = set()
            for node_id in new_nodes:
                new_pages.update(written.get(node_id, ()))
            new_pages -= pages
            pages |= new_pages
            reached += len(new_pages & readers.keys())
        return candidates

    def _sweep_taint(
        self, source_pages: Set[int], through_thread_state: bool, run: int
    ) -> TaintResult:
        """Replay the taint policy over one scan of the run's segments.

        Nodes are sorted by
        :meth:`~repro.store.indexes.StoreIndexes.causal_key` (an index
        lookup, no extra I/O), whatever order the segments hold them in,
        so the replay is the in-memory one.  The scan goes through the
        decoded-segment cache -- on a warm engine the flood fallback costs
        no decode at all -- and each segment is processed exactly once.
        """
        indexes = self.store.indexes_for(run)
        segment_ids = [info.segment_id for info in self.store.manifest.segments_of_run(run)]
        records: Dict[NodeId, SubComputation] = {}
        for _, payload in self._iter_payloads(segment_ids):
            records.update(payload.nodes)
        order = sorted(records, key=indexes.causal_key)
        ordered = ((node_id, records[node_id]) for node_id in order)
        return replay_taint(ordered, source_pages, through_thread_state=through_thread_state)
