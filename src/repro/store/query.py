"""Out-of-core provenance queries over a persistent store.

:class:`StoreQueryEngine` answers the same questions as
:mod:`repro.core.queries` -- backward/forward slices, page lineage, taint
propagation, racy pairs -- against a
:class:`~repro.store.store.ProvenanceStore`, loading only the segments the
secondary indexes select instead of materializing the whole graph.  It
does so by running the very same functions: :class:`StoredRun` is a
stored run as a *run view* (the protocol :mod:`repro.core.queries`
documents), and each engine query is one call on
:meth:`StoreQueryEngine.run_view`.  The algorithms exist once; only how a
view reaches a node's edges and records differs.

Every query is answered **within one run** (node ids are only unique per
run); the ``run`` argument defaults to the store's only run and must be
given explicitly on multi-run stores.  Cross-run questions have their own
entry points: the ``*_across_runs`` methods fan one query out over every
run, and :meth:`StoreQueryEngine.compare_lineage` diffs the lineage of a
page between two runs -- the longitudinal "what changed between yesterday's
run and today's" query the multi-run store exists for.

A stored run's page maps, read and write maps, causal order and thread
lists are its :class:`~repro.store.indexes.StoreIndexes`, all in memory.
Taint needs nothing else: it replays over the candidate closure
(:func:`~repro.core.queries.taint_candidates`), or over every node when
the closure floods, in the cached causal order, and reads no segment.
Its ``neighbours`` walk the edge-segment index (node -> segments holding
its in-/out-edges), so a slice or lineage confined to one corner of the
graph touches only the segments of that corner.  Its ``records`` read
each needed segment once; racy pairs read only the segments that hold
candidate nodes.

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

from repro.core import queries
from repro.core.cpg import EdgeKind
from repro.core.queries import TAINT_FLOOD_FRACTION, TaintResult  # noqa: F401 (re-exported)
from repro.core.thunk import NodeId, SubComputation
from repro.errors import CorruptSegmentError

from repro.store.cache import ReadScope
from repro.store.store import ProvenanceStore


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


class StoredRun:
    """One stored run as a run view (see :mod:`repro.core.queries`).

    The page maps, read and write maps, causal order and thread lists are
    the run's :class:`~repro.store.indexes.StoreIndexes`, so taint reads
    no segment and never degrades.  Edges and node records come from the
    run's segments, read through the store's decoded-segment cache.
    Set-valued answers degrade instead of aborting: a quarantined or
    corrupt segment is skipped, the skip is recorded in ``scope``
    (``degraded`` / ``quarantined_segments``), and the rest of the answer
    comes from the healthy segments -- the single-store analogue of the
    cluster's partial fan-out with its ``missing_shards``.

    A view lives for one query.  ``neighbours`` keeps each segment's edge
    map for the view's life, so a walk asks the cache once per distinct
    segment, not once per visited node.  It keeps edge maps, not payloads,
    so node records stay under the cache's byte budget.

    Args:
        store: The store holding the run.
        run: The run id (already resolved).
        scope: Optional per-query read accounting.
    """

    def __init__(self, store: ProvenanceStore, run: int, scope: Optional[ReadScope] = None) -> None:
        self.store = store
        self.run = run
        self.scope = scope
        self.indexes = store.indexes_for(run)
        self.page_writers = self.indexes.page_writers
        self.page_readers = self.indexes.page_readers
        self.node_reads = self.indexes.node_reads
        self.node_writes = self.indexes.node_writes
        self.causal_order = self.indexes.causal_order
        self.thread_nodes_from = self.indexes.thread_nodes_from
        #: ``(segment id, forward)`` -> the segment's edges grouped by
        #: source (``forward``) or target; ``None`` when it is damaged.
        self._edge_maps: Dict[Tuple[int, bool], Optional[Dict[NodeId, list]]] = {}

    def check_nodes(self, node_ids: Iterable[NodeId]) -> None:
        """Raise :class:`~repro.errors.StoreError` for the first unknown id."""
        for node_id in node_ids:
            self.indexes.segment_of(node_id)

    def _segment_or_none(self, segment_id: int):
        """One segment's payload, or ``None`` (recorded in the scope) when it is damaged."""
        try:
            return self.store.segment(segment_id, scope=self.scope)
        except CorruptSegmentError as exc:
            if self.scope is not None:
                self.scope.record_quarantined(
                    (segment_id if exc.segment_id is None else exc.segment_id,)
                )
            return None

    def neighbours(
        self, node_id: NodeId, forward: bool, kinds: Optional[Iterable[EdgeKind]] = None
    ) -> List[NodeId]:
        """Nodes across ``node_id``'s out-edges (``forward``) or in-edges of ``kinds``."""
        segments = self.indexes.out_segments(node_id) if forward else self.indexes.in_segments(node_id)
        edge_maps = self._edge_maps
        found: List[NodeId] = []
        for segment_id in segments:
            try:
                grouped = edge_maps[segment_id, forward]
            except KeyError:
                payload = self._segment_or_none(segment_id)
                if payload is None:
                    grouped = None
                else:
                    grouped = payload.edges_by_source if forward else payload.edges_by_target
                edge_maps[segment_id, forward] = grouped
            if grouped is None:
                continue
            for source, target, kind, _ in grouped.get(node_id, ()):
                if kinds is None or kind in kinds:
                    found.append(target if forward else source)
        return found

    def records(self, node_ids: Optional[Iterable[NodeId]] = None) -> Dict[NodeId, SubComputation]:
        """Node id -> sub-computation for ``node_ids`` (every node when ``None``).

        Each segment is read once, and only the wanted records are kept,
        so a query decodes each segment at most once even when its nodes
        outgrow the cache budget.  A quarantined segment's nodes are left
        out.
        """
        wanted: Dict[int, Optional[List[NodeId]]]
        if node_ids is None:
            wanted = dict.fromkeys(info.segment_id for info in self.store.manifest.segments_of_run(self.run))
        else:
            wanted = {}
            for node_id in node_ids:
                wanted.setdefault(self.indexes.segment_of(node_id), []).append(node_id)
        found: Dict[NodeId, SubComputation] = {}
        for segment_id, ids in wanted.items():
            payload = self._segment_or_none(segment_id)
            if payload is not None:
                found.update(payload.nodes if ids is None else {n: payload.nodes[n] for n in ids})
        return found


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
        #: How the last ``propagate_taint`` ran: ``"indexed"`` (over the
        #: candidate closure) or ``"sweep"`` (over every node, once the
        #: closure floods).  ``taint_across_runs`` answers touched runs in
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

    def run_view(self, run: Optional[int] = None) -> StoredRun:
        """``run`` as a run view for :mod:`repro.core.queries`, reading through this engine's scope."""
        return StoredRun(self.store, self.store.resolve_run(run), self.scope)

    def subcomputation(self, node_id: NodeId, run: Optional[int] = None) -> SubComputation:
        """Load the sub-computation stored at ``node_id`` of ``run`` (a damaged segment raises)."""
        segment_id = self.store.indexes_for(run).segment_of(node_id)
        return self.store.segment(segment_id, scope=self.scope).nodes[node_id]

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
        return queries.backward_slice(self.run_view(run), node_id, kinds, include_start)

    def forward_slice(
        self,
        node_id: NodeId,
        kinds: Sequence[EdgeKind] = (EdgeKind.DATA,),
        include_start: bool = True,
        run: Optional[int] = None,
    ) -> Set[NodeId]:
        """Every sub-computation transitively influenced by ``node_id`` (in ``run``)."""
        return queries.forward_slice(self.run_view(run), node_id, kinds, include_start)

    def lineage_of_pages(self, pages: Iterable[int], run: Optional[int] = None) -> Set[NodeId]:
        """Writers of ``pages`` plus everything they depend on through data edges."""
        return queries.lineage_of_pages(self.run_view(run), pages)

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
        """Page-granularity taint propagation, replayed from the run's indexes.

        :func:`repro.core.queries.propagate_taint` on the stored run: the
        replay goes over the candidate closure, or over every node when
        the closure floods (see :attr:`last_taint_mode`), and reads no
        segment either way.
        """
        result = queries.propagate_taint(self.run_view(run), source_pages, through_thread_state)
        self.last_taint_mode = "sweep" if result.flooded else "indexed"
        return result
