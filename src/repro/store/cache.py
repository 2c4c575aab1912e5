"""The hot read path: decoded-segment cache and pinned index generations.

Every store query pays the same two costs before it can answer: decoding
segment files into :class:`~repro.store.segment.SegmentPayload` objects,
and merging a run's index base + delta generations into a
:class:`~repro.store.indexes.StoreIndexes`.  The write path makes both
cheap to *produce*; this module makes them cheap to *reuse*, the
same way LSM stores reuse work through block caches and pinned
filter/index blocks:

* :class:`SegmentCache` -- a byte-budgeted, thread-safe LRU of decoded
  segments.  Entries are charged an estimated resident size (not the
  on-disk size: a decoded binary segment is several times larger than its
  file), the total never exceeds the budget, and hit/miss/eviction
  counters make the cache observable.  One cache can back any number of
  store handles -- the warm server shares one across snapshot reopens.
  Cold misses are **single-flight** (:meth:`SegmentCache.begin_fill`): N
  concurrent queries missing the same segment collapse to one decode, the
  rest blocking on the owner's result instead of thundering the disk.
* :class:`IndexPinner` -- keeps merged per-run index generations resident
  across store opens, keyed by the exact ``(base, deltas)`` generations
  the manifest names, so repeated queries (or a server re-opening its
  snapshot) stop re-merging delta files that have not changed.

**Invalidation.**  Cache keys carry the owning store's path and its
in-memory *manifest generation*, which :meth:`ProvenanceStore.compact` and
:meth:`~repro.store.store.ProvenanceStore.gc` bump (dropping the store's
entries wholesale).  Segment ids and index generations are minted from
monotonic counters and **never reused** -- the store's recovery
invariant -- so a key can never silently name different bytes; the
generation bump is what promptly releases the memory of superseded
entries and guards against any future id reuse serving stale data.

Sharing a cache or pinner between store handles is for **read-only**
serving (the query engine, the server): ingesting into a run whose
indexes are pinned would mutate state other snapshots see.  That is the
same single-writer stance the store already takes for maintenance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import StoreError
from repro.store.indexes import StoreIndexes
from repro.store.segment import SegmentPayload

#: Default byte budget of a store's decoded-segment cache.  Sized so the
#: benchmark workloads stay fully resident while a runaway store cannot
#: hold gigabytes of decoded payloads hostage.
DEFAULT_CACHE_BYTES = 48 * 1024 * 1024

# Per-record constants of the resident-size estimate, in bytes.
# Deliberately a model, not sys.getsizeof spelunking: the estimate must be
# deterministic across interpreters so the "never exceeds its budget"
# invariant is testable.  The constants are fitted to tracemalloc's count
# of what a decoded segment keeps alive (CPython 3.11, 64-bit, eight
# registry runs at small and medium size): the estimate came within 10% of
# the measured size per run and within 0.7-1.3x per segment, so the byte
# budget bounds real memory.  Under CPython 3.9 and 3.12 it reads 0.76-1.08x
# on kmeans-4 and canneal-4 small.
_PAYLOAD_BASE_COST = 1024
#: A sub-computation record: object, field dict, empty sets and lists.
_NODE_COST = 300
#: One page id in a read or write set.
_PAGE_COST = 40
#: One vector-clock component (a dict entry, often with its own int).
_CLOCK_COMPONENT_COST = 45
#: One thunk, with its branch record.
_THUNK_COST = 290
#: One edge tuple with its node-id tuples, attribute dict, and its slots
#: in the by-source and by-target groupings.
_EDGE_COST = 600
#: One page of a data edge's page set.
_EDGE_PAGE_COST = 90


def estimate_payload_cost(payload: SegmentPayload) -> int:
    """Estimated resident bytes of one decoded segment payload.

    Counts every record that grows with the run: sub-computations with
    their read/write page sets, vector-clock components and thunks, and
    edges with the pages of their data-edge attributes.
    """
    cost = _PAYLOAD_BASE_COST
    for node in payload.nodes.values():
        cost += (
            _NODE_COST
            + _PAGE_COST * (len(node.read_set) + len(node.write_set))
            + _CLOCK_COMPONENT_COST * len(node.clock.threads())
            + _THUNK_COST * len(node.thunks)
        )
    for edge in payload.edges:
        cost += _EDGE_COST + _EDGE_PAGE_COST * len(edge[3].get("pages", ()))
    return cost


@dataclass
class CacheStats:
    """Observable counters of one :class:`SegmentCache`.

    Attributes:
        hits: Lookups served from memory.
        misses: Lookups that fell through to disk + decode.
        evictions: Entries dropped to stay within the budget.
        inserts: Entries admitted into the cache.
        oversize: Payloads never admitted because their estimated cost
            alone exceeds the byte budget.
        invalidations: Entries dropped by explicit invalidation
            (``compact``/``gc``/``clear_cache``), not by pressure.
        coalesced: Lookups that joined another caller's in-flight decode
            of the same segment instead of decoding it again
            (single-flight; also counted in ``hits``).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    oversize: int = 0
    invalidations: int = 0
    coalesced: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory (0.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
            "inserts": self.inserts,
            "oversize": self.oversize,
            "invalidations": self.invalidations,
            "coalesced": self.coalesced,
        }


#: Cache key: (store namespace, manifest generation, segment id).
_CacheKey = Tuple[str, int, int]


class _InFlightFill:
    """Shared state of one in-progress cold-segment decode."""

    __slots__ = ("event", "payload", "error", "cancelled")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[SegmentPayload] = None
        self.error: Optional[BaseException] = None
        #: Set by :meth:`SegmentCache.invalidate` while the fill is in
        #: flight: the result is still delivered to waiters (segment ids
        #: are never reused, so the bytes are not stale), but it is not
        #: admitted into the cache the invalidation just cleared.
        self.cancelled = False


class FillHandle:
    """One caller's ticket into a single-flight segment fill.

    Returned by :meth:`SegmentCache.begin_fill`; ``status`` says which of
    three roles the caller drew:

    * ``"hit"`` -- the payload was cached; it is in :attr:`payload`.
    * ``"owner"`` -- nobody is decoding this segment: the caller must
      decode it and call :meth:`complete` (or :meth:`fail` on error --
      **always** one of the two, or waiters block forever).
    * ``"waiter"`` -- another thread is already decoding: call
      :meth:`wait` for its result.
    """

    __slots__ = ("status", "payload", "_cache", "_key", "_fill")

    def __init__(
        self,
        cache: "SegmentCache",
        key: _CacheKey,
        status: str,
        payload: Optional[SegmentPayload] = None,
        fill: Optional[_InFlightFill] = None,
    ) -> None:
        self._cache = cache
        self._key = key
        self.status = status
        self.payload = payload
        self._fill = fill

    def complete(self, payload: SegmentPayload) -> None:
        """Owner only: publish the decoded payload and wake every waiter."""
        self._cache._finish_fill(self._key, self._fill, payload=payload)
        self.payload = payload

    def fail(self, error: BaseException) -> None:
        """Owner only: propagate the decode error to every waiter."""
        self._cache._finish_fill(self._key, self._fill, error=error)

    def wait(self, timeout: Optional[float] = None) -> SegmentPayload:
        """Waiter only: block for the owner's result (re-raising its error)."""
        if not self._fill.event.wait(timeout):
            raise StoreError(
                f"timed out waiting for in-flight decode of segment {self._key[2]}"
            )
        if self._fill.error is not None:
            raise self._fill.error
        return self._fill.payload


class SegmentCache:
    """Byte-budgeted, thread-safe LRU over decoded segment payloads.

    Args:
        max_bytes: Budget over the *estimated resident size* of the cached
            payloads (:func:`estimate_payload_cost`).  The invariant is
            hard: the total charged cost never exceeds the budget, and a
            payload whose cost alone is above it is simply not admitted
            (counted in ``stats.oversize``) -- callers always get their
            payload back either way.
        max_entries: Optional additional entry-count bound (the pre-cache
            store behaviour of "at most N decoded segments"); ``None``
            leaves the byte budget as the only limit.
    """

    def __init__(
        self, max_bytes: int = DEFAULT_CACHE_BYTES, max_entries: Optional[int] = None
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._max_bytes = max_bytes
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[_CacheKey, Tuple[SegmentPayload, int]]" = OrderedDict()
        self._fills: Dict[_CacheKey, _InFlightFill] = {}
        self._total_bytes = 0
        self._peak_bytes = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Configuration / introspection
    # ------------------------------------------------------------------ #

    @property
    def max_bytes(self) -> int:
        """The byte budget (shrinking it evicts immediately)."""
        return self._max_bytes

    @max_bytes.setter
    def max_bytes(self, value: int) -> None:
        if value <= 0:
            raise ValueError(f"max_bytes must be positive, got {value}")
        with self._lock:
            self._max_bytes = value
            self._evict_locked()

    @property
    def max_entries(self) -> Optional[int]:
        """The optional entry-count bound (shrinking it evicts immediately)."""
        return self._max_entries

    @max_entries.setter
    def max_entries(self, value: Optional[int]) -> None:
        if value is not None and value < 0:
            raise ValueError(f"max_entries must be non-negative or None, got {value}")
        with self._lock:
            self._max_entries = value
            self._evict_locked()

    @property
    def total_bytes(self) -> int:
        """Estimated resident bytes currently charged to the cache."""
        return self._total_bytes

    @property
    def peak_bytes(self) -> int:
        """Largest ``total_bytes`` ever observed (the budget-invariant probe)."""
        return self._peak_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def to_dict(self) -> dict:
        """Configuration + counters, for ``info --stats`` and the server."""
        return {
            "max_bytes": self._max_bytes,
            "max_entries": self._max_entries,
            "entries": len(self._entries),
            "total_bytes": self._total_bytes,
            "peak_bytes": self._peak_bytes,
            **self.stats.to_dict(),
        }

    # ------------------------------------------------------------------ #
    # Lookup / admission
    # ------------------------------------------------------------------ #

    def get(self, namespace: str, generation: int, segment_id: int) -> Optional[SegmentPayload]:
        """Return the cached payload (refreshing recency) or ``None``."""
        key = (namespace, generation, segment_id)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def peek(self, namespace: str, generation: int, segment_id: int) -> Optional[SegmentPayload]:
        """Like :meth:`get` but touching neither recency nor the counters.

        The streaming-compaction read path uses this: it must not evict
        the cache's working set, and its one-shot reads should not skew
        the hit rate the server reports.
        """
        with self._lock:
            entry = self._entries.get((namespace, generation, segment_id))
            return entry[0] if entry is not None else None

    def put(
        self, namespace: str, generation: int, segment_id: int, payload: SegmentPayload
    ) -> None:
        """Admit one decoded payload (evicting LRU entries to fit)."""
        with self._lock:
            self._admit_locked((namespace, generation, segment_id), payload)

    def _admit_locked(self, key: _CacheKey, payload: SegmentPayload) -> None:
        cost = estimate_payload_cost(payload)
        if cost > self._max_bytes:
            self.stats.oversize += 1
            return
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._total_bytes -= previous[1]
        self._entries[key] = (payload, cost)
        self._total_bytes += cost
        self.stats.inserts += 1
        self._evict_locked()
        self._peak_bytes = max(self._peak_bytes, self._total_bytes)

    # ------------------------------------------------------------------ #
    # Single-flight fills
    # ------------------------------------------------------------------ #

    def begin_fill(self, namespace: str, generation: int, segment_id: int) -> FillHandle:
        """Claim (or join) the decode of one possibly-cold segment.

        The single-flight miss protocol: a cached payload comes back as a
        ``"hit"`` handle; the first caller to miss becomes the ``"owner"``
        (counted as a miss) and must decode + :meth:`FillHandle.complete`;
        every concurrent caller missing the same key becomes a
        ``"waiter"`` (counted as a hit, plus ``stats.coalesced``) and
        blocks in :meth:`FillHandle.wait` instead of decoding the same
        bytes again.
        """
        key = (namespace, generation, segment_id)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return FillHandle(self, key, "hit", payload=entry[0])
            fill = self._fills.get(key)
            if fill is not None:
                self.stats.hits += 1
                self.stats.coalesced += 1
                return FillHandle(self, key, "waiter", fill=fill)
            fill = _InFlightFill()
            self._fills[key] = fill
            self.stats.misses += 1
            return FillHandle(self, key, "owner", fill=fill)

    def _finish_fill(
        self,
        key: _CacheKey,
        fill: _InFlightFill,
        payload: Optional[SegmentPayload] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            if self._fills.get(key) is fill:
                del self._fills[key]
            if payload is not None and not fill.cancelled:
                self._admit_locked(key, payload)
            fill.payload = payload
            fill.error = error
        fill.event.set()

    def _evict_locked(self) -> None:
        while self._entries and (
            self._total_bytes > self._max_bytes
            or (self._max_entries is not None and len(self._entries) > self._max_entries)
        ):
            _, (_, cost) = self._entries.popitem(last=False)
            self._total_bytes -= cost
            self.stats.evictions += 1

    # ------------------------------------------------------------------ #
    # Invalidation
    # ------------------------------------------------------------------ #

    def invalidate(self, namespace: str) -> int:
        """Drop one store's entries (all generations); returns entries dropped.

        Called by the generation bump of ``compact``/``gc``, by
        ``clear_cache``, and by a server refresh that detected a
        recreated store directory.
        """
        dropped = 0
        with self._lock:
            for key in [k for k in self._entries if k[0] == namespace]:
                _, cost = self._entries.pop(key)
                self._total_bytes -= cost
                dropped += 1
            self.stats.invalidations += dropped
            # In-flight fills keep serving their waiters (segment ids are
            # never reused, so the decoded bytes are not stale), but their
            # results must not be admitted into the cache this
            # invalidation just cleared.
            for key, fill in self._fills.items():
                if key[0] == namespace:
                    fill.cancelled = True
        return dropped

    def cached_segments(self, namespace: str, generation: int) -> Dict[int, SegmentPayload]:
        """Snapshot of one store generation's cached payloads, by segment id."""
        with self._lock:
            return {
                key[2]: payload
                for key, (payload, _) in self._entries.items()
                if key[0] == namespace and key[1] == generation
            }


# ---------------------------------------------------------------------- #
# Pinned index generations
# ---------------------------------------------------------------------- #


@dataclass
class PinnerStats:
    """Observable counters of one :class:`IndexPinner`.

    Attributes:
        hits: Run-index loads served from a pinned generation (each one a
            base+delta merge, or a rebuild, that did not happen).
        misses: Loads that had to merge from disk.
        pins: Index generations admitted.
        evictions: Pins dropped for the entry bound.
        invalidations: Pins dropped explicitly (maintenance).
    """

    hits: int = 0
    misses: int = 0
    pins: int = 0
    evictions: int = 0
    invalidations: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "pins": self.pins,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


#: Pin key: (namespace, run id, base generation, delta generations, nodes).
_PinKey = Tuple[str, int, int, Tuple[int, ...], int]


class IndexPinner:
    """Keeps merged per-run index generations resident across store opens.

    A pin is keyed by the *exact* generation state the manifest names for
    the run -- ``(index_base, index_deltas, nodes)`` -- so a flush that
    appends a delta, a compaction that folds a base, or any rebuild makes
    the old pin unreachable by construction; the pinned
    :class:`StoreIndexes` is only ever returned for the generation it was
    merged from.  Pinned indexes are shared objects and therefore strictly
    read-only: only the read path (queries, the server) should pin.

    Args:
        max_runs: LRU bound on pinned runs (``None`` = unbounded; a
            server typically pins every run of its store).
    """

    def __init__(self, max_runs: Optional[int] = None) -> None:
        self._max_runs = max_runs
        self._lock = threading.Lock()
        self._pins: "OrderedDict[_PinKey, StoreIndexes]" = OrderedDict()
        self.stats = PinnerStats()

    def __len__(self) -> int:
        return len(self._pins)

    def get(
        self,
        namespace: str,
        run_id: int,
        base: int,
        deltas: Iterable[int],
        nodes: int,
    ) -> Optional[StoreIndexes]:
        """Return the pinned indexes for this exact generation, or ``None``."""
        key = (namespace, run_id, base, tuple(deltas), nodes)
        with self._lock:
            pinned = self._pins.get(key)
            if pinned is None:
                self.stats.misses += 1
                return None
            self._pins.move_to_end(key)
            self.stats.hits += 1
            return pinned

    def put(
        self,
        namespace: str,
        run_id: int,
        base: int,
        deltas: Iterable[int],
        nodes: int,
        indexes: StoreIndexes,
    ) -> None:
        """Pin one merged generation (superseding any older pin of the run)."""
        key = (namespace, run_id, base, tuple(deltas), nodes)
        with self._lock:
            # One pin per run: an older generation of the same run is
            # unreachable anyway, so drop it rather than letting it age out.
            for stale in [
                k for k in self._pins if k[0] == namespace and k[1] == run_id and k != key
            ]:
                del self._pins[stale]
                self.stats.invalidations += 1
            self._pins[key] = indexes
            self._pins.move_to_end(key)
            self.stats.pins += 1
            while self._max_runs is not None and len(self._pins) > self._max_runs:
                self._pins.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self, namespace: str, run_id: Optional[int] = None) -> int:
        """Drop a store's pins (or one run's); returns pins dropped."""
        dropped = 0
        with self._lock:
            for key in [
                k
                for k in self._pins
                if k[0] == namespace and (run_id is None or k[1] == run_id)
            ]:
                del self._pins[key]
                dropped += 1
            self.stats.invalidations += dropped
        return dropped

    def to_dict(self) -> dict:
        """Configuration + counters, for ``info --stats`` and the server."""
        return {
            "max_runs": self._max_runs,
            "pinned_runs": len(self._pins),
            **self.stats.to_dict(),
        }


# ---------------------------------------------------------------------- #
# Per-query read accounting
# ---------------------------------------------------------------------- #


@dataclass
class ReadScope:
    """Read accounting for one logical query (thread-safe).

    The store's :class:`~repro.store.store.StoreReadStats` is global to a
    store handle; a server answering many concurrent queries over one
    warm handle needs *per-query* numbers.  A scope is passed down the
    query engine's segment reads and collects exactly the work done on
    behalf of one query.
    """

    segments_read: int = 0
    bytes_read: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Snapshot refreshes this query triggered (``follow`` mode readers
    #: picking up newly logged segments before answering).
    snapshot_refreshes: int = 0
    #: Whether the answer was computed without some of its segments --
    #: quarantined ones a query skipped rather than aborting, the
    #: store-level analogue of the cluster's ``missing_shards``.
    degraded: bool = False
    #: The quarantined segment ids the query skipped.
    quarantined_segments: Set[int] = field(default_factory=set)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_hit(self, count: int = 1) -> None:
        with self._lock:
            self.cache_hits += count

    def record_miss(self, data_bytes: int) -> None:
        with self._lock:
            self.cache_misses += 1
            self.segments_read += 1
            self.bytes_read += data_bytes

    def record_refresh(self) -> None:
        with self._lock:
            self.snapshot_refreshes += 1

    def record_quarantined(self, segment_ids: Iterable[int]) -> None:
        """Mark the answer degraded: these segments were skipped as damaged."""
        with self._lock:
            added = {int(segment_id) for segment_id in segment_ids}
            if added:
                self.quarantined_segments |= added
                self.degraded = True

    def absorb(self, stats: dict) -> None:
        """Fold another scope's counters into this one.

        ``stats`` is a :meth:`to_dict`-shaped mapping -- typically the
        per-query ``stats`` object a store server attached to a response.
        A cluster router folds every shard's numbers into one scope so a
        scatter-gathered query reports cluster-wide read accounting in
        the same shape a single-store query does; unknown keys are
        ignored so older servers stay absorbable.
        """
        with self._lock:
            self.segments_read += int(stats.get("segments_read", 0))
            self.bytes_read += int(stats.get("bytes_read", 0))
            self.cache_hits += int(stats.get("cache_hits", 0))
            self.cache_misses += int(stats.get("cache_misses", 0))
            self.snapshot_refreshes += int(stats.get("snapshot_refreshes", 0))
            self.quarantined_segments |= {
                int(segment_id) for segment_id in stats.get("quarantined_segments", ())
            }
            self.degraded = self.degraded or bool(stats.get("degraded", False))

    def to_dict(self) -> dict:
        return {
            "segments_read": self.segments_read,
            "bytes_read": self.bytes_read,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "snapshot_refreshes": self.snapshot_refreshes,
            "degraded": self.degraded,
            "quarantined_segments": sorted(self.quarantined_segments),
        }
