"""Baseline gating: provenance regression checks against a blessed run.

The INSPECTOR paper motivates provenance as a longitudinal debugging
oracle -- "did this run's lineage diverge, and why?".  This module turns
that question into a CI-style gate:

* :func:`bless_baseline` snapshots a known-good run's provenance
  fingerprints -- the lineage and taint closure of every page set, plus
  the run's racy pairs -- into a :class:`ProvenanceBaseline`;
* :meth:`ProvenanceBaseline.save` persists the snapshot as JSON under
  ``<store>/index/baselines/<name>.json`` (a name the orphan sweep and
  fsck deliberately ignore: baselines are operator state, not run state);
* :func:`check_against_baseline` replays the same queries against a
  candidate run and reduces the comparison to a :class:`GateReport`
  whose page-level diffs are built on the store's own
  :func:`~repro.store.query.diff_lineage` and
  :func:`~repro.core.queries.find_racy_pairs`.

Racy pairs are found on the stored run itself, which reads only the
segments that hold candidate nodes; the gate never loads a whole run,
and raises :class:`~repro.errors.CorruptSegmentError` rather than give
a verdict on answers that skipped a quarantined segment.

``python -m repro.store check <store> --baseline <run-or-name>`` drives
the report from the command line and exits non-zero on drift, which is
what lets a CI lane fail a build whose provenance silently changed.

Everything here is deterministic and order-independent: page sets are
normalized and sorted, node ids are serialized through
:func:`~repro.core.serialization.node_key` in sorted order, and racy
pairs are canonicalized -- the same run set produces byte-identical
reports no matter the order pages were supplied or runs were ingested
(``tests/property/test_gate_determinism.py`` holds this line).
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.queries import find_racy_pairs
from repro.core.serialization import node_key, parse_node_key
from repro.errors import CorruptSegmentError, StoreError

from repro.store import files
from repro.store.cache import ReadScope
from repro.store.format import (
    BASELINES_DIR,
    INDEX_DIR,
    baseline_file_name,
    parse_baseline_file_name,
)
from repro.store.query import StoreQueryEngine, diff_lineage, normalize_pages
from repro.store.store import ProvenanceStore

#: Baseline document format version (bumped on incompatible changes).
BASELINE_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _pages_key(pages: Tuple[int, ...]) -> str:
    """The canonical dict key of one page set (``"3,7,12"``)."""
    return ",".join(str(page) for page in pages)


def _canonical_page_sets(page_sets: Iterable) -> List[Tuple[int, ...]]:
    """Normalize, sort within, dedupe, and sort across the page sets."""
    canonical = {tuple(sorted(set(normalize_pages(ps)))) for ps in page_sets}
    canonical.discard(())
    return sorted(canonical)


def _canonical_racy_pairs(pairs: Iterable[tuple]) -> List[List]:
    """Serialize racy pairs order-independently.

    Each pair becomes ``[key_a, key_b, [pages...]]`` with the two node
    keys sorted within the pair and the pair list sorted overall, so the
    same set of races always serializes identically regardless of the
    discovery order.
    """
    canonical = set()
    for a, b, pages in pairs:
        first, second = sorted((node_key(a), node_key(b)))
        canonical.add((first, second, tuple(sorted(pages))))
    return [[a, b, list(pages)] for a, b, pages in sorted(canonical)]


def _require_intact(scope: ReadScope, run_id: int) -> None:
    """Raise :class:`CorruptSegmentError` if the gate's queries skipped a damaged segment.

    The store's queries degrade past one; a gate must not bless or judge
    a partial lineage or racy-pair answer (taint reads no segment).
    """
    if scope.quarantined_segments:
        segment_id = min(scope.quarantined_segments)
        raise CorruptSegmentError(
            f"run {run_id} needs quarantined segment {segment_id} for an exact answer",
            segment_id=segment_id,
            quarantined=True,
        )


def baselines_dir(store: ProvenanceStore) -> str:
    """The store's baseline directory (``<store>/index/baselines``)."""
    return os.path.join(store.path, INDEX_DIR, BASELINES_DIR)


@dataclass
class ProvenanceBaseline:
    """A blessed run's provenance fingerprints, one page set at a time.

    Attributes:
        name: Baseline name (also the ``<name>.json`` file name).
        run_id: The blessed run.
        workload: The blessed run's recorded workload name.
        page_sets: The page sets fingerprinted, canonically sorted.
        fingerprints: Page-set key -> ``{"lineage": [node keys],
            "taint_pages": [pages], "taint_nodes": [node keys]}``, every
            list sorted.
        racy_pairs: Canonicalized ``[key_a, key_b, [pages]]`` races of
            the blessed run, or ``None`` when racy-pair fingerprinting
            was skipped at bless time.
        created_at: Wall-clock ISO 8601 bless timestamp (metadata only;
            never part of a comparison).
        meta: Free-form operator metadata.
    """

    name: str
    run_id: int
    workload: str = ""
    page_sets: List[Tuple[int, ...]] = field(default_factory=list)
    fingerprints: Dict[str, dict] = field(default_factory=dict)
    racy_pairs: Optional[List[List]] = None
    created_at: str = ""
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": BASELINE_VERSION,
            "name": self.name,
            "run_id": self.run_id,
            "workload": self.workload,
            "page_sets": [list(pages) for pages in self.page_sets],
            "fingerprints": self.fingerprints,
            "racy_pairs": self.racy_pairs,
            "created_at": self.created_at,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProvenanceBaseline":
        version = int(data.get("version", 0))
        if version > BASELINE_VERSION:
            raise StoreError(
                f"baseline format {version} is newer than this build understands "
                f"({BASELINE_VERSION})"
            )
        return cls(
            name=str(data["name"]),
            run_id=int(data["run_id"]),
            workload=str(data.get("workload", "")),
            page_sets=_canonical_page_sets(data.get("page_sets", [])),
            fingerprints=dict(data.get("fingerprints", {})),
            racy_pairs=(
                None
                if data.get("racy_pairs") is None
                else _canonical_racy_pairs(
                    (parse_node_key(pair[0]), parse_node_key(pair[1]), pair[2])
                    for pair in data["racy_pairs"]
                )
            ),
            created_at=str(data.get("created_at", "")),
            meta=dict(data.get("meta", {})),
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def path_in(self, store: ProvenanceStore) -> str:
        return os.path.join(baselines_dir(store), baseline_file_name(self.name))

    def save(self, store: ProvenanceStore) -> str:
        """Persist under ``index/baselines/<name>.json`` (durable replace)."""
        target = self.path_in(store)
        document = json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
        files.replace(target, document.encode("utf-8"))
        return target

    @classmethod
    def load(cls, store: ProvenanceStore, name: str) -> "ProvenanceBaseline":
        path = os.path.join(baselines_dir(store), baseline_file_name(name))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise StoreError(f"no baseline named {name!r} in {store.path}: {exc}") from exc
        except ValueError as exc:
            raise StoreError(f"baseline {name!r} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @property
    def racy_pair_count(self) -> int:
        return len(self.racy_pairs or ())


def list_baselines(store: ProvenanceStore) -> List[str]:
    """Names of every persisted baseline, sorted."""
    directory = baselines_dir(store)
    if not os.path.isdir(directory):
        return []
    names = (parse_baseline_file_name(file_name) for file_name in os.listdir(directory))
    return sorted(name for name in names if name is not None)


def baseline_runs(store: ProvenanceStore) -> Set[int]:
    """Run ids some persisted baseline blesses (autopilot protects these)."""
    runs: Set[int] = set()
    for name in list_baselines(store):
        try:
            runs.add(ProvenanceBaseline.load(store, name).run_id)
        except StoreError:
            continue  # an unreadable baseline must not break maintenance
    return runs


def bless_baseline(
    store: ProvenanceStore,
    run: Optional[int] = None,
    pages: Optional[Iterable] = None,
    name: Optional[str] = None,
    include_racy: bool = True,
    meta: Optional[dict] = None,
) -> ProvenanceBaseline:
    """Fingerprint one run's provenance into a :class:`ProvenanceBaseline`.

    Args:
        store: The store holding the blessed run.
        run: The run to bless (optional for single-run stores).
        pages: Page sets to fingerprint -- an iterable of pages or page
            iterables.  Defaults to one singleton set per page the run
            touched, which covers the whole run at page granularity.
        name: Baseline name; defaults to ``run-<id>``.
        include_racy: Also record the run's racy pairs (reads the
            segments that hold candidate nodes).
        meta: Free-form metadata stored with the baseline.

    The baseline is *not* persisted; call
    :meth:`ProvenanceBaseline.save` for that.

    Raises:
        CorruptSegmentError: A segment the fingerprints need is
            quarantined or corrupt.
    """
    run_id = store.resolve_run(run)
    if pages is None:
        page_sets = _canonical_page_sets(
            (page,) for page in store.indexes_for(run_id).pages_touched()
        )
    else:
        page_sets = _canonical_page_sets(pages)
    resolved_name = name if name is not None else f"run-{run_id}"
    if not _NAME_RE.match(resolved_name):
        raise StoreError(
            f"baseline name {resolved_name!r} must be alphanumeric with ._- only"
        )
    engine = StoreQueryEngine(store, scope=ReadScope())
    fingerprints: Dict[str, dict] = {}
    for page_set in page_sets:
        lineage = engine.lineage_of_pages(page_set, run=run_id)
        taint = engine.propagate_taint(page_set, run=run_id)
        fingerprints[_pages_key(page_set)] = {
            "lineage": sorted(node_key(node) for node in lineage),
            "taint_pages": sorted(taint.tainted_pages),
            "taint_nodes": sorted(node_key(node) for node in taint.tainted_nodes),
        }
    racy = (
        _canonical_racy_pairs(find_racy_pairs(engine.run_view(run_id)))
        if include_racy
        else None
    )
    _require_intact(engine.scope, run_id)
    run_info = store.manifest.run_info(run_id)
    return ProvenanceBaseline(
        name=resolved_name,
        run_id=run_id,
        workload=run_info.workload,
        page_sets=page_sets,
        fingerprints=fingerprints,
        racy_pairs=racy,
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        meta=dict(meta or {}),
    )


def resolve_baseline(
    store: ProvenanceStore, baseline: Union[str, int, ProvenanceBaseline]
) -> ProvenanceBaseline:
    """Turn ``--baseline <run-or-name>`` into a loaded/computed baseline.

    A :class:`ProvenanceBaseline` passes through.  A name loads the
    persisted snapshot.  A run id (or digit string) first looks for a
    persisted baseline blessing that run, then falls back to blessing the
    run ephemerally -- which is what makes ``check --baseline <run>``
    work with no prior ``bless``.
    """
    if isinstance(baseline, ProvenanceBaseline):
        return baseline
    text = str(baseline)
    if not text.isdigit():
        return ProvenanceBaseline.load(store, text)
    run_id = int(text)
    for name in list_baselines(store):
        try:
            loaded = ProvenanceBaseline.load(store, name)
        except StoreError:
            continue
        if loaded.run_id == run_id:
            return loaded
    return bless_baseline(store, run=run_id)


# ---------------------------------------------------------------------- #
# Checking
# ---------------------------------------------------------------------- #


@dataclass
class PageSetDrift:
    """How one page set's provenance moved against the baseline."""

    pages: Tuple[int, ...]
    only_baseline: List[str] = field(default_factory=list)
    only_candidate: List[str] = field(default_factory=list)
    common: int = 0
    taint_pages_added: List[int] = field(default_factory=list)
    taint_pages_removed: List[int] = field(default_factory=list)
    taint_nodes_added: List[str] = field(default_factory=list)
    taint_nodes_removed: List[str] = field(default_factory=list)

    @property
    def drifted(self) -> bool:
        return bool(
            self.only_baseline
            or self.only_candidate
            or self.taint_pages_added
            or self.taint_pages_removed
            or self.taint_nodes_added
            or self.taint_nodes_removed
        )

    def to_dict(self) -> dict:
        return {
            "pages": list(self.pages),
            "drifted": self.drifted,
            "only_baseline": self.only_baseline,
            "only_candidate": self.only_candidate,
            "common": self.common,
            "taint_pages_added": self.taint_pages_added,
            "taint_pages_removed": self.taint_pages_removed,
            "taint_nodes_added": self.taint_nodes_added,
            "taint_nodes_removed": self.taint_nodes_removed,
        }


@dataclass
class GateReport:
    """The explainable verdict of one ``check_against_baseline`` call."""

    baseline_name: str
    baseline_run: int
    candidate_run: int
    entries: List[PageSetDrift] = field(default_factory=list)
    racy_added: List[List] = field(default_factory=list)
    racy_removed: List[List] = field(default_factory=list)
    racy_checked: bool = False

    @property
    def ok(self) -> bool:
        """Whether the candidate's provenance matches the baseline."""
        return not self.drifted_entries and not self.racy_added and not self.racy_removed

    @property
    def drifted_entries(self) -> List[PageSetDrift]:
        return [entry for entry in self.entries if entry.drifted]

    @property
    def drifted_pages(self) -> List[int]:
        """Every page belonging to a drifted page set, sorted."""
        pages: Set[int] = set()
        for entry in self.drifted_entries:
            pages.update(entry.pages)
        return sorted(pages)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "baseline": self.baseline_name,
            "baseline_run": self.baseline_run,
            "candidate_run": self.candidate_run,
            "page_sets_checked": len(self.entries),
            "drifted_pages": self.drifted_pages,
            "entries": [entry.to_dict() for entry in self.entries if entry.drifted],
            "racy_checked": self.racy_checked,
            "racy_added": self.racy_added,
            "racy_removed": self.racy_removed,
        }

    def explain(self) -> List[str]:
        """Human-readable drift explanation, one line per finding."""
        lines = [
            f"run {self.candidate_run} vs baseline {self.baseline_name!r} "
            f"(run {self.baseline_run}): "
            + ("provenance matches" if self.ok else "provenance DRIFTED")
        ]
        for entry in self.drifted_entries:
            pages = ",".join(str(page) for page in entry.pages)
            lines.append(f"  pages {pages}:")
            if entry.only_baseline:
                lines.append(
                    f"    lineage lost {len(entry.only_baseline)} sub-computation(s): "
                    + ", ".join(entry.only_baseline)
                )
            if entry.only_candidate:
                lines.append(
                    f"    lineage gained {len(entry.only_candidate)} sub-computation(s): "
                    + ", ".join(entry.only_candidate)
                )
            if entry.taint_pages_added or entry.taint_pages_removed:
                lines.append(
                    f"    taint closure now reaches {entry.taint_pages_added} "
                    f"and no longer reaches {entry.taint_pages_removed}"
                )
            if entry.taint_nodes_added or entry.taint_nodes_removed:
                lines.append(
                    f"    tainted sub-computations: +{len(entry.taint_nodes_added)} "
                    f"-{len(entry.taint_nodes_removed)}"
                )
        for pair in self.racy_added:
            lines.append(
                f"  NEW racy pair {pair[0]} <-> {pair[1]} on pages {pair[2]}"
            )
        for pair in self.racy_removed:
            lines.append(
                f"  racy pair gone: {pair[0]} <-> {pair[1]} on pages {pair[2]}"
            )
        return lines


def check_against_baseline(
    store: ProvenanceStore,
    baseline: Union[str, int, ProvenanceBaseline],
    run: Optional[int] = None,
    include_racy: Optional[bool] = None,
) -> GateReport:
    """Gate a candidate run's provenance against a blessed baseline.

    Args:
        store: The store holding the candidate run.
        baseline: A :class:`ProvenanceBaseline`, a persisted baseline
            name, or a blessed run id (see :func:`resolve_baseline`).
        run: Candidate run (default: the store's most recent run).
        include_racy: Compare racy pairs too.  ``None`` (the default)
            compares them exactly when the baseline recorded them.

    Returns a :class:`GateReport`; drift is any page set whose lineage
    or taint closure moved, or any racy pair appearing/disappearing.

    Raises:
        CorruptSegmentError: A segment the candidate's answers need is
            quarantined or corrupt.
    """
    resolved = resolve_baseline(store, baseline)
    run_ids = store.run_ids()
    candidate = store.resolve_run(run if run is not None else (run_ids[-1] if run_ids else None))
    engine = StoreQueryEngine(store, scope=ReadScope())
    report = GateReport(
        baseline_name=resolved.name,
        baseline_run=resolved.run_id,
        candidate_run=candidate,
    )
    for page_set in resolved.page_sets:
        recorded = resolved.fingerprints.get(_pages_key(page_set))
        if recorded is None:
            raise StoreError(
                f"baseline {resolved.name!r} has no fingerprint for pages "
                f"{_pages_key(page_set)}"
            )
        blessed_lineage = {parse_node_key(key) for key in recorded["lineage"]}
        candidate_lineage = engine.lineage_of_pages(page_set, run=candidate)
        diff = diff_lineage(
            resolved.run_id, candidate, page_set, blessed_lineage, candidate_lineage
        )
        taint = engine.propagate_taint(page_set, run=candidate)
        blessed_taint_pages = set(recorded["taint_pages"])
        blessed_taint_nodes = set(recorded["taint_nodes"])
        candidate_taint_nodes = {node_key(node) for node in taint.tainted_nodes}
        report.entries.append(
            PageSetDrift(
                pages=page_set,
                only_baseline=sorted(node_key(node) for node in diff.only_a),
                only_candidate=sorted(node_key(node) for node in diff.only_b),
                common=len(diff.common),
                taint_pages_added=sorted(taint.tainted_pages - blessed_taint_pages),
                taint_pages_removed=sorted(blessed_taint_pages - taint.tainted_pages),
                taint_nodes_added=sorted(candidate_taint_nodes - blessed_taint_nodes),
                taint_nodes_removed=sorted(blessed_taint_nodes - candidate_taint_nodes),
            )
        )
    compare_racy = (
        resolved.racy_pairs is not None if include_racy is None else include_racy
    )
    if compare_racy:
        if resolved.racy_pairs is None:
            raise StoreError(
                f"baseline {resolved.name!r} recorded no racy pairs; "
                f"re-bless it without --no-racy to gate on races"
            )
        candidate_racy = _canonical_racy_pairs(find_racy_pairs(engine.run_view(candidate)))
        blessed = {tuple(pair[:2]) + (tuple(pair[2]),) for pair in resolved.racy_pairs}
        observed = {tuple(pair[:2]) + (tuple(pair[2]),) for pair in candidate_racy}
        report.racy_checked = True
        report.racy_added = [
            [a, b, list(pages)] for a, b, pages in sorted(observed - blessed)
        ]
        report.racy_removed = [
            [a, b, list(pages)] for a, b, pages in sorted(blessed - observed)
        ]
    _require_intact(engine.scope, candidate)
    return report
