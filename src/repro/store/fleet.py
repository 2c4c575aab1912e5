"""Run-fleet generation and population-level drift detection.

The gate (:mod:`repro.store.gate`) and autopilot
(:mod:`repro.store.autopilot`) only earn their keep against a store with
*many* runs; this module manufactures them.  :func:`run_fleet` replays
randomized-but-deterministic workload variants through the ordinary
tracing pipeline (:func:`repro.inspector.api.run_with_provenance`) into
one store, at configurable concurrency, through either sink:

* **local** -- a shared :class:`~repro.store.store.ProvenanceStore`
  handle.  Because concurrent sinks on one handle would race its
  manifest, a fleet with ``concurrency > 1`` transparently stands up a
  loopback writable :class:`~repro.store.server.StoreServer` and streams
  through it (the server's write lock serializes epochs); a
  ``concurrency == 1`` fleet writes the handle directly.
* **remote** -- any ``host:port`` of a writable server
  (:class:`~repro.store.sink.RemoteStoreSink` under the hood), which is
  how a soak hammers a live deployment.

Variants are drawn from a seeded RNG (:attr:`FleetSpec.fleet_seed`), so
the same spec always produces the same fleet -- the property tests lean
on that, and so does :func:`drift_report`, the population-level
counterpart of the single-run gate: it fingerprints every run of two
groups page by page and reports the pages whose lineage-signature *sets*
differ between the populations, which catches "one config in group B
computes this page differently" without blessing any individual run.
"""

from __future__ import annotations

import hashlib
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.serialization import node_key
from repro.errors import StoreError

from repro.store.query import StoreQueryEngine
from repro.store.store import ProvenanceStore


@dataclass
class FleetSpec:
    """What a fleet looks like: which variants, how many, how parallel.

    Attributes:
        workloads: Workload names variants are drawn from.
        runs: Total runs to ingest.
        concurrency: Worker threads replaying variants.
        size: Dataset size of every variant.
        threads: Traced thread counts variants are drawn from.
        seeds: Dataset seeds variants are drawn from (a single entry
            makes every variant of a workload provenance-identical --
            the "clean population" shape the drift tests start from).
        fleet_seed: Seed of the RNG that assigns variants, so the same
            spec always plans the same fleet.
        run_meta: Extra metadata recorded with every run (each run also
            gets ``fleet_variant``/``fleet_seed``/``fleet_threads``).
    """

    workloads: Tuple[str, ...] = ("histogram", "word_count")
    runs: int = 8
    concurrency: int = 2
    size: str = "small"
    threads: Tuple[int, ...] = (2,)
    seeds: Tuple[int, ...] = (42,)
    fleet_seed: int = 1234
    run_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise StoreError(f"a fleet needs at least one run, got {self.runs}")
        if self.concurrency < 1:
            raise StoreError(f"concurrency must be >= 1, got {self.concurrency}")
        if not self.workloads:
            raise StoreError("a fleet needs at least one workload")
        if not self.threads or not self.seeds:
            raise StoreError("a fleet needs at least one thread count and one seed")

    def plan(self) -> List["FleetVariant"]:
        """The deterministic variant list this spec expands to."""
        rng = random.Random(self.fleet_seed)
        return [
            FleetVariant(
                variant=index,
                workload=rng.choice(self.workloads),
                threads=rng.choice(self.threads),
                seed=rng.choice(self.seeds),
            )
            for index in range(self.runs)
        ]


@dataclass
class FleetVariant:
    """One planned fleet member (before it has run)."""

    variant: int
    workload: str
    threads: int
    seed: int


@dataclass
class FleetRun:
    """One fleet member's outcome."""

    variant: int
    workload: str
    threads: int
    seed: int
    run_id: Optional[int] = None
    elapsed_s: float = 0.0
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "workload": self.workload,
            "threads": self.threads,
            "seed": self.seed,
            "run_id": self.run_id,
            "elapsed_s": round(self.elapsed_s, 6),
            "error": self.error,
        }


@dataclass
class FleetResult:
    """Everything a finished fleet ingested (and anything that failed)."""

    runs: List[FleetRun] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def run_ids(self) -> List[int]:
        """Minted run ids of the successful members, variant order."""
        return [run.run_id for run in self.runs if run.run_id is not None]

    @property
    def errors(self) -> List[FleetRun]:
        return [run for run in self.runs if run.error is not None]

    @property
    def runs_per_s(self) -> float:
        succeeded = len(self.run_ids)
        return succeeded / self.elapsed_s if self.elapsed_s else 0.0

    def by_workload(self) -> Dict[str, List[int]]:
        grouped: Dict[str, List[int]] = {}
        for run in self.runs:
            if run.run_id is not None:
                grouped.setdefault(run.workload, []).append(run.run_id)
        return grouped

    def to_dict(self) -> dict:
        return {
            "runs": [run.to_dict() for run in self.runs],
            "run_ids": self.run_ids,
            "errors": len(self.errors),
            "elapsed_s": round(self.elapsed_s, 6),
            "runs_per_s": round(self.runs_per_s, 3),
        }


def run_fleet(
    spec: FleetSpec,
    store_path: Optional[Union[str, ProvenanceStore]] = None,
    store_url: Optional[str] = None,
) -> FleetResult:
    """Replay ``spec``'s variants into a store; returns the fleet record.

    Exactly one of ``store_path`` (a directory or open handle) and
    ``store_url`` (a writable server address) must be given.  Failures of
    individual variants are recorded per run, not raised -- a fleet is a
    soak tool and one bad variant must not vaporize the rest.
    """
    if (store_path is None) == (store_url is None):
        raise StoreError("run_fleet needs exactly one of store_path= or store_url=")
    # Lazy: the inspector API pulls in the whole tracing stack, and the
    # store package must stay importable without it at module load time.
    from repro.inspector.api import run_with_provenance

    variants = spec.plan()
    bridge_server = None
    url = store_url
    path_handle: Optional[Union[str, ProvenanceStore]] = None
    if store_path is not None:
        if spec.concurrency == 1:
            path_handle = store_path
        else:
            # Concurrent sinks on one local handle would race its
            # manifest; a loopback writable server serializes them.
            from repro.store.server import StoreServer

            if isinstance(store_path, ProvenanceStore):
                target = store_path.path
            else:
                target = store_path
                ProvenanceStore.open_or_create(target)
            bridge_server = StoreServer(target, writable=True)
            host, port = bridge_server.start()
            url = f"{host}:{port}"

    def replay(member: FleetVariant) -> FleetRun:
        record = FleetRun(
            variant=member.variant,
            workload=member.workload,
            threads=member.threads,
            seed=member.seed,
        )
        meta = dict(spec.run_meta)
        meta.update(
            {
                "fleet_variant": member.variant,
                "fleet_seed": member.seed,
                "fleet_threads": member.threads,
            }
        )
        started = time.monotonic()
        try:
            result = run_with_provenance(
                member.workload,
                num_threads=member.threads,
                size=spec.size,
                seed=member.seed,
                store_path=path_handle,
                store_url=url,
                run_meta=meta,
            )
            record.run_id = result.store_run_id
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            record.error = f"{type(exc).__name__}: {exc}"
        record.elapsed_s = time.monotonic() - started
        return record

    started = time.monotonic()
    result = FleetResult()
    try:
        if spec.concurrency == 1:
            result.runs = [replay(member) for member in variants]
        else:
            with ThreadPoolExecutor(max_workers=spec.concurrency) as pool:
                result.runs = list(pool.map(replay, variants))
    finally:
        if bridge_server is not None:
            bridge_server.close()
    result.elapsed_s = time.monotonic() - started
    result.runs.sort(key=lambda run: run.variant)
    return result


# ---------------------------------------------------------------------- #
# Population-level drift
# ---------------------------------------------------------------------- #


def _lineage_signature(engine: StoreQueryEngine, page: int, run_id: int) -> str:
    """Stable digest of one page's lineage in one run."""
    keys = sorted(node_key(node) for node in engine.lineage_of_pages((page,), run=run_id))
    return hashlib.sha1("\n".join(keys).encode("utf-8")).hexdigest()[:16]


def drift_report(
    store: ProvenanceStore,
    group_a: Sequence[int],
    group_b: Sequence[int],
    pages: Optional[Iterable[int]] = None,
    max_pages: Optional[int] = None,
) -> dict:
    """Compare two run populations' per-page lineage signatures.

    Args:
        store: The store holding both groups.
        group_a: Run ids of the reference population.
        group_b: Run ids of the compared population.
        pages: Pages to fingerprint; defaults to every page touched by
            *all* runs of both groups (the common denominator -- a page
            only some runs touch is a workload difference, not drift).
        max_pages: Cap the page list (smallest pages first) to bound cost.

    A page **diverges** when the *set* of distinct lineage signatures
    observed across group B differs from group A's -- some variant in one
    population computes the page a way no variant of the other does.
    The report is deterministic and independent of run order: groups are
    sorted, signatures are counted, and pages enumerate in page order.
    """
    group_a = sorted(dict.fromkeys(int(run) for run in group_a))
    group_b = sorted(dict.fromkeys(int(run) for run in group_b))
    if not group_a or not group_b:
        raise StoreError("drift_report needs two non-empty run groups")
    for run_id in group_a + group_b:
        store.manifest.run_info(run_id)  # validates existence
    if pages is None:
        common: Optional[Set[int]] = None
        for run_id in group_a + group_b:
            touched = store.indexes_for(run_id).pages_touched()
            common = set(touched) if common is None else (common & touched)
        page_list = sorted(common or ())
    else:
        page_list = sorted(set(int(page) for page in pages))
    truncated = False
    if max_pages is not None and len(page_list) > max_pages:
        page_list = page_list[:max_pages]
        truncated = True
    engine = StoreQueryEngine(store)
    diverged: List[dict] = []
    for page in page_list:
        signatures_a: Dict[str, int] = {}
        signatures_b: Dict[str, int] = {}
        for run_id in group_a:
            sig = _lineage_signature(engine, page, run_id)
            signatures_a[sig] = signatures_a.get(sig, 0) + 1
        for run_id in group_b:
            sig = _lineage_signature(engine, page, run_id)
            signatures_b[sig] = signatures_b.get(sig, 0) + 1
        if set(signatures_a) != set(signatures_b):
            diverged.append(
                {
                    "page": page,
                    "signatures_a": dict(sorted(signatures_a.items())),
                    "signatures_b": dict(sorted(signatures_b.items())),
                    "only_a": sorted(set(signatures_a) - set(signatures_b)),
                    "only_b": sorted(set(signatures_b) - set(signatures_a)),
                }
            )
    return {
        "ok": not diverged,
        "group_a": group_a,
        "group_b": group_b,
        "pages_checked": len(page_list),
        "pages_truncated": truncated,
        "diverged_pages": [entry["page"] for entry in diverged],
        "diverged": diverged,
    }
