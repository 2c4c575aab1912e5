"""Top-level convenience API of the reproduction.

Most users need exactly two calls::

    from repro.inspector.api import run_with_provenance, run_native

    native = run_native("histogram", num_threads=8)
    traced = run_with_provenance("histogram", num_threads=8)
    print(traced.stats.overhead_against(native.stats))
    print(traced.cpg.summary())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.inspector.config import InspectorConfig
from repro.inspector.costmodel import CostParameters
from repro.inspector.session import InspectorRunResult, InspectorSession
from repro.store.store import ProvenanceStore
from repro.workloads.base import DatasetSpec, Workload
from repro.workloads.registry import get_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.baselines.native import NativeRunResult

WorkloadLike = Union[str, Workload]


def _resolve(workload: WorkloadLike) -> Workload:
    """Accept either a workload name or an instance."""
    if isinstance(workload, Workload):
        return workload
    return get_workload(workload)


def run_with_provenance(
    workload: WorkloadLike,
    num_threads: int = 4,
    size: str = "medium",
    config: Optional[InspectorConfig] = None,
    dataset: Optional[DatasetSpec] = None,
    cost_params: Optional[CostParameters] = None,
    seed: int = 42,
    store_path: Optional[Union[str, ProvenanceStore]] = None,
    store_url: Optional[str] = None,
    run_meta: Optional[dict] = None,
) -> InspectorRunResult:
    """Run a workload under the INSPECTOR library and return its CPG and stats.

    Args:
        workload: Workload name (see :func:`repro.workloads.list_workloads`)
            or a :class:`~repro.workloads.base.Workload` instance.
        num_threads: Number of worker threads.
        size: Dataset size (``"small"``, ``"medium"``, ``"large"``).
        config: Optional library configuration.
        dataset: Optional pre-generated dataset (overrides ``size``).
        cost_params: Optional cost-model overrides.
        seed: Dataset generation seed.
        store_path: Optional persistent provenance store to stream the run
            into (a directory path, opened or created as needed, or an
            already-open :class:`~repro.store.store.ProvenanceStore`).  One
            store holds many runs -- repeated calls against the same path
            each mint their own run id.  The returned result carries the
            store as ``result.store`` and the minted run id as
            ``result.store_run_id``.
        store_url: Address of a writable store server (``host:port`` or
            ``store://host:port``, started with
            ``python -m repro.store serve --writable``) to stream the run
            to over TCP instead -- the :class:`~repro.store.sink.StoreSink`
            ships each epoch to the server, and the traced
            process needs no filesystem access to the store.  Mutually
            exclusive with ``store_path``.
        run_meta: Extra metadata recorded with the store's run entry (e.g.
            ``created_at`` wall-clock, experiment labels).
    """
    session = InspectorSession(
        config=config, cost_params=cost_params, store=store_path, store_url=store_url
    )
    return session.run(
        _resolve(workload),
        num_threads=num_threads,
        size=size,
        dataset=dataset,
        seed=seed,
        run_meta=run_meta,
    )


def run_native(
    workload: WorkloadLike,
    num_threads: int = 4,
    size: str = "medium",
    config: Optional[InspectorConfig] = None,
    dataset: Optional[DatasetSpec] = None,
    cost_params: Optional[CostParameters] = None,
    seed: int = 42,
) -> "NativeRunResult":
    """Run a workload under plain pthreads (no provenance) and return its stats."""
    # Imported lazily: the baselines package itself imports the inspector
    # configuration, and a module-level import here would close that cycle.
    from repro.baselines.native import NativeSession

    session = NativeSession(config=config, cost_params=cost_params)
    return session.run(_resolve(workload), num_threads=num_threads, size=size, dataset=dataset, seed=seed)


def overhead_factor(
    workload: WorkloadLike,
    num_threads: int = 4,
    size: str = "medium",
    config: Optional[InspectorConfig] = None,
    cost_params: Optional[CostParameters] = None,
    seed: int = 42,
) -> float:
    """Return the modelled INSPECTOR-over-native time overhead for one workload.

    Both runs use the same generated dataset so the comparison is exact.
    """
    resolved = _resolve(workload)
    dataset = resolved.generate_dataset(size=size, seed=seed)
    native = run_native(
        resolved, num_threads=num_threads, config=config, dataset=dataset, cost_params=cost_params
    )
    traced = run_with_provenance(
        resolved, num_threads=num_threads, config=config, dataset=dataset, cost_params=cost_params
    )
    return traced.stats.overhead_against(native.stats)
