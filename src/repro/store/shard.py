"""Shard manifests: how a store cluster describes itself on disk.

A cluster is a set of ordinary single-store servers (shards) plus one
JSON file -- ``cluster.json`` -- that says which shard answers for which
run.  The manifest is deliberately dumb: it holds addresses, paths,
replica lists, and the run-assignment policy, and nothing else.  All the
scatter/gather machinery lives in :mod:`repro.store.cluster`; everything
here is loadable without touching any store.

Two assignment policies exist:

``manual``
    An explicit table mapping every *cluster* run id to ``(shard id,
    local run id)``.  The cluster's run set is exactly the table's keys;
    runs a shard store happens to hold beyond the table are invisible
    through the router.  Local ids default to the cluster id, but may
    differ -- a shard built by re-ingesting a subset of runs mints its
    own ids, and the table is where that translation lives.

``run-hash``
    Shard ``run_id % len(shards)`` answers for ``run_id``; local ids are
    the cluster ids (the stores must have been split while preserving run
    ids -- ``gc(runs=...)`` on copies does exactly that).  The cluster's
    run set is discovered from the shards at query time.

Shards may additionally declare a **page-hash range**: a half-open
``[lo, hi)`` interval over :data:`PAGE_HASH_BUCKETS` buckets promising
that every page this shard's runs ever touched hashes into the interval.
The promise is the operator's (the manifest cannot check it); when
present, the router uses it to skip shards that provably cannot touch a
cross-run page query.  :func:`page_bucket` is a fixed integer mix --
never Python's ``hash()`` -- so the contract means the same thing in
every process that ever reads the manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import StoreError

from repro.store import files

#: Buckets of the page-hash space shards may claim ranges over.
PAGE_HASH_BUCKETS = 1024

#: Knuth's multiplicative constant (2^32 / phi); the mix must be stable
#: across processes and Python versions, which rules out ``hash()``.
_PAGE_MIX = 2654435761

#: The manifest file a cluster directory is named after.
CLUSTER_MANIFEST_NAME = "cluster.json"

CLUSTER_SCHEMA = 1

#: The assignment policies a manifest may declare.
POLICIES = ("manual", "run-hash")


def page_bucket(page: int, buckets: int = PAGE_HASH_BUCKETS) -> int:
    """Deterministic bucket of a page id in ``[0, buckets)``.

    High bits of a Knuth multiplicative mix: uniform for sequential page
    ids (which real page sets are), identical in every process.
    """
    return ((int(page) * _PAGE_MIX) & 0xFFFFFFFF) * buckets >> 32


@dataclass
class Endpoint:
    """One serveable copy of a shard's store: an address, a path, or both.

    ``address`` (``host:port``) is how the router reaches it; ``path`` is
    where its store directory lives, which is what ``cluster serve`` uses
    to host it in-process (writing the bound address back).
    """

    address: Optional[str] = None
    path: Optional[str] = None

    def to_dict(self) -> dict:
        return {"address": self.address, "path": self.path}

    @classmethod
    def from_dict(cls, raw) -> "Endpoint":
        if isinstance(raw, str):
            return cls(address=raw)  # bare-address shorthand
        return cls(address=raw.get("address"), path=raw.get("path"))


@dataclass
class ShardInfo:
    """One shard: a primary endpoint, read replicas, an optional page range.

    Attributes:
        shard_id: The shard's name in the manifest (any string).
        primary: The endpoint the router tries first.
        replicas: Further endpoints holding the same store, tried in
            order when the primary is unreachable.
        page_hash_range: Optional ``(lo, hi)`` half-open bucket interval
            (see the module docstring) letting cross-run queries skip
            this shard when no queried page hashes into it.
    """

    shard_id: str
    primary: Endpoint
    replicas: List[Endpoint] = field(default_factory=list)
    page_hash_range: Optional[Tuple[int, int]] = None

    def endpoints(self) -> List[Endpoint]:
        """Primary first, then replicas -- the router's failover order."""
        return [self.primary] + list(self.replicas)

    def may_touch_pages(self, pages: Iterable[int]) -> bool:
        """Whether this shard's declared page range admits any of ``pages``.

        Always true without a declared range: no promise, no pruning.
        """
        if self.page_hash_range is None:
            return True
        lo, hi = self.page_hash_range
        return any(lo <= page_bucket(page) < hi for page in pages)

    def to_dict(self) -> dict:
        raw = {
            "id": self.shard_id,
            "address": self.primary.address,
            "path": self.primary.path,
            "replicas": [endpoint.to_dict() for endpoint in self.replicas],
        }
        if self.page_hash_range is not None:
            raw["page_hash_range"] = list(self.page_hash_range)
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ShardInfo":
        if "id" not in raw:
            raise StoreError("cluster manifest shard entry is missing its 'id'")
        page_range = raw.get("page_hash_range")
        if page_range is not None:
            lo, hi = int(page_range[0]), int(page_range[1])
            if not (0 <= lo < hi <= PAGE_HASH_BUCKETS):
                raise StoreError(
                    f"shard {raw['id']!r} page_hash_range {page_range!r} is not a "
                    f"half-open interval within [0, {PAGE_HASH_BUCKETS})"
                )
            page_range = (lo, hi)
        return cls(
            shard_id=str(raw["id"]),
            primary=Endpoint(address=raw.get("address"), path=raw.get("path")),
            replicas=[Endpoint.from_dict(entry) for entry in raw.get("replicas", [])],
            page_hash_range=page_range,
        )


@dataclass
class RunAssignment:
    """Where one cluster run lives: a shard, and its id *on* that shard."""

    shard_id: str
    local_run: int


class ClusterManifest:
    """The parsed ``cluster.json``: shards, policy, run assignments.

    Args:
        shards: The cluster's shards, in manifest order (``run-hash``
            assigns by position, so order is part of the cluster's
            identity under that policy).
        policy: ``"manual"`` or ``"run-hash"`` (see the module docstring).
        assignments: The manual policy's run table (cluster run id ->
            :class:`RunAssignment`); must be empty under ``run-hash``.
        path: Where the manifest was loaded from / saves to (optional --
            a manifest may live purely in memory, e.g. in tests).
    """

    def __init__(
        self,
        shards: List[ShardInfo],
        policy: str = "manual",
        assignments: Optional[Dict[int, RunAssignment]] = None,
        path: Optional[str] = None,
    ) -> None:
        if policy not in POLICIES:
            raise StoreError(
                f"unknown cluster policy {policy!r} (known: {', '.join(POLICIES)})"
            )
        if not shards:
            raise StoreError("a cluster manifest needs at least one shard")
        seen = set()
        for shard in shards:
            if shard.shard_id in seen:
                raise StoreError(f"duplicate shard id {shard.shard_id!r} in cluster manifest")
            seen.add(shard.shard_id)
        self.shards = list(shards)
        self.policy = policy
        self.assignments: Dict[int, RunAssignment] = dict(assignments or {})
        self.path = path
        if policy == "run-hash" and self.assignments:
            raise StoreError("the run-hash policy derives assignments; the table must be empty")
        for run_id, assignment in self.assignments.items():
            if assignment.shard_id not in seen:
                raise StoreError(
                    f"run {run_id} is assigned to unknown shard {assignment.shard_id!r}"
                )

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def shard(self, shard_id: str) -> ShardInfo:
        for shard in self.shards:
            if shard.shard_id == shard_id:
                return shard
        known = ", ".join(s.shard_id for s in self.shards)
        raise StoreError(f"cluster has no shard {shard_id!r} (shards: {known})")

    def shard_for_run(self, run_id: int) -> Tuple[ShardInfo, int]:
        """The shard answering for cluster run ``run_id``, and its local id."""
        if self.policy == "run-hash":
            return self.shards[int(run_id) % len(self.shards)], int(run_id)
        assignment = self.assignments.get(int(run_id))
        if assignment is None:
            known = ", ".join(str(r) for r in sorted(self.assignments)) or "none"
            raise StoreError(
                f"cluster manifest assigns no shard to run {run_id} (assigned runs: {known})"
            )
        return self.shard(assignment.shard_id), assignment.local_run

    def assigned_runs(self, shard_id: str) -> Dict[int, int]:
        """Manual-policy runs of one shard: cluster run id -> local run id."""
        return {
            run_id: assignment.local_run
            for run_id, assignment in self.assignments.items()
            if assignment.shard_id == shard_id
        }

    def run_ids(self) -> List[int]:
        """The cluster's run set under the manual policy, in id order.

        Cluster run ids mint monotonically (they are store run ids, which
        never decrease), so ascending id order *is* mint order -- the
        order a single store's ``run_ids()`` would enumerate.  Under
        ``run-hash`` the set lives on the shards; the router discovers it.
        """
        if self.policy != "manual":
            raise StoreError("run-hash clusters discover their run set from the shards")
        return sorted(self.assignments)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def assign(self, run_id: int, shard_id: str, local_run: Optional[int] = None) -> None:
        """Record that cluster run ``run_id`` lives on ``shard_id``."""
        if self.policy != "manual":
            raise StoreError("the run-hash policy derives assignments; nothing to assign")
        self.shard(shard_id)  # validates
        self.assignments[int(run_id)] = RunAssignment(
            shard_id=shard_id,
            local_run=int(run_id) if local_run is None else int(local_run),
        )

    def promote(self, shard_id: str, address: str) -> None:
        """Make the replica at ``address`` the shard's primary.

        The old primary joins the replica list (first, so a failed
        promotion is one more promote away from undone).  The router
        re-reads endpoint order per request, so promotion takes effect on
        the next query.
        """
        shard = self.shard(shard_id)
        for index, replica in enumerate(shard.replicas):
            if replica.address == address:
                shard.replicas.pop(index)
                shard.replicas.insert(0, shard.primary)
                shard.primary = replica
                return
        known = ", ".join(str(r.address) for r in shard.replicas) or "none"
        raise StoreError(
            f"shard {shard_id!r} has no replica at {address!r} (replicas: {known})"
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        return {
            "schema": CLUSTER_SCHEMA,
            "policy": self.policy,
            "shards": [shard.to_dict() for shard in self.shards],
            "assignments": {
                str(run_id): {"shard": a.shard_id, "local_run": a.local_run}
                for run_id, a in sorted(self.assignments.items())
            },
        }

    def save(self, path: Optional[str] = None) -> str:
        """Write the manifest (a durable replace); returns the path written."""
        target = path or self.path
        if target is None:
            raise StoreError("this cluster manifest has no path to save to")
        document = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        files.replace(target, document.encode("utf-8"))
        self.path = target
        return target

    @classmethod
    def from_dict(cls, raw: dict, path: Optional[str] = None) -> "ClusterManifest":
        if not isinstance(raw, dict):
            raise StoreError("cluster manifest must be a JSON object")
        schema = raw.get("schema", CLUSTER_SCHEMA)
        if schema != CLUSTER_SCHEMA:
            raise StoreError(
                f"unsupported cluster manifest schema {schema!r} "
                f"(this build reads schema {CLUSTER_SCHEMA})"
            )
        assignments = {}
        for run_text, entry in (raw.get("assignments") or {}).items():
            assignments[int(run_text)] = RunAssignment(
                shard_id=str(entry["shard"]),
                local_run=int(entry.get("local_run", int(run_text))),
            )
        return cls(
            shards=[ShardInfo.from_dict(entry) for entry in raw.get("shards", [])],
            policy=str(raw.get("policy", "manual")),
            assignments=assignments,
            path=path,
        )

    @classmethod
    def load(cls, path: str) -> "ClusterManifest":
        """Read ``cluster.json`` (or a directory containing one)."""
        if os.path.isdir(path):
            path = os.path.join(path, CLUSTER_MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise StoreError(f"cannot read cluster manifest {path!r}: {exc}") from exc
        except ValueError as exc:
            raise StoreError(f"cluster manifest {path!r} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw, path=path)
