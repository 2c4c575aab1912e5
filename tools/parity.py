#!/usr/bin/env python3
"""Record what a change that must not change the program has to keep equal.

A runtime, memory-path, clock or derivation change must leave every graph,
counter and stored byte as it was.  ``record`` writes, as one JSON file:

* ``graphs``: for every registry workload at 4 and 16 threads (size
  ``small``, seed 3), the SHA-256 of ``cpg_to_json`` of its graph and
  every ``RunStats`` field (switches, process creations, faults,
  instructions, the cost-model seconds);
* ``store``: for a store into which two kmeans-16 runs (seeds 3 and 4)
  were streamed through the sink, ``files``, the SHA-256 of every file,
  with each run's wall-clock ``created_at`` (and its copy in the run's
  ``meta``) masked in ``MANIFEST.json``; and ``answers``, the SHA-256 of
  the sorted answers of a fixed query set on both runs (lineage of each
  page a program node wrote; taint from each written page, page-carried
  and with ``through_thread_state``; one taint from the input node's
  pages, which floods the run, with the engine's taint mode; backward and
  forward data slices from evenly spaced nodes), once on a reopened
  handle (``cold``) and once on the writer's handle (``warm``);
* ``served_store``: the same two runs fed through ``store_url`` into an
  in-process writable store server, its ``files`` hashed and masked the
  same way, and ``answers``, the same query set's digest on a handle
  reopened after the server closed.

Record both commits and compare the files; every entry must be equal::

    git archive <parent> | tar -x -C <parent tree>
    python tools/parity.py record parent.json --src <parent tree>/src
    python tools/parity.py record change.json
    python tools/parity.py compare parent.json change.json

``--src`` puts another checkout's ``src/`` first on the import path, so
one copy of this tool measures a tree that predates it; the default is
this checkout's.  A record takes about 7 s of CPU.  ``compare`` prints each
differing entry and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

THREADS = (4, 16)
SEED = 3
STORE_SEEDS = (3, 4)
#: Start nodes per run for the slice answers, evenly spaced in node order.
SLICE_STARTS = 32


def graphs(workloads: Sequence[str], threads: Sequence[int] = THREADS, seed: int = SEED) -> Dict:
    """``{"<workload>-<threads>": {"cpg": sha256, "stats": RunStats fields}}``."""
    from repro.core.serialization import cpg_to_json
    from repro.inspector.api import run_with_provenance

    out = {}
    for name in workloads:
        for count in threads:
            result = run_with_provenance(name, num_threads=count, size="small", seed=seed)
            out[f"{name}-{count}"] = {
                "cpg": hashlib.sha256(cpg_to_json(result.cpg).encode()).hexdigest(),
                "stats": dataclasses.asdict(result.stats),
            }
    return out


def store_files(root: str) -> Dict[str, str]:
    """SHA-256 of every file under ``root``, with the runs' ``created_at`` masked."""
    out = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                data = handle.read()
            relative = os.path.relpath(path, root)
            if relative == "MANIFEST.json":
                manifest = json.loads(data)
                for run in manifest.get("runs", []):
                    for entry in (run, run.get("meta", {})):
                        if "created_at" in entry:
                            entry["created_at"] = "<masked>"
                data = json.dumps(manifest, sort_keys=True).encode()
            out[relative] = hashlib.sha256(data).hexdigest()
    return dict(sorted(out.items()))


def stored_answers(store) -> Dict[int, Dict]:
    """The fixed query set's sorted answers on every run of ``store``, by run id."""
    from repro.store import StoreQueryEngine

    engine = StoreQueryEngine(store)
    out = {}
    for run in store.run_ids():
        indexes = store.indexes_for(run)
        written = sorted(indexes.page_writers)
        nodes = indexes.nodes()
        starts = nodes[:: max(1, len(nodes) // SLICE_STARTS)]
        answers = {
            "lineage": {},
            "taint": {},
            "taint_thread_state": {},
            "backward": {},
            "forward": {},
        }
        for page in written:
            if any(tid >= 0 for tid, _ in indexes.page_writers[page]):
                answers["lineage"][page] = sorted(engine.lineage_of_pages([page], run=run))
            for kind, through_thread_state in (("taint", False), ("taint_thread_state", True)):
                taint = engine.propagate_taint([page], through_thread_state, run=run)
                answers[kind][page] = [sorted(taint.tainted_nodes), sorted(taint.tainted_pages)]
        input_pages = [
            page for page in written if any(tid < 0 for tid, _ in indexes.page_writers[page])
        ]
        flood = engine.propagate_taint(input_pages, run=run)
        answers["taint_input"] = [
            sorted(flood.tainted_nodes),
            sorted(flood.tainted_pages),
            engine.last_taint_mode,
        ]
        for node in starts:
            name = f"{node[0]}:{node[1]}"
            answers["backward"][name] = sorted(engine.backward_slice(node, run=run))
            answers["forward"][name] = sorted(engine.forward_slice(node, run=run))
        out[run] = answers
    return out


def digest(answers: Dict) -> str:
    """SHA-256 of ``answers`` as canonical JSON."""
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def streamed_store(
    workload: str = "kmeans", threads: int = 16, seeds: Sequence[int] = STORE_SEEDS
) -> Dict[str, Dict[str, str]]:
    """File hashes and answer digests of a fresh store holding one sink-streamed run per seed."""
    from repro.inspector.api import run_with_provenance
    from repro.store import ProvenanceStore

    with tempfile.TemporaryDirectory() as root:
        writer = None
        for seed in seeds:
            if writer is not None:
                writer.close()
            writer = run_with_provenance(
                workload, num_threads=threads, size="small", seed=seed, store_path=root
            ).store
        warm = digest(stored_answers(writer))
        writer.close()
        with ProvenanceStore.open(root) as store:
            cold = digest(stored_answers(store))
        return {"files": store_files(root), "answers": {"cold": cold, "warm": warm}}


def served_store(
    workload: str = "kmeans", threads: int = 16, seeds: Sequence[int] = STORE_SEEDS
) -> Dict[str, object]:
    """File hashes and answer digest of a fresh store fed one run per seed through a server."""
    from repro.inspector.api import run_with_provenance
    from repro.store import ProvenanceStore, StoreServer

    with tempfile.TemporaryDirectory() as root:
        ProvenanceStore.create(root).close()
        server = StoreServer(root, writable=True)
        host, port = server.start()
        try:
            for seed in seeds:
                run_with_provenance(
                    workload, num_threads=threads, size="small", seed=seed,
                    store_url=f"{host}:{port}",
                )
        finally:
            server.close()
        with ProvenanceStore.open(root) as store:
            answers = digest(stored_answers(store))
        return {"files": store_files(root), "answers": answers}


def record() -> Dict:
    """The full record: every registry configuration and both kmeans-16 stores."""
    from repro.workloads.registry import list_workloads

    return {
        "graphs": graphs(list_workloads()),
        "store": streamed_store(),
        "served_store": served_store(),
    }


def differences(first: Dict, second: Dict, prefix: str = "") -> List[str]:
    """One line per key whose value differs (or exists on one side only)."""
    lines = []
    for key in sorted(set(first) | set(second)):
        name = f"{prefix}{key}"
        if key not in first or key not in second:
            lines.append(f"{name}: only in {'second' if key not in first else 'first'}")
        elif isinstance(first[key], dict) and isinstance(second[key], dict):
            lines.extend(differences(first[key], second[key], f"{name}."))
        elif first[key] != second[key]:
            lines.append(f"{name}: {first[key]!r} != {second[key]!r}")
    return lines


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    record_parser = commands.add_parser("record", help="record this tree (or --src) to a JSON file")
    record_parser.add_argument("output")
    record_parser.add_argument("--src", default=str(REPO_ROOT / "src"))
    compare_parser = commands.add_parser("compare", help="compare two records")
    compare_parser.add_argument("first")
    compare_parser.add_argument("second")
    args = parser.parse_args(list(argv))

    if args.command == "record":
        sys.path.insert(0, os.path.abspath(args.src))
        import repro

        print(f"recording {os.path.dirname(repro.__file__)}", file=sys.stderr)
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record(), handle, indent=1, sort_keys=True, default=str)
            handle.write("\n")
        return 0
    with open(args.first, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(args.second, encoding="utf-8") as handle:
        second = json.load(handle)
    lines = differences(first, second)
    for line in lines:
        print(line)
    print(f"{len(lines)} differing entries")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
