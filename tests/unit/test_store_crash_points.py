"""Crash-point enumeration over every store file operation.

A scripted store lifecycle -- create, stream run 1 epoch by epoch, finish
it, ingest run 2, compact, bless and save a baseline, drop run 1, fsck
with repair -- runs once to count its calls into :mod:`repro.store.files`
(``write_once``, ``replace``, ``append``, ``remove``), then once per call
with :class:`Crash` raised before that call.  After each crash:

- the store opens (or, before the first manifest, is absent);
- the run table, every run's lineage and taint of fixed pages, the
  across-runs lineage, and the baseline list equal the state right before
  or right after the interrupted operation;
- fsck reports nothing but ``orphan_file``, which ``--repair`` clears.

One window is known: a crash between the page summary's rename and the
commit that records its checksum (run completion, gc) leaves a summary
the manifest does not vouch for.  Answers are right at once, because an
unrecorded summary covers nothing; fsck may flag its size until the next
flush rewrites it, and is clean after one.
"""

import os
from typing import Callable, List, Optional, Tuple

from helpers.executions import random_cpg

from repro.core.cpg import EdgeKind
from repro.store import ProvenanceStore, StoreQueryEngine, StoreSink, files, verify_store
from repro.store.format import MANIFEST_NAME, PAGES_RUNS_FILE
from repro.store.gate import bless_baseline, list_baselines

SEGMENT_NODES = 4
PAGES = [0, 3, 5]
FILE_CALLS = ("write_once", "replace", "append", "remove")


class Crash(BaseException):
    """The simulated process death (not an Exception: nothing may catch it)."""


def epochs(cpg) -> List[list]:
    """``cpg``'s nodes in causal order with their recorded edges, one chunk per epoch."""
    recorded = {}
    for source, target, attrs in cpg.edges():
        if attrs["kind"] is not EdgeKind.DATA:
            extra = {key: value for key, value in attrs.items() if key != "kind"}
            recorded.setdefault(target, []).append((source, target, attrs["kind"], extra))
    order = cpg.topological_order()
    return [
        [(cpg.subcomputation(node_id), recorded.get(node_id, [])) for node_id in order[start : start + SEGMENT_NODES]]
        for start in range(0, len(order), SEGMENT_NODES)
    ]


def script(store_dir: str) -> List[Tuple[str, Callable[[dict], None]]]:
    """The lifecycle as named operations over a shared context."""
    run_1, run_2 = random_cpg(7), random_cpg(8)

    def create(ctx):
        ctx["store"] = ProvenanceStore.create(store_dir)

    def epoch(chunk):
        def commit(ctx):
            if "sink" not in ctx:
                ctx["sink"] = StoreSink(ctx["store"], segment_nodes=SEGMENT_NODES, workload="streamed")
            for node, edges in chunk:
                ctx["sink"].subcomputation_published(node, edges)
            ctx["sink"].commit_epoch()

        return commit

    operations = [("create", create)]
    operations += [(f"epoch {n}", epoch(chunk)) for n, chunk in enumerate(epochs(run_1), 1)]
    operations += [
        ("finish run 1", lambda ctx: ctx["sink"].finish(run_1)),
        (
            "ingest run 2",
            lambda ctx: ctx["store"].ingest(run_2, segment_nodes=SEGMENT_NODES, workload="ingested"),
        ),
        ("compact", lambda ctx: ctx["store"].compact(segment_nodes=2 * SEGMENT_NODES)),
        ("bless", lambda ctx: bless_baseline(ctx["store"], run=2, name="golden").save(ctx["store"])),
        ("gc run 1", lambda ctx: ctx["store"].gc(runs=[1])),
        ("fsck --repair", lambda ctx: verify_store(store_dir, repair=True)),
    ]
    return operations


def observe(store_dir: str) -> Optional[tuple]:
    """What a reader sees; None when no manifest was ever committed."""
    if not os.path.exists(os.path.join(store_dir, MANIFEST_NAME)):
        return None
    with ProvenanceStore.open(store_dir) as store:
        engine = StoreQueryEngine(store)
        runs = tuple(
            (run.run_id, run.workload, run.status, run.nodes, run.edges)
            for run in store.manifest.runs
        )
        answers = {}
        for run_id in store.run_ids():
            taint = engine.propagate_taint(PAGES, run=run_id)
            answers[run_id] = (
                frozenset(engine.lineage_of_pages(PAGES, run=run_id)),
                frozenset(taint.tainted_nodes),
                frozenset(taint.tainted_pages),
            )
        across = {run_id: frozenset(nodes) for run_id, nodes in engine.lineage_across_runs(PAGES).items()}
        return runs, answers, across, tuple(list_baselines(store))


def play(store_dir: str, monkeypatch, crash_at: Optional[int] = None):
    """Run the script, crashing before file call ``crash_at`` (1-based).

    Returns ``(calls, states, crashed_in)``: every file call as ``(name,
    store-relative path, operation index)``, the observed state after each
    completed operation (index 0: before the first), and the index of the
    operation the crash interrupted (None without a crash).
    """
    calls: List[Tuple[str, str, int]] = []
    current = [0]

    def counted(name, real):
        def call(*args):
            if crash_at is not None and len(calls) + 1 == crash_at:
                raise Crash(f"before {name} #{crash_at}")
            calls.append((name, os.path.relpath(args[0], store_dir), current[0]))
            return real(*args)

        return call

    states = [observe(store_dir)]
    with monkeypatch.context() as patch:
        for name in FILE_CALLS:
            patch.setattr(files, name, counted(name, getattr(files, name)))
        ctx: dict = {}
        for index, (_label, operation) in enumerate(script(store_dir), 1):
            current[0] = index
            try:
                operation(ctx)
            except Crash:
                return calls, states, index
            if crash_at is None:
                states.append(observe(store_dir))
    return calls, states, None


def test_every_file_call_is_a_safe_crash_point(tmp_path, monkeypatch):
    calls, states, _ = play(str(tmp_path / "reference"), monkeypatch)
    labels = [label for label, _ in script(str(tmp_path / "unused"))]
    assert len(states) == len(labels) + 1
    # Every kind of call is exercised, and every operation makes calls.
    assert {name for name, _path, _op in calls} == set(FILE_CALLS)
    assert {op for _name, _path, op in calls} == set(range(1, len(labels) + 1))
    for k in range(1, len(calls) + 1):
        store_dir = str(tmp_path / f"crash-{k}")
        done, _, interrupted = play(store_dir, monkeypatch, crash_at=k)
        assert interrupted == calls[k - 1][2], k
        where = f"crash before {calls[k - 1][:2]} in {labels[interrupted - 1]!r}"
        seen = observe(store_dir)
        assert seen in (states[interrupted - 1], states[interrupted]), where
        if seen is None:
            continue
        in_summary_window = bool(done) and done[-1][:2] == ("replace", f"index/{PAGES_RUNS_FILE}")
        allowed = {"orphan_file"} | ({"pages_runs_size_mismatch"} if in_summary_window else set())
        report = verify_store(store_dir)
        assert {problem["kind"] for problem in report["problems"]} <= allowed, (where, report)
        assert report["warnings"] == [], where
        if report["orphans"]:
            assert verify_store(store_dir, repair=True)["repaired"] == report["orphans"], where
        if in_summary_window:
            with ProvenanceStore.open(store_dir) as store:
                store.flush()
        assert verify_store(store_dir)["ok"], where
        assert observe(store_dir) == seen, where


def test_unrecorded_summary_windows_are_the_known_ones(tmp_path, monkeypatch):
    calls, _states, _ = play(str(tmp_path / "reference"), monkeypatch)
    labels = [label for label, _ in script(str(tmp_path / "unused"))]
    windows = [
        labels[op - 1]
        for name, path, op in calls
        if (name, path) == ("replace", f"index/{PAGES_RUNS_FILE}")
    ]
    assert windows == ["finish run 1", "ingest run 2", "gc run 1"]
