"""Shared pieces of the pipeline benchmark.

Nothing here starts work on import.  The modules of the benchmark import
``repro`` from the checkout's ``src/`` directory; :func:`require_sources`
puts it on ``sys.path`` (or fails) before they do.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The benchmark's own directory.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Root of the checkout the benchmark runs in (the directory holding ``src``).
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Every store and scratch file of a run lives below this directory.
TMP_ROOT = os.path.join(ROOT, ".pipeline_bench_tmp")


class BenchmarkSetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no ``src/repro``)."""


def require_sources() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkSetupError(
            f"no repro package under {SRC}: run the benchmark from a full checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def subprocess_env() -> Dict[str, str]:
    """Environment for child interpreters: this checkout's ``src/`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------- #
# Scratch space
# ---------------------------------------------------------------------- #


@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A fresh directory inside the checkout, removed afterwards."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_ROOT)  # only succeeds once no other run uses it


def dir_bytes(path: str) -> int:
    """Bytes of every regular file below ``path``."""
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            with contextlib.suppress(FileNotFoundError):
                total += os.path.getsize(os.path.join(folder, name))
    return total


def derived_seed(seed: int, label: str) -> int:
    """A stable per-purpose seed, so inputs depend only on ``--seed``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(count: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it, if any."""
    for pct in _TAILS:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def describe(values: Sequence[float]) -> str:
    """``n=.. p50=.. pXX=..`` for the report lines."""
    if not values:
        return "n=0"
    tail = tail_percentile(len(values))
    text = f"n={len(values)} p50={statistics.median(values):.4g}"
    if tail is not None:
        text += f" p{tail:g}={percentile(values, tail):.4g}"
    else:
        text += " (too few samples for a tail percentile with 10 beyond it)"
    return text


def query_latencies(samples: Sequence[Tuple[int, str, float]]) -> Dict[str, float]:
    """Query metrics from ``(query index, kind, ms)`` samples.

    Each distinct query of the fixed set is one sample: the median of
    every time the run answered it, so a stretch of a busy host or a
    collision with the writer moves it little.  The percentiles are then
    taken across the distinct queries, and the rate is one pass of the
    set answered back to back.
    """
    by_query: Dict[int, Tuple[str, List[float]]] = {}
    for index, kind, ms in samples:
        by_query.setdefault(index, (kind, []))[1].append(ms)
    medians = [(kind, statistics.median(values)) for kind, values in by_query.values()]
    every = [ms for _, ms in medians]
    return {
        "query_p50_ms": statistics.median(every),
        "query_p99_ms": percentile(every, 99.0),
        "lineage_p50_ms": statistics.median(ms for kind, ms in medians if kind == "lineage"),
        "queries_per_s": len(every) / (sum(every) / 1e3),
        "distinct": len(medians),
    }


# ---------------------------------------------------------------------- #
# Layer timing (the traced run)
# ---------------------------------------------------------------------- #


class Spans:
    """Nested spans recorded around calls into each layer, in this process's CPU time.

    CPU time of every thread of the process (``time.process_time``): the
    simulated processes of a traced run are threads of it, and waits on
    the disk or the hypervisor are left out (see :mod:`hostspeed`).

    ``total[name]`` is the time spent inside spans of that name;
    ``self_time[name]`` excludes nested spans (e.g. the sink epochs that
    run inside ``SimRuntime.run``).  ``top`` is the time covered by
    outermost spans, which is what ``unattributed`` is measured against.
    """

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.top = 0.0
        self._child_time: List[float] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._child_time.append(0.0)
        start = time.process_time()
        try:
            yield
        finally:
            elapsed = time.process_time() - start
            children = self._child_time.pop()
            self.total[name] = self.total.get(name, 0.0) + elapsed
            self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - children
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._child_time:
                self._child_time[-1] += elapsed
            else:
                self.top += elapsed

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with every call recorded as a span called ``name``."""

        def timed(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return timed


@contextlib.contextmanager
def patched(obj: object, attribute: str, replacement: Callable) -> Iterator[None]:
    """Shadow a method on one instance for the duration of a block."""
    previous = obj.__dict__.get(attribute, _MISSING)
    setattr(obj, attribute, replacement)
    try:
        yield
    finally:
        if previous is _MISSING:
            delattr(obj, attribute)
        else:
            setattr(obj, attribute, previous)


_MISSING = object()


# ---------------------------------------------------------------------- #
# Digests (parity and reference checks)
# ---------------------------------------------------------------------- #


#: ``RunStats`` counters compared between runs of the same input.  All are
#: deterministic functions of the input and the simulated schedule.
COUNTER_FIELDS = (
    "instructions",
    "sync_ops",
    "process_creations",
    "context_switches",
    "page_faults",
    "commits",
    "pages_committed",
    "bytes_committed",
    "pt_bytes",
    "perf_log_bytes",
    "cpg_nodes",
    "cpg_control_edges",
    "cpg_sync_edges",
    "cpg_data_edges",
)


def run_digest(cpg, counters: Dict[str, int]) -> str:
    """Digest of a CPG (canonical JSON) together with its run counters."""
    from repro.core.serialization import cpg_to_json

    hasher = hashlib.sha256(cpg_to_json(cpg).encode("utf-8"))
    hasher.update(json.dumps({k: int(counters[k]) for k in COUNTER_FIELDS}, sort_keys=True).encode())
    return hasher.hexdigest()


def counters_of(stats) -> Dict[str, int]:
    """The digest counters of a :class:`repro.inspector.stats.RunStats`."""
    return {name: int(getattr(stats, name)) for name in COUNTER_FIELDS}


# ---------------------------------------------------------------------- #
# Provenance queries
# ---------------------------------------------------------------------- #

#: A query: ``(kind, run, argument)``; the argument is a tuple of pages for
#: ``lineage``/``taint`` and a node id for the two slices.
Query = Tuple[str, Optional[int], tuple]

QUERY_KINDS = ("lineage", "backward_slice", "forward_slice", "taint")


def _spaced(items: Sequence, limit: Optional[int]) -> list:
    """``limit`` evenly spaced items of ``items`` (all of them when ``limit`` is None)."""
    items = list(items)
    if limit is None or len(items) <= limit:
        return items
    if limit == 1:
        return items[:1]
    step = (len(items) - 1) / (limit - 1)
    return [items[round(index * step)] for index in range(limit)]


def build_queries(
    run: Optional[int],
    pages: Sequence[int],
    program_pages: Sequence[int],
    nodes: Sequence[tuple],
    slices: int,
    pairs: bool = True,
    max_pages: Optional[int] = None,
) -> List[Query]:
    """A fixed-composition query set over one run, chosen by the run's shape.

    * ``taint`` from every written page;
    * ``lineage`` of every page a program node wrote (pages only the
      virtual input node wrote have the trivial answer), and with
      ``pairs`` of each such page together with the next one;
    * a backward and a forward slice from ``slices`` evenly spaced nodes.

    ``max_pages`` caps each page list at that many evenly spaced pages.
    The heavy many-writer pages are low heap pages, which the spacing
    always keeps, so they stay in the mix in the same proportion.
    """
    queries: List[Query] = [("taint", run, (page,)) for page in _spaced(sorted(pages), max_pages)]
    lineage = _spaced(sorted(program_pages), max_pages)
    for index, page in enumerate(lineage):
        queries.append(("lineage", run, (page,)))
        if pairs and index + 1 < len(lineage):
            queries.append(("lineage", run, (page, lineage[index + 1])))
    for node in _spaced(sorted(nodes), slices) if slices else ():
        queries.append(("backward_slice", run, tuple(node)))
        queries.append(("forward_slice", run, tuple(node)))
    return queries


def answer_memory(cpg, query: Query):
    """Reference answer from the in-memory CPG (``repro.core.queries``)."""
    from repro.core import queries as q

    kind, _, arg = query
    if kind == "lineage":
        return frozenset(q.lineage_of_pages(cpg, arg))
    if kind == "taint":
        result = q.propagate_taint(cpg, arg)
        return frozenset(result.tainted_nodes), frozenset(result.tainted_pages)
    if kind == "backward_slice":
        return frozenset(q.backward_slice(cpg, arg))
    return frozenset(q.forward_slice(cpg, arg))


def answer_engine(engine, query: Query):
    """Answer from a :class:`repro.store.query.StoreQueryEngine`."""
    kind, run, arg = query
    if kind == "lineage":
        return frozenset(engine.lineage_of_pages(arg, run=run))
    if kind == "taint":
        result = engine.propagate_taint(arg, run=run)
        return frozenset(result.tainted_nodes), frozenset(result.tainted_pages)
    if kind == "backward_slice":
        return frozenset(engine.backward_slice(arg, run=run))
    return frozenset(engine.forward_slice(arg, run=run))


def answer_client(client, query: Query):
    """Answer from a :class:`repro.store.server.StoreClient` (over TCP)."""
    kind, run, arg = query
    if kind == "lineage":
        return frozenset(client.lineage(arg, run=run))
    if kind == "taint":
        result = client.taint(arg, run=run)
        return frozenset(result["tainted_nodes"]), frozenset(result["tainted_pages"])
    if kind == "backward_slice":
        return frozenset(client.backward_slice(arg, run=run))
    return frozenset(client.forward_slice(arg, run=run))


def wrong(answer):
    """A deliberately wrong copy of an expected answer (self-check only)."""
    bogus = (-7, -7)
    if isinstance(answer, tuple):
        return answer[0] | {bogus}, answer[1]
    return answer | {bogus}


# ---------------------------------------------------------------------- #
# Host
# ---------------------------------------------------------------------- #


def _commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", *ref[5:].split("/")), "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def host_info() -> Dict[str, object]:
    """Cores, interpreter and commit of the measuring host."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": _commit(),
    }


def host_probe_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes now (best of three).

    Printed before and after a run: on a shared host the interpreter's
    speed drifts, and this shows by how much while the run measured.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

