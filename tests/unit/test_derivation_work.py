"""Work bounds of ``derive_data_edges``, counted rather than timed.

The derivation's work is its clock lookups (``VectorClock.get``) and its
bisects over a thread's writer indices.  Per page read, that work must not
grow with how long the program runs:

* **Re-spawned workers.**  kmeans creates fresh workers in every round, and
  each worker reads and writes one shared page.  Main's write after the
  joins shadows the writes of every earlier round's workers, so a read must
  not visit those workers again.
* **A racy chain.**  Thread 1 writes a page in K sub-computations and
  thread 2 reads it in K, with no synchronization between them.  The
  reader sees none of the writes; a walk over every unseen writer is
  quadratic in K.
* **A racy ping-pong.**  Threads 1 and 3 take turns writing the page, each
  after the other's latest write, while thread 2 reads it unsynchronized.
  Every write shadows the other thread's previous one; a walk over every
  unseen writer's shadowed writers is quadratic in K.
"""

import pytest

from repro.core import dependencies
from repro.core.algorithm import ProvenanceTracker
from repro.core.thunk import INPUT_TID
from repro.core.vector_clock import VectorClock
from repro.inspector.api import run_with_provenance
from repro.inspector.config import InspectorConfig
from repro.workloads.kmeans import KMeansWorkload

#: Largest allowed growth of the per-read work between the short and the long graph.
GROWTH = 1.1
PAGE = 7


def lookups_per_read(cpg, monkeypatch):
    """Clock lookups plus bisects ``derive_data_edges(cpg)`` makes, per page read."""
    count = 0
    get, bisect_left = VectorClock.get, dependencies.bisect_left

    def counting_get(clock, tid):
        nonlocal count
        count += 1
        return get(clock, tid)

    def counting_bisect_left(indices, value):
        nonlocal count
        count += 1
        return bisect_left(indices, value)

    with monkeypatch.context() as patch:
        patch.setattr(VectorClock, "get", counting_get)
        patch.setattr(dependencies, "bisect_left", counting_bisect_left)
        dependencies.derive_data_edges(cpg)
    reads = sum(len(node.read_set) for node in cpg.subcomputations() if node.tid != INPUT_TID)
    return count / reads


def kmeans(rounds):
    workload = KMeansWorkload()
    workload.iterations = rounds
    config = InspectorConfig(derive_data_edges=False)
    return run_with_provenance(workload, 4, size="small", config=config).cpg


def step(tracker, tid, operation, release=(), acquire=()):
    """End ``tid``'s sub-computation at a synchronization call and start the next."""
    tracker.on_sync_boundary(tid, operation)
    for object_id in release:
        tracker.on_release(tid, object_id, operation)
    for object_id in acquire:
        tracker.on_acquire(tid, object_id, operation)
    tracker.begin_next(tid)


def racy_chain(writes):
    """Thread 1 writes ``PAGE`` in ``writes`` sub-computations; thread 2 reads it as often."""
    tracker = ProvenanceTracker()
    for tid in (1, 2):
        tracker.on_thread_start(tid)
    for _ in range(writes):
        for tid in (1, 2):
            tracker.on_memory_access(tid, PAGE, is_write=tid == 1)
            step(tracker, tid, "sem_post", release=[100 + tid])  # posted, never waited on
    return tracker.finalize()


def racy_ping_pong(writes):
    """Threads 1 and 3 write ``PAGE`` in turns, each after the other; thread 2 reads it."""
    tracker = ProvenanceTracker()
    for tid in (1, 2, 3):
        tracker.on_thread_start(tid)
    for number in range(writes):
        writer, other = (1, 3) if number % 2 == 0 else (3, 1)
        tracker.on_memory_access(writer, PAGE, is_write=True)
        step(tracker, writer, "sem_post", release=[100 + writer])
        step(tracker, other, "sem_wait", acquire=[100 + writer])
        tracker.on_memory_access(2, PAGE, is_write=False)
        step(tracker, 2, "sem_post", release=[102])
    return tracker.finalize()


def test_work_per_read_does_not_grow_with_respawn_rounds(monkeypatch):
    short, long = (lookups_per_read(kmeans(rounds), monkeypatch) for rounds in (10, 40))
    assert long <= short * GROWTH


@pytest.mark.parametrize("build", [racy_chain, racy_ping_pong])
def test_work_per_read_does_not_grow_with_racy_writes(build, monkeypatch):
    short, long = (lookups_per_read(build(writes), monkeypatch) for writes in (500, 2000))
    assert long <= short * GROWTH
