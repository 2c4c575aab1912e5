"""Random recorded executions shared by the store, cluster and gate suites."""

from __future__ import annotations

import random

from repro.core.algorithm import ProvenanceTracker
from repro.core.dependencies import derive_data_edges


def random_cpg(seed: int):
    """Record a random 3-thread mostly-lock-ordered execution.

    Occasional unsynchronized accesses make sync, control, *and* data edges
    plus racy structure all appear; pages are drawn from 0..7, and pages 0
    and 1 are registered inputs.
    """
    rng = random.Random(seed)
    tracker = ProvenanceTracker()
    tracker.register_input_pages({0, 1})
    threads = [1, 2, 3]
    lock = 99
    holder = None
    for tid in threads:
        tracker.on_thread_start(tid)
    for _ in range(rng.randint(5, 40)):
        tid = rng.choice(threads)
        if rng.random() < 0.2:
            # Unsynchronized access: may race, exercises concurrency paths.
            tracker.on_memory_access(tid, rng.randint(0, 7), is_write=bool(rng.getrandbits(1)))
            continue
        if holder is None:
            tracker.on_sync_boundary(tid, "mutex_lock")
            tracker.on_acquire(tid, lock)
            tracker.begin_next(tid)
            tracker.on_memory_access(tid, rng.randint(0, 7), is_write=bool(rng.getrandbits(1)))
            holder = tid
        elif holder == tid:
            tracker.on_sync_boundary(tid, "mutex_unlock")
            tracker.on_release(tid, lock)
            tracker.begin_next(tid)
            holder = None
    for tid in threads:
        tracker.on_thread_end(tid)
    cpg = tracker.finalize()
    derive_data_edges(cpg)
    return cpg
