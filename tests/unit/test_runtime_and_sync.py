"""Unit tests for the simulated runtime, schedulers, and sync primitives."""

import sys

import pytest

from repro.errors import DeadlockError, InvalidSyncStateError, SchedulerError, ThreadingError
from repro.inspector.api import run_with_provenance
from repro.threads.backend import DirectBackend
from repro.threads.process import ProcessState
from repro.threads.program import ProgramAPI
from repro.threads.runtime import SimRuntime
from repro.threads.scheduler import FixedScheduler, RandomScheduler, RoundRobinScheduler


def run_program(main, scheduler=None, backend=None):
    """Run ``main(api)`` on a fresh runtime and return (result, backend, runtime)."""
    backend = backend if backend is not None else DirectBackend(page_size=256)
    runtime = SimRuntime(scheduler=scheduler, backend=backend)

    def entry(proc):
        return main(ProgramAPI(runtime, backend, proc))

    result = runtime.run(entry)
    return result, backend, runtime


class TestSchedulers:
    def test_round_robin_cycles(self):
        sched = RoundRobinScheduler()
        assert sched.pick([0, 1, 2], None) == 0
        assert sched.pick([0, 1, 2], 0) == 1
        assert sched.pick([0, 1, 2], 2) == 0

    def test_round_robin_skips_missing(self):
        sched = RoundRobinScheduler()
        assert sched.pick([0, 3, 5], 3) == 5
        assert sched.pick([0, 3, 5], 5) == 0

    def test_random_is_deterministic_per_seed(self):
        a = RandomScheduler(seed=7)
        b = RandomScheduler(seed=7)
        picks_a = [a.pick([0, 1, 2, 3], None) for _ in range(20)]
        picks_b = [b.pick([0, 1, 2, 3], None) for _ in range(20)]
        assert picks_a == picks_b

    def test_random_reset_restarts_sequence(self):
        sched = RandomScheduler(seed=3)
        first = [sched.pick([0, 1, 2], None) for _ in range(10)]
        sched.reset()
        second = [sched.pick([0, 1, 2], None) for _ in range(10)]
        assert first == second

    def test_fixed_scheduler_replays_order(self):
        sched = FixedScheduler([2, 1, 0])
        assert sched.pick([0, 1, 2], None) == 2
        assert sched.pick([0, 1, 2], None) == 1
        assert sched.pick([0, 1, 2], None) == 0

    def test_fixed_scheduler_falls_back(self):
        sched = FixedScheduler([5])
        assert sched.pick([0, 1], None) == 0


class TestRuntimeBasics:
    def test_single_process_returns_result(self):
        result, _, _ = run_program(lambda api: 42)
        assert result == 42

    def test_spawn_and_join_returns_child_result(self):
        def child(api, value):
            return value * 2

        def main(api):
            handle = api.spawn(child, 21)
            return api.join(handle)

        result, _, _ = run_program(main)
        assert result == 42

    def test_many_children(self):
        def child(api, i):
            return i

        def main(api):
            handles = [api.spawn(child, i) for i in range(10)]
            return sum(api.join(h) for h in handles)

        result, _, runtime = run_program(main)
        assert result == sum(range(10))
        assert runtime.process_creations == 11

    def test_nested_spawn(self):
        def grandchild(api):
            return 1

        def child(api):
            return api.join(api.spawn(grandchild)) + 1

        def main(api):
            return api.join(api.spawn(child)) + 1

        result, _, _ = run_program(main)
        assert result == 3

    def test_exception_in_child_propagates(self):
        def child(api):
            raise ValueError("boom")

        def main(api):
            handle = api.spawn(child)
            return api.join(handle)

        with pytest.raises(ValueError, match="boom"):
            run_program(main)

    def test_exception_in_main_propagates(self):
        def main(api):
            raise RuntimeError("main failed")

        with pytest.raises(RuntimeError, match="main failed"):
            run_program(main)

    def test_join_self_raises(self):
        def main(api):
            class FakeHandle:
                process = api.process

            return api.runtime.join(api.process, api.process)

        with pytest.raises(ThreadingError):
            run_program(main)

    def test_runtime_is_single_use(self):
        backend = DirectBackend(page_size=256)
        runtime = SimRuntime(backend=backend)
        runtime.run(lambda proc: None)
        with pytest.raises(ThreadingError):
            runtime.run(lambda proc: None)

    def test_all_processes_terminate(self):
        def child(api):
            return None

        def main(api):
            handles = [api.spawn(child) for _ in range(4)]
            for handle in handles:
                api.join(handle)

        _, _, runtime = run_program(main)
        assert all(p.state is ProcessState.TERMINATED for p in runtime.processes)


class TestMutex:
    def test_lock_protects_critical_section(self):
        def worker(api, mutex, counter_addr, iterations):
            for _ in range(iterations):
                api.lock(mutex)
                api.store(counter_addr, api.load(counter_addr) + 1)
                api.unlock(mutex)

        def main(api):
            mutex = api.mutex()
            counter = api.malloc(8)
            api.store(counter, 0)
            handles = [api.spawn(worker, mutex, counter, 10) for _ in range(4)]
            for handle in handles:
                api.join(handle)
            return api.load(counter)

        result, _, _ = run_program(main)
        assert result == 40

    def test_unlock_not_owner_raises(self):
        def main(api):
            mutex = api.mutex()
            api.unlock(mutex)

        with pytest.raises(InvalidSyncStateError):
            run_program(main)

    def test_relock_raises(self):
        def main(api):
            mutex = api.mutex()
            api.lock(mutex)
            api.lock(mutex)

        with pytest.raises(InvalidSyncStateError):
            run_program(main)

    def test_trylock_succeeds_when_free(self):
        def main(api):
            mutex = api.mutex()
            acquired = api.try_lock(mutex)
            api.unlock(mutex)
            return acquired

        result, _, _ = run_program(main)
        assert result is True

    def test_trylock_fails_when_held(self):
        def holder(api, mutex, start, done):
            api.lock(mutex)
            api.sem_post(start)
            api.sem_wait(done)
            api.unlock(mutex)

        def main(api):
            mutex = api.mutex()
            start = api.semaphore(0)
            done = api.semaphore(0)
            handle = api.spawn(holder, mutex, start, done)
            api.sem_wait(start)
            acquired = api.try_lock(mutex)
            api.sem_post(done)
            api.join(handle)
            return acquired

        result, _, _ = run_program(main)
        assert result is False

    def test_contention_counters(self):
        def worker(api, mutex):
            api.lock(mutex)
            api.compute(5)
            api.unlock(mutex)

        def main(api):
            mutex = api.mutex()
            handles = [api.spawn(worker, mutex) for _ in range(3)]
            for handle in handles:
                api.join(handle)
            return mutex.acquisitions

        result, _, _ = run_program(main)
        assert result == 3


class TestSemaphoreCondvarBarrier:
    def test_semaphore_orders_producer_consumer(self):
        def producer(api, sem, addr):
            api.store(addr, 99)
            api.sem_post(sem)

        def main(api):
            sem = api.semaphore(0)
            addr = api.malloc(8)
            handle = api.spawn(producer, sem, addr)
            api.sem_wait(sem)
            value = api.load(addr)
            api.join(handle)
            return value

        result, _, _ = run_program(main)
        assert result == 99

    def test_semaphore_initial_value(self):
        def main(api):
            sem = api.semaphore(2)
            api.sem_wait(sem)
            api.sem_wait(sem)
            return sem.value

        result, _, _ = run_program(main)
        assert result == 0

    def test_condvar_wakeup(self):
        def waiter(api, mutex, cond, flag_addr):
            api.lock(mutex)
            while api.branch(api.load(flag_addr) == 0, "waiter.check"):
                api.cond_wait(cond, mutex)
            value = api.load(flag_addr)
            api.unlock(mutex)
            return value

        def main(api):
            mutex = api.mutex()
            cond = api.condvar()
            flag = api.malloc(8)
            api.store(flag, 0)
            handle = api.spawn(waiter, mutex, cond, flag)
            api.lock(mutex)
            api.store(flag, 5)
            api.cond_signal(cond)
            api.unlock(mutex)
            return api.join(handle)

        result, _, _ = run_program(main)
        assert result == 5

    def test_condvar_broadcast_wakes_all(self):
        def waiter(api, mutex, cond, flag_addr):
            api.lock(mutex)
            while api.branch(api.load(flag_addr) == 0, "bwaiter.check"):
                api.cond_wait(cond, mutex)
            api.unlock(mutex)
            return 1

        def main(api):
            mutex = api.mutex()
            cond = api.condvar()
            flag = api.malloc(8)
            handles = [api.spawn(waiter, mutex, cond, flag) for _ in range(3)]
            api.lock(mutex)
            api.store(flag, 1)
            api.cond_broadcast(cond)
            api.unlock(mutex)
            return sum(api.join(h) for h in handles)

        result, _, _ = run_program(main)
        assert result == 3

    def test_condvar_wait_without_mutex_raises(self):
        def main(api):
            mutex = api.mutex()
            cond = api.condvar()
            api.cond_wait(cond, mutex)

        with pytest.raises(InvalidSyncStateError):
            run_program(main)

    def test_barrier_synchronizes_phases(self):
        def worker(api, barrier, addr, index):
            api.store(addr + index * 8, 1)
            api.barrier_wait(barrier)
            total = 0
            for i in range(3):
                total += api.load(addr + i * 8)
            return total

        def main(api):
            barrier = api.barrier(3)
            addr = api.malloc(24)
            handles = [api.spawn(worker, barrier, addr, i) for i in range(3)]
            return [api.join(h) for h in handles]

        result, _, _ = run_program(main)
        # Every worker must observe all three pre-barrier writes.
        assert result == [3, 3, 3]

    def test_barrier_serial_thread_unique(self):
        def worker(api, barrier):
            return api.barrier_wait(barrier)

        def main(api):
            barrier = api.barrier(4)
            handles = [api.spawn(worker, barrier) for _ in range(4)]
            return sum(1 for h in handles if api.join(h))

        result, _, _ = run_program(main)
        assert result == 1

    def test_barrier_is_cyclic(self):
        def worker(api, barrier):
            for _ in range(3):
                api.barrier_wait(barrier)
            return True

        def main(api):
            barrier = api.barrier(2)
            handles = [api.spawn(worker, barrier) for _ in range(2)]
            return all(api.join(h) for h in handles)

        result, _, _ = run_program(main)
        assert result is True

    def test_invalid_barrier_parties(self):
        def main(api):
            api.barrier(0)

        with pytest.raises(InvalidSyncStateError):
            run_program(main)


class TestRWLock:
    def test_multiple_readers_allowed(self):
        def reader(api, lock, addr):
            api.rw_rdlock(lock)
            value = api.load(addr)
            api.rw_unlock(lock)
            return value

        def main(api):
            lock = api.rwlock()
            addr = api.malloc(8)
            api.store(addr, 7)
            handles = [api.spawn(reader, lock, addr) for _ in range(3)]
            return [api.join(h) for h in handles]

        result, _, _ = run_program(main)
        assert result == [7, 7, 7]

    def test_writer_excludes_readers(self):
        def writer(api, lock, addr):
            api.rw_wrlock(lock)
            api.store(addr, api.load(addr) + 1)
            api.rw_unlock(lock)

        def main(api):
            lock = api.rwlock()
            addr = api.malloc(8)
            handles = [api.spawn(writer, lock, addr) for _ in range(5)]
            for h in handles:
                api.join(h)
            return api.load(addr)

        result, _, _ = run_program(main)
        assert result == 5

    def test_unlock_without_hold_raises(self):
        def main(api):
            lock = api.rwlock()
            api.rw_unlock(lock)

        with pytest.raises(InvalidSyncStateError):
            run_program(main)


class TestDeadlockDetection:
    def test_self_deadlock_detected(self):
        def main(api):
            sem = api.semaphore(0)
            api.sem_wait(sem)  # nobody will ever post

        with pytest.raises(DeadlockError):
            run_program(main)

    def test_abba_deadlock_detected(self):
        def worker_a(api, m1, m2, gate):
            api.lock(m1)
            api.sem_post(gate)
            api.lock(m2)
            api.unlock(m2)
            api.unlock(m1)

        def main(api):
            m1, m2 = api.mutex(), api.mutex()
            gate = api.semaphore(0)
            handle = api.spawn(worker_a, m1, m2, gate)
            api.lock(m2)
            api.sem_wait(gate)
            api.lock(m1)
            api.unlock(m1)
            api.unlock(m2)
            api.join(handle)

        with pytest.raises(DeadlockError):
            run_program(main)


class TestScheduleIndependence:
    def test_data_race_free_program_result_is_schedule_independent(self):
        def worker(api, mutex, addr, amount):
            api.lock(mutex)
            api.store(addr, api.load(addr) + amount)
            api.unlock(mutex)

        def main(api):
            mutex = api.mutex()
            addr = api.malloc(8)
            handles = [api.spawn(worker, mutex, addr, i) for i in range(1, 6)]
            for handle in handles:
                api.join(handle)
            return api.load(addr)

        results = set()
        for seed in range(5):
            result, _, _ = run_program(main, scheduler=RandomScheduler(seed=seed))
            results.add(result)
        assert results == {15}


class _RecordingScheduler(RandomScheduler):
    """A seeded random scheduler that remembers every pick."""

    def __init__(self, seed):
        super().__init__(seed)
        self.picks = []

    def pick(self, runnable, last):
        pid = super().pick(runnable, last)
        self.picks.append(pid)
        return pid


class _FailingScheduler(RoundRobinScheduler):
    """Round-robin for the first ``good`` picks; then ``failure`` happens."""

    def __init__(self, good, failure):
        self.good = good
        self.failure = failure
        self.picks = 0

    def pick(self, runnable, last):
        self.picks += 1
        if self.picks <= self.good:
            return super().pick(runnable, last)
        if self.failure == "not runnable":
            return max(runnable) + 1
        raise SchedulerError("scheduler gave up")

    def reset(self):
        self.picks = 0


def _locking_children(api):
    def child(api, mutex, index):
        api.lock(mutex)
        api.compute(index)
        api.unlock(mutex)
        return index

    mutex = api.mutex()
    handles = [api.spawn(child, mutex, i) for i in range(3)]
    return [api.join(h) for h in handles]


def _failing_child(api):
    def child(api, sem):
        api.sem_wait(sem)
        raise ValueError("child failed")

    def bystander(api, sem):
        api.sem_wait(sem)

    sem = api.semaphore(0)
    handles = [api.spawn(bystander, sem), api.spawn(child, sem)]
    api.sem_post(sem)
    api.sem_post(sem)
    api.sem_post(sem)
    for handle in handles:
        api.join(handle)


def _deadlocked(api):
    def child(api, sem):
        api.sem_wait(sem)

    never = api.semaphore(0)
    api.spawn(child, never)
    api.sem_wait(never)


class TestRuntimeErrorsAndTeardown:
    @pytest.mark.parametrize("good", [0, 5])
    def test_pick_outside_the_runnable_set_raises(self, good):
        # good=0 fails on run()'s first dispatch, good=5 on a hosted thread.
        with pytest.raises(ThreadingError, match="not runnable"):
            run_program(_locking_children, scheduler=_FailingScheduler(good, "not runnable"))

    def test_scheduler_error_is_raised_from_run(self):
        with pytest.raises(SchedulerError, match="gave up"):
            run_program(_locking_children, scheduler=_FailingScheduler(5, "raise"))

    @pytest.mark.parametrize(
        "program, scheduler, error",
        [
            (_locking_children, None, None),
            (_failing_child, None, ValueError),
            (_deadlocked, None, DeadlockError),
            (_locking_children, _FailingScheduler(5, "not runnable"), ThreadingError),
            (_locking_children, _FailingScheduler(5, "raise"), SchedulerError),
        ],
        ids=["normal", "child-exception", "deadlock", "bad-pick", "scheduler-error"],
    )
    def test_every_hosted_thread_exits(self, program, scheduler, error):
        backend = DirectBackend(page_size=256)
        runtime = SimRuntime(scheduler=scheduler, backend=backend)

        def entry(proc):
            return program(ProgramAPI(runtime, backend, proc))

        if error is None:
            runtime.run(entry)
        else:
            with pytest.raises(error):
                runtime.run(entry)
        assert len(runtime.processes) > 1
        assert all(not proc.thread.is_alive() for proc in runtime.processes)

    def test_deadlock_names_every_blocked_process(self):
        with pytest.raises(DeadlockError, match=r"main on .*Semaphore.*, proc-1 on .*Semaphore"):
            run_program(_deadlocked)

    def test_hand_off_runs_one_process_at_a_time_under_a_short_switch_interval(self):
        # With the interpreter switching threads every microsecond, a hand-off
        # that let two hosted threads run at once would trip the ``running``
        # check or lose an update of ``total``.
        workers, rounds = 12, 25

        def run_once(seed):
            running, total = [None], [0]

            def worker(api):
                pid = api.process.pid
                for _ in range(rounds):
                    assert running[0] is None
                    running[0] = pid
                    value = total[0]
                    sum(range(200))
                    total[0] = value + 1
                    assert running[0] == pid
                    running[0] = None
                    api.yield_()

            def main(api):
                for handle in [api.spawn(worker) for _ in range(workers)]:
                    api.join(handle)
                return total[0]

            scheduler = _RecordingScheduler(seed)
            result, _, runtime = run_program(main, scheduler=scheduler)
            return result, runtime.context_switches, scheduler.picks

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            first, again = run_once(5), run_once(5)
        finally:
            sys.setswitchinterval(interval)
        assert first[0] == workers * rounds
        assert first == again


def _mixed_sync_program(api):
    mutex, cond = api.mutex(), api.condvar()
    barrier, sem, rwlock = api.barrier(3), api.semaphore(0), api.rwlock()
    counter, flag = api.malloc(8), api.malloc(8)

    def worker(api):
        api.lock(mutex)
        api.store(counter, api.load(counter) + 1)
        api.unlock(mutex)
        api.barrier_wait(barrier)
        api.sem_post(sem)
        api.rw_rdlock(rwlock)
        seen = api.load(counter)
        api.rw_unlock(rwlock)
        api.lock(mutex)
        while api.branch(api.load(flag) == 0, "mixed.wait"):
            api.cond_wait(cond, mutex)
        api.unlock(mutex)
        return seen

    handles = [api.spawn(worker) for _ in range(3)]
    api.rw_wrlock(rwlock)
    for _ in handles:
        api.sem_wait(sem)
    api.store(counter, api.load(counter) * 10)
    api.rw_unlock(rwlock)
    api.lock(mutex)
    api.store(flag, 1)
    api.cond_broadcast(cond)
    api.unlock(mutex)
    return [api.join(h) for h in handles]


class TestSchedulePinned:
    """The interleaving itself, so a runtime rewrite cannot change it silently."""

    #: (context switches, process creations) of the high-switch registry
    #: workloads at small size, 4 threads, dataset seed 3.
    REGISTRY_COUNTS = {
        "kmeans": (313, 105),
        "reverse_index": (1958, 5),
        "streamcluster": (154, 5),
        "canneal": (102, 5),
        "pca": (43, 5),
    }

    #: Every pick of ``RandomScheduler(13)`` over :func:`_mixed_sync_program`;
    #: with this seed some process blocks on each primitive and in a join.
    MIXED_PICKS = [
        0, 1, 0, 2, 0, 3, 0, 0, 1, 1, 2, 2, 3, 2, 3, 3, 3, 0, 2, 1,
        0, 2, 3, 2, 1, 0, 1, 0, 0, 3, 3, 2, 3, 2, 0, 2, 3, 2, 1, 2,
        0, 1, 1, 0, 2, 0, 1, 2, 1, 2, 3, 1, 2, 2, 0, 3, 0, 0, 3, 3,
        0, 0,
    ]

    @pytest.mark.parametrize("workload", sorted(REGISTRY_COUNTS))
    def test_registry_switch_counts(self, workload):
        stats = run_with_provenance(workload, num_threads=4, size="small", seed=3).stats
        assert (stats.context_switches, stats.process_creations) == self.REGISTRY_COUNTS[workload]

    def test_random_pick_sequence_over_every_primitive(self):
        scheduler = _RecordingScheduler(13)
        result, _, runtime = run_program(_mixed_sync_program, scheduler=scheduler)
        assert result == [30, 30, 30]
        assert scheduler.picks == self.MIXED_PICKS
        assert runtime.context_switches == len(self.MIXED_PICKS)
