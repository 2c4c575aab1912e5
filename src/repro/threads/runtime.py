"""The simulated operating system: process creation, scheduling, blocking.

Every simulated process is hosted by a real Python thread, but only one of
them runs at any moment: the one holding the "CPU".  A process gives the
CPU up only at a scheduling point (a synchronization operation, a
voluntary yield, or termination), and it hands the CPU over itself: it
asks the scheduler to pick among the runnable processes, releases the
chosen process's wake lock, and then waits on its own (or its thread
ends).  No coordinator thread sits between two processes, and the
runnable pids are kept as a sorted list that changes only when a process
changes state, so a switch costs one scheduler call and one lock hand-off.

Because the release-consistency model restricts inter-thread communication
to synchronization points, scheduling only at those points loses no
behaviour that the provenance layer could observe, while keeping runs
deterministic and replayable under a deterministic scheduler.
"""

from __future__ import annotations

import threading
from bisect import insort
from typing import Any, Callable, Dict, List, Optional

from repro.errors import DeadlockError, ThreadingError
from repro.threads.process import ProcessState, SimProcess
from repro.threads.scheduler import RoundRobinScheduler, Scheduler


class _RuntimeShutdown(BaseException):
    """Internal signal used to unwind hosted threads when a run aborts.

    Derived from ``BaseException`` so that application-level ``except
    Exception`` blocks inside workloads cannot swallow it.
    """


class SimRuntime:
    """Cooperative scheduler for simulated processes.

    Args:
        scheduler: Scheduling policy; defaults to deterministic round-robin.
        backend: Optional :class:`~repro.threads.backend.ExecutionBackend`
            whose lifecycle hooks are invoked when processes start and exit.
            The backend is also what the program API routes memory and
            branch events through.

    Attributes:
        context_switches: Number of times the CPU was handed to a process.
        process_creations: Number of processes spawned (the paper's
            ``clone()``-per-thread cost is charged per creation).
        sync_object_count: Number of synchronization objects created so far
            (used to assign stable ids).
    """

    def __init__(self, scheduler: Optional[Scheduler] = None, backend: Optional[object] = None) -> None:
        self.scheduler = scheduler if scheduler is not None else RoundRobinScheduler()
        self.backend = backend
        self._processes: Dict[int, SimProcess] = {}
        #: pids of the RUNNABLE processes, ascending; changed only on state transitions
        self._runnable: List[int] = []
        #: processes not yet terminated
        self._live = 0
        self._next_pid = 0
        self._next_sync_id = 0
        self._last_scheduled: Optional[int] = None
        #: taken around every release of a wake lock, so a hand-off and a
        #: shutdown never release the same one twice
        self._switch = threading.Lock()
        #: set when the last process exits or a shutdown begins
        self._done = threading.Event()
        self._shutdown = False
        self._abort_error: Optional[BaseException] = None
        self.context_switches = 0
        self.process_creations = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def processes(self) -> List[SimProcess]:
        """All processes created so far, in pid order."""
        return [self._processes[pid] for pid in sorted(self._processes)]

    def process(self, pid: int) -> SimProcess:
        """Return the process with id ``pid``."""
        return self._processes[pid]

    @property
    def sync_object_count(self) -> int:
        """Number of synchronization-object ids handed out so far."""
        return self._next_sync_id

    def next_sync_id(self) -> int:
        """Return a fresh synchronization-object id."""
        sync_id = self._next_sync_id
        self._next_sync_id += 1
        return sync_id

    # ------------------------------------------------------------------ #
    # Process creation
    # ------------------------------------------------------------------ #

    def spawn(
        self,
        entry: Callable[[SimProcess], Any],
        name: Optional[str] = None,
        parent: Optional[SimProcess] = None,
    ) -> SimProcess:
        """Create a new simulated process and make it runnable.

        Args:
            entry: Callable invoked with the new :class:`SimProcess`.  Higher
                layers use this to bind their program API to the process.
            name: Optional human-readable name.
            parent: The creating process, if any.

        Returns:
            The new process.  Its hosting Python thread is started
            immediately but does not run application code until scheduled.
        """
        pid = self._next_pid
        self._next_pid += 1
        proc = SimProcess(pid=pid, entry=entry, name=name, parent_pid=parent.pid if parent else None)
        self._processes[pid] = proc
        self.process_creations += 1
        self._live += 1
        thread = threading.Thread(target=self._process_body, args=(proc,), name=proc.name, daemon=True)
        proc.thread = thread
        self._ready(proc)
        thread.start()
        return proc

    # ------------------------------------------------------------------ #
    # Running a program
    # ------------------------------------------------------------------ #

    def run(self, entry: Callable[[SimProcess], Any], name: str = "main") -> Any:
        """Run ``entry`` as the main process until every process terminates.

        Returns:
            The return value of the main process.

        Raises:
            DeadlockError: If at some point no process is runnable but some
                are still blocked.
            ThreadingError: If the scheduler picks a process that is not
                runnable.
            Exception: The first exception raised by any simulated process,
                or else by the scheduler, is re-raised here after the run
                is torn down.
        """
        self._reset_run_state()
        main = self.spawn(entry, name=name)
        try:
            self._dispatch()
            self._done.wait()
        finally:
            self._teardown_threads()
        failed = [p for p in self.processes if p.exception is not None]
        if failed:
            raise failed[0].exception
        if self._abort_error is not None:
            raise self._abort_error
        return main.result

    def _reset_run_state(self) -> None:
        if self._processes:
            raise ThreadingError("SimRuntime.run() may only be called once per runtime instance")
        self.scheduler.reset()

    def _dispatch(self) -> None:
        """Hand the CPU to the runnable process the scheduler picks.

        Called by whoever gives the CPU up: a process that yields, blocks
        or exits, and :meth:`run` once to start the main process.  No
        runnable process (a deadlock), a pick outside the runnable set, or
        a scheduler that raises aborts the run instead; :meth:`run` raises
        the error.
        """
        if self._shutdown:
            return
        runnable = self._runnable
        if not runnable:
            blocked = [p for p in self.processes if p.state is ProcessState.BLOCKED]
            self._begin_shutdown(
                DeadlockError(
                    "no runnable process; blocked: "
                    + ", ".join(f"{p.name} on {p.waiting_on!r}" for p in blocked)
                )
            )
            return
        try:
            pid = self.scheduler.pick(list(runnable), self._last_scheduled)
        except Exception as exc:  # noqa: BLE001 - raised from run()
            self._begin_shutdown(exc)
            return
        if pid not in runnable:
            self._begin_shutdown(ThreadingError(f"scheduler chose pid {pid} which is not runnable"))
            return
        runnable.remove(pid)
        self._last_scheduled = pid
        self.context_switches += 1
        with self._switch:
            if not self._shutdown:
                self._processes[pid].wake.release()

    def _begin_shutdown(self, error: Optional[BaseException] = None) -> None:
        """Unwind every parked hosted thread and let :meth:`run` return.

        ``error``, when given, is what aborted the run; :meth:`run` raises
        it unless a process failed with an exception of its own.
        """
        with self._switch:
            if self._shutdown:
                return
            self._shutdown = True
            self._abort_error = error
            for proc in list(self._processes.values()):
                if proc.wake.locked():
                    proc.wake.release()
        self._done.set()

    def _teardown_threads(self) -> None:
        self._begin_shutdown()
        for proc in self.processes:
            if proc.thread is not None and proc.thread.is_alive():
                proc.thread.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # The process side
    # ------------------------------------------------------------------ #

    def _process_body(self, proc: SimProcess) -> None:
        try:
            self._park(proc)
        except _RuntimeShutdown:
            self._finish(proc)
            return
        try:
            if self.backend is not None:
                self.backend.on_process_start(proc)
            proc.result = proc.entry(proc)
            if self.backend is not None:
                self.backend.on_process_exit(proc)
        except _RuntimeShutdown:
            pass
        except BaseException as exc:  # noqa: BLE001 - propagated to run()
            proc.exception = exc
        finally:
            self._finish(proc)

    def _park(self, proc: SimProcess) -> None:
        """Wait until ``proc`` is handed the CPU; unwind if the run shuts down."""
        if not self._shutdown:
            proc.wake.acquire()
        if self._shutdown:
            raise _RuntimeShutdown()
        proc.state = ProcessState.RUNNING

    def _finish(self, proc: SimProcess) -> None:
        """Terminate ``proc``, wake its joiners and give the CPU up for good."""
        proc.state = ProcessState.TERMINATED
        if self._shutdown:
            return
        for waiter in proc.joiners:
            self.make_runnable(waiter)
        proc.joiners.clear()
        self._live -= 1
        if proc.exception is not None:
            self._begin_shutdown()
        elif self._live:
            self._dispatch()
        else:
            self._done.set()

    def _ready(self, proc: SimProcess) -> None:
        proc.state = ProcessState.RUNNABLE
        insort(self._runnable, proc.pid)

    # ------------------------------------------------------------------ #
    # Scheduling points used by the synchronization layer
    # ------------------------------------------------------------------ #

    def yield_control(self, proc: SimProcess, new_state: ProcessState = ProcessState.RUNNABLE) -> None:
        """Hand the CPU to the next process and wait to be handed it again.

        Args:
            proc: The currently running process (must be the caller).
            new_state: The state to park the process in while it waits
                (``RUNNABLE`` for a voluntary yield, ``BLOCKED`` when the
                caller is waiting on a synchronization object).
        """
        if new_state is ProcessState.RUNNABLE:
            self._ready(proc)
        else:
            proc.state = new_state
        self._dispatch()
        self._park(proc)

    def block_current(self, proc: SimProcess, waiting_on: object) -> None:
        """Block ``proc`` on ``waiting_on`` until someone makes it runnable again."""
        proc.waiting_on = waiting_on
        self.yield_control(proc, ProcessState.BLOCKED)
        proc.waiting_on = None

    def make_runnable(self, proc: SimProcess) -> None:
        """Move a blocked process back to the runnable set."""
        if proc.state is ProcessState.BLOCKED:
            proc.waiting_on = None
            self._ready(proc)

    def preempt(self, proc: SimProcess) -> None:
        """Voluntary yield: let the scheduler pick again (caller stays runnable)."""
        self.yield_control(proc, ProcessState.RUNNABLE)

    def join(self, caller: SimProcess, target: SimProcess) -> Any:
        """Block ``caller`` until ``target`` terminates and return its result."""
        if caller.pid == target.pid:
            raise ThreadingError(f"{caller.name} attempted to join itself")
        while not target.terminated:
            target.joiners.append(caller)
            self.block_current(caller, waiting_on=("join", target.pid))
        return target.result
