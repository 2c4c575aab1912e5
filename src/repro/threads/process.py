"""Simulated processes (the "threads as processes" of INSPECTOR).

INSPECTOR turns every ``pthread_create`` into a ``clone()`` that produces a
real process with its own private address space.  In this reproduction a
:class:`SimProcess` is the unit of execution the runtime schedules: it has
an identifier, a state machine, the Python thread that hosts its code, and
the bookkeeping the synchronization layer needs (join waiters, the tokens
that order creation and termination in the happens-before relation).
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Callable, List, Optional


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    TERMINATED = "terminated"


class SimProcess:
    """One simulated process (standing in for a pthread of the application).

    Attributes:
        pid: Unique process id assigned by the runtime (0 is the main thread).
        tid: Thread index used by the provenance layer; equal to ``pid``.
        name: Human-readable name for logs and error messages.
        entry: The callable executed by the process; it receives the
            :class:`SimProcess` itself so higher layers can bind their
            program API to it.
        state: Current :class:`ProcessState`.
        waiting_on: Description of what the process is blocked on (a sync
            object or a ``("join", pid)`` tuple); ``None`` when not blocked.
        result: Return value of ``entry`` once terminated.
        exception: Exception raised by ``entry``, if any.
        joiners: Processes blocked in ``join`` on this process.
        parent_pid: Pid of the creating process (``None`` for the main thread).
        start_token: Sync-object placeholder released by the parent at
            creation time and acquired by this process when it starts; set
            by the threading facade.
        exit_token: Sync-object placeholder released by this process when it
            exits and acquired by joiners; set by the threading facade.
        user_data: Scratch dictionary for higher layers (backends attach
            per-process tracking state here).
        thread: The Python thread hosting the process (set by the runtime).
        wake: Lock the hosting thread waits on for the CPU.  It is created
            held; the runtime releases it to hand the CPU to this process.
    """

    def __init__(
        self,
        pid: int,
        entry: Callable[["SimProcess"], Any],
        name: Optional[str] = None,
        parent_pid: Optional[int] = None,
    ) -> None:
        self.pid = pid
        self.tid = pid
        self.name = name if name is not None else f"proc-{pid}"
        self.entry = entry
        self.state = ProcessState.NEW
        self.waiting_on: Optional[object] = None
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.joiners: List["SimProcess"] = []
        self.parent_pid = parent_pid
        self.start_token: Optional[object] = None
        self.exit_token: Optional[object] = None
        self.user_data: dict = {}
        self.thread: Optional[threading.Thread] = None
        self.wake = threading.Lock()
        self.wake.acquire()

    @property
    def terminated(self) -> bool:
        """Whether the process has finished executing."""
        return self.state is ProcessState.TERMINATED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimProcess(pid={self.pid}, name={self.name!r}, state={self.state.value})"
