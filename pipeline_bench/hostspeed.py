"""CPU time of the measured processes, scaled by the speed of the CPU they ran on.

The benchmark's hosts are shared.  Wall time there includes waits that
are not the program's work and change from run to run: the hypervisor
running another tenant's vCPU (steal time), and fsyncs on a disk other
tenants use (the store fsyncs every segment-log append).  And while the
process runs, the CPU's speed changes by up to 1.7x within seconds
(another tenant on the sibling hyperthread), independently per CPU.

So every time is CPU time: of this process (``time.process_time``, all
its threads), of a child it reaped (``RUSAGE_CHILDREN``), or of another
running process (:func:`process_cpu_s`, the kernel's per-process CPU
clock).  With paravirtual steal accounting, the kernel leaves stolen time
out of every one of these clocks.

:class:`SpeedSampler` interrupts the measuring process every
:data:`INTERVAL_S` seconds (``SIGALRM``, handled in the main thread) and
times a fixed pure-Python probe there, in thread CPU time.  :func:`work_s`
turns the CPU seconds spent in a wall-clock interval into *reference
seconds*: those CPU seconds, less the probes' own, times the mean speed
the probes around the interval saw relative to :data:`REFERENCE_PROBE_S`.
A program that does less work reads less; a slower CPU, a stolen
timeslice or a slow disk does not.

Every process whose time is normalised this way runs on one CPU
(:func:`pin_to_cpu`), so that the probes and the work share it.
Probe ``(end, duration)`` samples have their end on ``time.perf_counter``
(the system's monotonic clock on Linux), so one process can normalise
intervals it timed with another process's samples from the same CPU.
"""

from __future__ import annotations

import bisect
import os
import resource
import signal
import time
from typing import List, Sequence, Tuple

#: Seconds between two probes.
INTERVAL_S = 0.02
#: Probes this many seconds either side of an interval also set its speed:
#: one probe is noisy, and the host's speed holds for about a second.
WINDOW_S = 0.1
#: Iterations of the two halves of the probe (together about 0.2 ms).
INT_LOOP = 1_500
ALLOC_LOOP = 100
#: Probe time that counts as speed 1.0: the probe on an uncontended CPU of
#: a 2-vCPU x86_64 VM with CPython 3.11, so that a reference second is
#: about a wall second there.
REFERENCE_PROBE_S = 1.5e-4


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, value: int) -> None:
        self.left = value
        self.right = value


def probe_s() -> float:
    """CPU seconds the fixed probe takes now.

    Half integer arithmetic, half small objects allocated and tuples hashed
    into a set, as the pipeline's graph code does.  How much a busy
    neighbour slows each half differs from how much it slows the program
    (the allocating half tracks store queries better, the integer half
    traced runs); the sum tracks both.
    """
    start = time.thread_time()
    total = 0
    for value in range(INT_LOOP):
        total += value * value
    sums = []
    seen = set()
    for value in range(ALLOC_LOOP):
        pair = _Pair(value)
        sums.append(pair.left + pair.right)
        seen.add((value, value & 7))
    return time.thread_time() - start


def process_cpu_s(pid: int) -> float:
    """CPU seconds the running process ``pid`` has used, all its threads together.

    Reads the kernel's CPU clock of that process (``clock_getcpuclockid``;
    Python does not expose it, so the clock id is built as Linux encodes
    it).  Raises ``OSError`` once the process is gone.
    """
    return time.clock_gettime(((~pid) << 3) | 2)


def children_cpu_s() -> float:
    """CPU seconds of every child this process has reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def allowed_cpus() -> List[int]:
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


def pin_to_cpu(cpu: int) -> int:
    """Restrict this process, and the children it starts, to CPU ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpus_by_speed(trial_s: float = 0.4) -> List[int]:
    """The CPUs this process may run on, fastest first.

    Each is probed back to back for ``trial_s`` seconds.  A CPU whose
    sibling another tenant keeps busy can stay slow for minutes, and it
    slows some of the pipeline's code (short store queries) more than the
    probe shows, so a run measures on the fastest CPU it can get.  Leaves
    the process allowed on every CPU it was allowed on.
    """
    allowed = allowed_cpus()
    speed = {}
    try:
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            durations = []
            deadline = time.perf_counter() + trial_s
            while time.perf_counter() < deadline:
                durations.append(probe_s())
            speed[cpu] = -sorted(durations)[len(durations) // 2]
    finally:
        os.sched_setaffinity(0, allowed)
    return sorted(allowed, key=speed.__getitem__, reverse=True)


class SpeedSampler:
    """Probes the CPU's speed from a ``SIGALRM`` handler; see the module doc."""

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        duration = probe_s()
        self.ends.append(time.perf_counter())
        self.durations.append(duration)

    def start(self) -> "SpeedSampler":
        self._sample(signal.SIGALRM, None)  # an interval timed at once has a probe
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "SpeedSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def samples(self) -> List[Tuple[float, float]]:
        """``(end, duration)`` of every probe so far."""
        return list(zip(self.ends, self.durations))

    def work_s(self, start: float, end: float, cpu_s: float) -> float:
        """Reference seconds of ``cpu_s``, this process's CPU time over ``[start, end]``."""
        return work_s(self.ends, self.durations, start, end, cpu_s)

    def speed(self, start: float, end: float) -> float:
        """This CPU's speed over ``[start, end]``; see :func:`speed`."""
        return speed(self.ends, self.durations, start, end)


def speed(ends: Sequence[float], durations: Sequence[float], start: float, end: float) -> float:
    """The CPU's speed over the wall interval ``[start, end]`` (1.0 is the reference).

    The mean of ``REFERENCE_PROBE_S / duration`` over the probes that
    ended within :data:`WINDOW_S` of the interval (the probes are evenly
    spaced in time, so this is the time-averaged speed), or of the probes
    on either side when none did.
    """
    low = bisect.bisect_left(ends, start - WINDOW_S)
    high = bisect.bisect_right(ends, end + WINDOW_S)
    near = durations[low:high] or durations[max(low - 1, 0):low + 1]
    if not near:
        raise ValueError("no speed probes")
    return sum(REFERENCE_PROBE_S / duration for duration in near) / len(near)


def work_s(
    ends: Sequence[float], durations: Sequence[float], start: float, end: float, cpu_s: float
) -> float:
    """Reference seconds of ``cpu_s`` CPU seconds spent in the wall interval ``[start, end]``.

    ``cpu_s`` is the CPU time of the processes that did the work, the
    sampled one among them: the probes that ended inside the interval
    are not work and are taken out.
    """
    probes = sum(durations[bisect.bisect_left(ends, start):bisect.bisect_right(ends, end)])
    return max(cpu_s - probes, 0.0) * speed(ends, durations, start, end)


def summary(durations: Sequence[float]) -> str:
    """One report line on the probes: count and the speed range they saw."""
    if not durations:
        return "no speed probes"
    speeds = sorted(REFERENCE_PROBE_S / duration for duration in durations)
    mean = sum(speeds) / len(speeds)
    return (
        f"{len(speeds)} speed probes, mean speed {mean:.3f} of reference "
        f"(p5 {speeds[len(speeds) // 20]:.3f}, p95 {speeds[len(speeds) * 19 // 20]:.3f})"
    )
