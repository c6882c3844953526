"""CPU speed probe and busy time: rescales measured durations to the time
the work had a CPU running at a reference speed.

On a shared machine the CPU runs at varying speed: the same work took from
1× to 1.8× as long, switching every second or so and drifting over tens of
seconds, with process CPU time tracking wall time (no steal, no
descheduling).  A background thread therefore times a small fixed
computation, independent of hopcav, every ``PERIOD_S`` in its own thread CPU
time.  A duration measured over an interval is multiplied by the mean of
``REFERENCE_S / probe time`` over that interval: the time the work would
have taken with the CPU at the reference speed.

The host also steals whole stretches of time from the virtual CPUs, in
bursts (about 5% on average, much more at times).  Process CPU time leaves
stolen time out, so single-process work is timed by ``busy``: wall time, or
the CPU time of the process and its children (``cpu_seconds``) where that is
less.  Work spread over several processes is timed as wall time minus the
machine's steal per CPU.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import os
import resource
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.05
# probe time at the reference speed (2-CPU Xeon at 2.1 GHz, fast state); a
# fixed constant, so rescaled figures from different runs compare directly
REFERENCE_S = 0.38e-3
_MATRIX = np.random.default_rng(0).standard_normal((8, 8))


def probe_work() -> float:
    """A little of what hopcav's points do: small LAPACK calls and Python."""
    s = 0.0
    for _ in range(10):
        s += float(np.linalg.eigvals(_MATRIX)[0].real)
        s += sum([j * 0.5 for j in range(40)])
    return s


class SpeedProbe:
    """Samples the probe time from a daemon thread until ``close``.  The
    thread inherits the CPU mask of the thread that starts it: the two
    CPUs' speeds correlate only at about 0.5, so the benchmark runs its
    single-process work and the probe on one CPU."""

    def __init__(self):
        # (perf_counter at start, at end, thread CPU seconds), in time order
        self.samples: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        # a fork (hopcav's worker pool) never starts while a probe runs
        self._busy = threading.Lock()
        os.register_at_fork(before=self._busy.acquire, after_in_parent=self._busy.release,
                            after_in_child=self._busy.release)
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            with self._busy:
                start, c0 = time.perf_counter(), time.thread_time()
                probe_work()
                dt = time.thread_time() - c0
                end = time.perf_counter()
            self.samples.append((start, end, dt))

    def cpu_between(self, t0: float, t1: float) -> float:
        """CPU time the probe itself used in [t0, t1]; a sample that
        overlaps the interval in part counts in proportion."""
        total = 0.0
        first = bisect.bisect_left(self.samples, t0, key=lambda s: s[1])
        for start, end, dt in itertools.islice(self.samples, first, None):
            if start > t1:
                break
            span = end - start
            total += dt * (min(end, t1) - max(start, t0)) / span if span > 0 else dt
        return total

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Mean of the reference probe time over each probe time in
        [t0, t1]: the mean relative speed, so that work done while the
        speed changed counts at the speed it was done at.  An interval too
        short to hold a sample uses the nearest samples."""
        inside = [d for _, t, d in self.samples if t0 <= t <= t1]
        if not inside:
            nearest = sorted(self.samples, key=lambda s: min(abs(s[1] - t0), abs(s[1] - t1)))[:2]
            inside = [d for _, _, d in nearest] or [REFERENCE_S]
        return statistics.mean(REFERENCE_S / d for d in inside)


def busy(wall: float, cpu: float) -> float:
    """Time single-process work had a CPU: its CPU time (``cpu_seconds``),
    unless that exceeds the wall time (work on helper threads)."""
    return min(wall, cpu)


def cpu_seconds(live_children: bool = True) -> float:
    """CPU time of this process and of its child processes: those it has
    waited for and, with ``live_children``, those still running.  Work moved
    into a subprocess or a worker pool therefore still counts.  Reading the
    live ones costs a few ``/proc`` reads, so single calls leave them out."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = time.process_time() + r.ru_utime + r.ru_stime
    return cpu + _live_children_cpu() if live_children else cpu


def children(pid: str) -> list[str]:
    """Process ids of the children of every thread of ``pid``."""
    out = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                out.extend(fh.read().split())
    except OSError:  # ended in between, or a kernel without the file
        pass
    return out


def _live_children_cpu() -> float:
    """CPU time of the live descendants: their own and that of the children
    they have waited for.  A child that is waited for during an interval
    moves from here to ``RUSAGE_CHILDREN`` with its whole CPU time, so the
    sum of both stays continuous."""
    ticks = 0
    pending = children("self")
    while pending:
        pid = pending.pop()
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += sum(int(f) for f in fields[11:15])  # utime stime cutime cstime
        pending.extend(children(pid))
    return ticks / os.sysconf("SC_CLK_TCK")


def steal_seconds(cpu: int | None = None) -> float:
    """Time the host has stolen so far from all of this machine's CPUs, or
    from the one numbered ``cpu``."""
    key = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] == key:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


@contextlib.contextmanager
def on_all_cpus():
    """Lift the calling thread's CPU mask for the block, so that processes
    it starts (hopcav's worker pool, the benchmark's pool) can use every
    CPU."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


ALL_CPUS = frozenset(os.sched_getaffinity(0))
# the CPU that single-process work, the probe and the setup interpreters run on
WORK_CPU = max(ALL_CPUS)
