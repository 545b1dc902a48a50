"""Program processes measured from outside: wall, CPU, peak RSS, CPU choice."""

from __future__ import annotations

import contextlib
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field

ALL_CPUS = sorted(os.sched_getaffinity(0))
TIMEOUT_S = 150.0


class Timeout(Exception):
    """A measured process ran past ``TIMEOUT_S`` and was killed."""


@dataclass
class Run:
    """One finished process and what was measured about it."""

    argv: list
    code: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0          # the whole tree: rusage of the process and its reaped children
    rss_mb: float = 0.0         # peak RSS, summed over the processes of the tree
    stdout: str = ""
    stderr: str = ""
    parent_cpu_s: float | None = None  # own CPU of the root, when it had children
    child_cpu_s: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # traced runs: the launcher's documents


def _loop_s() -> float:
    """Best of three runs of a fixed 20,000-step loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i
        best = min(best, time.perf_counter() - started)
    return best


def ranked_cpus() -> list[int]:
    """This process's CPUs, fastest first by a 2 ms loop on each."""
    if len(ALL_CPUS) < 2:
        return list(ALL_CPUS)
    speed = {}
    try:
        for cpu in ALL_CPUS:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = _loop_s()
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    return sorted(ALL_CPUS, key=speed.__getitem__)


def place(pid: int, order: list[int]) -> None:
    """Pin ``pid`` to the first CPU of ``order`` and this process to the rest."""
    if len(order) > 1:
        os.sched_setaffinity(pid, {order[0]})
        os.sched_setaffinity(0, order[1:])


def unplace() -> None:
    os.sched_setaffinity(0, ALL_CPUS)


def cpu_for(index: int) -> int | None:
    """The CPU the ``index``-th measured single process runs on (round robin).

    On a shared host each CPU is slowed by neighbours for seconds to
    minutes at a time (on a 2-vCPU Xeon VM a fixed loop ran 1.6x slower
    on one vCPU than on the other), so single-process measurements take
    turns on every CPU and are reported per round of one run on each.
    """
    return ALL_CPUS[index % len(ALL_CPUS)] if len(ALL_CPUS) > 1 else None


@contextlib.contextmanager
def apart(cpu: int | None):
    """Keep this process off ``cpu`` meanwhile."""
    if cpu is None:
        yield
        return
    os.sched_setaffinity(0, [other for other in ALL_CPUS if other != cpu])
    try:
        yield
    finally:
        unplace()


def pin_to(cpu: int | None):
    """``preexec_fn`` that pins the child to ``cpu``."""
    return None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))


def _children_of(root: int) -> list[int]:
    """Descendant pids of ``root``, from a scan of /proc."""
    parents: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as stream:
                ppid = int(stream.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited between listdir and open
        parents.setdefault(ppid, []).append(int(name))
    found, frontier = [], [root]
    while frontier:
        for child in parents.get(frontier.pop(), ()):
            found.append(child)
            frontier.append(child)
    return found


def _sample(pid: int) -> tuple[float, float] | None:
    """(VmHWM MiB, own utime+stime s) of a live process, or None."""
    try:
        with open(f"/proc/{pid}/status") as stream:
            hwm = next(int(line.split()[1]) for line in stream if line.startswith("VmHWM:"))
        with open(f"/proc/{pid}/stat") as stream:
            fields = stream.read().rsplit(")", 1)[1].split()
    except (OSError, StopIteration):
        return None
    return hwm / 1024, (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class TreeSampler(threading.Thread):
    """Peak RSS and own CPU of every process in a tree.

    Known processes are sampled every 20 ms; the /proc scan that finds
    new descendants costs milliseconds, so it runs every 200 ms.  VmHWM
    only grows, so the last sample of each process is its peak up to at
    most one interval before it exited.
    """

    def __init__(self, root: int):
        super().__init__(daemon=True)
        self.root = root
        self.peaks: dict[int, tuple[float, float]] = {}
        self._halt = threading.Event()

    def run(self) -> None:
        pids = [self.root]
        tick = 0
        while not self._halt.wait(0.02):
            if tick % 10 == 0:
                pids = [self.root] + _children_of(self.root)
            tick += 1
            for pid in pids:
                sample = _sample(pid)
                if sample is not None:
                    self.peaks[pid] = sample

    def stop(self) -> None:
        self._halt.set()
        self.join()


def measure(argv: list[str], *, env: dict, cwd: str, stem: str, cpu: int | None = None,
            tree: bool = False) -> Run:
    """Run ``argv`` to completion with stdout/stderr in ``stem``.out/.err.

    With ``cpu`` the process is pinned there and this process keeps off
    it.  A process tree (``tree``) keeps every CPU, as its workers need
    them, and is sampled for per-process peak RSS and CPU.
    """
    run = Run(argv=argv)
    with contextlib.ExitStack() as stack:
        stack.enter_context(apart(cpu))
        out = stack.enter_context(open(stem + ".out", "wb"))
        err = stack.enter_context(open(stem + ".err", "wb"))
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                preexec_fn=pin_to(cpu))
        sampler = TreeSampler(proc.pid) if tree else None
        if sampler is not None:
            sampler.start()
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            proc.kill()

        watchdog = threading.Timer(TIMEOUT_S, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            if sampler is not None:
                sampler.stop()
        run.wall_s = time.perf_counter() - started
    proc.returncode = run.code = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        raise Timeout(f"killed after {TIMEOUT_S:.0f} s: {' '.join(argv)}")
    run.cpu_s = usage.ru_utime + usage.ru_stime
    run.rss_mb = usage.ru_maxrss / 1024
    if sampler is not None and len(sampler.peaks) > 1:
        root = sampler.peaks.get(proc.pid, (0.0, 0.0))
        children = [value for pid, value in sampler.peaks.items() if pid != proc.pid]
        run.rss_mb = root[0] + sum(hwm for hwm, _ in children)
        run.parent_cpu_s = root[1]
        run.child_cpu_s = [cpu for _, cpu in children]
    with open(stem + ".out", errors="replace") as stream:
        run.stdout = stream.read()
    with open(stem + ".err", errors="replace") as stream:
        run.stderr = stream.read()
    return run
