"""Measurement helpers: process-tree CPU, driver RSS, spans, Ray stats.

Everything here reads from outside the engine: ``/proc`` for CPU and
memory, wall clocks around calls into the engine's public functions, and
the ``ds.stats()`` summary Ray Data keeps for each executed Dataset.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from typing import Dict, List

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _proc_table() -> Dict[int, tuple]:
    """pid → (ppid, user + system CPU seconds) for every visible process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        out[int(name)] = (int(fields[1]), (int(fields[11]) + int(fields[12])) / _CLK_TCK)
    return out


def _tree(table: Dict[int, tuple], root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = [], [root]
    while stack:
        pid = stack.pop()
        if pid in table:
            out.append(pid)
        stack.extend(children.get(pid, ()))
    return out


def adopt_orphans() -> None:
    """Make this process the Linux child subreaper of everything it
    starts: a Ray process whose parent exits is re-parented here, not to
    init, so ``stop_descendants`` still finds and reaps it."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace: float = 5.0, limit: float = 30.0) -> List[int]:
    """Wait until every process below this one has ended and been reaped.
    Processes still there after ``grace`` seconds get SIGKILL. Call it
    only when nothing in this process waits on its own children (after
    ``ray.shutdown``): it reaps any child. → the pids still there after
    ``limit`` seconds (none, unless a process cannot be killed)."""
    me = os.getpid()
    start = time.monotonic()
    while True:
        _reap()
        left = [p for p in _tree(_proc_table(), me) if p != me]
        waited = time.monotonic() - start
        if not left or waited > limit:
            return left
        if waited > grace:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE / 1e6


class PassMonitor:
    """While open, samples every ``interval`` seconds the CPU time of this
    process and every descendant (the Ray head processes and workers it
    started) and this process's RSS.

    Ray starts and retires worker processes during a pass, and a retired
    worker's CPU time is not added to any live process. So each process
    is followed by pid: its CPU use is its last sample minus its first
    (zero for one born during the pass). A process that exits loses at
    most one interval of CPU time."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak_rss_mb = 0.0
        self._first: Dict[int, float] = {}
        self._last: Dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self, initial: bool = False) -> None:
        table = _proc_table()
        for pid in _tree(table, os.getpid()):
            cpu = table[pid][1]
            self._first.setdefault(pid, cpu if initial else 0.0)
            self._last[pid] = cpu
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb())

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    @property
    def cpu_s(self) -> float:
        return sum(self._last[p] - self._first[p] for p in self._last)

    def __enter__(self) -> "PassMonitor":
        self._sample(initial=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sample()


def dir_mb(path: str) -> float:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total / 1e6


def first_mtime(path: str, suffix: str) -> float:
    """Earliest mtime of a file under ``path`` whose name ends with
    ``suffix`` (the first durable output of a pass)."""
    times = [
        os.path.getmtime(os.path.join(base, name))
        for base, _dirs, files in os.walk(path)
        for name in files
        if name.endswith(suffix)
    ]
    if not times:
        raise RuntimeError(f"no *{suffix} output under {path}")
    return min(times)


def task_s(ds, since: float) -> float:
    """Summed remote task wall time of every operator in ``ds``'s
    ``ds.stats()`` summary that started at or after ``since`` (a
    ``time.perf_counter`` reading; Ray stamps block stats with the same
    monotonic clock). Operators of inputs materialized before ``since``
    are not counted; ones a layer materializes inside its own call are."""
    seen, total, stack = set(), 0.0, [ds._get_stats_summary()]
    while stack:
        summary = stack.pop()
        if id(summary) in seen:
            continue
        seen.add(id(summary))
        for op in summary.operators_stats:
            if op.wall_time and op.earliest_start_time >= since:
                total += op.wall_time["sum"]
        stack.extend(summary.parents)
    return total


class Tracer:
    """Spans kept in memory: name, start, end, parent and run id, plus
    the counts and ``ds.stats()`` text recorded at the same boundary.
    ``dump`` writes them out once, when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.time(),
            "end": None,
            "t0": time.perf_counter(),
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            self._stack.pop()
            rec["wall_s"] = time.perf_counter() - rec["t0"]
            rec["end"] = rec["start"] + rec["wall_s"]

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans}, f, indent=1)
