"""Host record and session memory sampling, read from ``/proc``."""

from __future__ import annotations

import mmap
import os
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def page_probe_ms() -> float:
    """Wall ms to map and first-touch 64 MB of fresh anonymous memory
    (the probe of the repository's ``bench.py``): single-digit ms on a
    healthy host, hundreds when the hypervisor supplies pages slowly."""
    t0 = time.perf_counter()
    m = mmap.mmap(-1, 1 << 26)
    m[:: 1 << 12] = b"\1" * (len(m) >> 12)
    dt = (time.perf_counter() - t0) * 1e3
    m.close()
    return dt


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (clock ticks)."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor stole between two snapshots
    (field 8 of the ``cpu`` line)."""
    d = [b - a for a, b in zip(before, after)]
    total = sum(d[:8])
    return d[7] / total if total > 0 else 0.0


def host_record() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        # ``nproc`` honours OMP_NUM_THREADS, so it can print 1 on a
        # 4-CPU host; record what it would see
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "page_probe_ms": page_probe_ms(),
    }


def _tree_rss_bytes(root: int) -> int:
    """Summed resident memory of ``root`` and all its descendants (the
    Ray session: the driver, gcs/raylet and every worker)."""
    ppid: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                st = fh.read()
        except OSError:
            continue
        ppid[int(d)] = int(st[st.rindex(")") + 2 :].split()[1])
    kids: dict[int, list[int]] = {}
    for p, pp in ppid.items():
        kids.setdefault(pp, []).append(p)
    total, todo = 0, [root]
    while todo:
        p = todo.pop()
        todo.extend(kids.get(p, []))
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * _PAGE
        except OSError:
            pass
    return total


class RssSampler:
    """Background thread sampling the session's summed RSS every
    ``interval`` seconds; ``take_peak()`` returns the peak since the
    previous call."""

    def __init__(self, interval: float = 0.2) -> None:
        self._root = os.getpid()
        self._interval = interval
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            rss = _tree_rss_bytes(self._root)
            with self._lock:
                self._peak = max(self._peak, rss)

    def take_peak(self) -> int:
        rss = _tree_rss_bytes(self._root)
        with self._lock:
            peak, self._peak = max(self._peak, rss), 0
        return peak
