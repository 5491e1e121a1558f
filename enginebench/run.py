"""Benchmark entry point. From the repository root:

    python3 enginebench/run.py --workload flagship --seed 7 --seconds 10 --trace 0

Times set-up from outside: two probe sessions and the measuring
session are each timed from process start to the moment Ray is up and
the engine imported; ``setup_s`` is their median. The measuring
session runs the workload (``--trace 0``: end-to-end metrics) or the
traced layer-by-layer run (``--trace 1``: per-layer metrics). The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full report (host record,
every sample, check problems) goes to ``.enginebench/reports/``. A
session that exits before it is ready is started again, up to
``START_ATTEMPTS`` times: on a freshly booted host the raylet has sat
past ``ray.init``'s fixed 30 s start-up wait. Exits non-zero, printing
no result, if a session fails after start-up or cannot be started, or
the run passes its deadline.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from enginebench.session import READY, RESULT, WORKLOADS  # noqa: E402

# Whole-run budget: every run must end within 180 s, except the first
# one in a checkout (no ``.enginebench/`` yet), which may take longer.
DEADLINE_S = 170.0
FIRST_RUN_DEADLINE_S = 600.0
PROBES = 2
START_ATTEMPTS = 4
PR_SET_CHILD_SUBREAPER = 36


class StartFailed(RuntimeError):
    """The session exited before it was ready."""


def _group_members(pgid: int) -> list[tuple[int, str]]:
    """(pid, state) of every process of process group ``pgid``."""
    members = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                st = fh.read()
        except OSError:
            continue
        state, _, pgrp = st[st.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == pgid:
            members.append((int(d), state))
    return members


def _become_subreaper() -> None:
    """Have orphaned descendants (Ray's processes, once their session
    is killed) re-parented to this process, so that ``_reap`` collects
    them instead of leaving them to init."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap() -> None:
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                return
        except ChildProcessError:
            return


def _wait_group_gone(pgid: int, timeout: float) -> None:
    """Reap the killed group until none of it is left. Zombies still
    there after ``timeout`` belong to another parent, which reaps them."""
    t_end = time.monotonic() + timeout
    while True:
        _reap()
        members = _group_members(pgid)
        if not members:
            return
        if time.monotonic() > t_end:
            live = [p for p, state in members if state != "Z"]
            if live:
                raise RuntimeError(f"processes {live} outlived SIGKILL")
            return
        time.sleep(0.05)


class Session:
    """A child session process; stdout is read line by line on a
    thread so every wait can honour the run's deadline."""

    def __init__(self, args: list[str]) -> None:
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "enginebench.session", *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_for(self, prefix: str, deadline: float) -> tuple[str, float]:
        """The first stdout line starting with ``prefix`` and the seconds
        from process start to it."""
        while True:
            try:
                line = self.lines.get(timeout=max(0.1, deadline - time.monotonic()))
            except queue.Empty:
                raise TimeoutError(f"no {prefix!r} line before the run's deadline") from None
            if line is None:
                err = StartFailed if prefix == READY else RuntimeError
                raise err(f"session exited with {self.proc.wait()} before {prefix!r}")
            if line.startswith(prefix):
                return line[len(prefix):], time.perf_counter() - self.t0

    def stop(self) -> None:
        """Stop the session and everything it started, and wait until
        all of it has ended. Ray's processes share the session's process
        group, so the group is killed, even when the session itself has
        already exited. A session is stopped as soon as it printed what
        the parent waits for; nothing is left for it to save, and a
        graceful ``ray.shutdown()`` adds ~3 s to every session."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        _wait_group_gone(self.proc.pid, 30.0)


def run_session(args: list[str], deadline: float, failed_starts: list[str]) -> tuple[float, str, float]:
    """Set-up seconds, the RESULT payload and the session's whole wall.
    A failed start is appended to ``failed_starts`` and retried."""
    for attempt in range(1, START_ATTEMPTS + 1):
        s = Session(args)
        try:
            try:
                _, setup = s.wait_for(READY, deadline)
            except StartFailed as e:
                failed_starts.append(str(e))
                if attempt == START_ATTEMPTS:
                    raise
                print(f"enginebench: {e}; starting it again", file=sys.stderr, flush=True)
                continue
            result = s.wait_for(RESULT, deadline)[0] if "--probe" not in args else ""
        finally:
            s.stop()
        return setup, result, time.perf_counter() - s.t0
    raise AssertionError("unreachable")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "fineweb2_ro_ray")):
        print(f"enginebench: no fineweb2_ro_ray package under {ROOT}", file=sys.stderr)
        return 2
    _become_subreaper()
    first_run = not os.path.isdir(os.path.join(ROOT, ".enginebench"))
    deadline = time.monotonic() + (FIRST_RUN_DEADLINE_S if first_run else DEADLINE_S)

    setups, walls, failed_starts = [], [], []
    if not a.trace:
        for _ in range(PROBES):
            setup, _, wall = run_session(["--probe"], deadline, failed_starts)
            setups.append(setup)
            walls.append(wall)
    setup, result, wall = run_session(
        ["--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        deadline,
        failed_starts,
    )
    res = json.loads(result)
    metrics = dict(res["metrics"])
    report = res.pop("report")
    report["session_walls_s"] = walls + [wall]
    report["failed_session_starts"] = failed_starts
    if not a.trace:
        setups.append(setup)
        metrics["setup_s"] = statistics.median(setups)
        report["setup_samples_s"] = setups
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    res["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    reports = os.path.join(ROOT, ".enginebench", "reports")
    os.makedirs(reports, exist_ok=True)
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    with open(os.path.join(reports, name), "w") as fh:
        json.dump({**res, "report": report}, fh, indent=1)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
