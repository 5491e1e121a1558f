"""The flagship's annotate stage runs as a stateless task map, not an
actor pool:

1. Ray's task workers already run Arrow with one CPU thread, so the
   annotate chain sets no Arrow pool size of its own (and leaves none
   behind in the worker processes that exchange and sink tasks reuse).
2. Back-to-back flagship jobs in one session hold nothing between them:
   no job is slower than twice the median, and the cluster's CPUs are
   free again within seconds of the last job, with no ``gc.collect()``.
3. The fused read → annotate → thin task needs one CPU: the flagship
   finishes in a session with ``num_cpus=1``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pyarrow as pa

import ray
import ray.data

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ray_tasks_run_arrow_on_one_cpu():
    @ray.remote
    def arrow_cpus() -> int:
        return pa.cpu_count()

    assert ray.get(arrow_cpus.remote()) == 1
    # the annotate path proper: a Ray Data map task
    got = ray.data.range(1).map_batches(
        lambda b: {"n": [pa.cpu_count()]}, batch_format="pyarrow"
    ).take_all()
    assert got == [{"n": 1}]


_BACK_TO_BACK_SCRIPT = r"""
import json, os, shutil, sys, time
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from fineweb2_ro_ray.pipelines.quality_filter import run_flagship
from fineweb2_ro_ray.sources.synth import write_transcripts

src, out = sys.argv[1], sys.argv[2]
write_transcripts(src, 1500, seed=7)
# one untimed job first: a fresh session starts its worker processes
# and imports the package there once (~3 s), which is not a leak
walls = []
for i in range(4):
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    run_flagship(src).write_parquet(out)
    walls.append(time.perf_counter() - t0)
walls = walls[1:]
total = ray.cluster_resources()["CPU"]
t0 = time.perf_counter()
free = ray.available_resources().get("CPU", 0.0)
while free < total and time.perf_counter() - t0 < 5.0:
    time.sleep(0.05)
    free = ray.available_resources().get("CPU", 0.0)
print("RESULT:" + json.dumps({{"walls": walls, "free": free, "total": total}}))
ray.shutdown()
"""


def test_back_to_back_flagship_jobs_release_their_cpus(tmp_path):
    """Three ``run_flagship(...).write_parquet`` jobs back to back in one
    Ray session, after one warm-up job, without ``gc.collect()``: none
    is slower than twice the median (a job that left a pool alive until
    garbage collection once made a later job ~10x slower), and every CPU
    is available again within 5 s of the last job."""
    script = str(tmp_path / "back_to_back.py")
    with open(script, "w") as f:
        f.write(_BACK_TO_BACK_SCRIPT.format(repo=REPO))
    p = subprocess.Popen(
        [sys.executable, script, str(tmp_path / "in"), str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO,
        start_new_session=True,
    )
    try:
        stdout, stderr = p.communicate(timeout=240)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    assert p.returncode == 0, stderr[-2000:]
    res = json.loads([l for l in stdout.splitlines() if l.startswith("RESULT:")][0][7:])
    walls = res["walls"]
    median = sorted(walls)[1]
    assert max(walls) <= 2 * median, walls
    assert res["free"] == res["total"], res


_ONE_CPU_SCRIPT = r"""
import sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from fineweb2_ro_ray.pipelines.quality_filter import run_flagship

print("CONVERSATIONS:%d" % run_flagship(sys.argv[1]).count())
ray.shutdown()
"""


def test_flagship_finishes_at_one_cpu(golden_path, tmp_path):
    """A ``num_cpus=1`` session runs the flagship on the golden set to
    completion: the fused task and the exchange share the one CPU."""
    script = str(tmp_path / "one_cpu.py")
    with open(script, "w") as f:
        f.write(_ONE_CPU_SCRIPT.format(repo=REPO))
    # own process group: a hung run is killed with every Ray process it
    # started, not just its driver
    p = subprocess.Popen(
        [sys.executable, script, golden_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO,
        start_new_session=True,
    )
    try:
        stdout, stderr = p.communicate(timeout=240)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    assert p.returncode == 0, stderr[-2000:]
    assert "CONVERSATIONS:800" in stdout.splitlines(), stdout[-2000:]
