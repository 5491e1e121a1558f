"""Round-5 fault injection beyond the exchange (VERDICT r4 #2):

1. SIGKILL the worker of one flagship annotate task mid-stream — Ray
   Data must re-run the lost task and produce byte-identical output
   (task retry semantics).
2. SIGKILL the DRIVER process mid-``run_resumable`` (after two groups
   committed, with group 2's tmp dir torn) — a fresh process must
   resume from the manifest, skip the committed groups, rebuild the
   torn one, and the final partitioned output must equal a clean
   single-shot run exactly.

Together these are the engine's answer to the reference's mid-run crash
recovery (``fineweb/big_inference.py:296-303``: per-shard existence
checks around a crashy GPU loop).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pandas as pd
import pyarrow.parquet as pq

from fineweb2_ro_ray.pipelines import quality_filter as QF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _flagship(src: str) -> pd.DataFrame:
    out = QF.reassemble(QF.annotate(QF.read_transcripts(src))).to_pandas()
    return out.sort_values("conv_id", ignore_index=True)


def test_flagship_survives_annotator_actor_death(ray_session, tmp_path):
    from fineweb2_ro_ray.sources.synth import write_transcripts

    src = str(tmp_path / "in")
    write_transcripts(src, 150, seed=33)
    clean = _flagship(src)
    assert len(clean) == 150

    marker = str(tmp_path / "annotator_died")
    QF._TEST_FAILPOINT = ("annotate", marker)
    try:
        got = _flagship(src)
    finally:
        QF._TEST_FAILPOINT = None
    assert os.path.exists(marker), "failpoint never fired"
    pd.testing.assert_frame_equal(got, clean)


_DRIVER_KILL_SCRIPT = r"""
import os, sys, json, shutil
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from fineweb2_ro_ray.pipelines.quality_filter import annotate
from fineweb2_ro_ray.state import checkpoint as C

mode = sys.argv[1]           # "kill" | "resume" | "clean"
src, out_dir = sys.argv[2], sys.argv[3]

if mode == "kill":
    # poison the commit point: after group 2's parquet is fully
    # written, tear one file out of its tmp dir (simulating a write
    # cut mid-flight) and SIGKILL the driver BEFORE os.replace runs —
    # groups 0 and 1 are committed, group 2 is torn, group 3 unseen
    real_replace = C.os.replace
    calls = {{"n": 0}}
    def poisoned(a, b):
        calls["n"] += 1
        if calls["n"] == 3:
            tmpdir = a
            parts = sorted(
                f for f in os.listdir(tmpdir) if f.endswith(".parquet")
            )
            os.unlink(os.path.join(tmpdir, parts[0]))
            os.kill(os.getpid(), 9)
        return real_replace(a, b)
    C.os.replace = poisoned

s = C.run_resumable(src, out_dir, lambda ds: annotate(ds), n_groups=4)
print("SUMMARY:" + json.dumps(s))
ray.shutdown()
"""


def test_run_resumable_survives_driver_sigkill(tmp_path):
    """Driver SIGKILL after 2 committed groups + a torn group-2 tmp:
    resume skips exactly the committed groups, rebuilds the rest, and
    the merged output matches a clean run value-for-value."""
    from fineweb2_ro_ray.sources.synth import write_transcripts

    src = str(tmp_path / "in")
    write_transcripts(src, 200, seed=44)
    script = str(tmp_path / "driver.py")
    with open(script, "w") as f:
        f.write(_DRIVER_KILL_SCRIPT.format(repo=REPO))
    env = dict(os.environ)

    def run(mode: str, out_dir: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, script, mode, src, out_dir],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
            timeout=300,
        )

    out_faulted = str(tmp_path / "out_faulted")
    p = run("kill", out_faulted)
    assert p.returncode == -9, (p.returncode, p.stderr[-2000:])
    manifest = os.path.join(out_faulted, "manifest.jsonl")
    assert os.path.exists(manifest)
    committed = [json.loads(l) for l in open(manifest)]
    assert [r["group"] for r in committed] == [0, 1]
    assert os.path.isdir(os.path.join(out_faulted, ".tmp-part-2"))

    p2 = run("resume", out_faulted)
    assert p2.returncode == 0, p2.stderr[-2000:]
    summary = json.loads(
        [l for l in p2.stdout.splitlines() if l.startswith("SUMMARY:")][0][8:]
    )
    assert summary["groups_skipped"] == 2
    assert summary["groups_run"] == 2

    out_clean = str(tmp_path / "out_clean")
    p3 = run("clean", out_clean)
    assert p3.returncode == 0, p3.stderr[-2000:]

    def read_all(d: str) -> pd.DataFrame:
        frames = []
        for g in range(4):
            pd_dir = os.path.join(d, f"part={g}")
            for f in sorted(os.listdir(pd_dir)):
                if f.endswith(".parquet"):
                    frames.append(pq.read_table(os.path.join(pd_dir, f)).to_pandas())
        out = pd.concat(frames, ignore_index=True)
        return out.sort_values(["conv_id", "turn_idx"], ignore_index=True)

    a, b = read_all(out_faulted), read_all(out_clean)
    assert len(a) == len(b) > 0
    pd.testing.assert_frame_equal(a, b[a.columns.tolist()])
    # no torn tmp or staging dirs survive a completed resume
    leftovers = [
        d
        for d in os.listdir(out_faulted)
        if d.startswith(".tmp-part-") or d.startswith(".staging-")
    ]
    assert leftovers == []
