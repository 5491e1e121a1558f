"""Resumable partitioned output: manifest, lineage, resume-after-failure
(the reference's shard-existence idempotency re-created per partition,
``/root/reference/fineweb/big_inference.py:296-303``)."""

from __future__ import annotations

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fineweb2_ro_ray.pipelines.quality_filter import annotate
from fineweb2_ro_ray.sources.synth import write_transcripts
from fineweb2_ro_ray.state.checkpoint import Manifest, partition_of, run_resumable


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "in")
    n = write_transcripts(path, 60, seed=11, rows_per_file=1000)
    return path, n


def _total_rows(out: str) -> int:
    return sum(
        pq.read_metadata(f).num_rows for f in glob.glob(os.path.join(out, "part=*", "*.parquet"))
    )


def test_run_and_resume(corpus, tmp_path):
    inp, n = corpus
    out = str(tmp_path / "out")
    s1 = run_resumable(inp, out, lambda ds: annotate(ds, batch_size=512), n_groups=3)
    assert s1["groups_run"] == 3 and s1["rows"] == n
    assert _total_rows(out) == n
    recs = [json.loads(l) for l in open(os.path.join(out, "manifest.jsonl"))]
    assert len(recs) == 3
    for r in recs:
        assert r["status"] == "committed"
        assert "drop_reasons" in r and "input_fingerprint" in r and r["rows"] > 0

    # no-op rerun: everything skipped
    s2 = run_resumable(inp, out, lambda ds: annotate(ds, batch_size=512), n_groups=3)
    assert s2 == {"groups_run": 0, "groups_skipped": 3, "rows": 0, "kept": 0}

    # simulate a failed partition: drop dir + manifest line → only that
    # group is recomputed and totals are restored exactly
    shutil.rmtree(os.path.join(out, "part=1"))
    keep = [r for r in recs if r["group"] != 1]
    with open(os.path.join(out, "manifest.jsonl"), "w") as f:
        for r in keep:
            f.write(json.dumps(r) + "\n")
    s3 = run_resumable(inp, out, lambda ds: annotate(ds, batch_size=512), n_groups=3)
    assert s3["groups_run"] == 1 and s3["groups_skipped"] == 2
    assert _total_rows(out) == n


def test_changed_group_count_reruns_every_group(corpus, tmp_path):
    """Groups are hashed mod n_groups: a re-run with fewer groups must
    not skip groups committed under the old count, and must not leave
    the old count's extra groups behind."""
    inp, n = corpus
    out = str(tmp_path / "out")
    build = lambda ds: annotate(ds, batch_size=512)  # noqa: E731
    s1 = run_resumable(inp, out, build, n_groups=4)
    assert s1["groups_run"] == 4 and _total_rows(out) == n
    s2 = run_resumable(inp, out, build, n_groups=2)
    assert (s2["groups_run"], s2["groups_skipped"], s2["rows"]) == (2, 0, n)
    assert sorted(d for d in os.listdir(out) if d.startswith("part=")) == ["part=0", "part=1"]
    got = pa.concat_tables(
        pq.read_table(f, columns=["conv_id", "turn_idx"])
        for f in glob.glob(os.path.join(out, "part=*", "*.parquet"))
    ).to_pandas()
    want = pq.read_table(inp, columns=["conv_id", "turn_idx"]).to_pandas()
    assert len(got) == n and not got.duplicated().any()
    assert set(map(tuple, got.values)) == set(map(tuple, want.values))
    assert Manifest(out).completed_groups() == {0, 1}
    s3 = run_resumable(inp, out, build, n_groups=2)
    assert (s3["groups_run"], s3["groups_skipped"]) == (0, 2)


def test_partitioning_is_stable_and_total(corpus):
    inp, n = corpus
    # every conv_id maps to exactly one group — the invariant that makes
    # group-wise reassembly correct
    assert partition_of("conv-00000001", 8) == partition_of("conv-00000001", 8)
    assert 0 <= partition_of("anything", 5) < 5


def test_manifest_roundtrip(tmp_path):
    m = Manifest(str(tmp_path))
    m.record({"group": 0, "status": "committed"})
    m.record({"group": 1, "status": "failed"})
    assert m.completed_groups() == {0}


def test_resumable_conversation_output(corpus, tmp_path):
    """Conversation-level resumable output: each hash group holds whole
    conversations, so reassembly inside the per-group build is valid."""
    from fineweb2_ro_ray.pipelines.quality_filter import reassemble

    inp, n = corpus
    out = str(tmp_path / "conv_out")
    s = run_resumable(
        inp,
        out,
        lambda ds: reassemble(annotate(ds, batch_size=512)),
        n_groups=3,
    )
    assert s["groups_run"] == 3
    import glob

    import pyarrow.parquet as pq

    convs = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(out, "part=*", "*.parquet"))
    )
    assert convs == 60  # one row per conversation, none lost across groups


def test_input_scanned_once_per_run(corpus, tmp_path, monkeypatch):
    """The read-amplification guarantee: every run, resumes included,
    scans the ORIGINAL input exactly once (one row-group source over
    its files) and makes no other read call; a resume hands ``build``
    only the rows of the pending groups."""
    import ray.data as rd

    from fineweb2_ro_ray.sources.rowgroups import list_parquet

    inp, n = corpus
    out = str(tmp_path / "scan_out")
    input_files = set(list_parquet(inp))
    reads = []
    real_read, real_parquet = rd.read_datasource, rd.read_parquet

    def counting_read(source, *a, **kw):
        reads.append(set(source.files) == input_files)
        return real_read(source, *a, **kw)

    def other_read(*a, **kw):
        reads.append(False)
        return real_parquet(*a, **kw)

    built = []

    def build(ds):
        built.append(ds)
        return annotate(ds, batch_size=512)

    monkeypatch.setattr(rd, "read_datasource", counting_read)
    monkeypatch.setattr(rd, "read_parquet", other_read)
    s = run_resumable(inp, out, build, n_groups=4)
    assert s["groups_run"] == 4 and reads == [True]

    shutil.rmtree(os.path.join(out, "part=1"))
    shutil.rmtree(os.path.join(out, "part=3"))
    s = run_resumable(inp, out, build, n_groups=4)
    assert s["groups_run"] == 2 and s["groups_skipped"] == 2
    assert reads == [True, True]  # the resume scanned the input once too
    assert _total_rows(out) == n

    got = built[-1].to_pandas()["conv_id"]
    src = pq.read_table(inp, columns=["conv_id"]).to_pandas()["conv_id"]
    pending = src[src.map(lambda c: partition_of(c, 4) in (1, 3))]
    assert len(got) == len(pending) > 0
    assert set(got) == set(pending)


def test_resume_lineage_validation(corpus, tmp_path):
    """A committed manifest line is only honoured when the recorded
    input fingerprint matches AND the partition directory exists
    (ADVICE r1: stale manifests must not mask missing/changed data)."""
    inp, n = corpus
    out = str(tmp_path / "lineage_out")
    run_resumable(inp, out, lambda ds: annotate(ds, batch_size=512), n_groups=2)

    # deleted part dir, manifest intact -> that group is recomputed
    shutil.rmtree(os.path.join(out, "part=0"))
    s = run_resumable(inp, out, lambda ds: annotate(ds, batch_size=512), n_groups=2)
    assert s["groups_run"] == 1 and s["groups_skipped"] == 1
    assert _total_rows(out) == n

    # changed input (new fingerprint) -> everything is recomputed
    extra = write_transcripts(inp + "_v2", 10, seed=12, rows_per_file=1000)
    s2 = run_resumable(
        inp + "_v2", out, lambda ds: annotate(ds, batch_size=512), n_groups=2
    )
    assert s2["groups_run"] == 2 and s2["groups_skipped"] == 0
    assert _total_rows(out) == extra


def test_leftover_scratch_dirs_are_removed(corpus, tmp_path):
    """Tmp and staging directories left by an older or crashed run are
    removed before the run; none of their files leaks into the output."""
    inp, n = corpus
    out = str(tmp_path / "stale_out")
    stale = pq.read_table(inp).slice(0, 5)
    for d in (".staging-0badf00d/part=0", ".tmp-part-0", ".tmp-part-1", ".tmp-part-7"):
        os.makedirs(os.path.join(out, d))
        # a name no write task of this run produces, so only the clean-up
        # can keep it out of a committed group
        pq.write_table(stale, os.path.join(out, d, "999999-999999.parquet"))
    s = run_resumable(inp, out, lambda ds: annotate(ds, batch_size=512), n_groups=2)
    assert s["groups_run"] == 2 and s["rows"] == n
    assert _total_rows(out) == n
    assert not glob.glob(os.path.join(out, "part=*", "999999-999999.parquet"))
    assert sorted(d for d in os.listdir(out) if d.startswith(".")) == []


def test_lineage_exact_under_annotator_retry(corpus, tmp_path):
    """One annotate task's worker is SIGKILLed mid-run and the task retried:
    each group's manifest lineage equals a DuckDB recount over that
    group's committed files, and equals the lineage of a clean run."""
    import duckdb

    from fineweb2_ro_ray.pipelines import quality_filter as QF

    inp, n = corpus

    def build(ds):
        return QF.annotate(ds, batch_size=512)

    clean_out = str(tmp_path / "clean")
    run_resumable(inp, clean_out, build, n_groups=3)
    out = str(tmp_path / "faulted")
    marker = str(tmp_path / "annotator_died")
    QF._TEST_FAILPOINT = ("annotate", marker)
    try:
        s = run_resumable(inp, out, build, n_groups=3)
    finally:
        QF._TEST_FAILPOINT = None
    assert os.path.exists(marker), "failpoint never fired"
    assert s["rows"] == n

    def lineage(d):
        recs = Manifest(d).completed_records()
        return {g: {k: v for k, v in r.items() if k != "wall_sec"} for g, r in recs.items()}

    faulted = lineage(out)
    assert sorted(faulted) == [0, 1, 2]
    assert faulted == lineage(clean_out)
    for g, rec in faulted.items():
        files = os.path.join(out, f"part={g}", "*.parquet")
        rows, kept, pii, tox = duckdb.sql(
            "SELECT count(*), count(*) FILTER (WHERE keep), sum(pii_hits), sum(tox_hits)"
            f" FROM read_parquet('{files}')"
        ).fetchone()
        reasons = dict(
            duckdb.sql(
                f"SELECT drop_reason, count(*) FROM read_parquet('{files}')"
                " WHERE drop_reason <> '' GROUP BY 1"
            ).fetchall()
        )
        assert (rec["rows"], rec["kept"], rec["pii_hits"], rec["tox_hits"]) == (
            rows, kept, pii, tox
        )
        assert rec["drop_reasons"] == reasons


def test_retried_write_task_overwrites_its_files(tmp_path):
    """A retried write task (same task index, same blocks) rewrites its
    own files instead of adding new ones, so each row is committed once
    and each group's record counts it once."""
    from types import SimpleNamespace

    import pyarrow as pa

    from fineweb2_ro_ray.state.checkpoint import _GroupSink

    n = 50
    t = pa.table(
        {
            "conv_id": [f"c{i % 7}" for i in range(n)],
            "keep": [i % 3 != 0 for i in range(n)],
            "drop_reason": ["" if i % 3 else "ppl" for i in range(n)],
        }
    )
    out = str(tmp_path)
    sink = _GroupSink(out, [0, 1, 2], 3, "conv_id", "fp")
    sink.on_write_start()
    blocks = [t.slice(0, 20), t.slice(20)]
    first = sink.write(iter(blocks), SimpleNamespace(task_idx=4))
    retry = sink.write(iter(blocks), SimpleNamespace(task_idx=4))
    assert retry == first
    sink.on_write_complete(SimpleNamespace(write_returns=[retry]))
    recs = Manifest(out).completed_records()
    assert _total_rows(out) == sum(r["rows"] for r in recs.values()) == n
    assert sum(r["kept"] for r in recs.values()) == sum(t["keep"].to_pylist())
    for g, r in recs.items():
        got = pq.read_table(os.path.join(out, f"part={g}")).to_pylist()
        assert [partition_of(row["conv_id"], 3) for row in got] == [g] * r["rows"]
        assert r["drop_reasons"].get("ppl", 0) == sum(row["drop_reason"] == "ppl" for row in got)


_ONE_CPU_SCRIPT = r"""
import json, sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from fineweb2_ro_ray.pipelines.quality_filter import annotate
from fineweb2_ro_ray.state.checkpoint import run_resumable

s = run_resumable(sys.argv[1], sys.argv[2], lambda ds: annotate(ds, batch_size=512), n_groups=2)
print("SUMMARY:" + json.dumps(s))
ray.shutdown()
"""


def test_run_resumable_finishes_at_one_cpu(corpus, tmp_path):
    """At ``num_cpus=1`` the read and the annotate tasks must share the
    one CPU; an earlier fixed annotate pool took it and the run hung."""
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    inp, n = corpus
    script = str(tmp_path / "one_cpu.py")
    with open(script, "w") as f:
        f.write(_ONE_CPU_SCRIPT.format(repo=repo))
    out = str(tmp_path / "out")
    # own process group: a hung run is killed with every Ray process it
    # started, not just its driver
    p = subprocess.Popen(
        [sys.executable, script, inp, out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=repo,
        start_new_session=True,
    )
    try:
        stdout, stderr = p.communicate(timeout=240)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    assert p.returncode == 0, stderr[-2000:]
    summary = json.loads(
        [l for l in stdout.splitlines() if l.startswith("SUMMARY:")][0][8:]
    )
    assert summary["groups_run"] == 2 and summary["rows"] == n
    assert _total_rows(out) == n


def test_pandas_written_input_leaves_no_pandas_metadata(tmp_path):
    """The staging read keeps a pandas-written input's ``b'pandas'``
    schema metadata out of every block, so no written group file
    carries it."""
    from fineweb2_ro_ray.schema import TRANSCRIPT_SCHEMA

    src = str(tmp_path / "in")
    write_transcripts(src, 30, seed=3)
    inp = str(tmp_path / "pandas_in")
    os.makedirs(inp)
    for f in sorted(glob.glob(os.path.join(src, "*.parquet"))):
        df = pq.read_table(f).to_pandas()
        t = pa.Table.from_pandas(df, schema=TRANSCRIPT_SCHEMA, preserve_index=False)
        pq.write_table(t, os.path.join(inp, os.path.basename(f)))
    assert all(
        b"pandas" in pq.read_schema(f).metadata
        for f in glob.glob(os.path.join(inp, "*.parquet"))
    )
    out = str(tmp_path / "out")
    s = run_resumable(inp, out, lambda ds: annotate(ds, batch_size=512), n_groups=3)
    assert s["groups_run"] == 3 and s["rows"] == _total_rows(out) > 0
    for f in glob.glob(os.path.join(out, "part=*", "*.parquet")):
        assert b"pandas" not in (pq.read_schema(f).metadata or {}), f
