"""Resumable partitioned output with per-partition lineage.

Ray Data has no job-level resume, so we re-create the reference's
file-existence idempotency (skip a shard when its output exists:
``/root/reference/fineweb/big_inference.py:296-303``, ``ro_vs_eng/
fineweb2_jql.py:61-64``, ``small_model_inference/shard_manager.py:19-26``)
at the granularity of *hash partitions of the conversation key*:

- the key is hashed (crc32, engine-pinned) into ``n_groups`` groups; a
  group is the resume unit: ``out/part={g}/`` plus a ``manifest.jsonl``
  record with lineage (input fingerprint, rows, kept, drop-reason
  histogram, PII/toxicity hits, wall seconds);
- on restart, a group is skipped only when its record is committed, its
  ``input_fingerprint`` matches the CURRENT input, its ``n_groups``
  matches the current run's, and its directory still exists; anything
  else is pending (lineage check). A run with a different ``n_groups``
  therefore re-runs every group, and its commit removes the groups
  ``g >= n_groups`` left by the earlier run;
- a run is ONE Ray Data execution over the pending groups: one scan of
  the input drops committed groups' rows before ``build``, and a
  ``Datasink`` writes each output block's group-g rows to
  ``.tmp-part-g/{task}-{block}.parquet``. The names are deterministic,
  so a retried write task overwrites its files and never duplicates
  them. Write tasks return thin per-group counts; lineage is their sum
  and never reads the output back;
- commit is at the end of the execution: pending groups are renamed
  into place in ascending order, each followed by its manifest line.
  Sink and commit errors fail the run.

Crash-loss bound: every block holds rows of every group, so no group is
complete before the last block is written. A crash during the execution
loses the run's whole pending set; a crash during the commit loses the
groups not yet renamed. Committed groups are never redone.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data
from ray.data.block import BlockAccessor

from ..sources.rowgroups import list_parquet


def partition_of(conv_id: str, n_partitions: int) -> int:
    """Engine-pinned partition hash (crc32 of utf-8 key)."""
    return zlib.crc32(conv_id.encode("utf-8")) % n_partitions


def add_partition_column(
    batch: pa.Table, n_partitions: int, key: str = "conv_id"
) -> pa.Table:
    """Vectorized-ish partition assignment: crc32 per *unique* key in the
    batch, broadcast back via dictionary encoding (cheap because unique
    keys per batch << rows for multi-turn conversations)."""
    col = batch[key]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    dic = col.dictionary_encode()
    uniq = dic.dictionary.to_pylist()
    lut = np.array(
        [zlib.crc32(u.encode("utf-8")) % n_partitions for u in uniq], dtype=np.int32
    )
    # NULL keys form a real group (e.g. md5(NULL) in dedup) and land
    # deterministically in partition 0; an ALL-null batch has an empty
    # dictionary, so nothing may index lut at all
    if len(lut) == 0:
        part = np.zeros(batch.num_rows, dtype=np.int32)
    else:
        valid = pc.is_valid(dic.indices).to_numpy(zero_copy_only=False)
        idx = pc.fill_null(dic.indices, 0).to_numpy(zero_copy_only=False)
        part = lut[idx.astype(np.int64)]
        part[~valid] = 0
    return batch.append_column("part", pa.array(part, pa.int32()))


@dataclass
class Manifest:
    path: str

    def _file(self) -> str:
        return os.path.join(self.path, "manifest.jsonl")

    def completed_records(self) -> dict[int, dict]:
        """Latest committed record per group (later lines win)."""
        done: dict[int, dict] = {}
        f = self._file()
        if os.path.exists(f):
            with open(f) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if rec.get("status") == "committed":
                        done[rec["group"]] = rec
                    elif rec.get("group") in done:
                        del done[rec["group"]]
        return done

    def completed_groups(self) -> set[int]:
        return set(self.completed_records())

    def record(self, rec: dict) -> None:
        os.makedirs(self.path, exist_ok=True)
        with open(self._file(), "a") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _input_fingerprint(paths: list[str]) -> str:
    """Cheap input lineage: sorted (path, size, mtime) crc — identifies
    *which* input produced a partition without reading it."""
    h = 0
    for p in sorted(paths):
        st = os.stat(p)
        h = zlib.crc32(f"{p}:{st.st_size}:{int(st.st_mtime)}".encode(), h)
    return f"{h:08x}"


def _stage_input(
    files: list[str], n_groups: int, key: str, pending: list[int]
) -> ray.data.Dataset:
    """The run's ONE scan of the input, keeping the pending groups' rows.
    The read is :func:`read_transcripts` (one task per row group, which
    Ray fuses with ``build``'s maps and the group sink), so no file's
    ``b'pandas'`` schema metadata reaches a block or the written groups.
    ``enginebench/traced.py`` times it by this name."""
    from ..pipelines.quality_filter import read_transcripts

    ds = read_transcripts(files)
    if len(pending) == n_groups:
        return ds
    want = pa.array(pending, pa.int32())
    return ds.map_batches(
        lambda b: b.filter(pc.is_in(add_partition_column(b, n_groups, key)["part"], want)),
        batch_format="pyarrow",
    )


def _lineage(t: pa.Table) -> dict:
    """Thin lineage counts of one written slice."""
    m = {"rows": t.num_rows}
    for col, name in (("keep", "kept"), ("pii_hits", "pii_hits"), ("tox_hits", "tox_hits")):
        if col in t.schema.names:
            m[name] = int(pc.sum(t[col]).as_py() or 0)
    if "drop_reason" in t.schema.names:
        vc = pc.value_counts(t["drop_reason"]).to_pylist()
        m["drop_reasons"] = {v["values"]: v["counts"] for v in vc if v["values"]}
    return m


def _merge(into: dict, m: dict) -> None:
    """Sum nested count dicts into ``into``."""
    for k, v in m.items():
        if isinstance(v, dict):
            _merge(into.setdefault(k, {}), v)
        else:
            into[k] = into.get(k, 0) + v


class _GroupSink(ray.data.Datasink):
    """Splits every block by group into ``.tmp-part-g/``; commits the
    pending groups once every block is written."""

    def __init__(self, out: str, pending: list[int], n_groups: int, key: str, fp: str):
        self.out, self.pending, self.n_groups, self.key, self.fp = out, pending, n_groups, key, fp
        self.tmp = {g: os.path.join(out, f".tmp-part-{g}") for g in pending}
        self.totals: dict[int, dict] = {g: {"rows": 0} for g in pending}
        self.t0 = time.time()

    def on_write_start(self) -> None:
        for d in self.tmp.values():
            os.makedirs(d)

    def write(self, blocks, ctx) -> dict[int, dict]:
        counts: dict[int, dict] = {}
        for b, block in enumerate(blocks):
            t = BlockAccessor.for_block(block).to_arrow()
            part = add_partition_column(t, self.n_groups, self.key)["part"].to_numpy()
            for g in np.unique(part).tolist():
                sub = t.filter(pa.array(part == g))
                pq.write_table(sub, f"{self.tmp[g]}/{ctx.task_idx:06d}-{b:06d}.parquet")
                _merge(counts, {g: _lineage(sub)})
        return counts

    def on_write_complete(self, write_result) -> None:
        for counts in write_result.write_returns:
            _merge(self.totals, counts)
        # one execution ran every pending group: its wall time is split
        # by rows, so one run's records sum to the run's wall time
        wall = time.time() - self.t0
        rows = sum(m["rows"] for m in self.totals.values()) or 1
        manifest = Manifest(self.out)
        for g in self.pending:
            final = os.path.join(self.out, f"part={g}")
            shutil.rmtree(final, ignore_errors=True)
            os.replace(self.tmp[g], final)
            m = self.totals[g]
            manifest.record({"group": g, "input_fingerprint": self.fp, "status": "committed",
                             "n_groups": self.n_groups,
                             **m, "wall_sec": round(wall * m["rows"] / rows, 3)})
        # groups of a run with more groups hold rows this run re-grouped
        parts = {int(d[5:]) for d in os.listdir(self.out) if d.startswith("part=")}
        for g in sorted(parts | set(manifest.completed_records())):
            if g >= self.n_groups:
                shutil.rmtree(os.path.join(self.out, f"part={g}"), ignore_errors=True)
                manifest.record({"group": g, "status": "removed"})


def run_resumable(
    input_path: str | list[str],
    output_dir: str,
    build: "callable",
    *,
    n_groups: int = 8,
    key: str = "conv_id",
) -> dict:
    """Run ``build(ds) -> ds`` over the input's pending partition groups
    in one Ray Data execution and commit them at its end.

    ``build`` receives the pending groups' raw rows and must keep the
    ``key`` column, from which the sink re-derives each output row's
    group. It may include the reassembly groupby: hash-partitioning by
    ``key`` puts every conversation in exactly one group.

    Returns summary metrics summed over the groups run *this* call.
    """
    files = list_parquet(input_path)
    fp = _input_fingerprint(files)
    os.makedirs(output_dir, exist_ok=True)
    for d in os.listdir(output_dir):  # a crashed or older run's scratch
        if d.startswith((".tmp-part-", ".staging-")):
            shutil.rmtree(os.path.join(output_dir, d))
    done = Manifest(output_dir).completed_records()
    pending = [
        g
        for g in range(n_groups)
        if not (
            done.get(g, {}).get("input_fingerprint") == fp
            and done[g].get("n_groups") == n_groups
            and os.path.isdir(os.path.join(output_dir, f"part={g}"))
        )
    ]
    summary = {"groups_run": len(pending), "groups_skipped": n_groups - len(pending)}
    sink = _GroupSink(output_dir, pending, n_groups, key, fp)
    if pending:
        build(_stage_input(files, n_groups, key, pending)).write_datasink(sink)
    summary["rows"] = sum(m["rows"] for m in sink.totals.values())
    summary["kept"] = sum(m.get("kept", 0) for m in sink.totals.values())
    return summary
