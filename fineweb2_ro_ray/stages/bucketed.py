"""Bucketed table layout + zero-shuffle bucket join (the Hive/Spark
bucketing discipline made durable).

The scale rule "pick ONE partitioning key and reuse it across stages"
pays off most when the partitioning survives the job: two tables
written bucketed BY THE SAME KEY with the SAME bucket count can be
joined later with NO exchange at all — bucket k of A joins bucket k of
B, each pair an independent streaming task. At 100 TB that converts
the single most expensive operation (an all-to-all join shuffle) into
a metadata check + an embarrassingly-parallel scan, and re-runs of
downstream jobs (the common case in a curation loop) never pay the
shuffle again.

Layout: ``bucket=K/data.parquet`` + ``meta.json`` recording the key,
bucket count and the engine-pinned hash (crc32 of the key's string
form — the same partitioner as the LM / inverted-index / incremental
artifacts, ``state.checkpoint.add_partition_column``). Writes are
atomic + idempotent (one deterministic file per bucket); a build
clears stale buckets first. Buckets with no rows write nothing —
readers treat a missing file as empty.

Sizing rule: one bucket pair is joined in ONE task, so pick
``n_buckets`` so each side's largest bucket is a few hundred MB
(``total_bytes / 256 MB``, rounded up — the same 256 MB discipline as
the exchange's reducer auto-sizing); a pathological hot key can still
concentrate one bucket, in which case the key belongs in a broadcast
or salted-exchange join, not a bucketed layout.

``bucket_join`` REFUSES key-incompatible inputs (different n_buckets
or different key hash discipline) instead of silently mis-joining:
compatibility is exactly "same n_buckets", since the hash is pinned
engine-wide. The join itself is ``ray.data.range(n_buckets)`` →
``map_batches`` (one bucket per task) with a local Arrow hash join —
no driver materialization, streaming output blocks.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..state.checkpoint import add_partition_column
from .exchange import hash_exchange_map_groups
from .incremental import _atomic_write

_META = "meta.json"


def _key_as_string(t: pa.Table, key: str) -> pa.Table:
    """Append the key's canonical string form (the hash input): strings
    pass through, integers via cast — deterministic and type-stable."""
    col = t[key]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not pa.types.is_string(col.type):
        col = pc.cast(col, pa.string())
    return t.append_column("__bkey", col)


def write_bucketed(
    ds: ray.data.Dataset,
    path: str,
    *,
    key: str,
    n_buckets: int = 32,
) -> dict:
    """Persist ``ds`` hash-bucketed by ``key``. Bucket files are sorted
    by the key for locality; returns (and writes) the meta dict."""
    if os.path.isdir(path):
        for d in glob.glob(os.path.join(path, "bucket=*")):
            shutil.rmtree(d, ignore_errors=True)
        mp = os.path.join(path, _META)
        if os.path.exists(mp):
            os.unlink(mp)
    os.makedirs(path, exist_ok=True)

    keyed = ds.map_batches(
        lambda t: add_partition_column(
            _key_as_string(t, key), n_buckets, key="__bkey"
        ).drop_columns(["__bkey"]),
        batch_format="pyarrow",
    )

    def write_parts(t: pa.Table) -> pa.Table:
        parts = pc.unique(t["part"]).to_pylist()
        rows = []
        for p in sorted(parts):
            sub = t.filter(pc.equal(t["part"], p)).drop_columns(["part"])
            sub = sub.take(pc.sort_indices(sub, sort_keys=[(key, "ascending")]))
            d = os.path.join(path, f"bucket={int(p):05d}")
            os.makedirs(d, exist_ok=True)
            _atomic_write(sub, os.path.join(d, "data.parquet"))
            rows.append((int(p), sub.num_rows))
        return pa.table(
            {
                "part": pa.array([r[0] for r in rows], pa.int64()),
                "rows": pa.array([r[1] for r in rows], pa.int64()),
            }
        )

    stats_schema = pa.schema([("part", pa.int64()), ("rows", pa.int64())])
    stats = hash_exchange_map_groups(
        keyed, write_parts, key="part", out_schema=stats_schema,
    ).to_pandas()
    meta = {
        "key": key,
        "n_buckets": int(n_buckets),
        "n_rows": int(stats["rows"].sum()) if len(stats) else 0,
        "hash": "crc32-str",
    }
    with open(os.path.join(path, _META), "w") as f:
        json.dump(meta, f)
    return meta


def read_bucketed_meta(path: str) -> dict:
    with open(os.path.join(path, _META)) as f:
        return json.load(f)


def bucket_join(
    path_a: str,
    path_b: str,
    *,
    join_type: str = "inner",
    suffix_b: str = "_b",
) -> ray.data.Dataset:
    """Join two same-key bucketed tables with ZERO exchange: one task
    per bucket pair, local Arrow hash join inside. The join key is each
    table's OWN bucketing key (they may be named differently, e.g.
    ``c_custkey`` vs ``o_custkey`` — co-location only needs identical
    hash input values). Refuses incompatible layouts loudly.

    Outer-join key semantics are Arrow ``Table.join``'s: the output
    carries ONE merged key column (left's name) populated from
    whichever side matched — ``COALESCE(a.key, b.key)`` in SQL terms —
    rather than a NULL left key for right-only rows."""
    ma, mb = read_bucketed_meta(path_a), read_bucketed_meta(path_b)
    if ma["n_buckets"] != mb["n_buckets"] or ma["hash"] != mb["hash"]:
        raise ValueError(
            f"bucket layouts incompatible: {path_a} has "
            f"(n_buckets={ma['n_buckets']}, hash={ma['hash']}), {path_b} has "
            f"(n_buckets={mb['n_buckets']}, hash={mb['hash']}); rebuild one "
            "side with write_bucketed(..., n_buckets=...) to match"
        )
    import pyarrow.parquet as pq

    key_a, key_b, n = ma["key"], mb["key"], ma["n_buckets"]

    # output schema: probe once from any non-empty bucket pair is
    # fragile (either side may be empty anywhere) — build it from the
    # two bucket schemas instead, mirroring Table.join's column rule
    def _schema(p: str) -> pa.Schema:
        files = sorted(glob.glob(os.path.join(p, "bucket=*", "data.parquet")))
        if not files:
            raise ValueError(f"bucketed table at {p} has no bucket files")
        return pq.read_schema(files[0])

    sa, sb = _schema(path_a), _schema(path_b)
    a_names = set(sa.names)
    out_fields = list(sa)
    for f in sb:
        if f.name == key_b:
            continue
        out_fields.append(
            pa.field(f.name + suffix_b, f.type) if f.name in a_names else f
        )
    out_schema = pa.schema(out_fields)

    def join_bucket(t: pa.Table) -> pa.Table:
        outs = []
        for k in t["id"].to_pylist():
            fa = os.path.join(path_a, f"bucket={k:05d}", "data.parquet")
            fb = os.path.join(path_b, f"bucket={k:05d}", "data.parquet")
            ea, eb = os.path.exists(fa), os.path.exists(fb)
            if not ea and join_type in ("inner", "left outer"):
                continue
            ta = pq.read_table(fa) if ea else sa.empty_table()
            if not eb:
                if join_type == "inner":
                    continue
                tb = sb.empty_table()
            else:
                tb = pq.read_table(fb)
            outs.append(
                ta.join(
                    tb,
                    keys=[key_a],
                    right_keys=[key_b],
                    join_type=join_type,
                    right_suffix=suffix_b,
                )
            )
        if not outs:
            return out_schema.empty_table()
        out = pa.concat_tables(outs, promote_options="default")
        return out.select(out_schema.names).cast(out_schema)

    return (
        ray.data.range(n)
        .repartition(n)
        .map_batches(join_bucket, batch_format="pyarrow")
    )


def bucket_map_groups(
    path: str,
    fn,
    *,
    out_schema: pa.Schema,
) -> ray.data.Dataset:
    """Key-complete per-group processing over a bucketed table with
    ZERO exchange — the persisted layout already co-locates every key:
    one task per bucket applies ``fn`` (same contract as
    ``hash_exchange_map_groups``: an Arrow table holding EVERY row of
    each key it sees; group internally). This is what "reuse the
    partitioning key across stages" buys: any number of later grouped
    jobs over the same table skip the shuffle entirely."""
    import pyarrow.parquet as pq

    meta = read_bucketed_meta(path)
    n = meta["n_buckets"]

    def per_bucket(t: pa.Table) -> pa.Table:
        outs = []
        for k in t["id"].to_pylist():
            f = os.path.join(path, f"bucket={k:05d}", "data.parquet")
            if not os.path.exists(f):
                continue
            outs.append(fn(pq.read_table(f)))
        if not outs:
            return out_schema.empty_table()
        return pa.concat_tables(outs).cast(out_schema)

    return (
        ray.data.range(n)
        .repartition(n)
        .map_batches(per_bucket, batch_format="pyarrow")
    )
