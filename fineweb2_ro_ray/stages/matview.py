"""Incremental materialized-view maintenance — keep a persisted
aggregate in sync with a changing corpus WITHOUT recomputing it.

A 100-TB corpus rebuilt per snapshot keeps dashboards (docs per
language, per domain, per source) that are tiny relative to the data;
recomputing them from scratch on every delta is the anti-pattern.
Classic incremental view maintenance for distributive aggregates:
apply the CHANGESET's per-key deltas to the stored aggregate —
O(|delta|) work, not O(|corpus|).

Layout mirrors the other engine artifacts (`stages/lm.py`,
`stages/invindex.py`): ``part=K/counts.parquet`` (key-sorted) +
``meta.json``, keys hash-partitioned by the engine-pinned crc32
partitioner, writes atomic + idempotent. The refresh co-locates deltas
with their partition through one thin keyed exchange; each reduce task
reads EXACTLY ITS OWN partition file, folds the deltas, drops keys
whose count reaches zero, and rewrites that one file — nothing is
driver-resident and untouched partitions are never read.

Invariant (pytest-pinned): ``refresh(build(base), deltas)`` is
row-identical to ``build(apply(base, deltas))``.
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
from .exchange import aggregate_table, hash_exchange_map_groups, sorted_runs
from .incremental import _atomic_write

_META = "meta.json"

_VIEW_SCHEMA = pa.schema([("key", pa.string()), ("n", pa.int64())])


def build_counts_view(
    ds: ray.data.Dataset, path: str, key_col: str, *, n_parts: int = 16
) -> dict:
    """Materialize per-key row counts (NULL keys excluded) as a
    partitioned artifact. Stale partitions from a prior build are
    cleared first."""
    if os.path.isdir(path):
        for d in glob.glob(os.path.join(path, "part=*")):
            shutil.rmtree(d, ignore_errors=True)
        mp = os.path.join(path, _META)
        if os.path.exists(mp):
            os.unlink(mp)
    os.makedirs(path, exist_ok=True)

    def partial(b: pa.Table) -> pa.Table:
        x = b[key_col]
        if isinstance(x, pa.ChunkedArray):
            x = x.combine_chunks()
        x = x.drop_null()
        vc = x.value_counts()
        return pa.table(
            {
                "key": pc.cast(vc.field("values"), pa.string()),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    parts = ds.select_columns([key_col]).map_batches(
        partial, batch_format="pyarrow"
    ).map_batches(
        lambda t: add_partition_column(t, n_parts, key="key"),
        batch_format="pyarrow",
    )

    def write_parts(t: pa.Table) -> pa.Table:
        st, starts = sorted_runs(t, ["part"])
        parts, rows = [], []
        for a, b in zip(starts[:-1], starts[1:]):
            p = st["part"][int(a)].as_py()
            m = aggregate_table(st.slice(a, b - a), ["key"], [("n", "sum", "n")])
            d = os.path.join(path, f"part={int(p):05d}")
            os.makedirs(d, exist_ok=True)
            _atomic_write(m.cast(_VIEW_SCHEMA), os.path.join(d, "counts.parquet"))
            parts.append(int(p))
            rows.append(m.num_rows)
        return pa.table({"part": parts, "rows": rows}, schema=stats_schema)

    stats_schema = pa.schema([("part", pa.int64()), ("rows", pa.int64())])
    hash_exchange_map_groups(
        parts, write_parts, key="part", out_schema=stats_schema
    ).to_pandas()
    meta = {"key_col": key_col, "n_parts": int(n_parts)}
    with open(os.path.join(path, _META), "w") as f:
        json.dump(meta, f)
    return meta


def refresh_counts_view(path: str, deltas: ray.data.Dataset) -> None:
    """Apply ``deltas`` rows ``(key: string, dn: int64)`` to the view:
    per-key counts adjust by Σdn; keys reaching n ≤ 0 are removed; new
    keys appear. Only partitions receiving deltas are read/rewritten."""
    with open(os.path.join(path, _META)) as f:
        meta = json.load(f)
    n_parts = meta["n_parts"]

    keyed = deltas.map_batches(
        lambda t: add_partition_column(t, n_parts, key="key"),
        batch_format="pyarrow",
    )

    def apply_part(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        t = t.filter(pc.is_valid(t["key"]))
        st, starts = sorted_runs(t, ["part"])
        parts, rows = [], []
        for a, b in zip(starts[:-1], starts[1:]):
            p = st["part"][int(a)].as_py()
            g = st.slice(a, b - a)
            d = pa.table({"key": g["key"], "n": pc.cast(g["dn"], pa.int64())})
            f = os.path.join(path, f"part={int(p):05d}", "counts.parquet")
            cur = (
                pq.read_table(f, columns=["key", "n"]).cast(_VIEW_SCHEMA)
                if os.path.exists(f)
                else _VIEW_SCHEMA.empty_table()
            )
            m = aggregate_table(
                pa.concat_tables([cur, d.cast(_VIEW_SCHEMA)]),
                ["key"],
                [("n", "sum", "n")],
            )
            m = m.filter(pc.greater(m["n"], 0))
            os.makedirs(os.path.dirname(f), exist_ok=True)
            _atomic_write(m.cast(_VIEW_SCHEMA), f)
            parts.append(int(p))
            rows.append(m.num_rows)
        return pa.table({"part": parts, "rows": rows}, schema=stats_schema)

    stats_schema = pa.schema([("part", pa.int64()), ("rows", pa.int64())])
    hash_exchange_map_groups(
        keyed, apply_part, key="part", out_schema=stats_schema
    ).to_pandas()


def read_counts_view(path: str) -> pa.Table:
    """The whole view (it is aggregate-sized by construction), sorted
    by key."""
    files = sorted(glob.glob(os.path.join(path, "part=*", "counts.parquet")))
    import pyarrow.parquet as pq

    if not files:
        return _VIEW_SCHEMA.empty_table()
    # explicit column list: reading a part=K/... path list makes the
    # dataset layer infer a hive 'part' column we don't want
    t = pq.read_table(files, columns=["key", "n"])
    return t.take(pc.sort_indices(t, sort_keys=[("key", "ascending")]))
