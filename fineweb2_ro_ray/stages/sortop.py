"""Range-partitioned global sort (distributed sample sort) + exact
global rank.

The engine's wide ops deliberately avoid Ray Data's sort-based groupby
(co-location doesn't need order — see ``stages.exchange``), but a
complete engine still needs real ORDER BY: ordered output partitions
for sorted-parquet sinks, and an exact global rank (the reference's
canonical file order, ``ro_vs_eng/quantiles_fetcher.py:46``, is a
degenerate single-node form of this).

Classic sample sort on the exchange substrate:

1. materialize the input once (a sort is a barrier either way), and
   draw a deterministic evenly-spaced sample of the range key from
   each block (bounded total: ``samples_per_block`` x blocks, sampled
   positions are fixed so reruns sample identically);
2. the driver sorts the sample and takes P-1 SPLITTERS at even
   quantile positions; splitters go to the object store ONCE
   (``ray.put``) — the range-routing callable fetched by each split
   task captures only the ref;
3. one exchange routes rows by ``searchsorted(splitters, key)``
   (every tie of the range key lands in exactly one partition; nulls
   route to the last partition), and each reduce task sorts its
   partition by the FULL key list (Arrow ``sort_by``, nulls at end —
   consistent with the null routing);
4. the exchange's output Dataset is in partition order, so block i
   precedes block j < global order holds across the whole stream;
5. (optional) exact global rank: per-partition row counts (P tiny
   metadata pulls) -> driver prefix-sum -> P task-parallel
   ``add rank = offset + arange`` passes. No row ever visits the
   driver.

Scale shape: the sample is O(samples_per_block x blocks) driver
memory (bounded, documented); splitters are O(P) shipped once;
the only all-to-all is the one range exchange; a heavily repeated
range-key value skews only its own partition (inherent to range
partitioning — same contract as the hash exchange's hot keys).
Multi-key sorts route on ``keys[0]`` only, which is CORRECT because
equal first-key rows always co-locate; within-partition ``sort_by``
applies the full lexicographic key.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .exchange import _num_rows, hash_exchange_map_groups


def _key_values(col: pa.ChunkedArray) -> np.ndarray:
    """Key column -> numpy array usable with np.searchsorted. Strings
    become fixed-width numpy unicode (vectorized comparisons; only the
    key column pays the widening)."""
    v = col.to_numpy(zero_copy_only=False)
    if v.dtype == object:
        v = v.astype("U")
    return v


def _sample_block(t: pa.Table, key: str, k: int) -> pa.Table:
    """Deterministic evenly-spaced non-null sample of the range key."""
    col = t[key].drop_null()
    n = len(col)
    if n == 0:
        return pa.table({key: pa.array([], t.schema.field(key).type)})
    idx = np.linspace(0, n - 1, num=min(k, n)).astype(np.int64)
    return pa.table({key: col.take(pa.array(np.unique(idx), pa.int64()))})


@ray.remote
def _add_rank(t: pa.Table, offset: int, rank_col: str) -> pa.Table:
    return t.append_column(
        rank_col,
        pa.array(offset + np.arange(1, t.num_rows + 1, dtype=np.int64)),
    )


def sample_sort(
    ds: ray.data.Dataset,
    keys: str | list[str],
    *,
    n_reducers: int | None = None,
    samples_per_block: int = 64,
    rank_col: str | None = None,
) -> ray.data.Dataset:
    """Globally sort ``ds`` ascending by ``keys`` (nulls last). The
    returned Dataset's blocks are range partitions in order, each
    internally sorted — streaming it yields the total order. With
    ``rank_col``, every row also gets its exact 1-based global rank."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    range_key = keys[0]
    ds = ds.materialize()

    samp = ds.map_batches(
        lambda t: _sample_block(t, range_key, samples_per_block),
        batch_format="pyarrow",
    )
    sample_vals = np.sort(
        np.concatenate(
            [
                _key_values(b[range_key])
                for b in samp.iter_batches(batch_format="pyarrow")
                if b.num_rows
            ]
            or [np.empty(0)]
        )
    )
    if n_reducers is None:
        from .exchange import _auto_reducers

        cpus = int(ray.cluster_resources().get("CPU", 8))
        n_reducers = _auto_reducers(ds.size_bytes() or 0, cpus)
    p = max(2, int(n_reducers))
    if len(sample_vals) == 0:
        splitters = sample_vals  # no non-null keys: everything -> part 0
    else:
        pos = (np.arange(1, p) * len(sample_vals)) // p
        splitters = sample_vals[np.minimum(pos, len(sample_vals) - 1)]
    spl_ref = ray.put(splitters)

    def route(t: pa.Table) -> np.ndarray:
        spl = ray.get(spl_ref)
        col = t[range_key]
        nulls = np.asarray(col.is_null().to_numpy(zero_copy_only=False))
        part = np.zeros(t.num_rows, dtype=np.int64)
        if len(spl) and (~nulls).any():
            v = _key_values(col)
            part[~nulls] = np.searchsorted(spl, v[~nulls], side="right")
        part[nulls] = p - 1  # nulls last (matches sort_by null placement)
        return part

    order = [(k, "ascending") for k in keys]

    def sort_partition(t: pa.Table) -> pa.Table:
        return t.sort_by(order)

    base = ds.schema().base_schema
    out = hash_exchange_map_groups(
        ds,
        sort_partition,
        key=route,
        n_reducers=p,
        out_schema=base if isinstance(base, pa.Schema) else None,
    )
    if rank_col is None:
        return out
    refs = [
        r
        for bundle in out.iter_internal_ref_bundles()
        for r in bundle.block_refs
    ]
    counts = ray.get([_num_rows.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    return ray.data.from_arrow_refs(
        [
            _add_rank.remote(r, int(o), rank_col)
            for r, o in zip(refs, offsets)
        ]
    )


# --- Sorted-parquet sink + range-pruned reader ------------------------
#
# The ordered complement of the engine's resumable partitioned output
# (state/checkpoint.py): sample_sort's range partitions become one
# parquet file each, written task-parallel with tmp+atomic-rename, plus
# a manifest of per-file (min, max, rows) of the range key. A reader
# with a key interval opens ONLY the overlapping files — the sorted-
# data analog of parquet row-group pruning, at file granularity, with
# the manifest replacing a footer scan of every shard.


@ray.remote
def _write_sorted_part(t: pa.Table, path: str, part_idx: int, key: str) -> dict:
    import pyarrow.parquet as pq

    if t.num_rows == 0:
        return {"file": None, "rows": 0, "part": part_idx}
    fname = f"part-{part_idx:05d}.parquet"
    tmp = os.path.join(path, f".tmp-{fname}")
    pq.write_table(t, tmp)
    os.rename(tmp, os.path.join(path, fname))
    col = t[key].drop_null()
    enc = (
        (lambda v: v.isoformat())
        if pa.types.is_timestamp(t.schema.field(key).type)
        else (lambda v: v)
    )
    return {
        "file": fname,
        "rows": t.num_rows,
        "part": part_idx,
        "min": enc(col[0].as_py()) if len(col) else None,
        "max": enc(col[-1].as_py()) if len(col) else None,
        "nulls": t.num_rows - len(col),
    }


def write_sorted_parquet(
    ds: ray.data.Dataset,
    path: str,
    keys: str | list[str],
    *,
    n_reducers: int | None = None,
) -> dict:
    """Globally sort ``ds`` by ``keys`` and write one parquet file per
    range partition (task-parallel, atomic) plus ``manifest.json`` with
    per-file (min, max, rows) of the range key. Returns the manifest."""
    import json

    keys_l = [keys] if isinstance(keys, str) else list(keys)
    os.makedirs(path, exist_ok=True)
    out = sample_sort(ds, keys_l, n_reducers=n_reducers)
    refs = [
        r
        for bundle in out.iter_internal_ref_bundles()
        for r in bundle.block_refs
    ]
    parts = ray.get(
        [
            _write_sorted_part.remote(r, path, i, keys_l[0])
            for i, r in enumerate(refs)
        ]
    )
    manifest = {
        "key": keys_l[0],
        "sort_keys": keys_l,
        "files": [p for p in parts if p["file"] is not None],
    }
    tmp = os.path.join(path, ".tmp-manifest.json")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.rename(tmp, os.path.join(path, "manifest.json"))
    return manifest


def read_sorted_range(
    path: str,
    lo=None,
    hi=None,
    *,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Read a ``write_sorted_parquet`` directory, opening ONLY the
    files whose [min, max] interval overlaps [lo, hi] (closed; None =
    unbounded). Rows are then exactly filtered to the interval — file
    pruning is the performance path, the filter is the correctness
    path. Files holding only nulls of the key never overlap a bounded
    interval (nulls sort last and carry min = max = None).

    Files are passed to the scan in range order and each file is
    internally sorted, but Ray Data's streaming executor may emit
    blocks out of order — for globally ORDERED iteration set
    ``DataContext.get_current().execution_options.preserve_order``
    (pytest-pinned); values/pruning need no flag."""
    import json

    import pyarrow.compute as pc

    with open(os.path.join(path, "manifest.json")) as f:
        man = json.load(f)
    key = man["key"]

    def _overlaps(e: dict) -> bool:
        if e["min"] is None:  # all-null file
            return lo is None and hi is None
        if lo is not None and e["max"] < _as_manifest(lo):
            return False
        if hi is not None and e["min"] > _as_manifest(hi):
            return False
        return True

    files = [os.path.join(path, e["file"]) for e in man["files"] if _overlaps(e)]
    if not files:
        if not man["files"]:
            raise FileNotFoundError(f"empty sorted dataset at {path}")
        import pyarrow.parquet as pq

        schema = pq.read_schema(os.path.join(path, man["files"][0]["file"]))
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        return ray.data.from_arrow(schema.empty_table())
    ds = ray.data.read_parquet(files, columns=columns)
    if lo is None and hi is None:
        return ds

    def trim(t: pa.Table) -> pa.Table:
        m = pc.is_valid(t[key])
        if lo is not None:
            m = pc.and_(m, pc.greater_equal(t[key], lo))
        if hi is not None:
            m = pc.and_(m, pc.less_equal(t[key], hi))
        return t.filter(m)

    return ds.map_batches(trim, batch_format="pyarrow")


def _as_manifest(v):
    """Bounds in the manifest's representation (timestamps are stored
    as ISO strings, which compare in time order)."""
    import datetime

    if isinstance(v, datetime.datetime):
        return v.isoformat()
    return v
