"""Incremental cross-snapshot exact dedup against a PERSISTED hash index.

The reference corpus itself is the output of exactly this process — each
new CommonCrawl dump is deduplicated against the hashes of every prior
dump before filtering (the FineWeb2 recipe the reference consumes at
``fineweb/fineweb2_download.py:22``; see also Penedo et al., "The
FineWeb Datasets", arXiv:2406.17557 §3.4 "individual dump MinHash +
cross-dump exact URL/content dedup"). ``stages.dedup`` covers the
within-snapshot case; this module covers the BETWEEN-snapshot case,
where re-hashing 99 processed dumps to admit the 100th is the thing a
100 TB pipeline cannot afford.

Design (all state on disk, nothing resident on the driver):

- the index is a directory of Parquet files holding ONE column
  (``text_md5``), hash-partitioned by the md5's own leading hex digits
  into ``n_parts`` subdirectories — so membership for any candidate
  hash is answerable from exactly one partition, and partitions are
  independently mergeable/readable;
- a fixed-size Bloom bitmap (``bloom.npy``, default 2^27 bits = 16 MB)
  over 64-bit md5 prefixes is stored alongside and broadcast once via
  ``ray.put`` at filter time: rows whose hash is definitely-absent
  bypass the exchange entirely (the overwhelming majority on a
  low-dup-rate snapshot), and only Bloom-positive rows pay the exact
  partition-wise anti-join. False positives are dropped by the exact
  check; false negatives are impossible, so results are exact.
- build/update/filter all route through the engine's raw hash exchange
  (``stages.exchange``), one reduce task per group of index partitions:
  each index Parquet file is written/read by exactly ONE task, never
  collected on the driver.

Writes are idempotent: partition files are named
``part=<p>/<snapshot>.parquet``, so a retried reduce task overwrites
its own output. NULL text never enters the index and is always kept by
the filter (``md5(NULL)`` is NULL in SQL; NULL = NULL is not true, so
the DuckDB ``NOT EXISTS`` oracle keeps such rows too — same convention
as ``dedup.add_md5``).
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from .bloom import _bit_indices, bloom_contains
from .dedup import add_md5
from .exchange import hash_exchange_map_groups

_META = "meta.json"
_BLOOM = "bloom.npy"


def _hex_prefix_uint(md5_arr: np.ndarray, n_chars: int) -> np.ndarray:
    """Vectorized ``int(s[:n_chars], 16)`` over an array of lowercase
    hex strings (no nulls). ASCII bytes → nibbles → packed uint64."""
    if len(md5_arr) == 0:
        return np.zeros(0, np.uint64)
    b = md5_arr.astype(f"S{n_chars}").view(np.uint8).reshape(-1, n_chars)
    v = b.astype(np.uint64) - np.uint64(48)  # '0'..'9' → 0..9
    v[v > 9] -= np.uint64(39)  # 'a'..'f' (97..102) → 10..15
    out = np.zeros(len(md5_arr), np.uint64)
    for i in range(n_chars):
        out = (out << np.uint64(4)) | v[:, i]
    return out


def _md5_part(md5_arr: np.ndarray, n_parts: int) -> np.ndarray:
    """Index partition id from the hash's own leading 32 bits — both
    the build side and the probe side can compute it locally with no
    shared state beyond ``n_parts``."""
    return (_hex_prefix_uint(md5_arr, 8) % np.uint64(n_parts)).astype(np.int64)


def _md5_u64(md5_arr: np.ndarray) -> np.ndarray:
    """64-bit Bloom key = the md5's leading 16 hex chars."""
    return _hex_prefix_uint(md5_arr, 16)


def _part_files(index_dir: str, part: int) -> list[str]:
    return sorted(glob.glob(os.path.join(index_dir, f"part={part:05d}", "*.parquet")))


def _read_part_hashes(index_dir: str, part: int) -> pa.ChunkedArray:
    files = _part_files(index_dir, part)
    if not files:
        return pa.chunked_array([pa.array([], pa.string())])
    return pq.read_table(files, columns=["text_md5"])["text_md5"]


def load_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, _META)) as f:
        return json.load(f)



def _atomic_write(table: pa.Table, path: str, **write_kwargs) -> None:
    """Write-to-temp + rename: a task that dies mid-write leaves only a
    ``.tmp-`` file (invisible to the ``*.parquet`` globs), never a
    half-written Parquet that poisons later reads. The temp name is
    unique per call (pid + uuid) so a speculative Ray retry racing a
    not-actually-dead original cannot interleave into one file; both
    eventually os.replace (atomic on POSIX) a COMPLETE file into the
    same deterministic destination — either winner is valid.
    ``write_kwargs`` go to ``pq.write_table``."""
    import uuid

    tmp = os.path.join(
        os.path.dirname(path),
        f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}-" + os.path.basename(path),
    )
    pq.write_table(table, tmp, **write_kwargs)
    os.replace(tmp, path)


def _write_meta(index_dir: str, meta: dict) -> None:
    """meta.json with the same temp+rename discipline — a truncated
    metadata file would brick every later load_meta even though the
    hash data is intact."""
    import uuid

    tmp = os.path.join(index_dir, f".tmp-meta-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(index_dir, _META))


def _distinct_hashes(ds: ray.data.Dataset, text_col: str, n_parts: int) -> ray.data.Dataset:
    """Map side shared by build and update: per-batch md5 → drop nulls
    → per-batch distinct (combiner) → partition id column. The exchange
    then moves 32-byte hashes, never text."""

    def f(t: pa.Table) -> pa.Table:
        t = add_md5(t, text_col, "text_md5")
        h = t["text_md5"].drop_null()
        u = np.unique(h.to_numpy(zero_copy_only=False)) if len(h) else np.array([], object)
        return pa.table(
            {
                "text_md5": pa.array(u, pa.string()),
                "_ipart": pa.array(_md5_part(u, n_parts), pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


_STATS_SCHEMA = pa.schema([("part", pa.int64()), ("n_new", pa.int64())])


def _write_parts_fn(index_dir: str, snapshot: str, dedupe_against_existing: bool):
    """Reduce fn: receives every row of its index partitions, writes one
    distinct-hash Parquet per partition (idempotent deterministic name),
    returns thin (part, n_new) stats rows."""

    def write_parts(t: pa.Table) -> pa.Table:
        parts = t["_ipart"].to_numpy(zero_copy_only=False)
        order = np.argsort(parts, kind="stable")
        t = t.take(pa.array(order, pa.int64()))
        parts = parts[order]
        bounds = np.searchsorted(parts, np.unique(parts))
        stats_p, stats_n = [], []
        for i, p in enumerate(np.unique(parts)):
            hi = bounds[i + 1] if i + 1 < len(bounds) else len(parts)
            h = np.unique(
                t["text_md5"].slice(bounds[i], hi - bounds[i]).to_numpy(zero_copy_only=False)
            )
            if dedupe_against_existing:
                existing = _read_part_hashes(index_dir, int(p))
                if len(existing):
                    mask = pc.is_in(pa.array(h, pa.string()), value_set=existing)
                    h = h[np.logical_not(mask.to_numpy(zero_copy_only=False))]
            d = os.path.join(index_dir, f"part={int(p):05d}")
            os.makedirs(d, exist_ok=True)
            if len(h):
                _atomic_write(
                    pa.table({"text_md5": pa.array(h, pa.string())}),
                    os.path.join(d, f"{snapshot}.parquet"),
                )
            stats_p.append(int(p))
            stats_n.append(int(len(h)))
        return pa.table({"part": stats_p, "n_new": stats_n}).cast(_STATS_SCHEMA)

    return write_parts


def _or_bloom_from_hashes(hashes: ray.data.Dataset, bm: np.ndarray, n_hashes: int) -> np.ndarray:
    """OR the bit indices of every hash into ``bm`` — same shape as
    ``bloom.build_id_bloom`` (per-batch distinct bit-index combiner;
    driver touches only index lists, never the hash values)."""
    m_bits = len(bm) * 64

    def bits(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"_b": pa.array([], pa.int64())})
        u = _md5_u64(t["text_md5"].to_numpy(zero_copy_only=False))
        idx = np.unique(_bit_indices(u, m_bits, n_hashes))
        return pa.table({"_b": pa.array(idx.astype(np.int64), pa.int64())})

    for b in hashes.map_batches(bits, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        i = b["_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        np.bitwise_or.at(
            bm, (i >> np.uint64(6)).astype(np.int64), np.uint64(1) << (i & np.uint64(63))
        )
    return bm


def _snapshot_hashes_ds(index_dir: str, snapshot: str) -> ray.data.Dataset:
    files = sorted(glob.glob(os.path.join(index_dir, "part=*", f"{snapshot}.parquet")))
    if not files:
        return ray.data.from_arrow(pa.table({"text_md5": pa.array([], pa.string())}))
    return ray.data.read_parquet(files, columns=["text_md5"])


def build_hash_index(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    n_parts: int = 256,
    snapshot: str = "s0000",
    m_bits: int = 1 << 27,
    n_hashes: int = 4,
    n_reducers: int | None = None,
) -> dict:
    """Create a fresh hash index at ``index_dir`` from ``ds``. Returns
    per-partition stats. At 100 TB pick ``n_parts`` so one partition's
    hash file fits a reduce task's heap (32 B x distinct texts /
    n_parts); the default 256 holds ~8 B distinct texts at 1 GB/part."""
    os.makedirs(index_dir, exist_ok=True)
    hashes = _distinct_hashes(ds, text_col, n_parts)
    stats = hash_exchange_map_groups(
        hashes,
        _write_parts_fn(index_dir, snapshot, dedupe_against_existing=False),
        key="_ipart",
        n_reducers=n_reducers,
        out_schema=_STATS_SCHEMA,
    ).to_pandas()
    meta = {
        "n_parts": n_parts,
        "m_bits": m_bits,
        "n_hashes": n_hashes,
        "snapshots": [snapshot],
        # per-snapshot lineage: what each job added, when — the index's
        # analog of the filter pipeline's manifest.jsonl
        "snapshot_stats": {
            snapshot: {
                "n_hashes_added": int(stats["n_new"].sum()),
                "parts_touched": int(len(stats)),
            }
        },
    }
    bm = _or_bloom_from_hashes(
        _snapshot_hashes_ds(index_dir, snapshot), np.zeros(m_bits // 64, np.uint64), n_hashes
    )
    np.save(os.path.join(index_dir, _BLOOM), bm)
    _write_meta(index_dir, meta)
    return {"n_hashes_indexed": int(stats["n_new"].sum()), "parts_written": len(stats)}


def update_index(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    snapshot: str,
    text_col: str = "text",
    n_reducers: int | None = None,
) -> dict:
    """Merge ``ds``'s distinct hashes into an existing index as a new
    snapshot: each reduce task anti-joins against ITS partitions'
    existing files and writes only genuinely-new hashes, so partition
    files stay disjoint and the index never needs compaction to stay
    correct. The Bloom bitmap is OR-updated from the new snapshot's
    hashes only (bits are monotone — no rebuild)."""
    meta = load_meta(index_dir)
    if snapshot in meta["snapshots"]:
        raise ValueError(f"snapshot {snapshot!r} already in index {index_dir}")
    hashes = _distinct_hashes(ds, text_col, meta["n_parts"])
    stats = hash_exchange_map_groups(
        hashes,
        _write_parts_fn(index_dir, snapshot, dedupe_against_existing=True),
        key="_ipart",
        n_reducers=n_reducers,
        out_schema=_STATS_SCHEMA,
    ).to_pandas()
    bm = np.load(os.path.join(index_dir, _BLOOM))
    bm = _or_bloom_from_hashes(_snapshot_hashes_ds(index_dir, snapshot), bm, meta["n_hashes"])
    np.save(os.path.join(index_dir, _BLOOM), bm)
    meta["snapshots"].append(snapshot)
    meta.setdefault("snapshot_stats", {})[snapshot] = {
        "n_hashes_added": int(stats["n_new"].sum()),
        "parts_touched": int(len(stats)),
    }
    _write_meta(index_dir, meta)
    return {"n_hashes_added": int(stats["n_new"].sum()), "parts_touched": len(stats)}


def filter_against_index(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    use_bloom: bool = True,
    n_reducers: int | None = None,
) -> ray.data.Dataset:
    """Rows of ``ds`` whose text hash is NOT in the index (the new
    snapshot's survivors). Exact — the Bloom is a pass-through
    fast-path only. Within-snapshot duplicates are NOT collapsed here
    (compose with ``dedup.dedup_exact`` for that, as the FineWeb recipe
    does: per-dump MinHash/exact dedup + cross-dump index filter).

    Scale shape: map side hashes and (with the 16 MB broadcast Bloom)
    routes definitely-new rows straight through; only Bloom-positive
    rows — dup rate + ~1% FP of the snapshot — cross the exchange,
    where each reduce task reads its partitions' hash files once and
    anti-joins. Driver holds nothing; no task reads more than
    index/n_parts hashes."""
    meta = load_meta(index_dir)
    n_parts = meta["n_parts"]
    orig_schema: pa.Schema = ds.schema().base_schema
    orig_cols: list[str] = list(orig_schema.names)
    bm_ref = ray.put(np.load(os.path.join(index_dir, _BLOOM))) if use_bloom else None
    n_hash = meta["n_hashes"]

    def tag(t: pa.Table) -> pa.Table:
        """→ (orig cols, text_md5, _ipart, _maybe) with _maybe=False
        meaning the Bloom proves absence (or md5 is NULL: never
        indexed, always kept)."""
        t = add_md5(t, text_col, "text_md5")
        md5 = t["text_md5"]
        valid = np.asarray(pc.is_valid(md5).to_numpy(zero_copy_only=False))
        vals = md5.to_numpy(zero_copy_only=False)
        part = np.zeros(t.num_rows, np.int64)
        maybe = np.zeros(t.num_rows, bool)
        if valid.any():
            v = vals[valid]
            part[valid] = _md5_part(v, n_parts)
            if bm_ref is not None:
                maybe[valid] = bloom_contains(ray.get(bm_ref), _md5_u64(v), n_hashes=n_hash)
            else:
                maybe[valid] = True
        return t.append_column("_ipart", pa.array(part, pa.int64())).append_column(
            "_maybe", pa.array(maybe, pa.bool_())
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    if use_bloom:
        passthrough = tagged.map_batches(
            lambda t: t.filter(pc.invert(t["_maybe"])).select(orig_cols),
            batch_format="pyarrow",
        )
        candidates = tagged.map_batches(
            lambda t: t.filter(t["_maybe"]), batch_format="pyarrow"
        )
    else:
        passthrough = None
        candidates = tagged

    def anti(t: pa.Table) -> pa.Table:
        """Per-partition exact anti-join against the on-disk index."""
        parts = t["_ipart"].to_numpy(zero_copy_only=False)
        keep = np.ones(t.num_rows, bool)
        md5 = t["text_md5"]
        for p in np.unique(parts):
            existing = _read_part_hashes(index_dir, int(p))
            if len(existing) == 0:
                continue
            sel = parts == p
            hit = pc.is_in(md5.filter(pa.array(sel)), value_set=existing)
            keep[sel] = np.logical_not(
                np.asarray(hit.to_numpy(zero_copy_only=False))
            )
        return t.filter(pa.array(keep)).select(orig_cols)

    survivors = hash_exchange_map_groups(
        candidates,
        anti,
        key="_ipart",
        n_reducers=n_reducers,
        out_schema=orig_schema,
    )
    return survivors if passthrough is None else passthrough.union(survivors)


@ray.remote
def _compact_part(index_dir: str, part: int, gen: int) -> tuple[int, int, int]:
    """Merge one partition's files into a single distinct-hash file.

    Concurrency caveat: a filter/update task that globbed the partition
    BEFORE the deletes may try to read a removed file and fail (Ray's
    task retry re-globs and succeeds, since write-then-delete never
    leaves the partition incomplete). Run compaction as a maintenance
    step between snapshot jobs, not concurrently with them."""
    files = _part_files(index_dir, part)
    if len(files) <= 1:
        return part, len(files), 0
    h = np.unique(pq.read_table(files, columns=["text_md5"])["text_md5"].to_numpy(
        zero_copy_only=False))
    d = os.path.join(index_dir, f"part={part:05d}")
    out = os.path.join(d, f"compacted-{gen:04d}.parquet")
    _atomic_write(pa.table({"text_md5": pa.array(h, pa.string())}), out)
    for f in files:
        if f != out:
            os.remove(f)
    return part, len(files), len(h)


def compact_index(index_dir: str) -> dict:
    """Merge each partition's per-snapshot files into one file — bounds
    file count (and filter-side open/read overhead) after many
    ``update_index`` rounds. One Ray task per partition (the same
    read-locality unit as the filter); the Bloom bitmap and membership
    set are unchanged by construction, so filters before/after agree.
    The compaction generation is recorded in ``meta.json`` and names
    the output file, keeping re-runs idempotent."""
    meta = load_meta(index_dir)
    gen = int(meta.get("compactions", 0)) + 1
    res = ray.get(
        [
            _compact_part.remote(index_dir, p, gen)
            for p in range(meta["n_parts"])
        ]
    )
    meta["compactions"] = gen
    _write_meta(index_dir, meta)
    merged = [(p, nf, nh) for p, nf, nh in res if nf > 1]
    return {
        "parts_compacted": len(merged),
        "files_removed": sum(nf - 1 for _, nf, _ in merged),
    }


def index_stats(index_dir: str) -> dict:
    """Footer-only index summary (no data pages read)."""
    meta = load_meta(index_dir)
    files = glob.glob(os.path.join(index_dir, "part=*", "*.parquet"))
    return {
        "n_parts": meta["n_parts"],
        "snapshots": list(meta["snapshots"]),
        "snapshot_stats": meta.get("snapshot_stats", {}),
        "n_files": len(files),
        "n_hashes": sum(pq.read_metadata(f).num_rows for f in files),
        "bytes": sum(os.path.getsize(f) for f in files),
    }
