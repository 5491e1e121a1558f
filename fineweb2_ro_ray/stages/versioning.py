"""Corpus snapshot diff — the data-versioning operator of an evolving
pretraining corpus.

The reference corpus is rebuilt per CommonCrawl dump and each dump is a
new SNAPSHOT of overlapping web content (`/root/reference/fineweb/
fineweb2_download.py` pulls one dump; FineWeb's cross-dump story is
handled by dedup). A standalone engine additionally needs the release-
engineering view: given two versions of a keyed corpus, classify every
key as ``added`` / ``removed`` / ``changed`` / ``unchanged`` without
ever moving document payloads.

Shape (scale-first):

1. both sides are projected to a THIN ``(key, fp, side)`` stream
   map-side — ``fp`` is the engine's canonical 64-bit content hash
   (:func:`schema.hash_key_u64`) folded over the compare columns, so
   text/payload bytes never enter the exchange;
2. one keyed hash exchange co-locates each key's (<=2) thin rows;
3. a vectorized per-partition kernel scatters old/new fingerprints by
   key code and emits ``(key, status)``.

Bytes moved: 17 bytes/row/side regardless of document size. The status
is exact up to 64-bit fingerprint collisions (probability ~ n^2 / 2^65;
documented trade — the oracle compares full values, so a collision
would surface as a gate mismatch).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..schema import hash_key_u64
from .exchange import hash_exchange_map_groups, sorted_runs

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def content_fingerprint(t: pa.Table, cols: list[str]) -> np.ndarray:
    """Order-sensitive fold of the canonical per-column 64-bit hashes:
    ``fp = splitmix-mix(fp * GOLDEN ^ hash(col))`` per compare column.
    Null-safe (hash_key_u64 maps nulls to a fixed sentinel)."""
    fp = np.zeros(t.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in cols:
            h = hash_key_u64(t[c]).astype(np.uint64)
            fp = (fp * _GOLDEN) ^ h
            # one splitmix64 finalization round per column keeps the
            # fold non-commutative and avalanched
            fp ^= fp >> np.uint64(30)
            fp *= np.uint64(0xBF58476D1CE4E5B9)
            fp ^= fp >> np.uint64(27)
    return fp


def _thin(ds: ray.data.Dataset, key: str, compare: list[str], side: int):
    def f(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "__key": b[key],
                "__fp": pa.array(content_fingerprint(b, compare), pa.uint64()),
                "__side": pa.array(
                    np.full(b.num_rows, side, np.int8), pa.int8()
                ),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def snapshot_diff(
    old: ray.data.Dataset,
    new: ray.data.Dataset,
    *,
    key: str,
    compare: list[str],
    include_unchanged: bool = True,
    n_reducers: int | None = None,
) -> ray.data.Dataset:
    """Diff two corpus snapshots keyed by ``key``: emit one
    ``(key, status)`` row per key present in either side, with status in
    {added, removed, changed, unchanged} (``unchanged`` rows dropped when
    ``include_unchanged=False`` — the common "what moved" audit).

    ``key`` is assumed unique per side (snapshot semantics); duplicate
    keys within a side collapse to the side's LAST row fingerprint, a
    documented don't-care."""
    thin = _thin(old, key, compare, 0).union(_thin(new, key, compare, 1))
    statuses = pa.array(["removed", "added", "changed", "unchanged"])

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "__key": pa.array([], g.schema.field("__key").type),
                    "status": pa.array([], pa.string()),
                }
            )
        keys = g["__key"].combine_chunks()
        enc = keys.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = enc.dictionary
        n = len(uniq)
        side = g["__side"].to_numpy(zero_copy_only=False)
        fp = g["__fp"].to_numpy(zero_copy_only=False)
        have = np.zeros((2, n), dtype=bool)
        fps = np.zeros((2, n), dtype=np.uint64)
        have[side, codes] = True
        fps[side, codes] = fp  # last-writer-wins within a side
        # 0 removed (old only), 1 added (new only), 2 changed, 3 unchanged
        code = np.where(
            ~have[1],
            0,
            np.where(~have[0], 1, np.where(fps[0] != fps[1], 2, 3)),
        ).astype(np.int64)
        out = pa.table(
            {
                "__key": uniq,
                "status": statuses.take(pa.array(code, pa.int64())),
            }
        )
        if not include_unchanged:
            out = out.filter(pc.not_equal(out["status"], "unchanged"))
        return out

    out = hash_exchange_map_groups(
        thin,
        per_part,
        key="__key",
        n_reducers=n_reducers,
    )
    return out.map_batches(
        lambda b: b.rename_columns([key, "status"]), batch_format="pyarrow"
    )


def apply_changeset(
    base: ray.data.Dataset,
    changes: ray.data.Dataset,
    *,
    key: str,
    op_col: str = "op",
) -> ray.data.Dataset:
    """MERGE INTO — apply an upsert/delete changeset to a keyed corpus
    (the write side of :func:`snapshot_diff`): ``changes`` carries the
    base's payload columns plus ``op`` ∈ {'upsert', 'delete'}; the
    result keeps untouched base rows, replaces/creates upserted keys,
    and drops deleted ones.

    Scale shape: ONE keyed exchange co-locates each key's base row and
    its (at most one — enforced) change row; the per-partition kernel
    is a stable sort + keep-last + op filter, all vectorized. Rows move
    exactly once; no driver state; output schema = base schema.

    A key with MULTIPLE change rows is ambiguous (which write wins is
    an upstream ordering question, not something a batch merge should
    guess) — the kernel raises with the offending keys named."""
    base_cols = base.schema().names
    payload = [c for c in base_cols if c != key]

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            cols = {key: t[key]}
            for c in payload:
                cols[c] = t[c]
            cols["__op"] = (
                pa.array(["keep"] * t.num_rows)
                if side == 0
                else (
                    t[op_col].combine_chunks()
                    if isinstance(t[op_col], pa.ChunkedArray)
                    else t[op_col]
                )
            )
            cols["__side"] = pa.array(
                np.full(t.num_rows, side, dtype=np.int8)
            )
            return pa.table(cols)

        return f

    tagged = base.map_batches(tag(0), batch_format="pyarrow").union(
        changes.map_batches(tag(1), batch_format="pyarrow")
    )

    def merge_part(t: pa.Table) -> pa.Table:
        ch, cstarts = sorted_runs(
            t.filter(pc.equal(t["__side"], 1)).select([key]), [key]
        )
        dup = np.flatnonzero(np.diff(cstarts) > 1)
        if len(dup):
            raise ValueError(
                f"apply_changeset: multiple change rows for key(s) "
                f"{sorted(ch[key].take(pa.array(cstarts[dup])).to_pylist())[:5]}"
                " — resolve upstream (e.g. keep max-seq per key) before merging"
            )
        st, starts = sorted_runs(t, [key], [("__side", "ascending")])
        last = st.take(pa.array(starts[1:] - 1))
        last = last.filter(pc.fill_null(pc.not_equal(last["__op"], "delete"), True))
        return last.select(base_cols)

    base_arrow = pa.schema(
        [
            (n, t)
            for n, t in zip(base.schema().names, base.schema().types)
        ]
    )
    return hash_exchange_map_groups(
        tagged, merge_part, key=key, out_schema=base_arrow
    )
