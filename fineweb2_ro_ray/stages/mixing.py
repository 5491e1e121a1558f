"""Domain-mixture rebalancing — the sampling-weights knob of a
pretraining-data pipeline.

The reference corpus fixes its mixture upstream (one language, one
dump schedule — ``/root/reference/fineweb/fineweb2_download.py``); a
standalone engine needs the general form (DoReMi-style reweighting,
The Pile / ROOTS-style domain proportions): given TARGET proportions
over a key column,

1. :func:`mixture_weights` — per-key keep-RATES that realize the
   target by downsampling only (the key whose target/actual ratio is
   largest keeps rate 1.0; everything else scales down
   proportionally). Thin grouped counts → driver-side arithmetic on
   ≤|keys| rows.
2. :func:`mixture_sample` — deterministic per-row Bernoulli at those
   rates: keep iff ``md5_band_1e6(id) < floor(rate·1e6)``, using the
   engine's canonical md5 band hash (``sources.splits.hash_band``
   convention, widened to 1e6 bands), so the sample is stable across
   runs, batch sizes and cluster layouts, and exactly reproducible in
   SQL: ``('0x' || substr(md5(CAST(id AS VARCHAR)), 1, 12))::BIGINT %
   1000000 < CAST(FLOOR(rate * 1000000) AS BIGINT)``. Zero shuffle —
   a pure streaming filter.
3. :func:`upsample_by_key` — integer repetition per key (epoch counts
   per domain, the upsampling half of mixture control): each row
   emits ``factor`` copies tagged ``copy_idx`` 0..factor-1. Pure row
   expansion inside the batch; zero shuffle.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def band_1e6(ids: pa.Array) -> np.ndarray:
    """Canonical md5 band in [0, 1e6): first 6 bytes (48 bits) of
    md5 of the id's STRING form — SQL mirror
    ``('0x' || substr(md5(CAST(id AS VARCHAR)), 1, 12))::BIGINT %
    1000000``. Same hash family as ``sources.splits.hash_band``
    (which uses % 100 for splits)."""
    s = pc.cast(ids, pa.string())
    from ..functions.textstats import utf8_flat_view

    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    flat, lens = utf8_flat_view(s)
    mv = memoryview(flat)
    off = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=off[1:])
    md5 = hashlib.md5
    return np.fromiter(
        (
            int.from_bytes(md5(mv[off[i] : off[i + 1]]).digest()[:6], "big")
            % 1_000_000
            for i in range(len(lens))
        ),
        dtype=np.int64,
        count=len(lens),
    )


def mixture_weights(
    ds: ray.data.Dataset, key: str, target: dict[str, float]
) -> pd.DataFrame:
    """(key, n, rate): downsample-only keep-rates realizing ``target``
    proportions. rate_k = ratio_k / max(ratio) with ratio_k =
    target_k / (n_k / total); keys absent from ``target`` get rate 0.
    The arithmetic mirrors the SQL oracle expression ORDER OF
    OPERATIONS exactly (p first, then ratio, then the max division) so
    doubles match bit-for-bit."""
    from .analysis import grouped_counts

    counts = grouped_counts(ds.select_columns([key]), [key]).to_pandas()
    counts = counts.sort_values(key).reset_index(drop=True)
    total = float(counts["n"].sum())
    p = counts["n"].astype(np.float64) / total
    ratio = np.array(
        [target.get(k, 0.0) for k in counts[key]], dtype=np.float64
    ) / p.to_numpy()
    m = ratio.max() if len(ratio) and ratio.max() > 0 else 1.0
    return pd.DataFrame(
        {key: counts[key], "n": counts["n"].astype(np.int64), "rate": ratio / m}
    )


def mixture_sample(
    ds: ray.data.Dataset,
    key: str,
    rates: dict[str, float],
    id_col: str,
) -> ray.data.Dataset:
    """Deterministic hash-band sample at per-key rates (keys without a
    rate drop). Streaming filter — no shuffle, no RNG, stable under
    any batching/parallelism."""
    thresh = {k: int(np.floor(r * 1_000_000)) for k, r in rates.items()}

    def f(t: pa.Table) -> pa.Table:
        col = t[key]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        dic = col.dictionary_encode()
        lut = np.array(
            [thresh.get(u, 0) for u in dic.dictionary.to_pylist()], np.int64
        )
        if len(lut) == 0:
            return t.slice(0, 0)
        idx = pc.fill_null(dic.indices, 0).to_numpy(zero_copy_only=False)
        row_thresh = lut[idx.astype(np.int64)]
        row_thresh[~pc.is_valid(col).to_numpy(zero_copy_only=False)] = 0
        band = band_1e6(t[id_col])
        return t.filter(pa.array(band < row_thresh))

    return ds.map_batches(f, batch_format="pyarrow")


def upsample_by_key(
    ds: ray.data.Dataset,
    key: str,
    factors: dict[str, int],
    *,
    copy_col: str = "copy_idx",
    default: int = 1,
) -> ray.data.Dataset:
    """Integer per-key repetition: each row emits its key's factor
    copies, tagged ``copy_col`` = 0..factor-1 (factor 0 drops the
    row). Pure in-batch row expansion."""

    def f(t: pa.Table) -> pa.Table:
        col = t[key]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        dic = col.dictionary_encode()
        lut = np.array(
            [int(factors.get(u, default)) for u in dic.dictionary.to_pylist()],
            np.int64,
        )
        if len(lut) == 0:
            fac = np.full(t.num_rows, default, np.int64)
        else:
            idx = pc.fill_null(dic.indices, 0).to_numpy(zero_copy_only=False)
            fac = lut[idx.astype(np.int64)]
            fac[~pc.is_valid(col).to_numpy(zero_copy_only=False)] = default
        take = np.repeat(np.arange(t.num_rows, dtype=np.int64), fac)
        out = t.take(pa.array(take, pa.int64()))
        starts = np.cumsum(fac) - fac
        copy_idx = np.arange(len(take), dtype=np.int64) - np.repeat(starts, fac)
        return out.append_column(copy_col, pa.array(copy_idx, pa.int64()))

    return ds.map_batches(f, batch_format="pyarrow")


def cap_per_key(
    ds: ray.data.Dataset,
    key: str,
    order_by: list[str],
    k: int,
) -> ray.data.Dataset:
    """Per-key document QUOTA (the C4/FineWeb "at most k pages per
    host" rule, and the general per-domain cap of mixture control):
    keep the first ``k`` rows of every ``key`` group under the
    deterministic ``order_by`` ascending order, dropping the rest.

    One keyed hash exchange co-locates each key's rows; the
    per-partition kernel is a vectorized sort + groupby head. Rows ride
    the exchange whole (the output IS the surviving rows), so unlike
    the thin-count exchanges this one moves payloads — callers capping
    wide rows at scale should project to (key, order, row-id) first and
    semi-join the survivors back, the same pattern as
    stages.dedup.exact_dedup. Null keys form one group (capped like any
    other)."""
    from .exchange import hash_exchange_map_groups, run_rank, sorted_runs

    def per_part(t: pa.Table) -> pa.Table:
        st, starts = sorted_runs(t, [key], [(c, "ascending") for c in order_by])
        return st.filter(pa.array(run_rank(starts) < k))

    return hash_exchange_map_groups(ds, per_part, key=key)
