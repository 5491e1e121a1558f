"""Mergeable cardinality sketch: HyperLogLog (Flajolet et al. 2007,
public algorithm).

At 100 TB an exact ``groupby(col).count()`` for cardinality is an
all-to-all shuffle of every distinct key; an HLL register array is
2^p bytes per BLOCK regardless of data size and merges with an
elementwise max — the canonical mergeable-sketch shape the brief's
custom-operator clause calls for. The reference has no sketches; its
closest shape is the per-shard partial counters merged on the driver
(``/root/reference/full_dataset_analysis/main.py:8-39``).

Determinism: the value hash is splitmix64 over int64 values, or md5
(first 8 bytes, little-endian) over utf-8 strings hashed once per
UNIQUE batch value via dictionary encode — no RNG anywhere, so the
estimate is bit-stable across batch sizes and cluster layouts (register
merge is max: associative, commutative, idempotent)."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..schema import from_pandas_clean
from .exchange import exchange_aggregate, hash_exchange_map_groups, sorted_runs


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def _hash_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Column → uint64 hashes (vectorized for ints; md5 per unique for
    strings). Nulls are DROPPED first — COUNT(DISTINCT) semantics; an
    unfiltered null int would round-trip through NaN into an INT64_MIN
    phantom value, and a null string would collide with ''."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.drop_null()
    if pa.types.is_integer(col.type):
        v = col.to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        return _splitmix64(v)
    dic = col.cast(pa.string()).dictionary_encode()
    uniq = dic.dictionary.to_pylist()
    lut = np.array(
        [
            int.from_bytes(hashlib.md5((u or "").encode("utf-8")).digest()[:8], "little")
            for u in uniq
        ],
        dtype=np.uint64,
    )
    idx = dic.indices.to_numpy(zero_copy_only=False)
    return lut[idx]


def _bucket_rank(hashes: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(n,) uint64 hashes → (bucket int64, rank uint8) — the HLL
    decomposition shared by the global and grouped register builders."""
    bucket = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = (hashes << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad tail with 1s
    # rank = leading zeros of the remaining 64-p bits, + 1
    lz = np.zeros(len(rest), dtype=np.uint8)
    x = rest.copy()
    width = np.uint64(64)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = x < (np.uint64(1) << (width - np.uint64(shift)))
        lz[mask] += shift
        x[mask] <<= np.uint64(shift)
    rank = np.minimum(lz + 1, 64 - p + 1).astype(np.uint8)
    return bucket, rank


def hll_registers(hashes: np.ndarray, p: int = 12) -> np.ndarray:
    """(n,) uint64 hashes → 2^p uint8 registers (max leading-zero rank
    per bucket)."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(hashes) == 0:
        return regs
    bucket, rank = _bucket_rank(hashes, p)
    np.maximum.at(regs, bucket, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with linear-counting small-range
    correction."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if e <= 2.5 * m and zeros > 0:
        return float(m * np.log(m / zeros))
    return float(e)


try:
    from ray.data.aggregate import AggregateFnV2

    class _HLLAgg(AggregateFnV2):
        """Distributed HLL accumulation: block partials + tree combine
        run inside Ray's aggregate operator, so the driver touches ONE
        register array — at 100 TB this matters (a driver-side loop
        over per-batch partials would serialize millions of object
        fetches)."""

        def __init__(self, col: str, p: int = 12) -> None:
            self._col = col
            self._p = p
            m = 1 << p
            super().__init__(
                f"hll({col})",
                zero_factory=lambda: np.zeros(m, dtype=np.uint8),
                on=None,
                ignore_nulls=True,
            )

        def aggregate_block(self, block) -> np.ndarray:
            tbl = block if isinstance(block, pa.Table) else from_pandas_clean(block)
            return hll_registers(_hash_column(tbl[self._col]), self._p)

        def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return np.maximum(a, b)

        def finalize(self, a: np.ndarray) -> float:
            return hll_estimate(a)

except ImportError:  # older Ray: driver-merge fallback below
    _HLLAgg = None


def approx_distinct(
    ds: ray.data.Dataset, col: str, *, p: int = 12
) -> pd.DataFrame:
    """Approximate distinct count of ``col``: per-block register
    partials combined tree-wise inside Ray's aggregate operator (max is
    associative/commutative/idempotent). Typical error ≈
    1.04/sqrt(2^p) (~1.6% at p=12). Returns a 1-row DataFrame
    (approx_distinct,)."""
    sub = ds.select_columns([col])
    if _HLLAgg is not None:
        out = sub.aggregate(_HLLAgg(col, p))
        est = out[f"hll({col})"] if isinstance(out, dict) else out
        return pd.DataFrame([{"approx_distinct": float(est)}])

    m = 1 << p

    def partial(b: pa.Table) -> pa.Table:
        regs = hll_registers(_hash_column(b[col]), p)
        return pa.table(
            {"regs": pa.FixedSizeListArray.from_arrays(pa.array(regs, pa.uint8()), m)}
        )

    merged = np.zeros(m, dtype=np.uint8)
    for b in sub.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        flat = b["regs"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
        merged = np.maximum(merged, flat.reshape(-1, m).max(axis=0))
    return pd.DataFrame([{"approx_distinct": hll_estimate(merged)}])


def approx_distinct_by(
    ds: ray.data.Dataset, key: str, col: str, *, p: int = 12
) -> ray.data.Dataset:
    """Approximate distinct count of ``col`` PER ``key`` group — the
    mergeable-sketch-per-key shape: each batch emits one (key,
    register array) partial per distinct key it contains, a key-hashed
    exchange elementwise-maxes each key's registers, the estimate runs
    once per key at the reduce. Only fixed-size register rows cross
    the shuffle (2^p bytes per key per batch), never value rows —
    at 100 TB this is what makes per-domain / per-language cardinality
    affordable. Same estimator/error as :func:`approx_distinct`
    (~1.04/sqrt(2^p)). Returns (key, approx_distinct)."""
    m = 1 << p
    sub = ds.select_columns([key, col])

    def partial(b: pa.Table) -> pa.Table:
        enc = pa.chunked_array([b[key]]).combine_chunks().dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False)
        vals = b[col].combine_chunks() if isinstance(b[col], pa.ChunkedArray) else b[col]
        # row-aligned codes: 0..U-1 real keys, U = the NULL-key group
        # (a real group under SQL GROUP BY)
        U = len(enc.dictionary)
        key_null = pd.isna(idx)
        codes = np.where(key_null, U, idx).astype(np.int64)
        has_null_key = bool(key_null.any())
        n_groups = U + (1 if has_null_key else 0)
        # row-aligned value hashes (drop_null preserves order, so the
        # compacted hash array scatters back through the valid mask);
        # null VALUES are excluded entirely — COUNT DISTINCT semantics
        val_ok = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        h = np.zeros(len(idx), dtype=np.uint64)
        if val_ok.any():
            h[val_ok] = _hash_column(vals)
        rows = val_ok
        # ONE scatter over (group, bucket) — no per-key loop, no
        # per-key full-column compares (O(rows) regardless of U)
        regs2d = np.zeros(n_groups * m, dtype=np.uint8)
        if rows.any():
            bucket, rank = _bucket_rank(h[rows], p)
            np.maximum.at(regs2d, codes[rows] * m + bucket, rank)
        keys_out = enc.dictionary.to_pylist() + ([None] if has_null_key else [])
        return pa.table(
            {
                key: pa.array(keys_out, b[key].type),
                "regs": pa.FixedSizeListArray.from_arrays(
                    pa.array(regs2d, pa.uint8()), m
                ),
            }
        )

    partials = sub.map_batches(partial, batch_format="pyarrow")
    out_schema = pa.schema(
        [ds.schema().base_schema.field(key), ("approx_distinct", pa.float64())]
    )

    def merge(t: pa.Table) -> pa.Table:
        st, starts = sorted_runs(t.select([key, "regs"]), [key])
        regs = st["regs"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
        regs = np.maximum.reduceat(regs.reshape(st.num_rows, m), starts[:-1], axis=0)
        return pa.table(
            {
                key: st[key].take(pa.array(starts[:-1])),
                "approx_distinct": pa.array(
                    [hll_estimate(r) for r in regs], pa.float64()
                ),
            }
        )

    return hash_exchange_map_groups(partials, merge, key=key, out_schema=out_schema)


# ---------------------------------------------------------------------------
# Heavy hitters: mergeable candidate summaries + exact recount
# ---------------------------------------------------------------------------


def heavy_hitters_exact(
    ds: ray.data.Dataset,
    text_col: str = "text",
    *,
    k: int = 20,
) -> ray.data.Dataset:
    """EXACT heavy hitters — every token with frequency > total/k — in
    two streaming passes, no full-vocabulary shuffle:

    Pass 1 (candidates): each batch counts its tokens with one
    dictionary-encode + bincount and keeps only LOCAL heavy hitters
    (count * k > batch tokens). The Misra-Gries / SpaceSaving averaging
    argument makes this a sound candidate set: if sum(f_i) > sum(n_i)/k
    then f_i > n_i/k in at least one batch, so no global heavy hitter
    can be missed. Each batch also emits one NULL-word row carrying its
    token total; null-free tokens (split never yields null) make the
    sentinel collision-free. One thin exchange merges candidates and
    the total — the shuffle moves per-batch local-HH rows only (at most
    k-1 per batch), never the vocabulary.

    Pass 2 (exact recount): the distinct candidate words (driver-sized:
    bounded by k * batches, typically << k^2) are broadcast via
    ``ray.put``; a second scan recounts ONLY candidates exactly, one
    more thin exchange sums, and the integer predicate
    ``n * k > total`` filters. Output (word, n) is exact — the sketch
    bounds candidates, never the answer. Guidance: HH survey (Cormode &
    Hadjieleftheriou, VLDB'08, public); reference has no analog.
    """
    import ray as _ray

    def _flat_tokens(b: pa.Table) -> pa.Array:
        text = b[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        return pc.list_flatten(pc.split_pattern(text.drop_null(), " "))

    def cand_partial(b: pa.Table) -> pa.Table:
        flat = _flat_tokens(b)
        n = len(flat)
        if n == 0:
            return pa.table(
                {"word": pa.array([], pa.string()), "partial_n": pa.array([], pa.int64())}
            )
        dic = flat.dictionary_encode()
        cnt = np.bincount(
            dic.indices.to_numpy(zero_copy_only=False), minlength=len(dic.dictionary)
        ).astype(np.int64)
        keep = cnt * k > n
        words = dic.dictionary.filter(pa.array(keep))
        out = pa.table(
            {"word": words, "partial_n": pa.array(cnt[keep], pa.int64())}
        )
        total_row = pa.table(
            {
                "word": pa.array([None], pa.string()),
                "partial_n": pa.array([n], pa.int64()),
            }
        )
        return pa.concat_tables([out, total_row])

    partials = ds.select_columns([text_col]).map_batches(
        cand_partial, batch_format="pyarrow"
    )
    merged = exchange_aggregate(
        partials, "word", [("partial_n", "sum", "partial_n")]
    ).to_pandas()
    total = int(merged.loc[merged["word"].isna(), "partial_n"].sum())
    cand_words = merged.loc[merged["word"].notna(), "word"].to_numpy()
    cand_ref = _ray.put(np.sort(cand_words))

    def recount(b: pa.Table) -> pa.Table:
        flat = _flat_tokens(b)
        cand = _ray.get(cand_ref)
        if len(flat) == 0 or len(cand) == 0:
            return pa.table(
                {"word": pa.array([], pa.string()), "partial_n": pa.array([], pa.int64())}
            )
        dic = flat.dictionary_encode()
        cnt = np.bincount(
            dic.indices.to_numpy(zero_copy_only=False), minlength=len(dic.dictionary)
        ).astype(np.int64)
        words = dic.dictionary.to_numpy(zero_copy_only=False)
        keep = np.isin(words, cand) & (cnt > 0)
        return pa.table(
            {
                "word": pa.array(words[keep], pa.string()),
                "partial_n": pa.array(cnt[keep], pa.int64()),
            }
        )

    exact = exchange_aggregate(
        ds.select_columns([text_col]).map_batches(recount, batch_format="pyarrow"),
        "word",
        [("partial_n", "sum", "partial_n")],
    )

    def hh_filter(b: pa.Table) -> pa.Table:
        n = b["partial_n"]
        keep = pc.greater(pc.multiply(n, pa.scalar(k, pa.int64())), pa.scalar(total, pa.int64()))
        t = b.filter(keep)
        return pa.table({"word": t["word"], "n": t["partial_n"]})

    return exact.map_batches(hh_filter, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Approximate quantiles: deterministic mergeable summaries
# ---------------------------------------------------------------------------


def _prune_summary(vals: np.ndarray, wts: np.ndarray, m: int):
    """Prune a weighted sorted summary to ≤ m points: keep the values
    whose cumulative weights are nearest to m evenly spaced targets
    (always keeping min and max). Deterministic; adds ≤ total/(m-1)
    rank error (classic ε-summary compression, Greenwald-Khanna /
    Manku-Rajagopalan-Lindsay lineage, public)."""
    # ALWAYS sort — callers cumsum the returned weights, so an unsorted
    # early return would corrupt every downstream rank estimate
    order = np.argsort(vals, kind="mergesort")
    vals, wts = vals[order], wts[order]
    if len(vals) <= m:
        return vals, wts
    cum = np.cumsum(wts)
    total = cum[-1]
    targets = np.linspace(0, total, m)
    idx = np.unique(np.searchsorted(cum, targets, side="left").clip(0, len(vals) - 1))
    # collapse weights between kept points onto the kept point so total
    # weight (and therefore every downstream rank estimate) is preserved
    seg_end = cum[idx]
    seg_start = np.concatenate(([0], seg_end[:-1]))
    return vals[idx], (seg_end - seg_start)


def quantile_sketch(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    *,
    m: int = 256,
) -> pd.DataFrame:
    """Approximate percentiles with a DETERMINISTIC mergeable summary —
    the 100 TB scale path beside ``analysis.exact_percentiles`` (which
    shuffles a full value histogram). Each batch compresses its sorted
    values to ≤ m weighted points (ε ≈ 1/m rank error); one exchange
    round merges partials into P partition summaries (+1/m); the driver
    merges P·m points and reads quantiles off cumulative weights
    (+1/m). Total rank error ≲ 3/m regardless of data size; bytes
    shuffled: m per batch, never the column. No RNG anywhere — the
    summary is bit-stable across batch sizes and cluster layouts.
    Output: one row per q with columns (q, value)."""
    def partial(b: pa.Table) -> pa.Table:
        v = b[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        v.sort(kind="mergesort")
        vals, wts = _prune_summary(v, np.ones(len(v), dtype=np.int64), m)
        # constant salt per batch keeps each batch-summary whole on one
        # reducer; batches spread across 64 salt values for the tree merge
        salt = np.full(len(vals), len(v) % 64, dtype=np.int64)
        return pa.table(
            {
                "salt": pa.array(salt, pa.int64()),
                "v": pa.array(vals, pa.float64()),
                "w": pa.array(wts.astype(np.int64), pa.int64()),
            }
        )

    partials = ds.select_columns([col]).map_batches(partial, batch_format="pyarrow")

    def merge(t: pa.Table) -> pa.Table:
        vals, wts = _prune_summary(
            t["v"].to_numpy(), t["w"].to_numpy().astype(np.int64), m
        )
        return pa.table(
            {"v": pa.array(vals, pa.float64()), "w": pa.array(wts, pa.int64())}
        )

    merged = hash_exchange_map_groups(partials, merge, key="salt").to_pandas()
    if len(merged) == 0 or "v" not in merged.columns:
        # empty (or all-NaN) input stream: no summary points exist
        return pd.DataFrame({"q": [float(q) for q in qs], "value": np.nan})
    vals, wts = _prune_summary(
        merged["v"].to_numpy(), merged["w"].to_numpy().astype(np.int64), 4 * m
    )
    cum = np.cumsum(wts).astype(np.float64)
    total = cum[-1]
    out = []
    for q in qs:
        target = q / 100.0 * total
        i = int(np.searchsorted(cum, target, side="left").clip(0, len(vals) - 1))
        out.append({"q": float(q), "value": float(vals[i])})
    return pd.DataFrame(out)


def grouped_quantile_sketch(
    ds: ray.data.Dataset,
    group_col: str,
    col: str,
    qs: list[float],
    *,
    m: int = 256,
) -> pd.DataFrame:
    """Per-GROUP approximate percentiles with the same deterministic
    mergeable summary as :func:`quantile_sketch` — the scale path
    beside ``analysis.grouped_percentiles`` when per-group value
    histograms are too heavy: each batch emits ≤ m weighted points PER
    GROUP SEEN (bytes = m · groups-per-batch, never the column); one
    exchange keyed on the group co-locates and merges each group's
    summaries; quantiles are read inside the reduce, so the driver
    receives only |groups| · |qs| rows. Rank error ≲ 2/m per group.
    Output columns: (group_col, q, value)."""

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b[group_col]))
        df = t.select([group_col, col]).to_pandas()
        rows_g, rows_v, rows_w = [], [], []
        for g, sub in df.groupby(group_col, sort=False):
            v = sub[col].to_numpy(dtype=np.float64)
            v = v[~np.isnan(v)]
            if len(v) == 0:
                continue
            v.sort(kind="mergesort")
            vals, wts = _prune_summary(v, np.ones(len(v), dtype=np.int64), m)
            rows_g.extend([g] * len(vals))
            rows_v.extend(vals.tolist())
            rows_w.extend(wts.astype(np.int64).tolist())
        return pa.table(
            {
                "g": pa.array(rows_g, pa.string()),
                "v": pa.array(rows_v, pa.float64()),
                "w": pa.array(rows_w, pa.int64()),
            }
        )

    partials = ds.select_columns([group_col, col]).map_batches(
        partial, batch_format="pyarrow"
    )
    out_schema = pa.schema(
        [(group_col, pa.string()), ("q", pa.float64()), ("value", pa.float64())]
    )

    def reduce_part(t: pa.Table) -> pa.Table:
        out = []
        st, starts = sorted_runs(t, ["g"], [("v", "ascending")])
        v_all = st["v"].to_numpy()
        w_all = st["w"].to_numpy().astype(np.int64)
        for a, b in zip(starts[:-1], starts[1:]):
            g = st["g"][int(a)].as_py()
            vals, wts = _prune_summary(v_all[a:b], w_all[a:b], 4 * m)
            cum = np.cumsum(wts).astype(np.float64)
            total = cum[-1]
            for q in qs:
                target = q / 100.0 * total
                i = int(
                    np.searchsorted(cum, target, side="left").clip(
                        0, len(vals) - 1
                    )
                )
                out.append((g, float(q), float(vals[i])))
        return pa.Table.from_pylist(
            [dict(zip([group_col, "q", "value"], r)) for r in out], schema=out_schema
        )

    return (
        hash_exchange_map_groups(
            partials, reduce_part, key="g", out_schema=out_schema
        )
        .to_pandas()
        .sort_values([group_col, "q"], ignore_index=True)
    )
