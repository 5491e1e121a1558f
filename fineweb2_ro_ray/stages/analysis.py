"""Corpus analysis operators over document tables.

Ray-Data restatements of the reference's analysis entry points
(SURVEY.md §2.5): grouped distributions (G1,
``/root/reference/full_dataset_analysis/main.py:8-39``), global
min/max/histograms (G2), exact global percentiles that drive the
production thresholds (G3, ``ro_vs_eng/quantiles_fetcher.py:25-65``),
capped token sums (G4, ``fineweb/tokenize_fineweb2.py:29-34``),
filtered extraction (G5, ``full_dataset_analysis/adult.py:10-28``),
label coverage (G6), threshold filters (M2/M3/M5).

Scale pattern: every aggregate is map-side partial (inside
``map_batches``) + a SMALL groupby/driver merge — never a full-row
shuffle.  Percentiles use the value-histogram trick: for bounded-
cardinality numeric columns, ``groupby(value).count()`` is exact and
its merge output is tiny, so the quantile_cont-style convex interpolation
runs on the driver over (value, count) pairs — the same
partial-then-merge shape as the reference's ``quantiles_fetcher``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from .exchange import (
    aggregate_table,
    exchange_aggregate,
    hash_exchange_map_groups,
    run_ids,
    run_rank,
    sorted_runs,
)

# canonical BPE-ish token pattern (letters | digits | single symbol) —
# matches DuckDB regexp_extract_all for the oracle
TOKEN_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def round_half_away(x: np.ndarray) -> np.ndarray:
    """SQL ``round()`` semantics (half AWAY from zero) as int64 —
    ``np.rint`` is half-to-even, which diverges on exact .5 ties
    (np.rint(12.5)=12, DuckDB round(12.5)=13). Every money→cents
    conversion that is oracle-compared must use this.

    Implemented as rint with a tie-only correction: the naive
    ``floor(x + 0.5)`` misrounds doubles just below .5 where the float
    ADDITION itself rounds up (floor(0.49999999999999994 + 0.5) = 1,
    SQL round = 0); detecting exact ties via ``frac == 0.5`` keeps every
    non-tie on rint's (correct) nearest value."""
    x = np.asarray(x, dtype=np.float64)
    r = np.rint(x)
    fl = np.floor(x)
    # tie test must be x == fl + 0.5, NOT (x - fl) == 0.5: the
    # subtraction itself rounds (-0.49999999999999994 - (-1) lands
    # exactly on 0.5) and would flag a non-tie; fl + 0.5 is exact for
    # every magnitude where a fractional double exists
    # exclude integral x: for |x| in [2^52, 2^53) fl+0.5 is not
    # representable and rounds-to-even back to fl, so an integer would
    # otherwise be flagged as a tie and bumped to fl+1
    tie = (x != fl) & (x == fl + 0.5)
    # away from zero at a tie: +half rounds up, -half rounds down(= fl)
    return np.where(tie, fl + (x >= 0), r).astype(np.int64)


def doc_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document counting stats, all vectorized Arrow kernels:
    ``n_space_words`` = split on single space (SQL ``string_split``),
    ``n_tokens`` = BPE-ish regex token count, ``n_lines``."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    # NULL text propagates NULL stats (SQL: len(string_split(NULL,' '))
    # IS NULL) — consistent with the NULL-exact conventions of add_md5 /
    # word_counts / grouped_counts. Kernels run on ""-filled text, then
    # nulls are re-imposed via if_else.
    null_mask = pc.is_null(text)
    filled = pc.fill_null(text, "")
    null_i64 = pa.scalar(None, pa.int64())
    n_space = pc.if_else(
        null_mask,
        null_i64,
        pc.list_value_length(pc.split_pattern(filled, " ")).cast(pa.int64()),
    )
    n_tok = pc.if_else(
        null_mask,
        null_i64,
        pc.count_substring_regex(filled, TOKEN_PATTERN).cast(pa.int64()),
    )
    n_lines = pc.if_else(
        null_mask,
        null_i64,
        pc.add(pc.count_substring(filled, "\n"), 1).cast(pa.int64()),
    )
    return (
        batch.append_column("n_space_words", n_space)
        .append_column("n_tokens", n_tok)
        .append_column("n_lines", n_lines)
    )


def strftime_seconds(ts) -> pa.Array:
    """``%Y-%m-%d %H:%M:%S`` text of a timestamp column, floored to the
    second (pandas ``dt.strftime``; Arrow's ``%S`` would print the
    sub-second digits). Nulls stay null."""
    us = pc.cast(ts, pa.timestamp("us"))
    if isinstance(us, pa.ChunkedArray):
        us = us.combine_chunks()
    v = pc.fill_null(us.cast(pa.int64()), 0).to_numpy(zero_copy_only=False)
    null = us.is_null().to_numpy(zero_copy_only=False)
    sec = pa.array(v // 1_000_000, pa.timestamp("s"), mask=null)
    return pc.strftime(sec, format="%Y-%m-%d %H:%M:%S")


def grouped_counts(ds: ray.data.Dataset, keys: list[str]) -> ray.data.Dataset:
    """G1: grouped counts through ``exchange_aggregate``, whose map-side
    combine emits one partial-count row per key combo per batch and
    whose reduce sums them (the reference's per-shard-counter +
    driver-merge shape, ``full_dataset_analysis/main.py:8-39``). SQL
    GROUP BY keeps the NULL group; key types stay the block's own."""
    return exchange_aggregate(ds, list(keys), [(None, "size", "n")])


def value_counts(ds: ray.data.Dataset, col: str) -> pd.DataFrame:
    """Distinct-value histogram of one column (driver-sized result)."""
    return grouped_counts(ds, [col]).to_pandas().sort_values(col).reset_index(drop=True)


def percentiles_from_counts(
    values: np.ndarray, counts: np.ndarray, qs: list[float]
) -> dict[float, float]:
    """Exact linear-interpolation percentiles from a (value, count)
    histogram: pos = q/100*(n-1); interpolate between the pos-th and
    (pos+1)-th order statistics located via cumulative counts.

    Interpolation uses the CONVEX form ``(1-g)·a + g·b`` — DuckDB's
    ``quantile_cont`` formula — NOT numpy's lerp ``a + g·(b-a)``; the
    two differ in the last float bit on some inputs (both directions,
    found by the sf0.001 grouped-percentile oracle), and the value-hash
    gate needs bit equality with SQL."""
    order = np.argsort(values)
    v = np.asarray(values, dtype=np.float64)[order]
    c = np.asarray(counts, dtype=np.int64)[order]
    cum = np.cumsum(c)
    n = int(cum[-1])

    def kth(k: int) -> float:  # 0-based order statistic
        i = int(np.searchsorted(cum, k + 1))
        return float(v[i])

    out = {}
    for q in qs:
        pos = q / 100.0 * (n - 1)
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        a, b = kth(lo), kth(hi)
        g = pos - lo
        out[q] = (1.0 - g) * a + g * b
    return out


def exact_percentiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    *,
    max_distinct: int = 1_000_000,
) -> pd.DataFrame:
    """G3 — the reference's threshold-driving global percentiles
    (``quantiles_fetcher.py:53-65``), as histogram-partials + driver
    interpolation. Exact for integer/bounded-cardinality columns.
    Returns columns (q, value).

    The value histogram is unbounded on continuous doubles (distinct
    count ~ row count), so the DISTRIBUTED histogram's row count is
    checked before the driver pull: past ``max_distinct`` the call
    auto-routes to ``sketches.quantile_sketch`` (deterministic
    mergeable summary, rank error ≲ 3/m, one extra corpus pass) and
    logs the switch with both numbers — exactness is traded only when
    exactness would not fit a driver."""
    hist = grouped_counts(ds.select_columns([col]), [col])
    n_distinct = hist.count()
    if n_distinct > max_distinct:
        import logging

        from .sketches import quantile_sketch

        logging.getLogger(__name__).warning(
            "exact_percentiles(%s): %d distinct values > max_distinct=%d; "
            "routing to quantile_sketch (approximate, rank error <= 3/m)",
            col,
            n_distinct,
            max_distinct,
        )
        return quantile_sketch(ds, col, qs)
    vc = hist.to_pandas().sort_values(col).reset_index(drop=True)
    res = percentiles_from_counts(vc[col].to_numpy(), vc["n"].to_numpy(), qs)
    return pd.DataFrame({"q": list(res.keys()), "value": list(res.values())})


def approx_percentiles(
    ds: ray.data.Dataset, col: str, qs: list[float], decimals: int = 3
) -> pd.DataFrame:
    """G3 for continuous columns: histogram over values rounded to
    ``decimals`` → driver interpolation. Error bounded by 0.5·10^-decimals
    — the mergeable-sketch shape (partial per block, tiny merge) that
    replaces the reference's collect-all-scores-to-driver percentile
    (``quantiles_fetcher.py:25-41``) at 100 TB scale."""

    def rounded(b: pa.Table) -> pa.Table:
        v = np.round(b[col].to_numpy(zero_copy_only=False).astype(np.float64), decimals)
        return pa.table({col: pa.array(v, pa.float64())})

    vc = value_counts(ds.map_batches(rounded, batch_format="pyarrow"), col)
    res = percentiles_from_counts(vc[col].to_numpy(), vc["n"].to_numpy(), qs)
    return pd.DataFrame({"q": list(res.keys()), "value": list(res.values())})


def capped_token_sum(ds: ray.data.Dataset, col: str, cap: int) -> pd.DataFrame:
    """G4: global sum of per-doc min(count, cap)
    (``fineweb/tokenize_fineweb2.py:31``, ``token_analysis.py:19``)."""

    def clip(b: pa.Table) -> pa.Table:
        capped = pc.min_element_wise(b[col], pa.scalar(cap, b[col].type))
        return b.append_column("capped", capped)

    out = ds.map_batches(clip, batch_format="pyarrow").aggregate(
        Sum("capped", alias_name="total_capped"), Count(alias_name="n_docs")
    )
    return pd.DataFrame([out])


def numeric_summary(ds: ray.data.Dataset, col: str) -> pd.DataFrame:
    """G2: global min/max/sum/count of a numeric column (avg is the
    caller's single division of exact ints)."""
    out = ds.aggregate(
        Min(col, alias_name="min_v"),
        Max(col, alias_name="max_v"),
        Sum(col, alias_name="sum_v"),
        Count(alias_name="n"),
    )
    return pd.DataFrame([out])


def score_metrics(ds: ray.data.Dataset, col_a: str, col_b: str) -> pd.DataFrame:
    """G7: golden-test metric aggregations — RMSE / MAE / exact-match
    rate between two integer columns (``/root/reference/
    small_model_inference/test.py:19-47``), as per-block partials + one
    tiny merge. Sums are exact ints; the final divisions/sqrt are single
    float ops, so results are bit-stable."""

    def partial(b: pa.Table) -> pa.Table:
        a = b[col_a].to_numpy(zero_copy_only=False).astype(np.int64)
        c = b[col_b].to_numpy(zero_copy_only=False).astype(np.int64)
        d = a - c
        return pa.table(
            {
                "sq": pa.array([int((d * d).sum())], pa.int64()),
                "ab": pa.array([int(np.abs(d).sum())], pa.int64()),
                "eq": pa.array([int((d == 0).sum())], pa.int64()),
                "n": pa.array([len(d)], pa.int64()),
            }
        )

    agg = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("sq", alias_name="sq"),
        Sum("ab", alias_name="ab"),
        Sum("eq", alias_name="eq"),
        Sum("n", alias_name="n"),
    )
    n = int(agg["n"])
    return pd.DataFrame(
        [
            {
                "rmse": float(np.sqrt(agg["sq"] / n)),
                "mae": agg["ab"] / n,
                "match_rate": agg["eq"] / n,
                "n": n,
            }
        ]
    )


def grouped_percentiles(
    ds: ray.data.Dataset, keys: list[str], col: str, qs: list[float]
) -> ray.data.Dataset:
    """G3 per group: exact percentiles of ``col`` within each key group
    (the reference computes its thresholds globally; per-language /
    per-source thresholds are the grouped variant a multilingual corpus
    needs). Same scale shape as ``exact_percentiles``: ONE thinned
    (key, value) histogram shuffle, then per-key interpolation inside
    ``map_groups`` — rows never move, only (key, value, count) triples.
    Output: (*keys, q, value) — bit-matches ``quantile_cont`` per
    group."""
    hist = grouped_counts(ds.select_columns(keys + [col]), keys + [col])

    def per_partition(t: pa.Table) -> pa.Table:
        t, starts = sorted_runs(t, keys)
        v = t[col].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        qv, vals = [], []
        for a, b in zip(starts[:-1], starts[1:]):
            res = percentiles_from_counts(v[a:b], n[a:b], qs)
            qv.extend(res.keys())
            vals.extend(res.values())
        first = pa.array(np.repeat(starts[:-1], len(qs)))
        return t.select(keys).take(first).append_column(
            "q", pa.array(qv, pa.float64())
        ).append_column("value", pa.array(vals, pa.float64()))

    return hash_exchange_map_groups(hist, per_partition, key=list(keys))


def grouped_top_k(
    ds: ray.data.Dataset,
    keys: list[str],
    col: str,
    k: int,
    *,
    tiebreak: str,
    descending: bool = True,
) -> ray.data.Dataset:
    """K-family per group: top-k rows of ``col`` within each key group
    with a deterministic tie-break — map-side per-batch per-key top-k
    (thins the shuffle to ≤ k rows per key per batch), then a per-key
    merge in ``map_groups``. SQL equivalent: ``row_number() OVER
    (PARTITION BY keys ORDER BY col ...) <= k``."""
    order = [(col, "descending" if descending else "ascending"), (tiebreak, "ascending")]

    def top(t: pa.Table) -> pa.Table:
        t, starts = sorted_runs(t, keys, order)
        return t.filter(pa.array(run_rank(starts) < k))

    return hash_exchange_map_groups(
        ds.map_batches(top, batch_format="pyarrow"), top, key=list(keys)
    )


def rolling_sum_cents(
    ds: ray.data.Dataset,
    *,
    key: str,
    id_col: str,
    ts_col: str,
    val_col: str,
    window: int = 3,
) -> ray.data.Dataset:
    """Streaming-construct restatement (§2.9): per-key rolling sum over
    the last ``window`` events ordered by (time, id) — the
    hash-partition + sorted vectorized pandas shape of
    ``session_windows``. ``id_col`` breaks timestamp ties so the window
    order is total (a bare ORDER BY ts makes tied rows engine-
    dependent); values are summed as integer cents so the result is
    bit-exact vs a SQL window ``SUM OVER (... ROWS window-1
    PRECEDING)``. Output: (key, id, ts, cents, roll_cents)."""

    def to_cents(b: pa.Table) -> pa.Table:
        cents = round_half_away(b[val_col].to_numpy(zero_copy_only=False) * 100)
        return b.select([key, id_col, ts_col]).append_column(
            "cents", pa.array(cents, pa.int64())
        )

    def roll(t: pa.Table) -> pa.Table:
        t, starts = sorted_runs(
            t, [key], [(ts_col, "ascending"), (id_col, "ascending")]
        )
        cents = t["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        pre = np.concatenate([[0], np.cumsum(cents)])
        i = np.arange(len(cents))
        lo = np.maximum(i + 1 - window, np.repeat(starts[:-1], np.diff(starts)))
        return pa.table(
            {
                key: t[key],
                id_col: t[id_col],
                ts_col: strftime_seconds(t[ts_col]),
                "cents": pa.array(cents, pa.int64()),
                "roll_cents": pa.array(pre[i + 1] - pre[lo], pa.int64()),
            }
        )

    return hash_exchange_map_groups(
        ds.select_columns([key, id_col, ts_col, val_col]).map_batches(
            to_cents, batch_format="pyarrow"
        ),
        roll,
        key=key,
    )


def word_counts(
    ds: ray.data.Dataset,
    text_col: str = "text",
    *,
    top: int | None = None,
) -> ray.data.Dataset | pd.DataFrame:
    """Corpus word-frequency table (single-space tokenization — matches
    SQL ``unnest(string_split(text, ' '))``): one row per token, counted
    by ``exchange_aggregate`` (its map-side combine counts each batch).
    With ``top``, a deterministic (count DESC, word ASC) head is applied
    driver-side over the merged table."""

    def words(b: pa.Table) -> pa.Table:
        # DROP nulls (don't fill ""): string_split(NULL) is NULL and
        # unnest emits nothing for it, while a filled "" would add one
        # empty-string token per null doc and diverge from the oracle
        text = b[text_col].drop_null()
        return pa.table({"word": pc.list_flatten(pc.split_pattern(text, " "))})

    merged = exchange_aggregate(
        ds.select_columns([text_col]).map_batches(words, batch_format="pyarrow"),
        "word",
        [(None, "size", "n")],
        # schema pin: an all-empty corpus otherwise yields a column-less
        # frame and the top-k sort below KeyErrors (empty-input sweep)
        out_schema=pa.schema([("word", pa.string()), ("n", pa.int64())]),
    )
    if top is None:
        return merged
    df = merged.to_pandas()
    if "n" not in df.columns:
        # Ray's to_pandas on a 0-row dataset drops columns even with a
        # pinned schema — rebuild the empty frame shape (empty-input
        # sweep)
        df = pd.DataFrame({"word": pd.Series([], dtype=object), "n": pd.Series([], dtype="int64")})
    df = df.sort_values(["n", "word"], ascending=[False, True], kind="mergesort").head(top)
    return df.reset_index(drop=True)


def grouped_distinct_counts(
    ds: ray.data.Dataset, key: str, col: str
) -> ray.data.Dataset:
    """Exact COUNT(DISTINCT col) per key: the (key, col) pair histogram
    is the thinned shuffle (G1 shape); distinct count = rows per key of
    that histogram — a second tiny groupby."""
    pairs = grouped_counts(ds.select_columns([key, col]), [key, col])
    return exchange_aggregate(
        pairs.select_columns([key]), key, [(None, "size", "n_distinct")]
    )


def pivot_counts(
    ds: ray.data.Dataset, row_key: str, col_key: str, col_values: list[str]
) -> ray.data.Dataset:
    """Long → wide count pivot: one row per ``row_key``, one column per
    pinned ``col_values`` entry (wide schemas need a fixed column set —
    same reason SQL PIVOT wants IN (...)). Built on the thinned G1
    histogram, pivoted per row-key group."""
    hist = grouped_counts(ds.select_columns([row_key, col_key]), [row_key, col_key])

    def widen_part(t: pa.Table) -> pa.Table:
        t, starts = sorted_runs(t, [row_key])
        rid = run_ids(starts)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        out = t.select([row_key]).take(pa.array(starts[:-1]))
        for v in col_values:
            hit = pc.fill_null(pc.equal(t[col_key], v), False).to_numpy(
                zero_copy_only=False
            )
            cnt = np.bincount(rid[hit], weights=n[hit], minlength=len(starts) - 1)
            out = out.append_column(f"n_{v}", pa.array(cnt.astype(np.int64)))
        return out

    return hash_exchange_map_groups(hist, widen_part, key=row_key)


def per_key_rank(
    ds: ray.data.Dataset,
    *,
    key: str,
    order_col: str,
    id_col: str,
) -> ray.data.Dataset:
    """ROW_NUMBER() OVER (PARTITION BY key ORDER BY order_col, id) —
    the per-key sequence number a training-data pipeline uses for
    turn/event indexing. Hash-partitioned sorted cumcount (the
    session-windows shape); (order, id) total order keeps ranks
    engine-independent under ties."""

    def rank(t: pa.Table) -> pa.Table:
        t, starts = sorted_runs(
            t, [key], [(order_col, "ascending"), (id_col, "ascending")]
        )
        return t.append_column("rn", pa.array(run_rank(starts) + 1))

    return hash_exchange_map_groups(
        ds.select_columns([key, order_col, id_col]), rank, key=key
    )


def per_key_ntile(
    ds: ray.data.Dataset,
    *,
    key: str,
    order_col: str,
    id_col: str,
    n: int,
    out_col: str = "tile",
) -> ray.data.Dataset:
    """NTILE(n) OVER (PARTITION BY key ORDER BY order_col, id) — equal
    buckets per key, first ``rows % n`` buckets one row larger (the SQL
    definition). Same hash-partitioned sorted-cumcount shape as
    ``per_key_rank``; the tile is closed-form from the 0-based rank and
    the key's row count, all vectorized."""

    def ntile(t: pa.Table) -> pa.Table:
        t, starts = sorted_runs(
            t, [key], [(order_col, "ascending"), (id_col, "ascending")]
        )
        r = run_rank(starts)
        lens = np.diff(starts)
        cnt = np.repeat(lens, lens)
        base, rem = cnt // n, cnt % n
        cut = (base + 1) * rem  # rows occupied by the larger buckets
        big = r < cut
        tile = np.where(
            big,
            r // np.maximum(base + 1, 1),
            np.where(base > 0, rem + (r - cut) // np.maximum(base, 1), r),
        )
        return t.select([key, id_col]).append_column(
            out_col, pa.array((tile + 1).astype(np.int64))
        )

    return hash_exchange_map_groups(
        ds.select_columns([key, order_col, id_col]), ntile, key=key
    )


def grouped_mode(
    ds: ray.data.Dataset,
    *,
    key: str,
    value_col: str,
    out_col: str = "mode_v",
) -> ray.data.Dataset:
    """Most frequent ``value_col`` per key, ties broken by MIN value so
    the result is deterministic and oracle-comparable (SQL: row_number
    over count DESC, value ASC). ``exchange_aggregate`` counts each
    (key, value), then a thin exchange keyed on ``key`` argmaxes — the
    shuffles move (key, value, n) rows, never documents."""

    kv = [key, value_col]
    counts = exchange_aggregate(ds.select_columns(kv), kv, [(None, "size", "n")])

    def argmax(tot: pa.Table) -> pa.Table:
        tot, starts = sorted_runs(
            tot, [key], [("n", "descending"), (value_col, "ascending")]
        )
        out = tot.take(pa.array(starts[:-1]))
        return pa.table({key: out[key], out_col: out[value_col]})

    return hash_exchange_map_groups(counts, argmax, key=key)


def per_key_interarrival(
    ds: ray.data.Dataset,
    *,
    key: str,
    id_col: str,
    ts_col: str,
) -> ray.data.Dataset:
    """LAG-diff per key: INTEGER MICROSECONDS since the key's previous
    event in (ts, id) order, -1 for the first event (null-free for
    value hashing). Exact integer arithmetic end to end — a float
    ``total_seconds()`` truncates where SQL's epoch cast rounds, which
    diverged by ±1 s on sub-second timestamps (caught by the oracle).
    The streaming interarrival statistic as a batch op —
    hash-partitioned sorted diff, same shape as ``session_windows``.
    Output: (key, id, gap_us)."""

    def to_us(b: pa.Table) -> pa.Table:
        us = (
            b[ts_col]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return b.select([key, id_col]).append_column("_ts_us", pa.array(us, pa.int64()))

    def gaps(t: pa.Table) -> pa.Table:
        t, starts = sorted_runs(
            t, [key], [("_ts_us", "ascending"), (id_col, "ascending")]
        )
        ts = t["_ts_us"].to_numpy(zero_copy_only=False)
        gap = np.full(len(ts), -1, np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        # a key's first event, and every null-key row, has no previous
        first = (run_rank(starts) == 0) | t[key].is_null().to_numpy(
            zero_copy_only=False
        )
        gap[first] = -1
        return t.select([key, id_col]).append_column("gap_us", pa.array(gap))

    return hash_exchange_map_groups(
        ds.select_columns([key, id_col, ts_col]).map_batches(
            to_us, batch_format="pyarrow"
        ),
        gaps,
        key=key,
    )


def correlation_stats(ds: ray.data.Dataset, col_a: str, col_b: str) -> pd.DataFrame:
    """G7 extension (VERDICT r1 gap): Pearson + Spearman between two
    integer columns — the reference's model-vs-label benchmark stats
    (``/root/reference/small_model_inference/results.ipynb`` cell 6;
    ``ro_vs_eng/comparison.py:119-157``, ``ground.py:150-174``).

    Scale shape: ONE pass builds the JOINT (a, b) value histogram
    (map-side combiner + small groupby — cardinality is distinct value
    pairs, not rows); every sufficient statistic for both correlations
    is then exact driver math over that histogram:

    - Pearson from Σx, Σy, Σx², Σy², Σxy (Python ints — arbitrary
      precision, no int64 overflow at any scale);
    - Spearman = Pearson over average ties-adjusted ranks, where the
      rank of value v is derived from the marginal histogram
      (count_less(v) + (count_eq(v)+1)/2). Doubled ranks (2·rank) keep
      everything integral; Pearson is scale-invariant so the result is
      unchanged.

    The final expression rounds each exact integer to the nearest
    double once and applies sqrt/divide — bit-equal to a SQL engine
    evaluating the same closed form."""
    vc = grouped_counts(ds.select_columns([col_a, col_b]), [col_a, col_b]).to_pandas()
    a = [int(x) for x in vc[col_a]]
    b = [int(x) for x in vc[col_b]]
    cnt = [int(x) for x in vc["n"]]
    n = sum(cnt)

    def pearson_from(xs: list[int], ys: list[int]) -> float:
        sx = sum(x * c for x, c in zip(xs, cnt))
        sy = sum(y * c for y, c in zip(ys, cnt))
        sxx = sum(x * x * c for x, c in zip(xs, cnt))
        syy = sum(y * y * c for y, c in zip(ys, cnt))
        sxy = sum(x * y * c for x, y, c in zip(xs, ys, cnt))
        num = float(n * sxy - sx * sy)
        den = float(np.sqrt(float(n * sxx - sx * sx))) * float(
            np.sqrt(float(n * syy - sy * sy))
        )
        return num / den if den else float("nan")

    def rank2_map(xs: list[int]) -> dict[int, int]:
        """value → 2·(average rank over ties), from the marginal."""
        marg: dict[int, int] = {}
        for x, c in zip(xs, cnt):
            marg[x] = marg.get(x, 0) + c
        out, cum = {}, 0
        for v in sorted(marg):
            out[v] = 2 * cum + marg[v] + 1  # 2*count_less + count_eq + 1
            cum += marg[v]
        return out

    ra, rb = rank2_map(a), rank2_map(b)
    spearman = pearson_from([ra[x] for x in a], [rb[y] for y in b])
    return pd.DataFrame(
        [{"pearson": pearson_from(a, b), "spearman": spearman, "n": n}]
    )


def confusion_counts(
    ds: ray.data.Dataset,
    col_a: str,
    col_b: str,
    *,
    threshold_a: int,
    threshold_b: int | None = None,
) -> ray.data.Dataset:
    """Binary keep/drop confusion matrix between two score columns
    (reference accuracy tables: ``small_model_inference/results.ipynb``
    cell 7 — keep iff score ≥ thr; per-column thresholds support scores
    on different scales). Output: (a_pos, b_pos, n) ≤ 4 rows, via the
    G1 partial-count shape."""
    if threshold_b is None:
        threshold_b = threshold_a

    def flags(b: pa.Table) -> pa.Table:
        ap = pc.greater_equal(b[col_a], threshold_a)
        bp = pc.greater_equal(b[col_b], threshold_b)
        return pa.table({"a_pos": ap, "b_pos": bp})

    return grouped_counts(
        ds.select_columns([col_a, col_b]).map_batches(flags, batch_format="pyarrow"),
        ["a_pos", "b_pos"],
    )


def threshold_filter(
    ds: ray.data.Dataset, *, min_chars: int | None = None, langs: list[str] | None = None
) -> ray.data.Dataset:
    """M2/M3/M5 family: conjunctive vectorized predicate
    (``ro_vs_eng/filter_jql.py:27``; validity-set filter
    ``training/all_tasks_bert.py:556-566``)."""

    def pred(t: pa.Table) -> pa.Table:
        mask = pa.array(np.ones(t.num_rows, dtype=bool))
        if min_chars is not None:
            mask = pc.and_(mask, pc.greater_equal(t["n_chars"], min_chars))
        if langs is not None:
            mask = pc.and_(mask, pc.is_in(t["lang"], value_set=pa.array(langs)))
        return t.filter(mask)

    return ds.map_batches(pred, batch_format="pyarrow")


def adaptive_threshold_filter(
    ds: ray.data.Dataset,
    *,
    key: str,
    col: str,
    q_lo: float,
    q_hi: float,
) -> ray.data.Dataset:
    """The derived-threshold filter: per-``key`` (e.g. per-language)
    [q_lo, q_hi] percentile bounds of ``col`` computed FROM THE CORPUS
    ITSELF, then a zero-shuffle broadcast filter — the reference's
    quantile→threshold→filter chain (``ro_vs_eng/quantiles_fetcher.py:
    25-65`` feeding ``filter_jql.py:27``) generalized per key, which is
    what a multilingual corpus needs (FineWeb2's adaptive per-language
    thresholds vs FineWeb's global constants).

    Scale shape: pass 1 is the thinned (key, value, count) histogram
    exchange of ``grouped_percentiles`` (rows never move); the bounds
    table is one row per key, ``ray.put`` once; pass 2 is a stateless
    ``map_batches`` filter with no shuffle. Bounds bit-match
    ``quantile_cont``, so int-vs-double comparisons agree with SQL."""
    # quantile_cont ignores NULL values — drop them before the histogram
    pcts = grouped_percentiles(
        ds.select_columns([key, col]).map_batches(
            lambda t: t.filter(pc.is_valid(t[col])), batch_format="pyarrow"
        ),
        [key],
        col,
        [q_lo, q_hi],
    ).to_pandas()
    wide = pcts.pivot(index=key, columns="q", values="value")
    bounds = {
        k: (float(row[q_lo]), float(row[q_hi])) for k, row in wide.iterrows()
    }
    bounds_ref = ray.put(bounds)

    def keep(t: pa.Table) -> pa.Table:
        bd = ray.get(bounds_ref)
        # dictionary-encode the key column so the Python dict is probed
        # once per UNIQUE key per batch, not per row
        enc = pc.dictionary_encode(t[key]).combine_chunks()
        uniq = enc.dictionary.to_pylist()
        # sentinel row 0 for null keys (always excluded, like SQL NULL)
        lo_u = np.array([np.inf] + [bd.get(k, (np.inf, -np.inf))[0] for k in uniq])
        hi_u = np.array([-np.inf] + [bd.get(k, (np.inf, -np.inf))[1] for k in uniq])
        idx = (
            pc.fill_null(pc.add(enc.indices, 1), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        vals = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        mask = (vals >= lo_u[idx]) & (vals <= hi_u[idx])
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def top_k(
    ds: ray.data.Dataset, col: str, k: int, *, tiebreak: str, descending: bool = True
) -> pd.DataFrame:
    """K-family: global top-k with deterministic tie-break — per-batch
    local top-k, then driver merge (no global sort shuffle)."""

    def local(b: pa.Table) -> pa.Table:
        order = [(col, "descending" if descending else "ascending"), (tiebreak, "ascending")]
        return b.sort_by(order).slice(0, k)

    cand = ds.map_batches(local, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values([col, tiebreak], ascending=[not descending, True]).head(k)
    return cand.reset_index(drop=True)


def grouped_regression(
    ds: ray.data.Dataset, group_col: str, x_col: str, y_col: str
) -> pd.DataFrame:
    """Per-group OLS fit y ~ a + b·x over two INTEGER columns (the
    reference's per-scale score-vs-length calibration shape,
    ``small_model_inference/results.ipynb``; SQL ``regr_slope`` /
    ``regr_intercept`` / ``regr_r2`` per group).

    Scale shape: ONE map pass emits a THIN per-(batch, group) partial
    ``(g, n, sx, sy, sxx, sxy, syy)`` — 7 numbers per group per batch,
    rows never shuffle; the driver folds partials with PYTHON INTS
    (arbitrary precision — Σx² cannot overflow at any corpus size) and
    evaluates ONE fixed closed form per group, each factor a single
    nearest-double rounding of an exact integer:

        slope = (n·sxy − sx·sy) / (n·sxx − sx²)
        intercept = (sy − slope·sx) / n          (float ops, this order)
        r2 = (n·sxy − sx·sy)² / ((n·sxx − sx²)·(n·syy − sy²))

    so the values are bit-equal to a SQL engine evaluating the same
    expressions over HUGEINT sums. Degenerate groups (constant x or
    constant y) yield NULL slope/intercept/r2, matching NULLIF(den, 0).
    NULL x/y rows are dropped pairwise (SQL regr_* semantics)."""

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.and_(pc.is_valid(b[x_col]), pc.is_valid(b[y_col])))
        if t.num_rows == 0:
            return pa.table(
                {
                    "g": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "sx": pa.array([], pa.int64()),
                    "sy": pa.array([], pa.int64()),
                    "sxx": pa.array([], pa.int64()),
                    "sxy": pa.array([], pa.int64()),
                    "syy": pa.array([], pa.int64()),
                }
            )
        g = t[group_col]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        dic = g.dictionary_encode()
        idx = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = len(dic.dictionary)
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "g": dic.dictionary,
                "n": pa.array(np.bincount(idx, minlength=k), pa.int64()),
                "sx": pa.array(
                    np.bincount(idx, weights=x, minlength=k).astype(np.int64)
                ),
                "sy": pa.array(
                    np.bincount(idx, weights=y, minlength=k).astype(np.int64)
                ),
                "sxx": pa.array(
                    np.bincount(idx, weights=x * x, minlength=k).astype(np.int64)
                ),
                "sxy": pa.array(
                    np.bincount(idx, weights=x * y, minlength=k).astype(np.int64)
                ),
                "syy": pa.array(
                    np.bincount(idx, weights=y * y, minlength=k).astype(np.int64)
                ),
            }
        )

    parts = (
        ds.select_columns([group_col, x_col, y_col])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    acc: dict[str, list[int]] = {}
    for row in parts.itertuples(index=False):
        a = acc.setdefault(row.g, [0, 0, 0, 0, 0, 0])
        a[0] += int(row.n)
        a[1] += int(row.sx)
        a[2] += int(row.sy)
        a[3] += int(row.sxx)
        a[4] += int(row.sxy)
        a[5] += int(row.syy)
    out = []
    for g in sorted(acc):
        n, sx, sy, sxx, sxy, syy = acc[g]
        num = n * sxy - sx * sy
        dxx = n * sxx - sx * sx
        dyy = n * syy - sy * sy
        if dxx == 0:
            slope = intercept = r2 = None
        else:
            slope = float(num) / float(dxx)
            intercept = (float(sy) - slope * float(sx)) / float(n)
            r2 = (
                None
                if dyy == 0
                else (float(num) * float(num)) / (float(dxx) * float(dyy))
            )
        out.append((g, n, slope, intercept, r2))
    return pd.DataFrame(
        out, columns=[group_col, "n", "slope", "intercept", "r2"]
    ).astype({"n": "int64"})


def grouped_top_words(
    ds: ray.data.Dataset,
    group_col: str,
    text_col: str = "text",
    k: int = 10,
) -> ray.data.Dataset:
    """Exact per-group top-k vocabulary (top words per language — the
    grouped variant of the exact heavy-hitter pass in
    ``stages.sketches``): ONE map pass emits THIN (group, word, n)
    partials (dictionary-encode + composite bincount, raw text never
    moves); one exchange keyed on (group, word) completes each pair's
    total; each partition pre-selects its local per-group top-k
    (sound: every (group, word) total is complete within one
    partition, so the global top-k per group is a subset of the union
    of partition-local top-k's); a second THIN exchange keyed on group
    picks the exact winners with the (n DESC, word ASC) tie-break.
    Bytes through both exchanges are vocabulary-sized, k-bounded after
    the pre-select."""
    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(pc.is_valid(b[text_col]), pc.is_valid(b[group_col]))
        )
        if t.num_rows == 0:
            return pa.table(
                {
                    "g": pa.array([], pa.string()),
                    "word": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        grp = t[group_col]
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        gdic = grp.dictionary_encode()
        gidx = gdic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        wdic = flat.dictionary_encode()
        widx = wdic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        kw = len(wdic.dictionary)
        code = gidx[parent] * kw + widx
        uniq, cnt = np.unique(code, return_counts=True)
        return pa.table(
            {
                "g": pc.take(gdic.dictionary, pa.array(uniq // kw, pa.int64())),
                "word": pc.take(wdic.dictionary, pa.array(uniq % kw, pa.int64())),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    parts = ds.select_columns([group_col, text_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    mid_schema = pa.schema(
        [("g", pa.string()), ("word", pa.string()), ("n", pa.int64())]
    )

    def top(m: pa.Table) -> pa.Table:
        m, starts = sorted_runs(m, ["g"], [("n", "descending"), ("word", "ascending")])
        return m.filter(pa.array(run_rank(starts) < k))

    def merge_and_preselect(t: pa.Table) -> pa.Table:
        return top(aggregate_table(t, ["g", "word"], [("n", "sum", "n")]))

    cand = hash_exchange_map_groups(
        parts, merge_and_preselect, key=["g", "word"], out_schema=mid_schema
    )

    out_schema = pa.schema(
        [(group_col, pa.string()), ("word", pa.string()), ("n", pa.int64())]
    )

    return hash_exchange_map_groups(
        cand,
        lambda t: top(t).rename_columns([group_col, "word", "n"]),
        key="g",
        out_schema=out_schema,
    )
