"""Operator-parity queries over the driver test tables.

One callable per operator family from SURVEY.md §2, each taking
``sf_dir`` and returning a Dataset / DataFrame / Table whose values are
reproducible by the ANSI-SQL oracle in ``__ray_entry__.oracle_sql``
(column names match exactly; floats are limited to single divisions or
integer-scaled sums so value hashes are bit-stable across engines).

Ray is assumed initialised by the caller (driver contract) — nothing
here calls ``ray.init``.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..stages.analysis import (
    capped_token_sum,
    doc_stats,
    exact_percentiles,
    grouped_counts,
    numeric_summary,
    round_half_away,
    top_k,
)
from ..stages.dedup import (
    add_md5,
    dedup_exact,
    jaccard_pairs_skew_safe,
    minhash_lsh_pairs,
    simhash_pairs,
)
from ..stages.similarity import knn_bruteforce, knn_lsh
from ..functions.textstats import SYMBOL_PATTERN
from ..stages.exchange import (
    aggregate_table,
    distinct_table,
    exchange_aggregate,
    hash_exchange_map_groups,
    run_ids,
    run_rank,
    run_starts,
    sorted_runs,
)


def _read(
    sf_dir: str,
    table: str,
    columns: list[str] | None = None,
    filter=None,
) -> ray.data.Dataset:
    # clean schema AT the read: pandas-written parquet embeds a
    # b'pandas' schema blob that makes Arrow schemas unhashable in
    # Ray's block unification (warning spam + slow path), including
    # inside the fused ReadParquet operator where a post-read strip
    # can't reach (schema.clean_parquet_schema)
    # ``filter``: a pyarrow.dataset expression pushed INTO the scan —
    # row-group statistics prune whole groups and surviving groups are
    # row-filtered before any block enters the object store (the
    # prune-at-the-read rule for selective predicates, not just
    # columns). Callers keep their in-batch filter too, so semantics
    # never depend on pushdown support.
    from ..schema import clean_parquet_schema

    path = f"{sf_dir}/{table}.parquet"
    return ray.data.read_parquet(
        path, schema=clean_parquet_schema(path, columns), columns=columns, filter=filter
    )


@contextlib.contextmanager
def _run_dir(prefix: str):
    """A fresh directory for one query run's on-disk artifacts, removed
    when the run ends, so concurrent runs never share a path. A query
    whose result reads the artifact returns it materialized."""
    d = tempfile.mkdtemp(prefix=prefix)
    try:
        yield d
    finally:
        shutil.rmtree(d, ignore_errors=True)


def _int_scaled(col, scale: float = 100) -> pa.Array:
    """SQL ``CAST(round(col * scale) AS BIGINT)`` of a double column
    (``round_half_away``); a null stays null."""
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    x = pc.fill_null(a, 0.0).to_numpy(zero_copy_only=False)
    null = a.is_null().to_numpy(zero_copy_only=False)
    return pa.array(round_half_away(x * scale), pa.int64(), mask=null)


def _valid(t: pa.Table, *cols: str) -> pa.Table:
    """``t`` without the rows where any of ``cols`` is null."""
    m = pc.is_valid(t[cols[0]])
    for c in cols[1:]:
        m = pc.and_(m, pc.is_valid(t[c]))
    return t.filter(m)


def _rev_cbp(t: pa.Table) -> pa.Array:
    """Line revenue in cents x basis points, SQL ``round(price * 100) *
    (100 - round(discount * 100))``; null if either input is."""
    return pc.multiply(
        _int_scaled(t["l_extendedprice"]), pc.subtract(100, _int_scaled(t["l_discount"]))
    )


def _dim(sf_dir: str, table: str, key: str, value: str):
    """A small dimension table's ``(key, value)`` columns, broadcast
    once (``ray.put``) for ``_lookup``."""
    refs = _read(sf_dir, table, [key, value]).to_arrow_refs()
    return ray.put(pa.concat_tables(ray.get(refs)).combine_chunks())


def _lookup(keys, dim_ref):
    """Broadcast join: the dimension value whose key equals each of
    ``keys``; null for a null or missing key."""
    d = ray.get(dim_ref)
    vs = d.column(0).combine_chunks().cast(keys.type)
    return d.column(1).take(pc.index_in(keys, value_set=vs, skip_nulls=True))


# ---------------------------------------------------------------------------
# documents: per-doc stats / filters / aggregates
# ---------------------------------------------------------------------------


def q_doc_stats(sf_dir: str):
    """S/M family: per-doc counting stats + md5 fingerprint (M8 token
    counting analog, ``/root/reference/fineweb/tokenize_fineweb2.py:20-22``)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(
        lambda b: add_md5(doc_stats(b), "text", "fingerprint").drop_columns(["text"]),
        batch_format="pyarrow",
    )
    return ds


def q_doc_symbol_ratio(sf_dir: str):
    """Gopher symbol-ratio rule, SQL-checkable variant."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(b: pa.Table) -> pa.Table:
        text = pc.fill_null(b["text"].combine_chunks() if isinstance(b["text"], pa.ChunkedArray) else b["text"], "")
        n_chars = pc.utf8_length(text).cast(pa.int64())
        n_sym = pc.count_substring_regex(text, SYMBOL_PATTERN).cast(pa.int64())
        nc = n_chars.to_numpy(zero_copy_only=False)
        ns = n_sym.to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore"):
            ratio = np.where(nc > 0, ns / np.maximum(nc, 1), 0.0)
        return (
            b.select(["doc_id"])
            .append_column("n_chars", n_chars)
            .append_column("n_sym", n_sym)
            .append_column("symbol_ratio", pa.array(ratio, pa.float64()))
        )

    return ds.map_batches(f, batch_format="pyarrow")


def q_filter_min_chars(sf_dir: str):
    """M2 threshold filter (``small_model_inference/filter.py:22``)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_chars"], 300)), batch_format="pyarrow"
    )


def q_filter_conjunctive(sf_dir: str):
    """M3 conjunctive filter (``ro_vs_eng/filter_jql.py:27``)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])

    def f(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(t["n_chars"], 200),
            pc.is_in(t["lang"], value_set=pa.array(["de", "es"])),
        )
        return t.filter(m).select(["doc_id"])

    return ds.map_batches(f, batch_format="pyarrow")


def q_lang_source_counts(sf_dir: str):
    """G1 grouped distribution (``full_dataset_analysis/main.py:8-39``)."""
    return grouped_counts(_read(sf_dir, "documents", ["lang", "source"]), ["lang", "source"])


def q_lang_counts(sf_dir: str):
    return grouped_counts(_read(sf_dir, "documents", ["lang"]), ["lang"])


def q_nchars_percentiles(sf_dir: str):
    """G3 percentile grid — the reference's threshold fetch
    (``ro_vs_eng/quantiles_fetcher.py:58-65``, grid p90.5..95)."""
    qs = [90.5, 91.0, 91.5, 92.0, 92.5, 93.0, 93.5, 94.0, 94.5, 95.0]
    return exact_percentiles(_read(sf_dir, "documents", ["n_chars"]), "n_chars", qs)


def q_nchars_summary(sf_dir: str):
    return numeric_summary(_read(sf_dir, "documents", ["n_chars"]), "n_chars")


def q_capped_token_sum(sf_dir: str):
    """G4 capped sum (``fineweb/tokenize_fineweb2.py:29-34``)."""
    return capped_token_sum(_read(sf_dir, "documents", ["n_chars"]), "n_chars", 256)


def q_top_longest(sf_dir: str):
    """K-family global top-k without a global sort."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return top_k(ds, "n_chars", 10, tiebreak="doc_id")


def q_dedup_exact(sf_dir: str):
    """§2.7 exact dedup: canonical (min doc_id) per distinct text."""
    return dedup_exact(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_dedup_keep_longest(sf_dir: str):
    """§2.7 exact dedup with the keep-longest policy (canonical row =
    max n_chars, ties → min doc_id)."""
    from ..stages.dedup import dedup_keep_best

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars", "text"])
    return dedup_keep_best(ds)


def q_sample_docs_10pct(sf_dir: str):
    """Deterministic 10% corpus sample via md5 key band (stable across
    runs/cluster sizes; SQL-expressible)."""
    from ..stages.dedup import sample_fraction_by_hash

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return sample_fraction_by_hash(ds, "doc_id", 10)


def q_distinct_langs(sf_dir: str):
    """G6 label coverage (set union of seen labels)."""
    vals = sorted(_read(sf_dir, "documents", ["lang"]).unique("lang"))
    return pd.DataFrame({"lang": vals})


def q_jaccard_pairs(sf_dir: str):
    """§2.7 word-set-Jaccard near-dup pairs within source groups."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    return jaccard_pairs_skew_safe(ds, group_col="source", threshold=0.5)


def q_editdist_pairs(sf_dir: str):
    """§2.7 edit-distance near-dup pairs (Ed-Join prefix filter +
    exact banded-DP verify, byte-level to match DuckDB's
    ``levenshtein``), blocked by lang: all same-lang document pairs
    within Levenshtein distance 16."""
    from ..stages.editdist import editdistance_pairs_distributed

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    return editdistance_pairs_distributed(
        ds, max_dist=16, group_col="lang", q=3
    )


def q_jaccard_ngram_pairs(sf_dir: str):
    """§2.7 word-3-GRAM-set Jaccard near-dup pairs (the brief's
    'n-gram Jaccard' — order-sensitive shingles, unlike the unigram
    set): each doc's text is rewritten so its space-split tokens ARE
    its 3-grams (gram words joined by the 0x1f unit separator, absent
    from the word alphabet), then the verified AllPairs machinery runs
    unchanged — same prefix-filter candidates, same exact verify, the
    skew-safe dispatch included."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    k = 3

    def to_grams(t: pa.Table) -> pa.Table:
        lst = pc.split_pattern(
            pc.fill_null(
                t["text"].combine_chunks()
                if isinstance(t["text"], pa.ChunkedArray)
                else t["text"],
                "",
            ),
            pattern=" ",
        )
        parents = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(lst)
        L = len(flat)
        n_win = max(L - k + 1, 0)
        if n_win > 0:
            cols = [flat.slice(i, n_win) for i in range(k)]
            grams = pc.binary_join_element_wise(*cols, "\x1f")
            valid = parents[:n_win] == parents[k - 1 :]
            grams = grams.filter(pa.array(valid))
            counts = np.bincount(parents[:n_win][valid], minlength=t.num_rows)
        else:
            grams = pa.array([], pa.string())
            counts = np.zeros(t.num_rows, np.int64)
        offsets = np.zeros(t.num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        joined = pc.binary_join(
            pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()), grams), " "
        )
        out = pa.table(
            {"doc_id": t["doc_id"], "source": t["source"], "text": joined}
        )
        # docs with zero grams (< k words, empty or NULL text) can never
        # pair — drop them, as the SQL's NULL gram-set join does; kept
        # they would tokenize to [''] and spuriously pair with each other
        return out.filter(pa.array(counts > 0))

    return jaccard_pairs_skew_safe(
        ds.map_batches(to_grams, batch_format="pyarrow"),
        group_col="source",
        threshold=0.2,
    )


# ---------------------------------------------------------------------------
# events / lineitem / orders: generic relational operators
# ---------------------------------------------------------------------------


def q_events_type_counts(sf_dir: str):
    """G1 + integer-scaled SUM over doubles (deterministic value hash)."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def cents(b: pa.Table) -> pa.Table:
        t = pa.table({"event_type": b["event_type"], "value_cents": _int_scaled(b["value"])})
        return _valid(t, "event_type")

    return exchange_aggregate(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["event_type"],
        [(None, "size", "n"), ("value_cents", "sum", "value_cents")],
    )


def q_events_hourly(sf_dir: str):
    """Windowed-aggregate analog (tumbling 1h on event time): bucket =
    date_trunc(hour); batch-engine restatement of a streaming window
    (SURVEY.md §2.9 — the reference has none; ray_guide streaming
    pattern)."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def bucket(b: pa.Table) -> pa.Table:
        hr = pc.strftime(pc.floor_temporal(b["ts"], unit="hour"), format="%Y-%m-%d %H:00")
        return b.select(["event_type"]).append_column("hour", hr)

    return grouped_counts(ds.map_batches(bucket, batch_format="pyarrow"), ["event_type", "hour"])


def q_lineitem_pricing(sf_dir: str):
    """TPC-H Q1-shaped grouped aggregate; money summed as integer
    cents so the value hash is order-independent."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def scaled(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty": _int_scaled(b["l_quantity"], 1),
                "price_cents": _int_scaled(b["l_extendedprice"]),
                "disc_bp": _int_scaled(b["l_discount"]),
            }
        )
        return _valid(t, "l_returnflag", "l_linestatus")

    return exchange_aggregate(
        ds.map_batches(scaled, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [
            ("qty", "sum", "sum_qty"),
            ("price_cents", "sum", "sum_price_cents"),
            ("disc_bp", "sum", "sum_disc_bp"),
            (None, "size", "count_order"),
        ],
    )


def q_orders_by_segment(sf_dir: str):
    """J-family broadcast join (small side ``ray.put`` once, dict lookup
    per batch — ``taxonomy.py`` J2 pattern at relational scale; no
    shuffle join)."""
    seg = _dim(sf_dir, "customer", "c_custkey", "c_mktsegment")
    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "c_mktsegment": _lookup(b["o_custkey"], seg),
                "price_cents": _int_scaled(b["o_totalprice"]),
            }
        )
        return _valid(t, "c_mktsegment")

    return exchange_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["c_mktsegment"],
        [(None, "size", "n_orders"), ("price_cents", "sum", "total_cents")],
    )


def q_supplier_nations(sf_dir: str):
    """Second broadcast join: supplier → nation names."""
    nat = _dim(sf_dir, "nation", "n_nationkey", "n_name")
    ds = _read(sf_dir, "supplier", ["s_nationkey"])

    def f(b: pa.Table) -> pa.Table:
        return pa.table({"n_name": _lookup(b["s_nationkey"], nat)})

    return grouped_counts(ds.map_batches(f, batch_format="pyarrow"), ["n_name"])


def q_orders_priority(sf_dir: str):
    """M2-style date-range filter + G1 count (TPC-H Q4 shape). The date
    predicate is ALSO pushed into the parquet scan (row-group pruning +
    pre-block row filter)."""
    import pyarrow.dataset as pds

    ds = _read(
        sf_dir,
        "orders",
        ["o_orderpriority", "o_orderdate"],
        filter=(pds.field("o_orderdate") >= pd.Timestamp("1996-01-01"))
        & (pds.field("o_orderdate") < pd.Timestamp("1997-01-01")),
    )

    def f(t: pa.Table) -> pa.Table:
        lo = pa.scalar(pd.Timestamp("1996-01-01"), pa.timestamp("us"))
        hi = pa.scalar(pd.Timestamp("1997-01-01"), pa.timestamp("us"))
        m = pc.and_(pc.greater_equal(t["o_orderdate"], lo), pc.less(t["o_orderdate"], hi))
        return t.filter(m).select(["o_orderpriority"])

    return grouped_counts(ds.map_batches(f, batch_format="pyarrow"), ["o_orderpriority"])


# ---------------------------------------------------------------------------
# embeddings: similarity search
# ---------------------------------------------------------------------------


def _query_matrix(sf_dir: str, n_queries: int = 4) -> np.ndarray:
    tbl = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .filter(expr=f"vec_id < {n_queries}")
        .to_pandas()
        .sort_values("vec_id")
    )
    return np.stack(tbl["embedding"].to_numpy()).astype(np.float64)


def q_ann_cosine(sf_dir: str):
    """Brute-force cosine top-k (queries = vec_id 0..3 broadcast once).
    Output (query_id, rank, vec_id) — ints only, rank ties broken by
    vec_id, so the hash is float-robust."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    df = knn_bruteforce(ds, _query_matrix(sf_dir), k=10)
    return df[["query_id", "rank", "vec_id"]]


def q_ann_lsh(sf_dir: str):
    """LSH-bucketed approximate variant (scale path; no SQL oracle —
    recall is probabilistic by design)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    df = knn_lsh(ds, _query_matrix(sf_dir), k=10, dim=64, n_planes=6)
    return df[["query_id", "rank", "vec_id"]]


def q_nchars_percentiles_by_lang(sf_dir: str):
    """G3 per group: exact per-language percentiles (the grouped
    variant of the reference's threshold percentiles — per-language
    thresholds for a multilingual corpus)."""
    from ..stages.analysis import grouped_percentiles

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return grouped_percentiles(ds, ["lang"], "n_chars", [25.0, 50.0, 75.0, 92.0])


def q_top_longest_by_lang(sf_dir: str):
    """K-family per group: 3 longest docs per language, deterministic
    tie-break on doc_id."""
    from ..stages.analysis import grouped_top_k

    ds = _read(sf_dir, "documents", ["lang", "doc_id", "n_chars"])
    return grouped_top_k(ds, ["lang"], "n_chars", 3, tiebreak="doc_id")


def q_word_counts_top(sf_dir: str):
    """Corpus word-frequency top-100 (single-space tokens, matching
    ``unnest(string_split(...))``; deterministic (count DESC, word ASC)
    tie-break)."""
    from ..stages.analysis import word_counts

    ds = _read(sf_dir, "documents", ["text"])
    return word_counts(ds, top=100)


def q_lang_distinct_sources(sf_dir: str):
    """Exact COUNT(DISTINCT source) per language (pair-histogram
    shuffle, never raw rows)."""
    from ..stages.analysis import grouped_distinct_counts

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return grouped_distinct_counts(ds, "lang", "source")


_PIVOT_SOURCES = [f"src{i}" for i in range(5)]


def q_lang_source_pivot(sf_dir: str):
    """Long → wide count pivot: one row per lang, one count column per
    pinned source (SQL PIVOT-with-IN analog)."""
    from ..stages.analysis import pivot_counts

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return pivot_counts(ds, "lang", "source", _PIVOT_SOURCES)


def q_events_rank(sf_dir: str):
    """ROW_NUMBER() OVER (PARTITION BY user ORDER BY ts, event_id) —
    per-user event sequence numbers."""
    from ..stages.analysis import per_key_rank

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    out = per_key_rank(ds, key="user_id", order_col="ts", id_col="event_id")
    return out.map_batches(
        lambda t: t.select(["user_id", "event_id", "rn"]), batch_format="pyarrow"
    )


def q_events_interarrival(sf_dir: str):
    """LAG-diff per user: integer microseconds since the previous event ((ts, id)
    total order; -1 sentinel for each user's first event)."""
    from ..stages.analysis import per_key_interarrival

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return per_key_interarrival(ds, key="user_id", id_col="event_id", ts_col="ts")


def q_events_lag_delta(sf_dir: str):
    """§2.9 LAG/LEAD (round-5 window rotation, VERDICT r4 #5): per-user
    previous/next event id and cents delta in (ts, event_id) total
    order — ``stages.windows.lag_lead_delta``, oracle-exact vs DuckDB
    ``LAG()/LEAD() OVER``. First/last rows per key take the
    ``per_key_interarrival`` sentinel discipline (-1 / 0, null-free
    for value hashing; the oracle COALESCEs identically)."""
    from ..stages.windows import lag_lead_delta

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    return lag_lead_delta(
        ds, key="user_id", id_col="event_id", ts_col="ts", val_col="value"
    )


def q_events_range_frame(sf_dir: str):
    """§2.9 RANGE window frame (round-5): per-user trailing-1-hour
    cents sum — ``stages.windows.range_frame_sum``, oracle-exact vs
    DuckDB ``SUM() OVER (... RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
    AND CURRENT ROW)``. The time-interval sibling of events_rolling's
    ROWS frame: tied timestamps are PEERS and all see the frame
    total."""
    from ..stages.windows import range_frame_sum

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    return range_frame_sum(
        ds, key="user_id", id_col="event_id", ts_col="ts", val_col="value",
        window_s=3600,
    )


def q_distinct_users_approx(sf_dir: str):
    """Mergeable HLL cardinality sketch (rows-only: the estimate is
    approximate by construction; accuracy is pytest-gated within 5%)."""
    from ..stages.sketches import approx_distinct

    ds = _read(sf_dir, "events", ["user_id"])
    return approx_distinct(ds, "user_id")


def q_event_users_approx(sf_dir: str):
    """Grouped HLL: approximate distinct users PER event_type — the
    mergeable-sketch-per-key shape (per-batch register partials, one
    key-hashed exchange of fixed-size register rows, estimate at the
    reduce). Rows-only by construction; accuracy pytest-gated within
    5% of the exact grouped distinct."""
    from ..stages.sketches import approx_distinct_by

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return approx_distinct_by(ds, "event_type", "user_id")


def q_events_rolling(sf_dir: str):
    """§2.9 rolling window: per-user sum of the last 3 event values
    (integer cents; (ts, event_id) total order)."""
    from ..stages.analysis import rolling_sum_cents

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    return rolling_sum_cents(
        ds, key="user_id", id_col="event_id", ts_col="ts", val_col="value", window=3
    )


def q_ann_ivf(sf_dir: str):
    """IVF approximate variant: trained k-means codebook, n_probe cells
    scanned per query (no SQL oracle — approximate by design)."""
    from ..stages.similarity import knn_ivf

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    df = knn_ivf(ds, _query_matrix(sf_dir), k=10, n_centroids=16, n_probe=4)
    return df[["query_id", "rank", "vec_id"]]


def q_count_metrics(sf_dir: str):
    """G7 golden-test metrics (RMSE/MAE/match) between two counting
    definitions of document length (``small_model_inference/test.py:31-41``)."""
    from ..stages.analysis import score_metrics

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        doc_stats, batch_format="pyarrow"
    )
    return score_metrics(ds, "n_space_words", "n_tokens")


def q_doc_bpe_tokens(sf_dir: str):
    """A6/M8 true-subword token counts via the vendored mini-BPE
    (rows-only — BPE merge application is not SQL-expressible; the
    regex count in ``doc_stats`` stays the SQL-checked rule input)."""
    from ..stages.tokenize import bpe_token_counts

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bpe_token_counts(ds).drop_columns(["text"])


def q_events_global_rank(sf_dir: str):
    """Exact global ORDER BY rank via the range-partitioned sample
    sort (``stages.sortop``): deterministic splitter sampling, one
    range exchange (ties and nulls co-locate), per-partition Arrow
    sort, prefix-sum rank over partition counts. The engine's true
    distributed ORDER BY — the reference's canonical processing order
    (``ro_vs_eng/quantiles_fetcher.py:46``) is its single-node
    degenerate form."""
    from ..stages.sortop import sample_sort

    ds = _read(sf_dir, "events", ["event_id", "ts"])
    out = sample_sort(ds, ["ts", "event_id"], rank_col="rn")
    return out.select_columns(["event_id", "rn"])


def q_bpe_train(sf_dir: str):
    """Distributed byte-level BPE tokenizer TRAINING over the corpus
    (Sennrich et al. 2016 — the algorithm behind the pretrained
    tokenizer the reference loads, ``small_model_inference/
    token_stats.py:8-13``): one corpus pass to a thin distinct-word
    exchange, then fused apply+count raw-task iterations over K
    object-store shards with a vocabulary-bounded driver fold per
    merge. Deterministic (max count, ties to smallest pair) —
    rows-only; merge-for-merge equality with the sequential reference
    trainer is pytest-pinned (tests/test_bpe_train.py)."""
    import ray.data as _rd

    from ..stages.bpe_train import fit_bpe

    ds = _read(sf_dir, "documents", ["text"])
    return _rd.from_arrow(fit_bpe(ds, text_col="text", n_merges=64))


def q_bpe_vocab_stats(sf_dir: str):
    """BPE training compression summary: corpus token count under the
    learned merges vs the byte-level baseline (token-budget accounting
    for a tokenizer choice). Rows-only (derived from q_bpe_train)."""
    import ray.data as _rd

    from ..stages.bpe_train import bpe_vocab_stats

    ds = _read(sf_dir, "documents", ["text"])
    return _rd.from_arrow(bpe_vocab_stats(ds, text_col="text", n_merges=64))


def q_score_correlations(sf_dir: str):
    """G7 extension: Pearson + Spearman between character length and
    space-word count — the reference's model-vs-label benchmark
    correlations (``small_model_inference/results.ipynb`` cell 6:
    Pearson 0.867 / Spearman 0.858)."""
    from ..stages.analysis import correlation_stats

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars", "text"]).map_batches(
        doc_stats, batch_format="pyarrow"
    )
    return correlation_stats(ds, "n_chars", "n_space_words")


def q_score_confusion(sf_dir: str):
    """Binary keep/drop confusion matrix with per-scale thresholds
    (reference accuracy tables, ``results.ipynb`` cell 7)."""
    from ..stages.analysis import confusion_counts

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars", "text"]).map_batches(
        doc_stats, batch_format="pyarrow"
    )
    return confusion_counts(
        ds, "n_chars", "n_space_words", threshold_a=380, threshold_b=55
    )


def q_doc_normalized(sf_dir: str):
    """Text canonicalization (the CCNet §4.1 pre-LID/dedup normalize):
    lowercase + Romanian diacritic fold (ăâîșț → aaist), zero-shuffle
    vectorized Arrow kernels (utf8_lower + chained literal replaces —
    single-char maps, so replace == SQL translate). NULL propagates."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(t: pa.Table) -> pa.Table:
        x = pc.utf8_lower(
            t["text"].combine_chunks()
            if isinstance(t["text"], pa.ChunkedArray)
            else t["text"]
        )
        for src, dst in zip("ăâîșț", "aaist"):
            x = pc.replace_substring(x, src, dst)
        return pa.table({"doc_id": t["doc_id"], "text_norm": x})

    return ds.map_batches(norm, batch_format="pyarrow")


def q_parse_kv(sf_dir: str):
    """M6 structured-output parser with the 'ERROR' sentinel
    (``fineweb/big_inference.py:84-115``): annotation-shaped text is
    derived deterministically from the documents table (every 3rd doc
    malformed), parsed back into columns."""
    from ..functions.parse import parse_kv_batch

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def build_and_parse(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        langs = b["lang"].to_pylist()
        texts = []
        for i, lg in zip(ids, langs):
            if i % 3 == 0:
                texts.append(f"tema: {lg}")  # malformed: no score line
            else:
                texts.append(f"* scor: {i % 7}\n* tema: {lg}")
        t = pa.table({"doc_id": b["doc_id"], "text": pa.array(texts, pa.string())})
        out = parse_kv_batch(t)
        out = out.set_column(
            out.schema.get_field_index("int_score_num"),
            "int_score_num",
            pc.fill_null(out["int_score_num"], -1),  # null-free for hashing
        )
        return out.select(["doc_id", "int_score", "topic", "int_score_num"])

    return ds.map_batches(build_and_parse, batch_format="pyarrow")


def q_doc_multitask_scores(sf_dir: str):
    """A2/A4/K1: frozen multi-task scorer (deterministic model stand-in;
    rows-only — the model is engine-internal)."""
    from ..stages.model_scoring import score_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return score_documents(ds).drop_columns(["text"])


def q_split_counts(sf_dir: str):
    """K3 deterministic hash splits over documents (conversation-unit
    splits for transcripts). md5-band hash → SQL-expressible, so the
    split assignment itself is oracle-checked."""
    from ..sources.splits import add_split_column
    from ..stages.analysis import grouped_counts

    ds = _read(sf_dir, "documents", ["doc_id"])

    def keyed(b: pa.Table) -> pa.Table:
        return b.append_column("key", b["doc_id"].cast(pa.string()))

    ds = ds.map_batches(
        lambda b: add_split_column(keyed(b), "key").select(["split"]),
        batch_format="pyarrow",
    )
    return grouped_counts(ds, ["split"])


def q_events_sliding(sf_dir: str):
    """Sliding-window counts (size 60min, slide 30min)."""
    from ..stages.windows import sliding_counts

    return sliding_counts(_read(sf_dir, "events", ["event_type", "ts"]))


def q_events_sessions(sf_dir: str):
    """Gap-based session windows per user (gap 30min) — the stateful
    streaming construct as groupby + vectorized diff/cumsum."""
    from ..stages.windows import session_windows

    return session_windows(_read(sf_dir, "events", ["user_id", "ts"]))


def _parquet_column_bytes(sf_dir: str, table: str, columns: list[str]) -> int:
    """Uncompressed bytes of ``columns`` summed from the Parquet footer
    (no data pages read)."""
    import pyarrow.parquet as pq

    md = pq.read_metadata(f"{sf_dir}/{table}.parquet")
    want = set(columns)
    return sum(
        rg.column(i).total_uncompressed_size
        for rg in (md.row_group(r) for r in range(md.num_row_groups))
        for i in range(rg.num_columns)
        if rg.column(i).path_in_schema in want
    )


def q_orders_join_native(sf_dir: str):
    """J-family with Ray's native hash-partitioned ``Dataset.join``
    (both-sides-large path; the broadcast variant is
    ``q_orders_by_segment``). Without a partition size hint Ray sizes
    every aggregator's memory reservation from its max block size
    (14 GiB for 16 aggregators), which a session with less memory never
    schedules; the hint is the inputs' footer size per partition. The
    join runs one aggregator per partition, so the partition count is
    the session's CPU count, at most 16: a 2-CPU session never starts
    the 16 aggregator workers it could not run."""
    o_cols, c_cols = ["o_custkey", "o_totalprice"], ["c_custkey", "c_mktsegment"]
    n_parts = max(1, min(16, int(ray.cluster_resources().get("CPU", 16))))
    orders = _read(sf_dir, "orders", o_cols)
    cust = _read(sf_dir, "customer", c_cols)
    size = _parquet_column_bytes(sf_dir, "orders", o_cols) + _parquet_column_bytes(
        sf_dir, "customer", c_cols
    )
    joined = orders.join(
        cust,
        join_type="inner",
        num_partitions=n_parts,
        on=("o_custkey",),
        right_on=("c_custkey",),
        partition_size_hint=max(1, size // n_parts),
    )

    def cents(b: pa.Table) -> pa.Table:
        t = pa.table(
            {"c_mktsegment": b["c_mktsegment"], "price_cents": _int_scaled(b["o_totalprice"])}
        )
        return _valid(t, "c_mktsegment")

    return exchange_aggregate(
        joined.map_batches(cents, batch_format="pyarrow"),
        ["c_mktsegment"],
        [(None, "size", "n_orders"), ("price_cents", "sum", "total_cents")],
    )


def q_filter_adaptive(sf_dir: str):
    """Adaptive per-language threshold filter — FineWeb2's signature
    move: the [p05, p95] n_chars bounds are derived from the corpus
    itself per language (not fixed constants), broadcast once, then
    applied as a zero-shuffle filter. Two passes over the input; pass 1
    moves only a (lang, n_chars, count) histogram."""
    from ..stages.analysis import adaptive_threshold_filter

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return adaptive_threshold_filter(ds, key="lang", col="n_chars", q_lo=5.0, q_hi=95.0)


def q_orders_semi_join(sf_dir: str):
    """Semi-join via broadcast key set (ray_guide pattern: ship the key
    set once, filter inside map_batches — no shuffle): orders whose
    customer is in the BUILDING segment."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    keys = set(cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"])
    keys_ref = ray.put(keys)

    def f(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        mask = pc.is_in(t["o_custkey"], value_set=pa.array(sorted(ks), pa.int64()))
        return t.filter(mask).select(["o_orderkey"])

    return _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        f, batch_format="pyarrow"
    )


def q_orders_anti_join(sf_dir: str):
    """Anti-join: orders whose customer is NOT in BUILDING."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    keys = set(cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"])
    keys_ref = ray.put(keys)

    def f(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        mask = pc.invert(pc.is_in(t["o_custkey"], value_set=pa.array(sorted(ks), pa.int64())))
        return t.filter(mask).select(["o_orderkey"])

    return _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        f, batch_format="pyarrow"
    )


def q_events_asof_orders(sf_dir: str):
    """As-of join: each event matched to the user's latest order at or
    before the event time. Output is tie-proof (event_id + matched
    order DATE, not orderkey — several orders can share the max date)."""
    from ..stages.joins import asof_join

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    joined = asof_join(
        events, orders, key="user_id", right_key="o_custkey", left_ts="ts", right_ts="o_orderdate"
    )

    def fmt(b: pa.Table) -> pa.Table:
        d = pc.strftime(b["o_orderdate"], format="%Y-%m-%d")
        return b.select(["event_id"]).append_column("order_date", d)

    return joined.map_batches(fmt, batch_format="pyarrow")


def q_lineitem_range_orders(sf_dir: str):
    """Range join: every lineitem shipped within [orderdate,
    orderdate+90d) of its order — the one-to-many interval sibling of
    the as-of join."""
    import pandas as pd  # noqa: F811

    from ..stages.joins import range_join

    items = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_shipdate"])

    def tag(b: pa.Table) -> pa.Table:  # avoid column-name overlap rule
        return b.rename_columns(["li_orderkey", "l_linenumber", "l_shipdate"])

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def add_end(b: pa.Table) -> pa.Table:
        end = pc.add(b["o_orderdate"], pa.scalar(pd.Timedelta(days=90)))
        return b.append_column("o_end", end)

    joined = range_join(
        items.map_batches(tag, batch_format="pyarrow"),
        orders.map_batches(add_end, batch_format="pyarrow"),
        key="li_orderkey",
        right_key="o_orderkey",
        left_ts="l_shipdate",
        right_start="o_orderdate",
        right_end="o_end",
    )

    def fmt(b: pa.Table) -> pa.Table:
        d = pc.strftime(b["o_orderdate"], format="%Y-%m-%d")
        return b.select(["li_orderkey", "l_linenumber"]).append_column("order_date", d)

    return joined.map_batches(fmt, batch_format="pyarrow")


def q_embedding_neardup(sf_dir: str):
    """§2.7 embedding-cosine near-dup pairs, exact (block-pair tasks —
    no full-table driver materialization). Output int pairs only, so
    the hash is float-robust."""
    from ..stages.similarity import embedding_neardup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_neardup_pairs(ds, threshold=0.45)


def q_embedding_neardup_lsh(sf_dir: str):
    """§2.7 embedding near-dup via multi-table hyperplane LSH + exact
    verify (the sub-quadratic 100 TB path; rows-only — probabilistic
    candidate recall, precision exact)."""
    from ..stages.similarity import embedding_neardup_lsh

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_neardup_lsh(ds, threshold=0.45)


def q_llm_annotate(sf_dir: str):
    """A3 LLM-annotation stage (stubbed generator; rows-only — the
    'model' is engine-internal)."""
    from ..stages.llm_annotate import annotate_llm

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return annotate_llm(ds).drop_columns(["text"])


def q_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-dup candidates over documents (no SQL oracle:
    probabilistic signatures)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_lsh_pairs(ds, threshold=0.5)


def q_simhash_pairs(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_pairs(ds, max_hamming=8)


def q_minhash_verified(sf_dir: str):
    """MinHash LSH candidates re-verified against exact shingle Jaccard
    (candidate→verify gate; rows-only — probabilistic candidate set)."""
    from ..stages.dedup import minhash_verified_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_verified_pairs(ds, candidate_threshold=0.3, verify_threshold=0.5)




def q_train_distill(sf_dir: str):
    """Training loop + model-benchmark harness (reference:
    ``training/all_tasks_bert.py:556-684`` fine-tune,
    ``benchmark/benchmark_llms.py:65-96`` per-model metrics): label the
    documents with the frozen teacher, train the score head by
    distributed normal equations and the topic head by distributed
    full-batch Adam, then evaluate teacher vs student in one metric
    pass. Rows-only (iterative float optimization has no SQL oracle)."""
    import numpy as np
    import pyarrow.compute as pc

    from ..stages.model_scoring import TASKS, FrozenLinearModel, score_documents
    from ..training import evaluate_models, fit_linear_head, fit_softmax_head

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    scored = score_documents(ds, concurrency=(1, 4)).materialize()
    w = fit_linear_head(scored, y_col="score", l2=1e-9)
    W = fit_softmax_head(
        scored, TASKS["topic"], label_col="topic_class_1", n_iter=40
    )

    def student(b: pa.Table) -> pa.Table:
        x = FrozenLinearModel._features(
            [t or "" for t in b["text"].to_pylist()]
        )
        xa = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        b = b.append_column(
            "student_score", pa.array(x @ w[:-1] + w[-1], pa.float64())
        )
        top = (xa @ W).argmax(axis=1)
        return b.append_column(
            "student_topic",
            pa.array([TASKS["topic"][i] for i in top], pa.string()),
        )

    both = scored.map_batches(student, batch_format="pyarrow")
    m_score = evaluate_models(
        both, {"teacher_score": "score", "student_score": "student_score"}, "score"
    )

    def topic_hit(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n": pa.array([b.num_rows], pa.int64()),
                "hit": pa.array(
                    [int(pc.sum(pc.equal(b["student_topic"], b["topic_class_1"])).as_py() or 0)],
                    pa.int64(),
                ),
            }
        )

    hits = both.map_batches(topic_hit, batch_format="pyarrow").to_pandas().sum()
    m_score["topic_accuracy"] = float(hits["hit"]) / float(hits["n"])
    return m_score


def q_contamination(sf_dir: str):
    """Benchmark decontamination report (§ training-data ops): flag
    docs containing any eval phrase as a substring. Eval side = the
    deterministic stand-in set (first 8 single-space words of docs with
    doc_id % 97 == 0), broadcast once as an RE2 literal alternation;
    corpus side streams through one vectorized match pass."""
    from ..stages.decontaminate import contamination_flags, eval_phrases_from_docs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    phrases = eval_phrases_from_docs(ds)
    return contamination_flags(ds, phrases)


def q_sample_stratified(sf_dir: str):
    """Stratified deterministic sampling: exactly k docs PER GROUP,
    chosen by ascending md5 hash of the id (stable across runs, block
    layouts and cluster sizes — the per-group counterpart of the global
    hash-fraction sample). Map-side per-batch top-k thins the shuffle
    to <= k rows per (batch, group)."""
    import hashlib

    from ..stages.analysis import grouped_top_k

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def add_h(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        h = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(str(int(i)).encode()).digest()[:6], "big"
                )
                for i in ids
            ),
            dtype=np.int64,
            count=len(ids),
        )
        return b.append_column("h", pa.array(h, pa.int64()))

    withh = ds.map_batches(add_h, batch_format="pyarrow")
    out = grouped_top_k(withh, ["source"], "h", 3, tiebreak="doc_id", descending=False)
    return out.select_columns(["source", "doc_id"])


def q_dedup_clusters(sf_dir: str):
    """Near-dup CLUSTERING: connected components over the (oracle-
    exact) word-set-Jaccard pair graph, plus each cluster's size — the
    engine-side derivation of the reference's ``minhash_cluster_size``
    passenger column. Output: (doc_id, component, cluster_size) for
    every doc appearing in a pair."""
    from ..stages.components import cluster_sizes, connected_components

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    pairs = jaccard_pairs_skew_safe(ds, group_col="source", threshold=0.5)
    comp = connected_components(pairs).materialize()
    sizes = cluster_sizes(comp)
    # broadcast the (component, size) table — components are a small
    # summary (bounded by involved docs)
    sz = sizes.to_pandas()
    import ray as _ray

    lut_ref = _ray.put(dict(zip(sz["component"], sz["cluster_size"])))

    def attach(t: pa.Table) -> pa.Table:
        lut = _ray.get(lut_ref)
        cs = (
            pd.Series(t["component"].to_numpy(zero_copy_only=False))
            .map(lut)
            .to_numpy()
            .astype(np.int64)
        )
        return t.append_column("cluster_size", pa.array(cs, pa.int64()))

    return comp.map_batches(attach, batch_format="pyarrow")


def q_minhash_dedup_full(sf_dir: str):
    """The COMPOSED near-dedup funnel (round-5 window rotation, VERDICT
    r4 #1): pairs → connected components → keep-MIN-per-cluster +
    ``cluster_size`` passenger column for EVERY doc (singletons get
    cluster_size=1, kept=true) — the engine restatement of FineWeb-2's
    ``minhash_cluster_size`` producer (``fineweb/fineweb2_download.py:22``)
    as ONE operator (``stages.dedup.near_dedup_full``). This window
    entry drives the composition with the oracle-exact word-set-Jaccard
    pair generator (grouped by source, like the dedup_clusters slot it
    subsumes); bench.py's ``minhash_dedup_full`` entry drives the
    IDENTICAL composition with probabilistic MinHash+LSH pairs over the
    full transcript corpus. Output: (doc_id, cluster_size, kept) for
    every document."""
    from ..stages.dedup import near_dedup_full

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    pairs = jaccard_pairs_skew_safe(ds, group_col="source", threshold=0.5)
    # schema-bearing pruned read (NOT select_columns: a zero-row
    # dataset loses its schema through a lazy projection — the
    # test_empty_inputs class of crash)
    docs = _read(sf_dir, "documents", ["doc_id"])
    return near_dedup_full(docs, pairs, id_col="doc_id", keep_all=True)


# ---------------------------------------------------------------------------
# round-3 widening: reshape (explode/unpivot), set ops, ntile, grouped mode
# ---------------------------------------------------------------------------


def _events_user_days(sf_dir: str, event_type: str) -> ray.data.Dataset:
    """(user_id, day) projection of one event type — the set-op sides.
    Day as a strftime string (the events_hourly convention)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def proj(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], event_type))
        day = pc.strftime(pc.floor_temporal(t["ts"], unit="day"), format="%Y-%m-%d")
        return pa.table({"user_id": t["user_id"], "day": day})

    return ds.map_batches(proj, batch_format="pyarrow")


def q_userdays_intersect(sf_dir: str):
    """Distinct set op INTERSECT: user-days with a click AND a purchase.
    Tag + union + one hash exchange on the composite key (stages.setops)."""
    from ..stages.setops import intersect_distinct

    return intersect_distinct(
        _events_user_days(sf_dir, "click"),
        _events_user_days(sf_dir, "purchase"),
        ["user_id", "day"],
    )


def q_userdays_except(sf_dir: str):
    """Distinct set op EXCEPT: user-days with a click but no purchase."""
    from ..stages.setops import except_distinct

    return except_distinct(
        _events_user_days(sf_dir, "click"),
        _events_user_days(sf_dir, "purchase"),
        ["user_id", "day"],
    )


def q_embedding_unnest(sf_dir: str):
    """UNNEST a list<float> column: (vec_id, 1-based pos, element) rows,
    bounded to every 20th vector. Pure per-batch Arrow list_flatten —
    no shuffle (stages.reshape.explode_list)."""
    from ..stages.reshape import explode_list

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def keep(b: pa.Table) -> pa.Table:
        vid = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(vid % 20 == 0))

    return explode_list(
        ds.map_batches(keep, batch_format="pyarrow"),
        list_col="embedding",
        id_cols=["vec_id"],
        pos_col="pos",
        val_col="val",
    )


def q_lineitem_unpivot(sf_dir: str):
    """SQL UNPIVOT (wide -> long melt): each lineitem row (every 50th
    order) emits one row per charge component. Per-batch concat of 3
    projections — no shuffle (stages.reshape.unpivot)."""
    from ..stages.reshape import unpivot

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount", "l_tax"],
    )

    def keep(b: pa.Table) -> pa.Table:
        k = b["l_orderkey"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(k % 50 == 0))

    return unpivot(
        ds.map_batches(keep, batch_format="pyarrow"),
        id_cols=["l_orderkey", "l_linenumber"],
        value_cols=["l_extendedprice", "l_discount", "l_tax"],
        name_col="measure",
        value_col="value",
    )


def q_events_ntile(sf_dir: str):
    """NTILE(4) OVER (PARTITION BY user ORDER BY ts, event_id) — per-user
    quartile buckets (stages.analysis.per_key_ntile on the exchange)."""
    from ..stages.analysis import per_key_ntile

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return per_key_ntile(ds, key="user_id", order_col="ts", id_col="event_id", n=4)


def q_source_mode_lang(sf_dir: str):
    """MODE() per group with deterministic min-value tie-break: the most
    frequent lang per source (stages.analysis.grouped_mode — map-side
    count partials, one thin exchange of (key, value, n) rows)."""
    from ..stages.analysis import grouped_mode

    ds = _read(sf_dir, "documents", ["source", "lang"])
    return grouped_mode(ds, key="source", value_col="lang", out_col="mode_lang")


def q_orders_top_revenue(sf_dir: str):
    """TPC-H Q3 analog — the 3-table analytical join composition a
    warehouse user runs daily: broadcast semi-filter (small dimension)
    -> native hash join (two large facts) -> exchange aggregate ->
    deterministic top-k. Revenue in exact integer cents x percent
    (cents * (100 - discount%)), so the value hash is engine- and
    order-independent. Segment/date constants mirror Q3's shape."""
    import datetime as _dt

    cutoff = _dt.datetime(1998, 1, 1)

    # dimension side: BUILDING customers -> broadcast key set (J2 shape)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def cust_keys(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["c_mktsegment"], "BUILDING"))
        return t.select(["c_custkey"])

    keys = ray.put(
        np.unique(
            cust.map_batches(cust_keys, batch_format="pyarrow")
            .to_pandas()["c_custkey"]
            .to_numpy()
        )
    )

    import pyarrow.dataset as pds

    orders = _read(
        sf_dir,
        "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=pds.field("o_orderdate") < pd.Timestamp(cutoff),
    )

    def keep_orders(b: pa.Table) -> pa.Table:
        t = b.filter(pc.less(b["o_orderdate"], pa.scalar(cutoff)))
        ks = ray.get(keys)  # sorted unique key array, fetched zero-copy
        mask = pa.array(
            np.isin(t["o_custkey"].to_numpy(zero_copy_only=False), ks)
        )
        t = t.filter(mask)
        day = pc.strftime(t["o_orderdate"], format="%Y-%m-%d")
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_orderdate": day,
                "o_orderpriority": t["o_orderpriority"],
            }
        )

    o = orders.map_batches(keep_orders, batch_format="pyarrow")

    # semi-join pushdown: a fixed-memory Bloom of surviving orderkeys
    # filters the fact side BEFORE the combiner and the hash join (at
    # 100 TB the filtered orders key set outgrows a broadcast array;
    # the 16 MB bitmap does not). False positives are dropped by the
    # inner join, so results are exact.
    from ..stages.bloom import bloom_filter_ids, build_id_bloom

    bm = build_id_bloom(o, ["o_orderkey"])

    li = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
        filter=pds.field("l_shipdate") > pd.Timestamp(cutoff),
    )

    def li_revenue(b: pa.Table) -> pa.Table:
        t = _valid(b.filter(pc.greater(b["l_shipdate"], pa.scalar(cutoff))), "l_orderkey")
        rev = pa.table({"l_orderkey": t["l_orderkey"], "rev_cbp": _rev_cbp(t)})
        # map-side combiner: one partial row per orderkey in the batch
        return aggregate_table(rev, ["l_orderkey"], [("rev_cbp", "sum", "rev_cbp")])

    rev = bloom_filter_ids(li, bm, id_col="l_orderkey").map_batches(
        li_revenue, batch_format="pyarrow"
    )

    from ..stages.joins import hash_join

    # exchange-based equality join (joins.hash_join): one keyed shuffle,
    # vectorized per-partition merge — no JoinOperator actor-pool floor
    joined = hash_join(rev, o, key="l_orderkey", right_key="o_orderkey")

    # merge partials per (orderkey, date, priority), then global top-10
    merged = exchange_aggregate(
        joined,
        ["l_orderkey", "o_orderdate", "o_orderpriority"],
        [("rev_cbp", "sum", "revenue_cbp")],
    )
    out = top_k(merged, "revenue_cbp", 10, tiebreak="l_orderkey")
    return out[["l_orderkey", "o_orderdate", "o_orderpriority", "revenue_cbp"]]


def q_word_heavy_hitters(sf_dir: str):
    """EXACT heavy hitters (token frequency > total/31 — the corpus
    vocabulary is ~31 near-uniform words, so the threshold splits it
    non-trivially) via mergeable per-batch candidate summaries +
    broadcast exact recount — the sketch bounds the candidate set,
    never the answer (stages.sketches.heavy_hitters_exact)."""
    from ..stages.sketches import heavy_hitters_exact

    ds = _read(sf_dir, "documents", ["text"])
    return heavy_hitters_exact(ds, "text", k=31)


def q_nchars_quantiles_sketch(sf_dir: str):
    """Approximate decile grid via the deterministic mergeable quantile
    summary (stages.sketches.quantile_sketch) — the 100 TB scale path
    beside exact_percentiles; rank error ≲ 3/m (m=256). Rows-only:
    approximate by design, tolerance-gated in pytest."""
    from ..stages.sketches import quantile_sketch

    ds = _read(sf_dir, "documents", ["n_chars"])
    return quantile_sketch(ds, "n_chars", [10.0, 25.0, 50.0, 75.0, 90.0, 99.0])


def _user_event_runs(t: pa.Table) -> tuple[pa.Table, np.ndarray]:
    """Events sorted by (user_id, ts, event_id), with each user's run
    starts (``exchange.sorted_runs``)."""
    return sorted_runs(
        t, ["user_id"], [("ts", "ascending"), ("event_id", "ascending")]
    )


def q_events_cumsum(sf_dir: str):
    """Running total per key — SUM OVER (PARTITION BY user ORDER BY ts,
    id ROWS UNBOUNDED PRECEDING) in exact integer cents. Same
    hash-partitioned sorted-scan shape as per_key_rank; one exchange."""

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        return b.select(["user_id", "event_id", "ts"]).append_column(
            "cents", _int_scaled(b["value"])
        )

    def run_cumsum(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
        cum = np.cumsum(x)
        return cum - np.repeat(cum[starts[:-1]] - x[starts[:-1]], np.diff(starts))

    def cumsum(t: pa.Table) -> pa.Table:
        # SQL SUM skips a NULL: it adds 0, and a row whose frame holds
        # no value yet is NULL
        t, starts = _user_event_runs(t)
        cents = t["cents"].combine_chunks()
        seen = run_cumsum(cents.is_valid().to_numpy(zero_copy_only=False), starts)
        cum = run_cumsum(pc.fill_null(cents, 0).to_numpy(zero_copy_only=False), starts)
        return t.select(["user_id", "event_id"]).append_column(
            "cum_cents", pa.array(cum, pa.int64(), mask=seen == 0)
        )

    return hash_exchange_map_groups(
        ds.map_batches(to_cents, batch_format="pyarrow"), cumsum, key="user_id"
    )


def q_lang_source_rollup(sf_dir: str):
    """GROUP BY ROLLUP(lang, source): detail counts + per-lang subtotals
    + grand total, NULL-filled at coarser levels (the OLAP cube edge).
    Engine: three grouped_counts plans (each its own thin exchange of
    partial-count rows) unioned — subtotals are re-aggregated partials,
    never a second scan of the detail output."""
    detail = grouped_counts(_read(sf_dir, "documents", ["lang", "source"]), ["lang", "source"])
    per_lang = grouped_counts(_read(sf_dir, "documents", ["lang"]), ["lang"])
    total = grouped_counts(
        _read(sf_dir, "documents", ["lang"]).map_batches(
            lambda t: t.select(["lang"]).append_column(
                "all", pa.array(["all"] * t.num_rows, pa.string())
            ).select(["all"]),
            batch_format="pyarrow",
        ),
        ["all"],
    )

    def pad_lang(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": b["lang"],
                "source": pa.array([None] * b.num_rows, pa.string()),
                "n": b["n"],
            }
        )

    def pad_total(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": pa.array([None] * b.num_rows, pa.string()),
                "source": pa.array([None] * b.num_rows, pa.string()),
                "n": b["n"],
            }
        )

    return detail.union(
        per_lang.map_batches(pad_lang, batch_format="pyarrow"),
        total.map_batches(pad_total, batch_format="pyarrow"),
    )


def q_doc_winnow_fingerprints(sf_dir: str):
    """Winnowing document fingerprints (rolling k-gram hash + window
    min; Schleimer et al. 2003) for every 20th doc — the per-doc sketch
    a plagiarism / near-dup scanner stores. Rows-only (uint64 hashes
    have no SQL analog); guarantee + determinism pinned in pytest."""
    from ..stages.fingerprint import winnow_fingerprints

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def keep(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(did % 20 == 0))

    return winnow_fingerprints(ds.map_batches(keep, batch_format="pyarrow"))


def q_label_centroid_sums(sf_dir: str):
    """Per-label centroid sufficient statistics over the embedding
    column — (label, dim pos, exact ppm-scaled coordinate sum, count).
    The distributed mean-embedding building block (cluster centroids,
    class prototypes): one (label, pos, ppm) row per coordinate, no
    Python over rows; ``exchange_aggregate``'s combine thins each batch
    to (labels x dims) partial rows before the one exchange. Integer ppm
    scaling keeps the value hash engine-independent; a consumer divides
    sum_ppm / n / 1e6 for the mean."""

    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def coords(b: pa.Table) -> pa.Table:
        # one (label, 1-based position, ppm value) row per coordinate
        emb = b["embedding"].combine_chunks()
        lens = pc.fill_null(pc.list_value_length(emb), 0).to_numpy(zero_copy_only=False)
        v = pc.list_flatten(emb).to_numpy(zero_copy_only=False).astype(np.float64)
        first = np.repeat(np.cumsum(lens) - lens, lens)
        label = np.repeat(b["label"].to_numpy(zero_copy_only=False), lens)
        return pa.table(
            {
                "label": pa.array(label, pa.int64()),
                "pos": pa.array(np.arange(len(v)) - first + 1, pa.int64()),
                "ppm": pa.array(round_half_away(v * 1e6), pa.int64()),
            }
        )

    return exchange_aggregate(
        ds.map_batches(coords, batch_format="pyarrow"),
        ["label", "pos"],
        [("ppm", "sum", "sum_ppm"), (None, "size", "n")],
    )


def q_events_percent_rank(sf_dir: str):
    """PERCENT_RANK and CUME_DIST per user over (ts, event_id) order —
    scaled to exact integers (x 1e6 with round-half-away, both engines)
    so the value hash is bit-stable. Same exchange shape as
    per_key_rank."""

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])

    def win(t: pa.Table) -> pa.Table:
        t, starts = _user_event_runs(t)
        r = run_rank(starts).astype(np.float64)
        lens = np.diff(starts)
        n = np.repeat(lens, lens).astype(np.float64)
        pr = np.where(n > 1, r / np.maximum(n - 1, 1), 0.0)
        cd = (r + 1) / n
        return t.select(["user_id", "event_id"]).append_column(
            "pr_ppm", pa.array(round_half_away(pr * 1e6), pa.int64())
        ).append_column("cd_ppm", pa.array(round_half_away(cd * 1e6), pa.int64()))

    return hash_exchange_map_groups(
        ds.select_columns(["user_id", "event_id", "ts"]), win, key="user_id"
    )


def q_customer_order_counts(sf_dir: str):
    """LEFT JOIN + grouped count of the matched side: orders per
    customer INCLUDING zero-order customers (the classic left-join
    aggregate) on the exchange hash join. count(o_custkey) counts
    non-null matches only, exactly SQL's count(col)."""
    from ..stages.joins import hash_join

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])
    joined = hash_join(cust, orders, key="c_custkey", right_key="o_custkey", how="left")

    return exchange_aggregate(
        joined.map_batches(lambda t: _valid(t, "c_custkey"), batch_format="pyarrow"),
        ["c_custkey"],
        [("o_custkey", "count", "n_orders")],
    )


def q_cust_sales_opportunity(sf_dir: str):
    """TPC-H Q22 shape — a GLOBAL scalar subquery threshold (avg
    positive balance) + NOT EXISTS anti join + grouped money
    aggregate: customers with above-average balance and NO urgent
    orders, counted and totalled per nation (the urgent-order variant
    keeps the result non-empty at every test scale; plain 'no orders'
    matches zero synthetic customers below sf0.1).

    The avg compare is integer-exact, cross-multiplied in cents
    (c100·n > sum_c — the Q17 trick, no float division anywhere);
    the global (sum_c, n) pair is a two-int driver scalar; the anti
    join runs on the exchange; nation names broadcast (tiny)."""
    from ..stages.joins import hash_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def stat(b: pa.Table) -> pa.Table:
        v = b["c_acctbal"].to_numpy(zero_copy_only=False)
        pos = v > 0.0
        c = round_half_away(v[pos] * 100.0)
        return pa.table(
            {
                "s": pa.array([int(c.sum())], pa.int64()),
                "n": pa.array([int(pos.sum())], pa.int64()),
            }
        )

    st = cust.map_batches(stat, batch_format="pyarrow").to_pandas().sum()
    sum_c, cnt = int(st["s"]), int(st["n"])

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")).select(
            ["o_custkey"]
        ),
        batch_format="pyarrow",
    )
    dormant = hash_join(cust, orders, key="c_custkey", right_key="o_custkey", how="anti")

    nat = _dim(sf_dir, "nation", "n_nationkey", "n_name")

    def above_avg(b: pa.Table) -> pa.Table:
        c100 = _int_scaled(b["c_acctbal"])
        t = pa.table({"cntrycode": _lookup(b["c_nationkey"], nat), "bal_c": c100})
        return _valid(t.filter(pc.greater(pc.multiply(c100, cnt), sum_c)), "cntrycode")

    return exchange_aggregate(
        dormant.map_batches(above_avg, batch_format="pyarrow"),
        ["cntrycode"],
        [(None, "size", "numcust"), ("bal_c", "sum", "totacctbal_c")],
        out_schema=pa.schema(
            [
                ("cntrycode", pa.string()),
                ("numcust", pa.int64()),
                ("totacctbal_c", pa.int64()),
            ]
        ),
    )


def q_customer_distribution(sf_dir: str):
    """TPC-H Q13 shape — aggregate OF an aggregate: histogram of
    per-customer order counts (how many customers placed exactly N
    orders, zero included). Level 1 is the LEFT-join count exchange of
    q_customer_order_counts (already thin: one row per customer);
    level 2 re-keys those rows on the count value itself — a second
    thin ``exchange_aggregate`` count over the per-customer rows."""
    per_cust = q_customer_order_counts(sf_dir)
    return exchange_aggregate(
        per_cust.map_batches(
            lambda t: pa.table({"c_count": t["n_orders"]}), batch_format="pyarrow"
        ),
        ["c_count"],
        [(None, "size", "custdist")],
        out_schema=pa.schema([("c_count", pa.int64()), ("custdist", pa.int64())]),
    )


# ---------------------------------------------------------------------------
# round-3 continuation: correlated / conditional-aggregate join shapes
# (TPC-H Q4/Q14/Q17/Q18 analogs) + ordered per-key string aggregation +
# word-level Gopher-rule stats with exact SQL oracles
# ---------------------------------------------------------------------------


def q_user_retention(sf_dir: str):
    """Cohort retention — the warehouse staple: each user's cohort is
    their FIRST active day; count distinct users per (cohort_day,
    day_offset). Self-referential per-entity anchor + offset
    histogram: a per-batch (user, day) distinct combiner thins events,
    ONE user-keyed exchange computes each user's anchor and emits one
    (cohort, offset) row per active user-day, then ``exchange_aggregate``
    counts them. Raw events never cross a shuffle."""

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": b["user_id"],
                "day": pc.floor_temporal(b["ts"], unit="day"),
            }
        ).filter(pc.is_valid(b["ts"]))
        return t.group_by(["user_id", "day"]).aggregate([])

    per = ev.map_batches(partial, batch_format="pyarrow")

    def per_user(t: pa.Table) -> pa.Table:
        # distinct (user, day), sorted: each user's first row is its cohort
        t = distinct_table(t.filter(pc.is_valid(t["user_id"])), ["user_id", "day"])
        starts = run_starts(t, ["user_id"])
        day = pc.cast(t["day"], pa.timestamp("us"))
        us = day.cast(pa.int64()).to_numpy(zero_copy_only=False)
        first = np.repeat(starts[:-1], np.diff(starts))
        return pa.table(
            {
                "cohort_day": pc.strftime(day.take(pa.array(first)), format="%Y-%m-%d"),
                "day_offset": pa.array((us - us[first]) // 86_400_000_000, pa.int64()),
            }
        )

    return exchange_aggregate(
        hash_exchange_map_groups(per, per_user, key="user_id"),
        ["cohort_day", "day_offset"],
        [(None, "size", "n_users")],
        out_schema=pa.schema(
            [
                ("cohort_day", pa.string()),
                ("day_offset", pa.int64()),
                ("n_users", pa.int64()),
            ]
        ),
    )


def q_supplier_sole_returner(sf_dir: str):
    """TPC-H Q21 shape — BOTH a correlated EXISTS and a correlated NOT
    EXISTS self-join on the fact table — stated with this schema's
    columns: for 'F'-status orders involving more than one supplier
    where EXACTLY ONE supplier has returned ('R') items, count that
    supplier's returned rows as ``numwait``.

    Both subqueries reduce to per-(order, supplier) sufficient stats:
    EXISTS(other supplier) == order's distinct-supplier count > 1;
    NOT EXISTS(other supplier with 'R') == the order has exactly one
    returning supplier. A map-side combiner thins lineitem to one
    (order, supplier, n_ret) row per batch; ONE exchange keyed on the
    order co-locates each order's stats and applies the sole-returner
    test vectorized; the 'F' filter is a SEMI hash join; supplier
    names attach via broadcast (J2) and a thin name-keyed exchange
    sums numwait. No raw lineitem row ever crosses a shuffle."""
    from ..stages.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_returnflag"])

    def partial(b: pa.Table) -> pa.Table:
        ret = pc.cast(
            pc.fill_null(pc.equal(b["l_returnflag"], "R"), False), pa.int64()
        )
        g = (
            pa.table(
                {
                    "l_orderkey": b["l_orderkey"],
                    "l_suppkey": b["l_suppkey"],
                    "ret": ret,
                }
            )
            .group_by(["l_orderkey", "l_suppkey"])
            .aggregate([("ret", "sum")])
        )
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "l_suppkey": g["l_suppkey"],
                "n_ret": g["ret_sum"].cast(pa.int64()),
            }
        )

    part = li.map_batches(partial, batch_format="pyarrow")

    def per_order(t: pa.Table) -> pa.Table:
        g = aggregate_table(t, ["l_orderkey", "l_suppkey"], [("n_ret", "sum", "n_ret")])
        starts = run_starts(g, ["l_orderkey"])
        lens = np.diff(starts)
        rs = g["n_ret"].to_numpy() > 0
        n_rsupp = np.add.reduceat(rs.astype(np.int64), starts[:-1]) if len(rs) else lens
        ok = np.repeat((lens > 1) & (n_rsupp == 1), lens)
        return g.filter(pa.array(ok & rs))

    per_ord = hash_exchange_map_groups(part, per_order, key="l_orderkey")

    f_orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], "F")).select(["o_orderkey"]),
        batch_format="pyarrow",
    )
    cand = hash_join(per_ord, f_orders, key="l_orderkey", right_key="o_orderkey", how="semi")

    sup = _dim(sf_dir, "supplier", "s_suppkey", "s_name")

    def to_name(b: pa.Table) -> pa.Table:
        name = _lookup(b["l_suppkey"], sup)
        return _valid(pa.table({"s_name": name, "n_ret": b["n_ret"]}), "s_name")

    return exchange_aggregate(
        cand.map_batches(to_name, batch_format="pyarrow"),
        ["s_name"],
        [("n_ret", "sum", "numwait")],
        out_schema=pa.schema([("s_name", pa.string()), ("numwait", pa.int64())]),
    )


def q_orders_exists_late(sf_dir: str):
    """Correlated EXISTS semi-aggregate (TPC-H Q4 shape): count orders
    per priority having at least one lineitem shipped >60 days after
    the order date. EXISTS against a constant-per-order bound reduces
    exactly to max(l_shipdate) per order — a map-side combiner + thin
    exchange merge of (orderkey, max_ship) rows, one hash join, then a
    grouped-count exchange of partial rows. No row of lineitem crosses
    the shuffle."""
    from ..stages.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    per_order = exchange_aggregate(li, "l_orderkey", [("l_shipdate", "max", "max_ship")])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = hash_join(per_order, orders, key="l_orderkey", right_key="o_orderkey")
    days60 = pa.scalar(60 * 86_400_000_000, pa.duration("us"))

    def late(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b["max_ship"], pc.add(b["o_orderdate"], days60)))
        return _valid(t, "o_orderpriority")

    return exchange_aggregate(
        joined.map_batches(late, batch_format="pyarrow"),
        ["o_orderpriority"],
        [(None, "size", "n_orders")],
    )


def q_promo_revenue_ratio(sf_dir: str):
    """Conditional-aggregate ratio over a join (TPC-H Q14 shape):
    share of 1997 revenue from PROMO parts. Lineitem collapses to
    per-partkey partial revenue BEFORE the join, so the hash join
    moves |parts| rows, not |lineitem|; the final two sums reduce a
    partial-row stream bounded by the reduce-partition count. Exact
    integer cents-x-basis-points; the single ratio division is the
    only float."""
    from ..stages.joins import hash_join
    import datetime as _dt

    lo, hi = _dt.datetime(1997, 1, 1), _dt.datetime(1998, 1, 1)
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"])

    def rev(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.greater_equal(b["l_shipdate"], pa.scalar(lo)),
                pc.less(b["l_shipdate"], pa.scalar(hi)),
            )
        )
        return pa.table({"l_partkey": t["l_partkey"], "rev_cbp": _rev_cbp(t)})

    per_part = exchange_aggregate(
        li.map_batches(rev, batch_format="pyarrow"),
        "l_partkey",
        [("rev_cbp", "sum", "rev_cbp")],
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])
    joined = hash_join(per_part, part, key="l_partkey", right_key="p_partkey")

    def split_partial(b: pa.Table) -> pa.Table:
        promo = b.filter(pc.equal(b["p_type"], "PROMO"))["rev_cbp"]
        return pa.table(
            {
                "promo_cbp": [pc.sum(promo, min_count=0).as_py()],
                "total_cbp": [pc.sum(b["rev_cbp"], min_count=0).as_py()],
            }
        )

    parts = joined.map_batches(split_partial, batch_format="pyarrow").to_pandas()
    promo, total = int(parts["promo_cbp"].sum()), int(parts["total_cbp"].sum())
    if total == 0:
        # SQL: sum() over no (or all-filtered) rows is NULL, and the
        # ratio of NULLs is NULL — mirror instead of dividing by zero
        return pd.DataFrame(
            {"promo_cbp": [None], "total_cbp": [None], "promo_pct": [None]}
        )
    return pd.DataFrame(
        {
            "promo_cbp": [promo],
            "total_cbp": [total],
            "promo_pct": [100.0 * promo / total],
        }
    )


def q_small_qty_revenue(sf_dir: str):
    """Correlated scalar-subquery filter (TPC-H Q17 shape): revenue of
    lineitems with quantity below 20% of their part's average.
    ``q < 0.2 * sum/cnt`` is evaluated in exact integers as
    ``5*q100*cnt < sum_q100`` — no float average anywhere. The
    per-part aggregate (thin: one row per partkey) joins BACK to the
    fact stream on the exchange hash join; the fact side never
    aggregates globally."""
    from ..stages.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])

    per_part = exchange_aggregate(
        li.map_batches(
            lambda b: pa.table(
                {"l_partkey": b["l_partkey"], "q100": _int_scaled(b["l_quantity"])}
            ),
            batch_format="pyarrow",
        ),
        "l_partkey",
        [("q100", "sum", "sum_q100"), (None, "size", "cnt")],
    ).map_batches(
        lambda t: t.rename_columns(["pk", "sum_q100", "cnt"]), batch_format="pyarrow"
    )

    joined = hash_join(li, per_part, key="l_partkey", right_key="pk")

    def small_partial(b: pa.Table) -> pa.Table:
        q5 = pc.multiply(_int_scaled(b["l_quantity"]), 5)
        t = b.filter(pc.less(pc.multiply(q5, b["cnt"]), b["sum_q100"]))
        cents = _int_scaled(t["l_extendedprice"])
        return pa.table(
            {"revenue_cents": [pc.sum(cents, min_count=0).as_py()], "n_small": [t.num_rows]}
        )

    parts = joined.map_batches(small_partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {
            "revenue_cents": [int(parts["revenue_cents"].sum())],
            "n_small": [int(parts["n_small"].sum())],
        }
    )


def q_orders_big_qty(sf_dir: str):
    """Grouped HAVING + join-back (TPC-H Q18 shape): orders whose total
    lineitem quantity exceeds 250 (q100 > 25000 in exact integer
    hundredths — ~1% of orders), joined back to the order header. The
    HAVING filter runs on the thin merged per-order aggregate, so only
    qualifying orderkeys enter the join."""
    from ..stages.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def q_partial(b: pa.Table) -> pa.Table:
        return aggregate_table(
            pa.table({"l_orderkey": b["l_orderkey"], "q100": _int_scaled(b["l_quantity"])}),
            ["l_orderkey"],
            [("q100", "sum", "q100")],
        )

    def merge_having(t: pa.Table) -> pa.Table:
        g = aggregate_table(t, ["l_orderkey"], [("q100", "sum", "total_q100")])
        return g.filter(pc.greater(g["total_q100"], 25000))

    big = hash_exchange_map_groups(
        li.map_batches(q_partial, batch_format="pyarrow"), merge_having, key="l_orderkey"
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = hash_join(big, orders, key="l_orderkey", right_key="o_orderkey")

    def project(b: pa.Table) -> pa.Table:
        day = pc.strftime(b["o_orderdate"], format="%Y-%m-%d")
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "o_orderdate": day,
                "o_orderpriority": b["o_orderpriority"],
                "total_q100": b["total_q100"],
            }
        )

    return joined.map_batches(project, batch_format="pyarrow")


def q_user_event_paths(sf_dir: str):
    """Ordered per-key string aggregation — string_agg(event_type, ','
    ORDER BY ts, event_id) per user. One exchange co-locates each
    user; the partition body is a vectorized sort + join. The path
    length is bounded by a user's event count (sessionization upstream
    bounds it in a real pipeline)."""

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])

    def paths(t: pa.Table) -> pa.Table:
        t, starts = _user_event_runs(t)
        types = t["event_type"].combine_chunks()
        lists = pa.ListArray.from_arrays(pa.array(starts, pa.int32()), types)
        return pa.table(
            {
                "user_id": t["user_id"].take(pa.array(starts[:-1])),
                "path": pc.binary_join(lists, ","),
                "n_events": pa.array(np.diff(starts), pa.int64()),
            }
        )

    return hash_exchange_map_groups(ds, paths, key="user_id")


def q_user_first_last(sf_dir: str):
    """FIRST_VALUE / LAST_VALUE per partition (ordered by ts, event_id)
    collapsed to one row per user. The map-side combiner keeps only
    each batch's first+last candidate rows per user (<=2 rows per user
    per batch cross the exchange); the reduce applies the identical
    argmin/argmax, which is associative under the unique (ts,
    event_id) order."""

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])

    def candidates(b: pa.Table) -> pa.Table:
        t, starts = _user_event_runs(b)
        return t.take(pa.array(np.unique(np.append(starts[:-1], starts[1:] - 1))))

    def finalize(t: pa.Table) -> pa.Table:
        t, starts = _user_event_runs(t)
        first = t.take(pa.array(starts[:-1]))
        last = t.take(pa.array(starts[1:] - 1))
        return pa.table(
            {
                "user_id": first["user_id"],
                "first_event_id": first["event_id"],
                "first_type": first["event_type"],
                "last_event_id": last["event_id"],
                "last_type": last["event_type"],
            }
        )

    return hash_exchange_map_groups(
        ds.map_batches(candidates, batch_format="pyarrow"), finalize, key="user_id"
    )


def _word_lists(b: pa.Table) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Split non-null text rows on single spaces: returns (flat word
    array, per-row word counts, list offsets) — the vectorized base
    for word-level Gopher rules. Caller filters nulls first."""
    col = b["text"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lists = pc.split_pattern(col, pattern=" ")
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(lists)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    return flat, lens, offsets


def q_doc_word_repetition(sf_dir: str):
    """Gopher repetition rule, oracle-exact: per-doc word count and
    DISTINCT word count (duplicate-word fraction = 1 - distinct/total
    derives from the two integers). Distinct-per-row is computed
    without a Python loop: factorize the flat word array once, lexsort
    (row, code) pairs, count first-occurrences per row with one
    bincount."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["text"]))
        if t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_words": pa.array([], pa.int64()),
                    "n_distinct_words": pa.array([], pa.int64()),
                }
            )
        flat, lens, _ = _word_lists(t)
        codes = pd.factorize(flat.to_numpy(zero_copy_only=False))[0]
        rows = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        order = np.lexsort((codes, rows))
        r, c = rows[order], codes[order]
        first = np.ones(len(r), dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        distinct = np.bincount(r[first], minlength=t.num_rows).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_words": pa.array(lens, pa.int64()),
                "n_distinct_words": pa.array(distinct, pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def q_doc_stopword_counts(sf_dir: str):
    """C4/Gopher stopword rule, oracle-exact: per-doc total words and
    stopword hits (ratio derives from the integers; the engine's
    quality gate thresholds the same statistic). One is_in kernel over
    the flat word array + one reduceat per batch."""
    STOP = ("the", "a", "data", "row")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    stop_arr = pa.array(list(STOP))

    def stats(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["text"]))
        if t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_words": pa.array([], pa.int64()),
                    "n_stop": pa.array([], pa.int64()),
                }
            )
        flat, lens, offsets = _word_lists(t)
        hits = pc.is_in(flat, value_set=stop_arr).to_numpy(zero_copy_only=False)
        hits = hits.astype(np.int64)
        n_stop = np.add.reduceat(
            np.concatenate((hits, [0])), np.minimum(offsets[:-1], len(hits))
        )
        n_stop[lens == 0] = 0
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_words": pa.array(lens, pa.int64()),
                "n_stop": pa.array(n_stop, pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def q_doc_line_clean(sf_dir: str):
    """C4 line-level cleaning (Raffel et al. 2020 §2.2), oracle-exact:
    per doc, drop lines that lack terminal punctuation / enough words /
    carry boilerplate markers, rejoin the survivors. Shuffle-free: one
    regex pass per rule over the flattened line array, per-row rebuild
    via reduceat (:mod:`fineweb2_ro_ray.functions.lineclean`)."""
    from ..functions.lineclean import clean_lines_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def clean(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["text"]))
        if t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "clean_text": pa.array([], pa.string()),
                    "n_lines_total": pa.array([], pa.int64()),
                    "n_lines_kept": pa.array([], pa.int64()),
                }
            )
        out = clean_lines_batch(t)
        return out.select(["doc_id", "clean_text", "n_lines_total", "n_lines_kept"])

    return ds.map_batches(clean, batch_format="pyarrow")


def q_doc_top_bigram(sf_dir: str):
    """Gopher repetition rule #2 (top-n-gram fraction), oracle-exact in
    integers: per doc, the bigram count and the occurrence count of the
    MOST frequent word bigram (the Gopher 'fraction of characters in
    the top 2-gram' thresholds derive from these). No per-row Python:
    factorize the flat word array once, key adjacent code pairs within
    a row, count runs of one lexsort, max per row via reduceat."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["text"]))
        if t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_bigrams": pa.array([], pa.int64()),
                    "top_bigram_count": pa.array([], pa.int64()),
                }
            )
        flat, lens, _ = _word_lists(t)
        n = t.num_rows
        n_bigrams = np.maximum(lens - 1, 0)
        top = np.zeros(n, dtype=np.int64)
        codes = pd.factorize(flat.to_numpy(zero_copy_only=False))[0].astype(np.int64)
        if len(codes) >= 2:
            rows = np.repeat(np.arange(n, dtype=np.int64), lens)
            same_row = rows[:-1] == rows[1:]
            r = rows[:-1][same_row]
            # pair key: codes fit in a batch-local vocab, so c1*V+c2 is
            # collision-free in int64 (V < 2^31 per batch by size)
            v = int(codes.max()) + 1
            key = codes[:-1][same_row] * v + codes[1:][same_row]
            if len(key):
                order = np.lexsort((key, r))
                rr, kk = r[order], key[order]
                newgrp = np.ones(len(rr), dtype=bool)
                newgrp[1:] = (rr[1:] != rr[:-1]) | (kk[1:] != kk[:-1])
                gidx = np.cumsum(newgrp) - 1
                cnt = np.bincount(gidx).astype(np.int64)
                np.maximum.at(top, rr[newgrp], cnt)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bigrams": pa.array(n_bigrams, pa.int64()),
                "top_bigram_count": pa.array(top, pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def q_userday_click_purchase(sf_dir: str):
    """FULL OUTER join on a composite key — per-(user, day) click
    counts vs purchase counts, preserving days with only one activity
    (counts coalesced to 0, keys coalesced across sides: the COALESCE
    + FULL OUTER reconciliation every warehouse runs). Both sides are
    thin pre-aggregates, so the outer join moves only count rows."""
    from ..stages.joins import hash_join

    def day_counts(event_type: str, kcols: tuple[str, str], ncol: str):
        ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

        def user_days(b: pa.Table) -> pa.Table:
            t = b.filter(pc.equal(b["event_type"], event_type))
            day = pc.strftime(pc.floor_temporal(t["ts"], unit="day"), format="%Y-%m-%d")
            return _valid(pa.table({kcols[0]: t["user_id"], kcols[1]: day}), *kcols)

        return exchange_aggregate(
            ds.map_batches(user_days, batch_format="pyarrow"),
            list(kcols),
            [(None, "size", ncol)],
        )

    clicks = day_counts("click", ("cu", "cd"), "n_clicks")
    purch = day_counts("purchase", ("pu", "pd"), "n_purchases")
    joined = hash_join(clicks, purch, key=["cu", "cd"], right_key=["pu", "pd"], how="full")

    def coalesce(b: pa.Table) -> pa.Table:
        user = pc.coalesce(b["cu"], b["pu"])
        day = pc.coalesce(b["cd"], b["pd"])
        return pa.table(
            {
                "user_id": user,
                "day": day,
                "n_clicks": pc.coalesce(b["n_clicks"], pa.scalar(0, pa.int64())),
                "n_purchases": pc.coalesce(b["n_purchases"], pa.scalar(0, pa.int64())),
            }
        )

    return joined.map_batches(coalesce, batch_format="pyarrow")


def q_events_props_extract(sf_dir: str):
    """Vectorized regex field extraction from a JSON-ish string column
    (the M6 parse family's regex sibling): pull the integer ``k`` out
    of ``props``, NULL on no-match, and aggregate per event type — one
    ``pc.extract_regex`` kernel per batch, no Python row loop."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(b: pa.Table) -> pa.Table:
        col = b["props"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m = pc.extract_regex(col, pattern=r'"k": (?P<k>\d+)')
        ks = pc.struct_field(m, "k")
        # TRY_CAST semantics: a digit run too long for int64 is NULL,
        # not an ArrowInvalid (18 digits always fit; 19 may overflow —
        # treated as NULL on both sides for values this engine targets)
        ks = pc.if_else(
            pc.less_equal(pc.utf8_length(ks), 18), ks, pa.nulls(len(ks), pa.string())
        )
        k = pc.cast(ks, pa.int64())
        return _valid(pa.table({"event_type": b["event_type"], "k": k}), "event_type")

    merged = exchange_aggregate(
        ds.map_batches(extract, batch_format="pyarrow"),
        ["event_type"],
        [("k", "sum", "sum_k"), ("k", "count", "n_extracted")],
    )

    def nullify_empty(b: pa.Table) -> pa.Table:
        # SQL sum() over zero non-null inputs is NULL, the engine's 0 —
        # reconcile from the count (exact, keeps int64 partials)
        sum_k = pc.if_else(
            pc.equal(b["n_extracted"], 0),
            pa.nulls(b.num_rows, pa.int64()),
            pc.cast(b["sum_k"], pa.int64()),
        )
        return b.set_column(b.schema.get_field_index("sum_k"), "sum_k", sum_k)

    return merged.map_batches(nullify_empty, batch_format="pyarrow")


def _orders_semi_anti_exchange(sf_dir: str, how: str):
    """orders_semi_join / orders_anti_join restated on the exchange
    hash join's semi/anti modes (the both-sides-large path; the
    broadcast-key-set variants are q_orders_semi_join/q_orders_anti_join)."""
    from ..stages.joins import hash_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def building(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["c_mktsegment"], "BUILDING")).select(["c_custkey"])

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return hash_join(
        orders,
        cust.map_batches(building, batch_format="pyarrow"),
        key="o_custkey",
        right_key="c_custkey",
        how=how,
        post=lambda t: t.select(["o_orderkey"]),
    )


def q_orders_semi_exchange(sf_dir: str):
    return _orders_semi_anti_exchange(sf_dir, "semi")


def q_orders_anti_exchange(sf_dir: str):
    return _orders_semi_anti_exchange(sf_dir, "anti")


def q_dedup_incremental(sf_dir: str):
    """§2.7 cross-snapshot dedup: documents with even doc_id play the
    already-processed snapshot (hashed into a persisted on-disk index),
    odd doc_id the new snapshot; result = new docs whose text hash is
    absent from the index (stages.incremental — the FineWeb cross-dump
    exact-dedup shape). Oracle: NOT EXISTS anti-join on md5(text)."""
    from ..stages.incremental import build_hash_index, filter_against_index

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def side(parity: int):
        return docs.map_batches(
            lambda t, p=parity: t.filter(
                pa.array(t["doc_id"].to_numpy(zero_copy_only=False) % 2 == p)
            ),
            batch_format="pyarrow",
        )

    with _run_dir("hashidx_") as idx:
        build_hash_index(side(0), idx, n_parts=16)
        kept = filter_against_index(side(1), idx)
        return kept.map_batches(
            lambda t: t.select(["doc_id"]), batch_format="pyarrow"
        ).to_pandas()


def q_dedup_incremental_update(sf_dir: str):
    """Index UPDATE path: snapshot A = doc_id%3==0 builds the index,
    snapshot B = %3==1 is merged in (only hashes new to the index are
    written), snapshot C = %3==2 filters against the union. Also
    exercises the no-Bloom exact path on the final filter."""
    from ..stages.incremental import (
        build_hash_index,
        filter_against_index,
        update_index,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def side(rem: int):
        return docs.map_batches(
            lambda t, r=rem: t.filter(
                pa.array(t["doc_id"].to_numpy(zero_copy_only=False) % 3 == r)
            ),
            batch_format="pyarrow",
        )

    with _run_dir("hashidx_") as idx:
        build_hash_index(side(0), idx, n_parts=8)
        update_index(side(1), idx, snapshot="s0001")
        kept = filter_against_index(side(2), idx, use_bloom=False)
        return kept.map_batches(
            lambda t: t.select(["doc_id"]), batch_format="pyarrow"
        ).to_pandas()


def _boilerplate_scrub(sf_dir: str, strategy: str):
    """Corpus-level frequent-unit scrub (CCNet/RefinedWeb line-dedup
    shape, stages.boilerplate): remove tokens occurring in >= half of all
    documents, rebuild each doc from survivors in original order. The
    threshold derives from the corpus size so the query is
    scale-independent; docs with no surviving tokens emit no row."""
    from ..stages.boilerplate import remove_frequent_units

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    k = docs.count() // 2
    out = remove_frequent_units(
        docs, sep=" ", min_docs=k, strategy=strategy
    )
    return out.to_pandas()


def q_doc_boilerplate_scrub(sf_dir: str):
    """Broadcast path: the heavy set (<= units/min_docs distinct
    values) ships once via ray.put; rebuild is map-side, zero further
    shuffle."""
    return _boilerplate_scrub(sf_dir, "broadcast")


def q_doc_boilerplate_scrub_exchange(sf_dir: str):
    """Exchange path (heavy set too big to broadcast at scale): ANTI
    hash-join exploded units vs heavy set + one reassembly exchange
    keyed on doc_id — fully distributed."""
    return _boilerplate_scrub(sf_dir, "exchange")


def _dedup_spans(sf_dir: str, strategy: str):
    from ..stages.spans import remove_duplicate_spans

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return remove_duplicate_spans(docs, k=4, min_count=2, strategy=strategy)


def q_dedup_spans(sf_dir: str):
    """Exact duplicate-span removal (Lee et al. 2021, EXACTSUBSTR at
    word-4-gram resolution): every 4-gram occurring >= 2 times in the
    corpus is deleted from every document, docs rebuilt from surviving
    words. Broadcast path: the thin count exchange bounds the dup-key
    set, which ships once; documents never move."""
    return _dedup_spans(sf_dir, "broadcast")


def q_dedup_spans_keep_first(sf_dir: str):
    """Lee et al.'s ACTUAL dedup semantics: one copy of every repeated
    region survives — each duplicated 4-gram's lexicographically-first
    occurrence (min (doc_id, start)) is exempt from removal. The
    canonical occurrence rides the same thin count exchange (one
    candidate per gram per batch, min-merged at the reduce)."""
    return _dedup_spans_kf(sf_dir, "broadcast")


def _dedup_spans_kf(sf_dir: str, strategy: str):
    from ..stages.spans import remove_duplicate_spans

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return remove_duplicate_spans(
        docs, k=4, min_count=2, strategy=strategy, keep_first=True
    )


def q_dedup_spans_exchange(sf_dir: str):
    """Same semantics, fully distributed rebuild: occurrence rows
    SEMI-join the dup-key set on a keyed exchange, then a reassembly
    exchange keyed on doc_id co-locates covered starts with the text."""
    return _dedup_spans(sf_dir, "exchange")


def q_doc_top_terms(sf_dir: str):
    """Top-3 characteristic terms per document, ranked (tf DESC, df
    ASC, term ASC) — the integer-exact tf-idf cousin
    (stages.boilerplate.top_terms_per_doc): per-batch tf combiner, thin
    document-frequency exchange, both-sides-large INNER hash join on
    term, per-doc top-k in a reassembly exchange."""
    from ..stages.boilerplate import top_terms_per_doc

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return top_terms_per_doc(docs, sep=" ", k=3)


def q_region_nation_revenue(sf_dir: str):
    """TPC-H Q5 analog — the 6-table join composition: region→nation
    prune on the driver (5 rows), nation + supplier maps broadcast via
    ``ray.put`` (dimension tables), customer⋈orders and
    lineitem⋈(orders×customer) on the exchange hash join (the two
    large-fact joins), the co-nation condition (c_nationkey =
    s_nationkey) applied post-join, map-side revenue combiners before
    every exchange. Revenue in exact integer cents×percent so the
    value hash is engine- and order-independent."""
    import datetime as _dt

    from ..stages.joins import hash_join

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1998, 1, 1)

    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    rkeys = set(reg[reg["r_name"] == "EUROPE"]["r_regionkey"])
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    nat = nat[nat["n_regionkey"].isin(rkeys)]
    n_name = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    nkeys = np.sort(nat["n_nationkey"].to_numpy())
    nkeys_ref = ray.put(nkeys)

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    sup = sup[sup["s_nationkey"].isin(n_name)].sort_values("s_suppkey")
    sup_ref = ray.put(
        (sup["s_suppkey"].to_numpy(np.int64), sup["s_nationkey"].to_numpy(np.int64))
    )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def cust_region(b: pa.Table) -> pa.Table:
        ks = ray.get(nkeys_ref)
        m = np.isin(b["c_nationkey"].to_numpy(zero_copy_only=False), ks)
        return b.filter(pa.array(m))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def orders_window(b: pa.Table) -> pa.Table:
        t = b.filter(
            pc.and_(
                pc.greater_equal(b["o_orderdate"], pa.scalar(lo)),
                pc.less(b["o_orderdate"], pa.scalar(hi)),
            )
        )
        return t.select(["o_orderkey", "o_custkey"])

    oc = hash_join(
        orders.map_batches(orders_window, batch_format="pyarrow"),
        cust.map_batches(cust_region, batch_format="pyarrow"),
        key="o_custkey",
        right_key="c_custkey",
    )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    )

    def li_partials(b: pa.Table) -> pa.Table:
        """Attach the supplier's nation map-side (regional suppliers
        only — rest dropped before any shuffle); combine revenue per
        (orderkey, supplier-nation)."""
        skeys, snats = ray.get(sup_ref)
        sk = b["l_suppkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(skeys, sk)
        pos_c = np.minimum(pos, max(0, len(skeys) - 1))
        hit = (len(skeys) > 0) & (skeys[pos_c] == sk)
        t = _valid(b.filter(pa.array(hit)), "l_orderkey")
        snat = snats[np.searchsorted(skeys, t["l_suppkey"].to_numpy(zero_copy_only=False))]
        rev = pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "s_nat": pa.array(snat, pa.int64()),
                "rev_cbp": _rev_cbp(t),
            }
        )
        return aggregate_table(rev, ["l_orderkey", "s_nat"], [("rev_cbp", "sum", "rev_cbp")])

    rev = li.map_batches(li_partials, batch_format="pyarrow")
    j = hash_join(rev, oc, key="l_orderkey", right_key="o_orderkey")

    nat_keys = pa.array(list(n_name), pa.int64())
    nat_names = pa.array(list(n_name.values()), pa.string())

    def co_nation(b: pa.Table) -> pa.Table:
        """Apply the co-nation condition, map nation names."""
        t = b.filter(pc.equal(b["s_nat"], b["c_nationkey"]))
        names = nat_names.take(pc.index_in(t["s_nat"], value_set=nat_keys))
        return pa.table({"n_name": names, "rev_cbp": t["rev_cbp"]})

    out = exchange_aggregate(
        j.map_batches(co_nation, batch_format="pyarrow"),
        ["n_name"],
        [("rev_cbp", "sum", "revenue_cbp")],
    ).to_pandas()
    return out.sort_values("revenue_cbp", ascending=False, ignore_index=True)


# ---------------------------------------------------------------------------
# training-sample prep + funnel / multi-granularity aggregate shapes
# ---------------------------------------------------------------------------

CHUNK_WORDS = 40
CHUNK_STRIDE = 30


def q_doc_chunks(sf_dir: str):
    """Training-sample chunking: split every document into overlapping
    fixed-size word windows (``CHUNK_WORDS`` words, ``CHUNK_STRIDE``
    stride) — the sample-preparation step between a cleaned corpus and
    a pretraining dataloader. Pure row EXPANSION, zero shuffle: the
    per-batch kernel builds every chunk from ONE flattened word array
    (vectorized range concatenation + one take + binary_join), so a
    100 TB corpus chunks at read speed."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def chunk(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "chunk_idx": pa.array([], pa.int64()),
                "n_words": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
            }
        )
        t = b.filter(pc.is_valid(b["text"]))
        if t.num_rows == 0:
            return empty
        flat, lens, _ = _word_lists(t)
        n = t.num_rows
        n_chunks = (lens + CHUNK_STRIDE - 1) // CHUNK_STRIDE  # lens >= 1 always
        total = int(n_chunks.sum())
        row = np.repeat(np.arange(n, dtype=np.int64), n_chunks)
        cum_prev = np.zeros(n, dtype=np.int64)
        np.cumsum(n_chunks[:-1], out=cum_prev[1:])
        ci = np.arange(total, dtype=np.int64) - np.repeat(cum_prev, n_chunks)
        start = ci * CHUNK_STRIDE
        end = np.minimum(start + CHUNK_WORDS, lens[row])
        nw = end - start
        row_off = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=row_off[1:])
        g_start = row_off[row] + start
        # concatenated ranges [g_start[i], g_start[i]+nw[i]) in one arange
        tw = int(nw.sum())
        nw_prev = np.zeros(total, dtype=np.int64)
        np.cumsum(nw[:-1], out=nw_prev[1:])
        idx = np.arange(tw, dtype=np.int64) - np.repeat(nw_prev, nw) + np.repeat(g_start, nw)
        words = flat.take(pa.array(idx, pa.int64()))
        offs = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(nw, out=offs[1:])
        lists = pa.LargeListArray.from_arrays(
            pa.array(offs, pa.int64()), words.cast(pa.large_string())
        )
        text = pc.binary_join(lists, pa.scalar(" ", pa.large_string())).cast(pa.string())
        return pa.table(
            {
                "doc_id": t["doc_id"].take(pa.array(row, pa.int64())),
                "chunk_idx": pa.array(ci, pa.int64()),
                "n_words": pa.array(nw, pa.int64()),
                "chunk_text": text,
            }
        )

    return ds.map_batches(chunk, batch_format="pyarrow")


def q_events_funnel(sf_dir: str):
    """Strict ordered funnel (view -> click -> purchase): per user, the
    first view, the first click AFTER that view, and the first purchase
    AFTER that click — the sequential-pattern shape (each stage's
    anchor depends on the previous stage's result, so it is NOT a plain
    per-type min). Map side filters to the three stage types and
    combines views to per-user mins; one user-keyed exchange co-locates
    each user's events; the chain is resolved vectorized per partition
    (three groupby-min passes, no per-user Python)."""

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def thin(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b["event_type"], value_set=pa.array(["click", "purchase"])))
        views = _valid(b.filter(pc.equal(b["event_type"], "view")), "user_id")
        vmin = aggregate_table(views, ["user_id"], [("ts", "min", "ts")])
        vmin = vmin.append_column("event_type", pa.array(["view"] * vmin.num_rows, pa.string()))
        return pa.concat_tables([vmin, t.select(["user_id", "ts", "event_type"])])

    def funnel(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t["user_id"]), pc.is_valid(t["ts"])))
        users, inv = np.unique(t["user_id"].to_numpy(), return_inverse=True)
        ts = pc.cast(t["ts"], pa.timestamp("us")).cast(pa.int64()).to_numpy()
        ty = t["event_type"]
        never = np.iinfo(np.int64).max

        def stage(kind: str, after: np.ndarray) -> np.ndarray:
            # per-user min ts of ``kind`` events strictly after ``after``
            m = pc.fill_null(pc.equal(ty, kind), False).to_numpy(zero_copy_only=False)
            m &= ts > after[inv]
            out = np.full(len(users), never, np.int64)
            np.minimum.at(out, inv[m], ts[m])
            return out

        t_view = stage("view", np.full(len(users), np.iinfo(np.int64).min))
        t_click = stage("click", t_view)
        t_purchase = stage("purchase", t_click)
        has = t_view != never

        def col(v: np.ndarray) -> pa.Array:
            return pa.array(v[has], pa.timestamp("us"), mask=v[has] == never)

        return pa.table(
            {
                "user_id": pa.array(users[has], pa.int64()),
                "t_view": col(t_view),
                "t_click": col(t_click),
                "t_purchase": col(t_purchase),
            }
        )

    return hash_exchange_map_groups(
        ev.map_batches(thin, batch_format="pyarrow"),
        funnel,
        key="user_id",
        out_schema=pa.schema(
            [
                ("user_id", pa.int64()),
                ("t_view", pa.timestamp("us")),
                ("t_click", pa.timestamp("us")),
                ("t_purchase", pa.timestamp("us")),
            ]
        ),
    )


def q_supplier_dominant_parts(sf_dir: str):
    """Two-granularity aggregate ratio (TPC-H Q20 cousin without
    partsupp): (part, supplier) pairs where one supplier shipped MORE
    than a FIFTH of the part's total quantity (2x the fair share of
    its ~10 suppliers). Both granularities share
    the part key, so ONE exchange resolves the correlation: map-side
    per-(part, supp) integer partials, each reduce partition re-merges,
    derives the per-part total with a vectorized transform and filters
    ``5*supp > part`` — the fact table never crosses a second shuffle."""

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity"])

    def partial(b: pa.Table) -> pa.Table:
        return aggregate_table(
            b.select(["l_partkey", "l_suppkey"]).append_column(
                "q100", _int_scaled(b["l_quantity"])
            ),
            ["l_partkey", "l_suppkey"],
            [("q100", "sum", "q100")],
        )

    def dominant(t: pa.Table) -> pa.Table:
        ps = aggregate_table(t, ["l_partkey", "l_suppkey"], [("q100", "sum", "supp_q100")])
        starts = run_starts(ps, ["l_partkey"])
        q = ps["supp_q100"].to_numpy()
        tot = np.repeat(np.add.reduceat(q, starts[:-1]), np.diff(starts)) if len(q) else q
        keep = 5 * q > tot
        return ps.filter(pa.array(keep)).append_column(
            "part_q100", pa.array(tot[keep], pa.int64())
        )

    return hash_exchange_map_groups(
        li.map_batches(partial, batch_format="pyarrow"),
        dominant,
        key="l_partkey",
        out_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("supp_q100", pa.int64()),
                ("part_q100", pa.int64()),
            ]
        ),
    )


_Q19_RULES = [
    # (brand, size_lo, size_hi, qty_lo, qty_hi)
    ("Brand#13", 1, 15, 1.0, 30.0),
    ("Brand#22", 10, 30, 5.0, 40.0),
    ("Brand#25", 20, 50, 10.0, 50.0),
]


def q_disjunctive_revenue(sf_dir: str):
    """Disjunctive residual-predicate join (TPC-H Q19 shape): revenue
    from lineitems whose part matches any of three (brand, size-range,
    quantity-range) conjunction groups. The predicate spans BOTH join
    sides, so it cannot be pushed below the join — but the dimension
    side can: parts are pre-filtered to the three brands and broadcast
    once (``ray.put``), the fact stream gathers (brand, size) by
    partkey and evaluates the OR-of-ANDs vectorized. Zero shuffle;
    money exact in price-cents x (100 - discount-bp) 1e-4 units."""
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).to_pandas()
    part = part[part["p_brand"].isin([r[0] for r in _Q19_RULES])]
    pref = ray.put(
        {
            "key": part["p_partkey"].to_numpy(np.int64),
            "brand": part["p_brand"].to_numpy(),
            "size": part["p_size"].to_numpy(np.int64),
        }
    )

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
    )

    def partial(b: pa.Table) -> pa.Table:
        p = ray.get(pref)
        order = np.argsort(p["key"], kind="stable")
        skey, sbrand, ssize = p["key"][order], p["brand"][order], p["size"][order]
        lk = b["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(skey, lk)
        pos_c = np.minimum(pos, max(len(skey) - 1, 0))
        if len(skey):
            found = (pos < len(skey)) & (skey[pos_c] == lk)
        else:
            found = np.zeros(len(lk), dtype=bool)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        keep = np.zeros(len(lk), dtype=bool)
        if found.any():
            br = sbrand[pos_c[found]]
            sz = ssize[pos_c[found]]
            q = qty[found]
            m = np.zeros(found.sum(), dtype=bool)
            for brand, lo, hi, qlo, qhi in _Q19_RULES:
                m |= (br == brand) & (sz >= lo) & (sz <= hi) & (q >= qlo) & (q <= qhi)
            keep[np.flatnonzero(found)] = m
        rev = _rev_cbp(b.filter(pa.array(keep)))
        return pa.table(
            {
                "r": pa.array([pc.sum(rev, min_count=0).as_py()], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {
            "rev_e4": [int(parts["r"].sum())],
            "n_lines": [int(parts["n"].sum())],
        }
    )


def q_top_supplier_revenue(sf_dir: str):
    """Argmax-with-ties over an aggregate (TPC-H Q15 shape): the
    supplier(s) with the MAXIMUM revenue in 1996 Q1. Map-side per-supp
    integer partials -> thin exchange merge (one row per supplier);
    the global max is a one-scalar pull off that thin stream; names
    attach by broadcast (the surviving side is the tie set)."""
    import datetime as _dt

    lo = _dt.datetime(1996, 1, 1)
    hi = _dt.datetime(1996, 4, 1)
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(b["l_shipdate"], pa.scalar(lo, pa.timestamp("us"))),
            pc.less(b["l_shipdate"], pa.scalar(hi, pa.timestamp("us"))),
        )
        t = b.filter(m)
        return _valid(pa.table({"l_suppkey": t["l_suppkey"], "rev": _rev_cbp(t)}), "l_suppkey")

    totals = exchange_aggregate(
        li.map_batches(partial, batch_format="pyarrow"),
        ["l_suppkey"],
        [("rev", "sum", "total_rev_e4")],
        out_schema=pa.schema([("l_suppkey", pa.int64()), ("total_rev_e4", pa.int64())]),
    )
    best = totals.max("total_rev_e4")
    if best is None:  # no lineitem in the window: empty, typed result
        return pd.DataFrame(
            {
                "s_suppkey": pd.Series([], dtype=np.int64),
                "s_name": pd.Series([], dtype=object),
                "total_rev_e4": pd.Series([], dtype=np.int64),
            }
        )
    winners = totals.filter(expr=f"total_rev_e4 == {int(best)}").to_pandas()

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    names = dict(zip(sup["s_suppkey"], sup["s_name"]))
    winners["s_name"] = winners["l_suppkey"].map(names)
    winners = winners.rename(columns={"l_suppkey": "s_suppkey"})
    return winners[["s_suppkey", "s_name", "total_rev_e4"]]


PACK_BUDGET = 2048


def q_doc_pack_spans(sf_dir: str):
    """GPT-style sequence packing (concat-and-chunk): every document's
    EXACT global token offset under doc_id order and the pack indices
    its tokens land in, at a ``PACK_BUDGET``-token pack size. The
    offset is a distributed ordered prefix-scan (``stages/packing.py``:
    sketch boundaries -> per-range sums -> driver R-element prefix ->
    per-range local cumsum); only the 16-byte (doc_id, n_tok) thin
    stream moves."""
    from ..stages.packing import doc_token_counts, pack_spans

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return pack_spans(doc_token_counts(docs), budget=PACK_BUDGET)


def q_doc_shuffle_order(sf_dir: str):
    """Deterministic global shuffle: each document's exact 0-based
    position under md5(doc_id) order — the reproducible corpus shuffle
    before training (same input => same order at any parallelism,
    unlike random_shuffle). Rides the ordered prefix-scan with unit
    summands (``stages/packing.py::shuffle_positions``): the md5's
    leading 8 bytes give the numeric range surrogate, in-partition
    ordering uses the full hex key."""
    from ..stages.packing import shuffle_positions

    return shuffle_positions(_read(sf_dir, "documents", ["doc_id"]))


def q_lm_bigram_counts(sf_dir: str):
    """Corpus-trained LM fit surface (CCNet-style; arXiv:1911.00359):
    exact in-document adjacent word-bigram counts ≥ 2 over the corpus —
    per-batch Arrow group_by partials summed on one thin keyed
    exchange; only (gram, count) rows shuffle, never the text."""
    from ..stages.lm import bigram_counts

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return bigram_counts(docs, min_count=2)


def q_doc_lm_ppl(sf_dir: str):
    """Fit the word-bigram LM on the corpus and score every document's
    add-alpha perplexity under it (the CCNet self-ppl diagnostic; the
    quality-filter flow scores a TARGET corpus with the same broadcast
    model). Rows-only: per-doc float log-prob sums are reduceat-order
    deterministic but not SQL-reproducible; exactness is pytest-gated
    against a pure-Python oracle."""
    from ..stages.lm import lm_ppl_pipeline

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return lm_ppl_pipeline(docs, min_count=2)


_MIX_TARGET = {"en": 0.4, "de": 0.2, "fr": 0.2, "es": 0.1, "zh": 0.1}
_MIX_RATES = {"en": 1.0, "de": 0.5, "fr": 0.25, "es": 0.125, "zh": 0.0625}
_UPSAMPLE = {"en": 1, "de": 2, "fr": 3, "es": 0, "zh": 2}


def q_mixture_weights(sf_dir: str):
    """Domain-mixture reweighting (DoReMi / Pile-style target
    proportions): downsample-only per-language keep-rates from thin
    grouped counts — the arithmetic mirrors the SQL oracle's operation
    order exactly, so the double-typed rates value-hash-match."""
    from ..stages.mixing import mixture_weights

    docs = _read(sf_dir, "documents", ["lang"])
    return mixture_weights(docs, "lang", _MIX_TARGET)


def q_mixture_sample(sf_dir: str):
    """Deterministic per-key hash-band sampling at fixed rates: keep
    iff md5-band(doc_id) < floor(rate·1e6) — stable across runs/batch
    sizes/cluster layouts, zero shuffle, exactly reproducible in SQL."""
    from ..stages.mixing import mixture_sample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return mixture_sample(docs, "lang", _MIX_RATES, id_col="doc_id")


def q_doc_upsample(sf_dir: str):
    """Integer per-domain repetition (epochs-per-domain upsampling):
    each doc emits factor copies tagged copy_idx; factor 0 drops.
    ``default=0`` mirrors the oracle's INNER JOIN against the factor
    VALUES list exactly — a lang outside the table (or NULL) is
    dropped by both sides, not kept once by the engine only."""
    from ..stages.mixing import upsample_by_key

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return upsample_by_key(docs, "lang", _UPSAMPLE, default=0)


def q_doc_lm_ppl_artifact(sf_dir: str):
    """The 100-TB LM flow end to end: fit + persist the pruned counts
    as a hash-partitioned on-disk artifact (counts never visit the
    driver), then score per-doc ppl via the KEYED EXCHANGE JOIN path
    (no resident model anywhere — each reduce task reads exactly one
    artifact partition). Rows-only; equality with the broadcast scorer
    is pytest-pinned at rtol 1e-9."""
    from ..stages.lm import save_lm_artifact, score_word_bigram_exchange

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    with _run_dir("fw2_lm_artifact_") as art:
        save_lm_artifact(docs, art, min_count=2, n_parts=8)
        return score_word_bigram_exchange(docs, art).materialize()


# ---------------------------------------------------------------------------
# round-4 continuation: distributed k-means + n-gram overlap decontamination
# ---------------------------------------------------------------------------


def q_kmeans_assign(sf_dir: str):
    """Nearest-centroid assignment over the embedding column — the
    clustering building block (SemDeDup buckets, IVF cells, domain
    discovery). Centroids = embeddings of the 8 SMALLEST vec_ids
    (deterministic, ORDER BY vec_id LIMIT 8 in SQL), broadcast once;
    one vectorized exact-L2 argmin pass per batch; first-min tie-break
    = the oracle's ORDER BY dist, cid. Output (vec_id, cluster) is
    integer-only, so the value hash is float-robust."""
    from ..stages.clustering import init_smallest_ids, kmeans_assign

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent, ids = init_smallest_ids(ds, 8)
    out = kmeans_assign(ds, cent, labels=ids)
    return out.map_batches(
        lambda t: t.select(["vec_id", "cluster"]), batch_format="pyarrow"
    )


def q_kmeans_fit(sf_dir: str):
    """Full-data distributed Lloyd (3 iterations, k=8, deterministic
    smallest-id init): per-batch sufficient statistics, O(k x d) driver
    state, centroids re-broadcast per iteration. Output = per-cluster
    sizes + ppm-rounded inertia share after the final assignment.
    Rows-only (iterative float fit has no clean SQL analog); exact
    agreement with a single-process numpy reference is pytest-pinned."""
    from ..stages.clustering import init_smallest_ids, kmeans_fit_distributed

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent, _ = init_smallest_ids(ds, 8)
    res = kmeans_fit_distributed(ds, k=8, n_iters=3, init=cent)
    inertia_ppm = int(round_half_away(np.array([res["inertia"][-1] * 1e6]))[0])
    return pd.DataFrame(
        {
            "cluster": np.arange(res["k"], dtype=np.int64),
            "n": res["counts"].astype(np.int64),
            "total_inertia_ppm": np.full(res["k"], inertia_ppm, dtype=np.int64),
        }
    )


def q_contamination_ngram(sf_dir: str):
    """Pile/GPT-3-style n-gram overlap decontamination (13-gram, 80%
    threshold): eval side = ALL 13-grams of docs with doc_id % 97 == 0
    (128-bit gram keys, broadcast sorted), corpus side = one flat-array
    membership pass per batch. Output (doc_id, n_grams, n_hit,
    contaminated) is integer/bool-only — value-exact vs the SQL
    oracle's string-gram LEFT JOIN."""
    from ..stages.decontaminate import eval_ngram_keys, ngram_contamination_report

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    keys = eval_ngram_keys(ds, n=13)
    return ngram_contamination_report(ds, keys, n=13, threshold=(4, 5))


def q_semdedup(sf_dir: str):
    """SemDeDup (arXiv:2303.09540): k-means-bucketed semantic dedup —
    assignment to the 8 smallest-id embeddings (oracle: ORDER BY
    vec_id LIMIT 8), then within each cluster drop any row whose
    cosine to a SMALLER-id same-cluster row reaches tau=0.45 (the
    NOT-EXISTS form). One keyed exchange on the integer cluster id;
    the intra-cluster scan is chunked-triangular. Output (vec_id,
    cluster, kept) is integer/bool-only — float-robust hash."""
    from ..stages.clustering import init_smallest_ids
    from ..stages.semdedup import semdedup_flags

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent, ids = init_smallest_ids(ds, 8)
    return semdedup_flags(ds, cent, tau=0.45, labels=ids, mode="min_id")


def q_semdedup_component(sf_dir: str):
    """SemDeDup paper-faithful keep rule: connected components of the
    thresholded within-cluster pair graph, each component keeps the
    row LEAST similar to its centroid (diversity-preserving). Graph
    transitive closure over float cosines — rows-only; exact agreement
    with a single-process reference is pytest-pinned
    (tests/test_semdedup.py)."""
    from ..stages.clustering import init_smallest_ids
    from ..stages.semdedup import semdedup_flags

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent, ids = init_smallest_ids(ds, 8)
    return semdedup_flags(ds, cent, tau=0.45, labels=ids, mode="component")


def q_dsir_select(sf_dir: str):
    """DSIR importance resampling (arXiv:2302.03169): fit hashed
    unigram+bigram bucket distributions (target = lang == 'en' docs)
    vs the raw corpus in ONE pass, score every doc with the broadcast
    log-ratio, select the top-100 by weight (ties -> smallest id).
    Hashed features have no SQL analog — rows-only; exact agreement
    with a single-process reference is pytest-pinned
    (tests/test_dsir.py)."""
    from ..stages.dsir import dsir_select, fit_dsir

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    lr = fit_dsir(
        ds, lambda t: t["lang"].to_numpy(zero_copy_only=False) == "en"
    )
    return dsir_select(
        ds.select_columns(["doc_id", "text"]), lr, 100
    )


def q_bm25_search(sf_dir: str):
    """Okapi BM25 top-10 per query over the documents table (three
    fixed keyword queries, one with a repeated term exercising query
    term frequency). Two streamed passes — O(|query vocab|) fit
    partials, broadcast (idf, qtf, avgdl) bundle, per-batch matmul
    scoring with local top-k and a k-bounded driver merge. Float
    ln/ratio scoring has no libm-stable SQL analog — rows-only;
    exact agreement with a single-process reference is pytest-pinned
    (tests/test_search.py)."""
    from ..stages.search import bm25_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk(
        ds, ["hash join merge", "customer filter", "scan scan vector"], k=10
    )


def q_embedding_pca(sf_dir: str):
    """Distributed PCA over the embedding column: one sufficient-stats
    pass (count, sum, sum-of-outer-products partials -> d x d driver
    eigh, d=64), then a broadcast projection to 8 components. Output
    (vec_id, pca list<double>[8]). Eigendecomposition has no SQL
    analog — rows-only; numpy parity (components, variance, whitening)
    is pytest-pinned (tests/test_pca.py)."""
    from ..stages.pca import fit_pca, pca_transform

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    model = fit_pca(ds, n_components=8)
    return pca_transform(ds, model)


# --- URL family (FineWeb URL curation: parse / per-domain stats /
# blocklist) — functions.url; zero shuffle except the thin count
# exchange in q_url_domain_counts ---


def _with_urls(sf_dir: str) -> ray.data.Dataset:
    """documents + a deterministic derived url column (the test-table
    stand-in for a real url field; construction mirrored in the SQL
    oracle CTE — see functions.url.build_urls)."""
    from ..functions.url import build_urls

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def add(b: pa.Table) -> pa.Table:
        return b.append_column("url", build_urls(b))

    return ds.map_batches(add, batch_format="pyarrow")


def q_url_parse(sf_dir: str):
    """URL parse: scheme/host/port/path/query + registered domain via
    one RE2 extract per batch (functions.url.parse_urls); the oracle
    re-parses the same strings with independent per-field
    regexp_extract expressions."""
    from ..functions.url import parse_urls

    def parse(b: pa.Table) -> pa.Table:
        p = parse_urls(b["url"])
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "url": b["url"],
                "scheme": p["scheme"],
                "host": p["host"],
                "port": p["port"],
                "path": p["path"],
                "qstring": p["qstring"],
                "regdom": p["regdom"],
            }
        )

    return _with_urls(sf_dir).map_batches(parse, batch_format="pyarrow")


def q_url_domain_counts(sf_dir: str):
    """Per-registered-domain doc count + https share (the per-domain
    cap / TLD statistics shape): per-batch partial counts, one thin
    (regdom) exchange sum — document rows never shuffle."""
    from ..functions.url import parse_urls

    def domains(b: pa.Table) -> pa.Table:
        p = parse_urls(b["url"])
        return pa.table({"regdom": p["regdom"], "https": pc.equal(p["scheme"], "https")})

    return exchange_aggregate(
        _with_urls(sf_dir).map_batches(domains, batch_format="pyarrow"),
        "regdom",
        [(None, "size", "n_docs"), ("https", "sum", "n_https")],
    )


_URL_BLOCKLIST = frozenset(
    {"src11.ro", "src24.co.uk", "src30.com", "src5.org", "src152.ro"}
)


def q_url_blocklist_kept(sf_dir: str):
    """Blocklist filter (the FineWeb adult/spam-domain gate): blocked
    registered-domain set broadcast once via ray.put, per-batch is_in
    keep-mask, per-lang kept counts. Null regdoms (unparseable URLs)
    are KEPT — they fall through to the content rules."""
    import ray as _ray

    from ..functions.url import blocklist_mask, parse_urls
    from ..stages.analysis import grouped_counts

    blocked_ref = _ray.put(_URL_BLOCKLIST)

    def keep(b: pa.Table) -> pa.Table:
        blocked = _ray.get(blocked_ref)
        p = parse_urls(b["url"])
        return b.filter(blocklist_mask(p["regdom"], blocked))

    kept = _with_urls(sf_dir).map_batches(keep, batch_format="pyarrow")
    return grouped_counts(kept, ["lang"])


# --- fixed-length training-example packing (stages.export) ---


def q_doc_pack_examples(sf_dir: str):
    """Concat-and-chunk packing, WORD instantiation (tokens = the
    single-space split, no separator) so the full fragment/assembly
    machinery — distributed scan, exchange join, fragment cut,
    example-ordered reassembly — is SQL-checkable end to end: the
    oracle rebuilds every complete 32-word window of the global
    doc_id-ordered word stream with one ROW_NUMBER + string_agg.
    Output (example_id, text); the BPE instantiation of the same
    operator is q_tokenized_examples (rows-only, pytest-pinned)."""
    from ..stages.export import pack_token_examples
    from ..stages.packing import pack_spans

    L = 32
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tok_words(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["text"]))
        words = pc.split_pattern(
            t["text"].combine_chunks()
            if isinstance(t["text"], pa.ChunkedArray)
            else t["text"],
            pattern=" ",
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "ids": words,
                "n_tok": pc.list_value_length(words).cast(pa.int64()),
            }
        )

    tok = ds.map_batches(tok_words, batch_format="pyarrow")
    thin = ds.map_batches(
        lambda b: tok_words(b).select(["doc_id", "n_tok"]),
        batch_format="pyarrow",
    )
    spans = pack_spans(thin, budget=L, id_col="doc_id", n_col="n_tok")
    spans_thin = spans.map_batches(
        lambda b: b.select(["doc_id", "tok_start"]), batch_format="pyarrow"
    )
    examples = pack_token_examples(
        tok.map_batches(
            lambda b: b.select(["doc_id", "ids"]), batch_format="pyarrow"
        ),
        spans_thin,
        seq_len=L,
    )

    def flatten(b: pa.Table) -> pa.Table:
        ids = b["input_ids"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table(
            {
                "example_id": b["example_id"],
                "text": pc.binary_join(ids, " "),
            }
        )

    return examples.map_batches(flatten, batch_format="pyarrow")


def q_tokenized_examples(sf_dir: str):
    """BPE instantiation of the packing operator: the dataloader
    hand-off (mini-BPE ids + per-doc separator, fixed 64-token
    examples). Distributed output is pinned bit-exact to the
    sequential reference tokenizer in tests/test_export.py; no SQL
    analog (BPE merges aren't SQL-expressible)."""
    from ..stages.export import export_bpe_examples

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return export_bpe_examples(ds, seq_len=64)


def q_pagerank_suppliers(sf_dir: str):
    """Iterative graph operator: 3 rounds of integer fixed-point
    PageRank (stages.pagerank — per round one thin rank→edge exchange
    join + one thin dst-keyed sum) over the undirected supplier↔part
    shipment graph (part ids offset into a disjoint range). The floored
    integer recurrence is bit-deterministic under any execution order,
    so the DuckDB oracle (unrolled-CTE iterations, BIGINT //) is
    value-exact."""
    from ..stages.pagerank import pagerank

    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])

    def edges_both(b: pa.Table) -> pa.Table:
        s = b["l_suppkey"].combine_chunks().cast(pa.int64())
        p = pc.add(b["l_partkey"].combine_chunks().cast(pa.int64()), 1000000)
        return pa.table(
            {
                "src": pa.concat_arrays([s, p]),
                "dst": pa.concat_arrays([p, s]),
            }
        )

    e = li.map_batches(edges_both, batch_format="pyarrow")
    return pagerank(e, n_iters=3)


def q_snapshot_diff(sf_dir: str):
    """Corpus-versioning operator (stages.versioning.snapshot_diff):
    two deterministic snapshots are derived from the documents table
    (old = doc_id % 7 != 0; new = doc_id % 5 != 0 with text amended
    ' v2' when doc_id % 11 == 0 — construction mirrored in the oracle
    CTE), then diffed by 64-bit content fingerprint over one thin
    keyed exchange. Output (doc_id, status); the oracle's FULL OUTER
    JOIN compares full text, so fingerprinting is value-checked."""
    from ..stages.versioning import snapshot_diff

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _ids_np(t: pa.Table):
        return (
            t["doc_id"].combine_chunks().cast(pa.int64()).to_numpy()
        )

    def mk_old(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(_ids_np(b) % 7 != 0))

    def mk_new(b: pa.Table) -> pa.Table:
        t = b.filter(pa.array(_ids_np(b) % 5 != 0))
        amended = pc.binary_join_element_wise(
            t["text"].combine_chunks().cast(pa.string()),
            pa.scalar(" v2"),
            pa.scalar(""),
        )
        text = pc.if_else(
            pa.array(_ids_np(t) % 11 == 0),
            amended,
            t["text"].combine_chunks(),
        )
        return pa.table({"doc_id": t["doc_id"], "text": text})

    old = ds.map_batches(mk_old, batch_format="pyarrow")
    new = ds.map_batches(mk_new, batch_format="pyarrow")
    return snapshot_diff(old, new, key="doc_id", compare=["text"])


def q_word_drift_chi2(sf_dir: str):
    """Distribution-drift operator (stages.drift.word_drift_chi2):
    per-word 2x2 chi-square between the English slice (side 0) and the
    rest of the corpus, top-200 by (chi2 DESC, word ASC). Counts are
    exact int64; chi2 is a fixed-order IEEE expression over them, so
    the DuckDB oracle evaluating the same expression is value-exact."""
    from ..stages.drift import word_drift_chi2

    ds = _read(sf_dir, "documents", ["text", "lang"])

    def add_side(b: pa.Table) -> pa.Table:
        lang = b["lang"]
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        side = pc.if_else(
            pc.equal(lang, "en"), pa.scalar(0, pa.int8()), pa.scalar(1, pa.int8())
        )
        return pa.table({"text": b["text"], "side": side})

    return word_drift_chi2(
        ds.map_batches(add_side, batch_format="pyarrow"), top_k=200
    )


def q_url_domain_cap(sf_dir: str):
    """Per-domain quota (stages.mixing.cap_per_key — C4/FineWeb "at
    most k pages per host"): keep the 3 lowest-doc_id documents per
    registered domain. Thin (doc_id, regdom) rows ride one keyed
    exchange; the oracle is the same cap via QUALIFY row_number()."""
    from ..functions.url import parse_urls
    from ..stages.mixing import cap_per_key

    def thin(b: pa.Table) -> pa.Table:
        p = parse_urls(b["url"])
        return pa.table({"doc_id": b["doc_id"], "regdom": p["regdom"]})

    ds = _with_urls(sf_dir).map_batches(thin, batch_format="pyarrow")
    return cap_per_key(ds, "regdom", ["doc_id"], 3)


def q_html_extract(sf_dir: str):
    """HTML → text extraction (functions.html — the web-corpus step
    UPSTREAM of the reference, FineWeb arXiv:2406.17557 §3.1): strip
    script/style/comment blocks, drop tags, decode entities, collapse
    whitespace — one fused zero-shuffle map_batches pass of vectorized
    RE2 kernels. The html column is derived (tables carry none);
    construction is mirrored in the oracle CTE and the extraction chain
    is re-run by the oracle as the identical regexp_replace sequence."""
    from ..functions.html import build_html, extract_docs

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source", "text"])

    def f(b: pa.Table) -> pa.Table:
        return extract_docs(b.append_column("html", build_html(b)))

    return ds.map_batches(f, batch_format="pyarrow")


def q_index_lookup(sf_dir: str):
    """Inverted-index build + file-pruned term lookup
    (stages.invindex): postings persisted once as a hash-partitioned
    Parquet artifact, then three probe terms answered by reading only
    the partitions they hash into. The oracle recomputes the same
    postings from the raw table."""
    from ..stages.invindex import build_inverted_index, lookup_terms

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    with _run_dir("fw2_invindex_") as path:
        build_inverted_index(ds, path, n_parts=16)
        return lookup_terms(path, ["window", "join", "scan"])


def q_index_search_bool(sf_dir: str):
    """Boolean search over the persisted inverted index (round-5):
    docs with 'filter' AND 'join', at least one of {'merge','stream'},
    and NOT 'customer' — posting-list set kernels over pruned
    partition reads (stages.invindex.search_boolean). tf_sum counts
    occurrences of the present positive terms; oracle recomputes from
    the raw text with list_filter."""
    from ..stages.invindex import build_inverted_index, search_boolean

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    with _run_dir("fw2_invindex_") as path:
        build_inverted_index(ds, path, n_parts=16)
        return search_boolean(
            path,
            must=["filter", "join"],
            should=["merge", "stream"],
            must_not=["customer"],
        )


def q_lang_regression(sf_dir: str):
    """Per-language OLS of space-word count on character length
    (grouped sufficient-stats regression, stages.analysis
    .grouped_regression): thin 7-number partials per (batch, group),
    exact integer driver fold, one fixed closed form — bit-equal to the
    oracle's HUGEINT-sum expressions."""
    from ..stages.analysis import grouped_regression

    ds = _read(sf_dir, "documents", ["lang", "n_chars", "text"]).map_batches(
        doc_stats, batch_format="pyarrow"
    )
    return grouped_regression(ds, "lang", "n_chars", "n_space_words")


def q_doc_compress_ratio(sf_dir: str):
    """Compression-ratio quality signal (functions.compressq):
    zlib-DEFLATE bytes per raw utf-8 byte, one zero-shuffle pass.
    Rows-only in the gate (SQL cannot zlib); values pinned by pytest
    against direct zlib calls."""
    from ..functions.compressq import compress_ratio_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(compress_ratio_batch, batch_format="pyarrow")


def _with_linked_html(sf_dir: str) -> ray.data.Dataset:
    """documents + derived html-with-nav column (build_html + build_nav;
    both constructions mirrored in the link-query oracle CTE)."""
    from ..functions.html import build_html, build_nav

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source", "text"])

    def add(b: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        html = _pc.binary_join_element_wise(build_html(b), build_nav(b), "")
        return pa.table({"doc_id": b["doc_id"], "html": html})

    return ds.map_batches(add, batch_format="pyarrow")


def q_html_links(sf_dir: str):
    """All-matches link extraction (functions.html.extract_links): every
    href="..." per document via split + offset-mask + prefix-to-quote —
    the vectorized equivalent of regexp_extract_all, which the oracle
    runs directly. Unclosed hrefs extracted by neither."""
    from ..functions.html import extract_links

    return _with_linked_html(sf_dir).map_batches(
        extract_links, batch_format="pyarrow"
    )


def q_link_hosts(sf_dir: str):
    """Per-host inlink counts over the extracted link graph (the
    PageRank/domain-curation input): thin (host) partial counts per
    batch, one keyed exchange sum; links without an absolute
    scheme://host (mailto, malformed) are excluded on both sides."""
    from ..functions.html import extract_links

    def hosts(b: pa.Table) -> pa.Table:
        links = extract_links(b)
        st = pc.extract_regex(
            links["href"].combine_chunks()
            if isinstance(links["href"], pa.ChunkedArray)
            else links["href"],
            r"^[a-z]+://(?P<h>[^/]+)",
        )
        host = pc.struct_field(st, "h")
        return pa.table({"host": host}).filter(pc.is_valid(host))

    return exchange_aggregate(
        _with_linked_html(sf_dir).map_batches(hosts, batch_format="pyarrow"),
        "host",
        [(None, "size", "n_links")],
        out_schema=pa.schema([("host", pa.string()), ("n_links", pa.int64())]),
    )


def q_bucket_join_orders(sf_dir: str):
    """Bucketed-layout join (stages.bucketed): customer and orders are
    first PERSISTED bucketed by their join key (crc32 of the key's
    string form, the engine-pinned partitioner), then joined with ZERO
    exchange — one independent task per bucket pair, local Arrow hash
    join inside. The oracle is the plain equality join; equality proves
    the co-location invariant end to end."""
    import os

    from ..stages.bucketed import bucket_join, write_bucketed

    with _run_dir("fw2_bucketed_") as d:
        pa_dir, pb_dir = os.path.join(d, "cust"), os.path.join(d, "ord")
        write_bucketed(
            _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"]),
            pa_dir,
            key="c_custkey",
            n_buckets=16,
        )
        write_bucketed(
            _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]),
            pb_dir,
            key="o_custkey",
            n_buckets=16,
        )
        return bucket_join(pa_dir, pb_dir, join_type="inner").materialize()


def q_script_census(sf_dir: str):
    """Unicode-script census + dominant-script ratio (functions.script
    — FineWeb-2's script-consistency gate): one RE2 count kernel per
    script class, zero shuffle; argmax with first-in-order tie-break
    and a single exact-int float division, both mirrored in the
    oracle."""
    from ..functions.script import script_census

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(script_census, batch_format="pyarrow")


def q_bucket_agg_orders(sf_dir: str):
    """Zero-exchange grouped aggregation over the persisted bucketed
    orders table (stages.bucketed.bucket_map_groups): per-customer
    order count + exact integer-cents revenue, one task per bucket, no
    shuffle — the layout from q_bucket_join_orders reused by a second
    job, which is the whole point of bucketing."""
    from ..stages.bucketed import bucket_map_groups, write_bucketed

    out_schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("n_orders", pa.int64()),
            ("sum_cents", pa.int64()),
        ]
    )

    def agg(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100.0)), pa.int64())
        return aggregate_table(
            pa.table({"o_custkey": t["o_custkey"], "cents": cents}),
            ["o_custkey"],
            [(None, "size", "n_orders"), ("cents", "sum", "sum_cents")],
        ).cast(out_schema)

    with _run_dir("fw2_bucketed_") as pb_dir:
        write_bucketed(
            _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]),
            pb_dir,
            key="o_custkey",
            n_buckets=16,
        )
        return bucket_map_groups(pb_dir, agg, out_schema=out_schema).materialize()


def q_expectations(sf_dir: str):
    """Data-quality expectations report (stages.expectations — the
    Deequ-style publish gate): null-fraction / uniqueness / range /
    referential-integrity checks as thin integer partials (one shared
    scan + one thin exchange for uniqueness + a broadcast distinct set
    for the FK), each metric a count or one fixed float division —
    mirrored by the oracle as UNION ALL of the same SQL expressions."""
    from ..stages.expectations import (
        foreign_key,
        in_range,
        not_null,
        unique,
        validate,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    orders = _read(sf_dir, "orders", ["o_custkey"])
    customer = _read(sf_dir, "customer", ["c_custkey"])
    rep1 = validate(
        docs,
        [not_null("text", 0.0), unique("doc_id"), in_range("n_chars", 0, 100000)],
    )
    rep2 = validate(orders, [foreign_key("o_custkey", customer, "c_custkey")])
    import pandas as pd

    return pd.concat([rep1, rep2], ignore_index=True)


def q_apply_changeset(sf_dir: str):
    """MERGE INTO (stages.versioning.apply_changeset — the write side
    of snapshot_diff): a derived changeset (delete every 7th doc,
    upsert ' v2' text for every 5th, insert shifted new ids for every
    11th) applied through one keyed exchange; the oracle is the same
    merge as a FULL OUTER JOIN + CASE."""
    from ..stages.versioning import apply_changeset

    base = _read(sf_dir, "documents", ["doc_id", "text"])

    def make_changes(b: pa.Table) -> pa.Table:
        did = b["doc_id"]
        if isinstance(did, pa.ChunkedArray):
            did = did.combine_chunks()
        txt = b["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        m7 = pc.equal(pc.subtract(did, pc.multiply(pc.divide(did, 7), 7)), 0)
        m5 = pc.equal(pc.subtract(did, pc.multiply(pc.divide(did, 5), 5)), 0)
        m11 = pc.equal(pc.subtract(did, pc.multiply(pc.divide(did, 11), 11)), 0)
        del_t = pa.table(
            {"doc_id": did, "text": txt, "op": pa.array(["delete"] * len(did))}
        ).filter(m7)
        up_t = pa.table(
            {
                "doc_id": did,
                "text": pc.binary_join_element_wise(txt, " v2", ""),
                "op": pa.array(["upsert"] * len(did)),
            }
        ).filter(pc.and_(m5, pc.invert(m7)))
        ins_t = pa.table(
            {
                "doc_id": pc.add(did, 1000000),
                "text": pa.array(["new doc"] * len(did)),
                "op": pa.array(["upsert"] * len(did)),
            }
        ).filter(m11)
        return pa.concat_tables([del_t, up_t, ins_t])

    changes = base.map_batches(make_changes, batch_format="pyarrow")
    return apply_changeset(base, changes, key="doc_id")


def q_url_canonical_dedup(sf_dir: str):
    """URL canonicalization + canonical-group dedup (the FineWeb URL
    dedup normalize, functions.url.canonicalize_urls): scheme / www /
    default-port / query / trailing-slash variants collapse to one
    canonical key; per-group (n_docs, keep_id=min doc_id) via thin
    per-batch partials + one keyed exchange. Input URLs are derived to
    collide (build_colliding_urls), construction mirrored in the
    oracle CTE; the canonicalization chain re-run by the oracle."""
    from ..functions.url import build_colliding_urls, canonicalize_urls

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def canonical(b: pa.Table) -> pa.Table:
        canon = canonicalize_urls(build_colliding_urls(b))
        return _valid(pa.table({"canon_url": canon, "doc_id": b["doc_id"]}), "canon_url")

    out_schema = pa.schema(
        [("canon_url", pa.string()), ("n_docs", pa.int64()), ("keep_id", pa.int64())]
    )
    return exchange_aggregate(
        ds.map_batches(canonical, batch_format="pyarrow"),
        "canon_url",
        [(None, "size", "n_docs"), ("doc_id", "min", "keep_id")],
        out_schema=out_schema,
    )


def q_nation_cogroup(sf_dir: str):
    """3-way cogroup (stages.joins.cogroup): nation + supplier +
    customer co-located by nation key through ONE exchange, per-nation
    supplier/customer counts computed key-complete — the N-way
    join/aggregate without pairwise shuffles. Oracle: nation LEFT JOIN
    two grouped counts."""
    from ..stages.joins import cogroup

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"])
    supplier = _read(sf_dir, "supplier", ["s_nationkey", "s_suppkey"])
    customer = _read(sf_dir, "customer", ["c_nationkey", "c_custkey"])
    out_schema = pa.schema(
        [
            ("n_nationkey", pa.int64()),
            ("n_name", pa.string()),
            ("n_suppliers", pa.int64()),
            ("n_customers", pa.int64()),
        ]
    )

    def per_part(t: pa.Table) -> pa.Table:
        t, starts = sorted_runs(t, ["k"], [("__side", "ascending")])
        side, rid, n = t["__side"].to_numpy(), run_ids(starts), len(starts) - 1
        first = t.take(pa.array(starts[:-1]))
        out = pa.table(
            {
                "n_nationkey": first["k"],
                "n_name": first["s0_n_name"],
                "n_suppliers": np.bincount(rid[side == 1], minlength=n),
                "n_customers": np.bincount(rid[side == 2], minlength=n),
            }
        )
        # a key without a nation row is dropped: mirrors FROM nation
        return out.filter(pa.array(side[starts[:-1]] == 0))

    return cogroup(
        [(nation, "n_nationkey"), (supplier, "s_nationkey"), (customer, "c_nationkey")],
        per_part,
        out_schema=out_schema,
    )


def q_domain_quality_filter(sf_dir: str):
    """Domain-level quality gating (RefinedWeb/FineWeb-style: score the
    DOMAIN, then keep/drop its documents): per-registered-domain doc
    count + total chars via thin partials + one keyed exchange, the
    qualifying-domain rule evaluated in EXACT INTEGER arithmetic
    (sum_chars >= 300 * n_docs — no float avg), qualifying set
    broadcast back over a second streamed pass. Docs never shuffle.
    Output: kept (doc_id, regdom)."""
    import ray as _ray

    from ..functions.url import parse_urls

    def thin(b: pa.Table) -> pa.Table:
        p = parse_urls(b["url"])
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "regdom": p["regdom"],
                "n_chars": b["n_chars"],
            }
        )

    from ..functions.url import build_urls

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])

    def add(b: pa.Table) -> pa.Table:
        return b.append_column("url", build_urls(b))

    thin_ds = ds.map_batches(add, batch_format="pyarrow").map_batches(
        thin, batch_format="pyarrow"
    )

    dom = exchange_aggregate(
        thin_ds, "regdom", [(None, "size", "pn"), ("n_chars", "sum", "ps")]
    ).to_pandas()
    vals = (
        sorted(dom.loc[dom["ps"] >= 300 * dom["pn"], "regdom"].dropna())
        if "regdom" in dom.columns
        else []
    )
    good_ref = _ray.put(pa.array(vals, pa.string()))

    def keep(b: pa.Table) -> pa.Table:
        ref = _ray.get(good_ref)
        rd = b["regdom"]
        if isinstance(rd, pa.ChunkedArray):
            rd = rd.combine_chunks()
        mask = pc.fill_null(pc.is_in(rd, ref), False)
        return b.select(["doc_id", "regdom"]).filter(mask)

    return thin_ds.map_batches(keep, batch_format="pyarrow")


def q_lang_top_words(sf_dir: str):
    """Exact top-10 words per language (grouped heavy-hitter shape,
    stages.analysis.grouped_top_words): two thin exchanges, sound
    partition-local pre-select, (n DESC, word ASC) tie-break — the
    oracle is the same QUALIFY row_number() rule."""
    from ..stages.analysis import grouped_top_words

    ds = _read(sf_dir, "documents", ["lang", "text"])
    return grouped_top_words(ds, "lang", "text", k=10)


def q_orders_dynamic_prune(sf_dir: str):
    """Dynamic partition pruning (the optimizer's semi-join pushdown):
    the SMALL side (AUTOMOBILE-segment customer keys) is computed
    first, then pushed INTO the orders parquet scan as an ``isin``
    dataset filter — row groups whose o_custkey statistics miss the set
    never leave storage, surviving groups are row-filtered before any
    block enters the object store. The big side never carries
    non-qualifying rows at all. Oracle: the plain semi join."""
    import pyarrow.dataset as pds

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def seg(b: pa.Table) -> pa.Table:
        m = pc.equal(b["c_mktsegment"], "AUTOMOBILE")
        return b.filter(m).select(["c_custkey"])

    keys = sorted(
        cust.map_batches(seg, batch_format="pyarrow").to_pandas()["c_custkey"]
    )
    ds = _read(
        sf_dir,
        "orders",
        ["o_orderkey", "o_custkey", "o_totalprice"],
        filter=pds.field("o_custkey").isin(keys),
    )
    return ds


def q_matview_refresh(sf_dir: str):
    """Incremental materialized-view maintenance (stages.matview): a
    persisted docs-per-language counts view is built from the base
    corpus, then REFRESHED with the changeset's per-key deltas (−1 per
    deleted doc, +1 per inserted doc) — O(|delta|) work, untouched
    partitions never read. The oracle recomputes the view from the
    merged corpus; equality proves refresh ≡ rebuild."""
    from ..stages.matview import (
        build_counts_view,
        read_counts_view,
        refresh_counts_view,
    )

    base = _read(sf_dir, "documents", ["doc_id", "lang"])

    def deltas(b: pa.Table) -> pa.Table:
        did = b["doc_id"]
        if isinstance(did, pa.ChunkedArray):
            did = did.combine_chunks()
        lang = b["lang"]
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()

        def mod(k: int):
            return pc.equal(
                pc.subtract(did, pc.multiply(pc.divide(did, k), k)), 0
            )

        dels = pa.table(
            {"key": lang, "dn": pa.array([-1] * len(did), pa.int64())}
        ).filter(mod(7))
        ins = pa.table(
            {"key": lang, "dn": pa.array([1] * len(did), pa.int64())}
        ).filter(mod(11))
        return pa.concat_tables([dels, ins])

    with _run_dir("fw2_matview_") as path:
        build_counts_view(base, path, "lang", n_parts=8)
        refresh_counts_view(path, base.map_batches(deltas, batch_format="pyarrow"))
        out = read_counts_view(path)
    return pa.table({"lang": out["key"], "n": out["n"]})


def q_csv_roundtrip(sf_dir: str):
    """CSV interchange round-trip (sources.io.read_csv_shards /
    write_csv_shards): documents → CSV shards (RFC-4180 quoting across
    embedded commas/quotes/newlines) → read back with pinned types.
    The oracle is the original table — byte-faithful round-trip is the
    claim."""
    from ..sources.io import read_csv_shards, write_csv_shards

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text", "n_chars"])
    with _run_dir("fw2_csv_") as out:
        write_csv_shards(ds, out)
        return read_csv_shards(
            out, column_types={"doc_id": pa.int64(), "n_chars": pa.int64()}
        ).materialize()


def q_doc_readability(sf_dir: str):
    """Flesch-reading-ease heuristic per doc (the classic readability
    quality signal): words = single-space tokens, sentences = [.!?]+
    runs (min 1), syllables ≈ vowel-group runs — each an RE2 count
    kernel; the score is ONE fixed IEEE expression over exact integer
    counts (206.835 − 1.015·w/s − 84.6·syl/w), mirrored in the oracle.
    NULL/wordless text → NULL score."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(b: pa.Table) -> pa.Table:
        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        null_mask = pc.is_null(text)
        filled = pc.fill_null(text, "")
        words = pc.list_value_length(pc.split_pattern(filled, " ")).cast(pa.int64())
        sent = pc.count_substring_regex(filled, r"[.!?]+").cast(pa.int64())
        syl = pc.count_substring_regex(filled, r"[aeiouyAEIOUY]+").cast(pa.int64())
        w = words.to_numpy(zero_copy_only=False).astype("int64")
        s = np.maximum(sent.to_numpy(zero_copy_only=False).astype("int64"), 1)
        y = syl.to_numpy(zero_copy_only=False).astype("int64")
        nulls = null_mask.to_numpy(zero_copy_only=False)
        ok = (~nulls) & (w > 0)
        score = np.where(
            ok, 206.835 - 1.015 * (w / np.maximum(s, 1)) - 84.6 * (y / np.maximum(w, 1)), np.nan
        )
        ni = pa.scalar(None, pa.int64())
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_words": pc.if_else(null_mask, ni, words),
                "n_sentences": pc.if_else(null_mask, ni, sent),
                "n_syllables": pc.if_else(null_mask, ni, syl),
                "flesch": pc.if_else(
                    pa.array(~ok), pa.scalar(None, pa.float64()), pa.array(score)
                ),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def q_ipc_roundtrip(sf_dir: str):
    """Arrow IPC (Feather v2) interchange round-trip
    (sources.io.write_ipc_shards / read_ipc_shards): documents → IPC
    shards written in-task → file-parallel decode. Oracle = original
    table; byte-faithful round-trip is the claim."""
    from ..sources.io import read_ipc_shards, write_ipc_shards

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text", "n_chars"])
    with _run_dir("fw2_ipc_") as out:
        write_ipc_shards(ds, out)
        return read_ipc_shards(out).materialize()


def q_events_asof_forward(sf_dir: str):
    """Forward as-of join (stages.joins.asof_join direction="forward"):
    each click event matched to the same user's EARLIEST purchase at or
    after the click — the other half of the as-of family (the backward
    direction is events_asof_orders). Tie-proof output: matched
    purchase ts, not event id."""
    from ..stages.joins import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    clicks = ev.filter(expr="event_type == 'click'").select_columns(
        ["event_id", "user_id", "ts"]
    )

    def purchases_only(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], "purchase"))
        return pa.table({"p_user": t["user_id"], "p_ts": t["ts"]})

    purchases = ev.map_batches(purchases_only, batch_format="pyarrow")
    joined = asof_join(
        clicks,
        purchases,
        key="user_id",
        right_key="p_user",
        left_ts="ts",
        right_ts="p_ts",
        direction="forward",
    )

    def fmt(b: pa.Table) -> pa.Table:
        return pa.table({"event_id": b["event_id"], "purchase_ts": b["p_ts"]})

    return joined.map_batches(fmt, batch_format="pyarrow")


def q_doc_ttr(sf_dir: str):
    """Type-token ratio per doc (lexical-diversity quality signal):
    distinct words / words, the distinct count via the same composite
    (row, word)-code np.unique kernel as the inverted-index postings —
    zero shuffle, one float division of exact ints. NULL text → NULL;
    empty text has ONE empty token (string_split convention), TTR 1."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(b: pa.Table) -> pa.Table:
        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        null_mask = pc.is_null(text)
        filled = pc.fill_null(text, "")
        words = pc.split_pattern(filled, " ")
        n_words = pc.list_value_length(words).cast(pa.int64())
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        dic = flat.dictionary_encode()
        idx = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = max(len(dic.dictionary), 1)
        uniq = np.unique(parent * k + idx)
        n_distinct = np.bincount(
            (uniq // k).astype(np.int64), minlength=b.num_rows
        ).astype(np.int64)
        nw = n_words.to_numpy(zero_copy_only=False)
        nulls = null_mask.to_numpy(zero_copy_only=False)
        ttr = np.where(nw > 0, n_distinct / np.maximum(nw, 1), np.nan)
        ni = pa.scalar(None, pa.int64())
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_words": pc.if_else(null_mask, ni, n_words),
                "n_distinct": pc.if_else(
                    null_mask, ni, pa.array(n_distinct)
                ),
                "ttr": pc.if_else(
                    pc.or_(null_mask, pa.array(nw == 0)),
                    pa.scalar(None, pa.float64()),
                    pa.array(ttr),
                ),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def q_doc_code_switch(sf_dir: str):
    """Per-line language-ID / code-switch detection (the CCNet
    per-paragraph LID shape, arXiv:1911.00359 §4.2): each doc's lines
    run through the frozen LID independently (explode via
    list_parent_indices, ONE lang_id_batch call per batch — no per-line
    Python), then per-doc fold: dominant line language, fraction of
    lines agreeing with it, and a code_switch flag (< 0.8 agreement).
    Rows-only: the frozen-lexicon LID is not SQL; values are pinned by
    the LID golden tests + this query's deterministic fold."""
    from ..functions.lid import lang_id_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(b: pa.Table) -> pa.Table:
        import pandas as pd

        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        filled = pc.fill_null(text, "")
        lines = pc.split_pattern(filled, "\n")
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
        scored = lang_id_batch(pa.table({"text": flat}))
        df = pd.DataFrame(
            {
                "row": parent,
                "lang": scored["lang"].to_pandas(),
            }
        )
        # dominant line lang per row with (count desc, lang asc) tie-break
        cnt = (
            df.groupby(["row", "lang"]).size().reset_index(name="n")
            .sort_values(["row", "n", "lang"], ascending=[True, False, True])
        )
        top = cnt.groupby("row", as_index=False).first()
        tot = df.groupby("row", as_index=False).size()
        m = top.merge(tot, on="row")
        n_rows = b.num_rows
        main = np.full(n_rows, None, dtype=object)
        frac = np.full(n_rows, np.nan)
        main[m["row"].to_numpy()] = m["lang"].to_numpy()
        frac[m["row"].to_numpy()] = m["n"].to_numpy() / m["size"].to_numpy()
        nulls = pc.is_null(text).to_numpy(zero_copy_only=False)
        ok = ~nulls
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "main_line_lang": pa.array(
                    [main[i] if ok[i] else None for i in range(n_rows)],
                    pa.string(),
                ),
                "line_agreement": pc.if_else(
                    pa.array(~ok),
                    pa.scalar(None, pa.float64()),
                    pa.array(frac),
                ),
                "code_switch": pc.if_else(
                    pa.array(~ok),
                    pa.scalar(None, pa.bool_()),
                    pa.array(frac < 0.8),
                ),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def q_events_pseudonymized(sf_dir: str):
    """Pseudonymized event log (functions.privacy.pseudonymize): user
    ids → stable keyed md5 tokens; longitudinal joins survive, raw ids
    don't ship. Oracle: md5(salt || id) in SQL."""
    from ..functions.privacy import pseudonymize

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def f(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": b["event_id"],
                "user_token": pseudonymize(b["user_id"], "fw2salt:"),
                "event_type": b["event_type"],
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def q_k_anonymity(sf_dir: str):
    """k-anonymity audit (functions.privacy.k_anonymity_report) on the
    (lang, source) quasi-identifier pair over documents, k=5: the
    under-k groups a release must suppress. Oracle: GROUP BY HAVING."""
    from ..functions.privacy import k_anonymity_report

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return k_anonymity_report(ds, ["lang", "source"], k=5)


def q_nchars_grouped_sketch(sf_dir: str):
    """Per-language approximate percentiles of n_chars via the
    mergeable ε-summary (stages.sketches.grouped_quantile_sketch) —
    the 100-TB path beside the exact grouped percentiles. Rows-only:
    rank error ≤ 2/m is pytest-pinned against the exact answer."""
    from ..stages.sketches import grouped_quantile_sketch

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return grouped_quantile_sketch(ds, "lang", "n_chars", [25.0, 50.0, 90.0])


def q_corpus_profile(sf_dir: str):
    """One-stop corpus profile (the publish-time dashboard the
    expectations gate feeds): doc/lang/source cardinalities, total and
    mean length, null-text and duplicate-text counts — every metric a
    count, an exact-int sum, or ONE float division. Distinct-text dups
    ride a THIN (fingerprint, n) exchange (the snapshot_diff 64-bit
    content hash; collision trade documented there — the oracle
    compares real text, so a collision surfaces as a gate mismatch);
    lang/source sets are tiny and fold on the driver; raw text never
    leaves the scan."""
    import pandas as pd

    from ..stages.versioning import content_fingerprint

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source", "text", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        return pa.table(
            {
                "n": pa.array([b.num_rows], pa.int64()),
                "nulls": pa.array(
                    [pc.sum(pc.is_null(text).cast(pa.int64())).as_py() or 0],
                    pa.int64(),
                ),
                "chars": pa.array(
                    [pc.sum(b["n_chars"]).as_py() or 0], pa.int64()
                ),
                "langs": pa.array([b["lang"].to_pandas().dropna().unique().tolist()]),
                "sources": pa.array(
                    [b["source"].to_pandas().dropna().unique().tolist()]
                ),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    # an all-empty corpus produces zero partial blocks -> column-less df
    empty = "n" not in parts.columns
    n = 0 if empty else int(parts["n"].sum())
    nulls = 0 if empty else int(parts["nulls"].sum())
    chars = 0 if empty else int(parts["chars"].sum())
    langs: set = set()
    sources: set = set()
    if not empty:
        for row in parts.itertuples(index=False):
            langs.update(row.langs)
            sources.update(row.sources)

    # duplicate texts: thin (fp, n) partials -> one keyed exchange ->
    # per-partition extra = sum(n-1); only ONE int returns per partition
    def fp_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["text"]))
        if t.num_rows == 0:
            return pa.table({"fp": pa.array([], pa.string()), "pn": pa.array([], pa.int64())})
        fp = content_fingerprint(t, ["text"])
        uniq, cnt = np.unique(fp, return_counts=True)
        return pa.table(
            {
                "fp": pa.array([str(u) for u in uniq], pa.string()),
                "pn": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def extra_part(t: pa.Table) -> pa.Table:
        n = aggregate_table(t, ["fp"], [("pn", "sum", "pn")])["pn"].to_numpy()
        return pa.table({"extra": [int(np.clip(n - 1, 0, None).sum())]})

    out_schema = pa.schema([("extra", pa.int64())])
    dup_texts = int(
        hash_exchange_map_groups(
            ds.map_batches(fp_partial, batch_format="pyarrow"),
            extra_part,
            key="fp",
            out_schema=out_schema,
        ).sum("extra")
        or 0
    )
    rows = [
        ("dup_texts", float(dup_texts)),
        ("mean_chars", float(chars) / float(n) if n else float("nan")),
        ("n_docs", float(n)),
        ("n_langs", float(len(langs))),
        ("n_sources", float(len(sources))),
        ("null_texts", float(nulls)),
        ("total_chars", float(chars)),
    ]
    return pd.DataFrame(rows, columns=["metric", "value"])


def q_nchars_zscore_by_lang(sf_dir: str):
    """Per-group feature normalization (the ML-preprocessing staple):
    z-score n_chars within each language. Two passes — per-group exact
    integer (n, Σx, Σx²) partials folded on the driver, the tiny
    (group → mean, std) map broadcast via closure into one streamed
    normalize pass. mean, std and z are each ONE fixed IEEE expression
    over exact ints (population std, the SQL mirror), so values are
    bit-equal to the oracle. Constant-x groups → NULL z."""
    import math

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        df = b.select(["lang", "n_chars"]).to_pandas()
        g = df.groupby("lang", as_index=False)["n_chars"].agg(
            n="size", sx="sum"
        )
        g["sxx"] = (
            df.assign(sq=df.n_chars.astype("int64") ** 2)
            .groupby("lang")["sq"]
            .sum()
            .to_numpy()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    acc: dict[str, list[int]] = {}
    for r in parts.itertuples(index=False):
        a = acc.setdefault(r.lang, [0, 0, 0])
        a[0] += int(r.n)
        a[1] += int(r.sx)
        a[2] += int(r.sxx)
    stats = {}
    for g, (n, sx, sxx) in acc.items():
        mean = float(sx) / float(n)
        var_num = n * sxx - sx * sx
        std = math.sqrt(float(var_num)) / float(n)
        stats[g] = (mean, std)

    def norm(b: pa.Table) -> pa.Table:
        import pandas as pd

        lang = b["lang"].to_pandas()
        x = b["n_chars"].to_numpy(zero_copy_only=False).astype("float64")
        mean = lang.map(lambda g: stats.get(g, (np.nan, np.nan))[0]).to_numpy()
        std = lang.map(lambda g: stats.get(g, (np.nan, np.nan))[1]).to_numpy()
        z = np.where(std > 0, (x - mean) / std, np.nan)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lang": b["lang"],
                "z": pc.if_else(
                    pa.array(~(std > 0)),
                    pa.scalar(None, pa.float64()),
                    pa.array(z),
                ),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


def q_lang_source_cube(sf_dir: str):
    """GROUP BY CUBE(lang, source) with GROUPING ids — the full
    grouping-sets lattice in ONE scan (unlike the rollup query's
    three-plan union): each batch emits its rows once per grouping set,
    and ``exchange_aggregate``'s map-side combine thins that to one
    (lang, source, gid) count per batch before the one keyed exchange. gid = GROUPING(lang)*2 + GROUPING(source), matching the SQL
    function."""
    ds = _read(sf_dir, "documents", ["lang", "source"])

    def grouping_sets(b: pa.Table) -> pa.Table:
        # every row once per grouping set: gid 1 nulls source, 2 lang, 3 both
        lang, src = b["lang"].cast(pa.string()), b["source"].cast(pa.string())
        none = pa.nulls(b.num_rows, pa.string())
        gid = [pa.array(np.full(b.num_rows, g, np.int64)) for g in range(4)]
        sets = [(lang, src), (lang, none), (none, src), (none, none)]
        return pa.concat_tables(
            pa.table({"lang": l, "source": s, "gid": g}) for (l, s), g in zip(sets, gid)
        )

    return exchange_aggregate(
        ds.map_batches(grouping_sets, batch_format="pyarrow"),
        ["lang", "source", "gid"],
        [(None, "size", "n")],
        out_schema=pa.schema(
            [
                ("lang", pa.string()),
                ("source", pa.string()),
                ("gid", pa.int64()),
                ("n", pa.int64()),
            ]
        ),
    )


def q_dedup_funnel(sf_dir: str):
    """The composed dedup funnel a real curation run reports: docs
    remaining after each stage — input → URL-canonical keep-min →
    exact-text dedup → min-length gate. Each stage reuses the engine
    operator (canonicalize_urls + thin keyed exchanges); the counts are
    folded into one (stage, n_docs) report. Oracle: the same funnel as
    chained CTEs."""
    import pandas as pd

    from ..functions.url import build_colliding_urls, canonicalize_urls
    from ..stages.versioning import content_fingerprint

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text", "n_chars"])

    def thin(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["text"]))
        fp = content_fingerprint(t, ["text"]) if t.num_rows else None
        fp_col = (
            pa.array([str(x) for x in fp], pa.string())
            if fp is not None
            else pa.array([], pa.string())
        )
        # re-attach canon for the filtered rows by re-deriving on t
        canon_t = canonicalize_urls(build_colliding_urls(t))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "canon": canon_t,
                "fp": fp_col,
                "n_chars": t["n_chars"],
            }
        )

    thin_ds = ds.map_batches(thin, batch_format="pyarrow")
    n_input = int(_read(sf_dir, "documents", ["doc_id"]).count())

    # stage 1: keep min doc_id per canonical url
    s1_schema = pa.schema(
        [("doc_id", pa.int64()), ("fp", pa.string()), ("n_chars", pa.int64())]
    )

    def keep_min(t: pa.Table, key: str, cols: list[str]) -> pa.Table:
        t, starts = sorted_runs(t, [key], [("doc_id", "ascending")])
        return t.take(pa.array(starts[:-1])).select(cols)

    def keep_min_canon(t: pa.Table) -> pa.Table:
        return keep_min(t, "canon", s1_schema.names)

    s1 = hash_exchange_map_groups(
        thin_ds, keep_min_canon, key="canon", out_schema=s1_schema
    )
    n_s1 = int(s1.count())

    # stage 2: keep min doc_id per exact text (among stage-1 survivors)
    s2_schema = pa.schema([("doc_id", pa.int64()), ("n_chars", pa.int64())])

    def keep_min_fp(t: pa.Table) -> pa.Table:
        return keep_min(t, "fp", s2_schema.names)

    s2 = hash_exchange_map_groups(s1, keep_min_fp, key="fp", out_schema=s2_schema)
    n_s2 = int(s2.count())

    # stage 3: length gate
    n_s3 = int(
        s2.map_batches(
            lambda t: t.filter(pc.greater_equal(t["n_chars"], 100)),
            batch_format="pyarrow",
        ).count()
    )
    return pd.DataFrame(
        [
            ("0_input", n_input),
            ("1_url_canonical", n_s1),
            ("2_exact_text", n_s2),
            ("3_min_length", n_s3),
        ],
        columns=["stage", "n_docs"],
    ).astype({"n_docs": "int64"})


def q_events_overlap_join(sf_dir: str):
    """Interval-overlap join (stages.joins.interval_overlap_join — the
    interval×interval sibling of the point-in-interval range join):
    every (click, purchase) pair of the same user whose 30-minute
    activity windows intersect. Oracle: the plain overlap-predicate
    join."""
    from ..stages.joins import interval_overlap_join

    W = 30 * 60 * 1_000_000  # 30 min in µs

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def prep(kind: str, prefix: str):
        def f(b: pa.Table) -> pa.Table:
            t = b.filter(pc.equal(b["event_type"], kind))
            ts = pc.cast(t["ts"], pa.int64())
            return pa.table(
                {
                    f"{prefix}id": t["event_id"],
                    f"{prefix}user": t["user_id"],
                    f"{prefix}s": ts,
                    f"{prefix}e": pc.add(ts, W),
                }
            )

        return f

    clicks = ev.map_batches(prep("click", "c_"), batch_format="pyarrow")
    purch = ev.map_batches(prep("purchase", "p_"), batch_format="pyarrow")
    joined = interval_overlap_join(
        clicks,
        purch,
        key="c_user",
        right_key="p_user",
        left_start="c_s",
        left_end="c_e",
        right_start="p_s",
        right_end="p_e",
    )

    def fmt(b: pa.Table) -> pa.Table:
        return pa.table({"click_id": b["c_id"], "purchase_id": b["p_id"]})

    return joined.map_batches(fmt, batch_format="pyarrow")


def q_doc_tree_depths(sf_dir: str):
    """Pointer-doubling tree depth (stages.graph.tree_depths — the
    LOG-round iterative shape next to pagerank's linear rounds): a
    derived forest over doc ids (parent = doc_id // 10, ids < 10 are
    roots) resolved in ⌈log2 64⌉ cogroup rounds. Oracle: recursive
    CTE walking the same chain."""
    from ..stages.graph import tree_depths

    ds = _read(sf_dir, "documents", ["doc_id"])

    def edges(b: pa.Table) -> pa.Table:
        d = b["doc_id"]
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        par = pc.if_else(pc.less(d, 10), d, pc.divide(d, 10))
        return pa.table({"node": d, "parent": par})

    out = tree_depths(
        ds.map_batches(edges, batch_format="pyarrow"), max_depth=64
    )

    def fmt(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["node"], "depth": b["depth"]})

    return out.map_batches(fmt, batch_format="pyarrow")
