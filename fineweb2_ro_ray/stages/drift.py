"""Word-distribution drift between two corpus slices — the monitoring
operator of a continuously-rebuilt pretraining corpus.

When a corpus is rebuilt per dump (the reference regenerates its corpus
from each FineWeb-2 snapshot, `/root/reference/fineweb/
fineweb2_download.py`), the first question after `snapshot_diff` is
*how the text itself moved*: which vocabulary items shifted between two
slices (old vs new dump, language A vs B, kept vs dropped). The
standard report is the per-word 2x2 chi-square contingency score
(word-vs-rest x slice-A-vs-B), ranked descending — the same statistic
feature-selection and drift-detection tooling uses.

Scale shape:

1. ONE map pass over the corpus: per batch, tokens are flattened
   (single-space split, matching SQL ``unnest(string_split(..,' '))``
   including empty tokens), the batch's slice-id is repeated per token
   via ``list_parent_indices``, and a dictionary-encode + two bincounts
   produce the batch's THIN ``(word, cnt_a, cnt_b)`` partial — raw text
   never enters the exchange;
2. one word-keyed hash exchange sums partials (vectorized pandas
   groupby per partition);
3. the merged table (vocabulary-sized — the one deliberate
   materialization, thin by construction) yields the two global totals
   as int64 Sum aggregates, and a final vectorized map computes chi2
   per word FROM EXACT INTEGER COUNTS in a fixed IEEE expression order,
   so the value is bit-reproducible against a SQL oracle evaluating the
   same expression (no transcendentals, no accumulation-order floats);
4. top-k by (chi2 DESC, word ASC) via Dataset.sort + limit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .exchange import exchange_aggregate

_EMPTY = pa.table(
    {
        "word": pa.array([], pa.string()),
        "cnt_a": pa.array([], pa.int64()),
        "cnt_b": pa.array([], pa.int64()),
    }
)


def word_side_partials(
    b: pa.Table, text_col: str, side_col: str
) -> pa.Table:
    """Per-batch (word, cnt_a, cnt_b) partial counts; side 0 -> cnt_a,
    anything else -> cnt_b. Null texts emit no tokens (string_split of
    NULL unnests to nothing)."""
    t = b.filter(pc.is_valid(b[text_col]))
    if t.num_rows == 0:
        return _EMPTY
    text = t[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern(text, " ")
    flat = pc.list_flatten(words)
    if len(flat) == 0:
        return _EMPTY
    parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    side = (
        t[side_col].combine_chunks()
        if isinstance(t[side_col], pa.ChunkedArray)
        else t[side_col]
    ).to_numpy(zero_copy_only=False)
    is_b = (side[parent] != 0).astype(np.int64)
    dic = flat.dictionary_encode()
    idx = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    k = len(dic.dictionary)
    cnt_b = np.bincount(idx, weights=is_b, minlength=k).astype(np.int64)
    cnt_all = np.bincount(idx, minlength=k).astype(np.int64)
    return pa.table(
        {
            "word": dic.dictionary,
            "cnt_a": pa.array(cnt_all - cnt_b, pa.int64()),
            "cnt_b": pa.array(cnt_b, pa.int64()),
        }
    )


def word_drift_chi2(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    side_col: str = "side",
    top_k: int | None = 200,
) -> ray.data.Dataset:
    """Rank vocabulary items by 2x2 chi-square drift between slice A
    (``side == 0``) and slice B (everything else). Output
    ``(word, cnt_a, cnt_b, chi2)``, top_k by (chi2 DESC, word ASC);
    ``top_k=None`` returns the full unsorted vocabulary table.

    chi2 = N*(o11*o22 - o12*o21)^2 / (r1*r2*ta*tb) with o11=cnt_a,
    o12=cnt_b, o21=ta-cnt_a, o22=tb-cnt_b — every term a float64 view
    of an exact integer, evaluated in one fixed expression order."""
    partials = ds.select_columns([text_col, side_col]).map_batches(
        lambda b: word_side_partials(b, text_col, side_col),
        batch_format="pyarrow",
    )

    # vocabulary-sized and thin; materialized ONCE because it feeds two
    # consumers (the totals aggregate and the chi2 map)
    merged = exchange_aggregate(
        partials, "word", [("cnt_a", "sum", "cnt_a"), ("cnt_b", "sum", "cnt_b")]
    ).materialize()
    tot = merged.sum(["cnt_a", "cnt_b"])
    ta = float(tot["sum(cnt_a)"])
    tb = float(tot["sum(cnt_b)"])

    def chi2(b: pa.Table) -> pa.Table:
        o11 = b["cnt_a"].to_numpy(zero_copy_only=False).astype(np.float64)
        o12 = b["cnt_b"].to_numpy(zero_copy_only=False).astype(np.float64)
        o21 = ta - o11
        o22 = tb - o12
        d = o11 * o22 - o12 * o21
        r1 = o11 + o12
        r2 = o21 + o22
        val = ((ta + tb) * d * d) / (r1 * r2 * ta * tb)
        return b.append_column("chi2", pa.array(val, pa.float64()))

    scored = merged.map_batches(chi2, batch_format="pyarrow")
    if top_k is None:
        return scored
    return scored.sort(["chi2", "word"], descending=[True, False]).limit(
        top_k
    )
