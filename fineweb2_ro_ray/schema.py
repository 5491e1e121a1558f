"""Arrow schemas for the transcript engine.

The reference's schema is implicit and accretes columns per stage
(SURVEY.md §1.2; e.g. ``/root/reference/ro_vs_eng/fineweb2_jql.py:23``
adds three score columns, ``small_model_inference/small_model_inference.py:77-93``
adds score/label columns). We make both edges explicit: the transcript
input schema (from BASELINE.json input_hint) and the labeled output
schema, while intermediate stages still accrete columns zero-copy via
``pyarrow.Table.append_column``.
"""

from __future__ import annotations

import pyarrow as pa

# Input: multi-turn conversation / agent transcripts.
TRANSCRIPT_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),  # user / assistant / tool / system
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),  # tool name or ""
        pa.field("ts", pa.timestamp("us")),
    ]
)

# Columns appended by the engine, in stage order: text statistics run
# first (their tokenization feeds LID), then LID, perplexity, scrub and
# the keep/drop decision. ``annotate`` emits exactly LABELED_SCHEMA.
RULE_COLUMNS = [
    pa.field("n_chars", pa.int64()),
    pa.field("n_words", pa.int64()),
    pa.field("n_lines", pa.int64()),
    pa.field("mean_word_len", pa.float64()),
    pa.field("max_word_len", pa.int64()),
    pa.field("stopword_ratio", pa.float64()),
    pa.field("symbol_ratio", pa.float64()),
    pa.field("dup_line_frac", pa.float64()),
]
LID_COLUMNS = [
    pa.field("lang", pa.string()),
    pa.field("lang_score", pa.float64()),
]
PPL_COLUMNS = [pa.field("ppl", pa.float64())]
SCRUB_COLUMNS = [
    pa.field("scrubbed_text", pa.string()),
    pa.field("pii_hits", pa.int32()),
    pa.field("tox_hits", pa.int32()),
]
DECIDE_COLUMNS = [
    pa.field("keep", pa.bool_()),
    pa.field("drop_reason", pa.string()),  # first failing rule name, "" if kept
]

LABELED_SCHEMA = pa.schema(
    list(TRANSCRIPT_SCHEMA)
    + RULE_COLUMNS
    + LID_COLUMNS
    + PPL_COLUMNS
    + SCRUB_COLUMNS
    + DECIDE_COLUMNS
)

# Conversation-level output of the reassembly stage.
CONVERSATION_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("n_turns", pa.int64()),
        pa.field("n_kept", pa.int64()),
        pa.field("conv_keep", pa.bool_()),  # conversation survives iff >=1 kept turn
        pa.field("text", pa.string()),  # kept turns' scrubbed_text joined in turn order
        pa.field("first_ts", pa.timestamp("us")),
        pa.field("last_ts", pa.timestamp("us")),
    ]
)


def from_pandas_clean(df, **kwargs) -> pa.Table:
    """``pa.Table.from_pandas`` WITHOUT the ``b'pandas'`` schema
    metadata. The metadata blob makes the Arrow schema unhashable in
    Ray's block-unification fast path (``set(schemas)`` →
    "Failed to hash the schemas" warnings in every reduce task) and
    serves no purpose inside an engine that pins dtypes explicitly."""
    t = pa.Table.from_pandas(df, preserve_index=False, **kwargs)
    return t.replace_schema_metadata(None)


def strip_metadata(t: pa.Table) -> pa.Table:
    """Zero-copy schema-metadata strip — applied at every Parquet read
    boundary (files written by pandas embed the ``b'pandas'`` blob in
    the file schema, which would otherwise taint every downstream
    block)."""
    return t.replace_schema_metadata(None)


def clean_parquet_schema(path: str | list[str], columns: list[str] | None = None) -> pa.Schema:
    """Metadata-free (projected) schema of the first Parquet file of a
    file, dataset dir or list (:func:`.sources.rowgroups.list_parquet`),
    for ``read_parquet(schema=...)`` and the row-group reader. Passing
    a clean schema at the READ keeps the b'pandas' blob out of Ray's
    fused ReadParquet operator itself — the one place a post-read
    ``strip_metadata`` map can't reach (its SplitBlocks
    schema-unification hashes the FILE schema and warns "Failed to hash
    the schemas" on the unhashable pandas dict). One driver-side footer
    read; no data pages touched."""
    import pyarrow.parquet as pq

    from .sources.rowgroups import list_parquet

    files = list_parquet(path)
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    s = pq.read_schema(files[0])
    fields = columns if columns is not None else s.names
    return pa.schema([s.field(c).remove_metadata() for c in fields])


def hash_key_u64(col) -> "np.ndarray":
    """Dtype-CANONICAL 64-bit key hash for partition assignment: equal
    logical keys hash identically regardless of physical representation
    — int32 vs int64 across sides, or the float64 upcast a
    null-containing batch picks up through pandas (round-3 review: a
    raw ``pd.util.hash_array`` over mixed representations silently
    scattered equal keys across partitions, dropping join matches).

    Integers / booleans / temporals are cast to int64 ARROW-side (nulls
    preserved — never a float round-trip) and mixed with splitmix64;
    floats are canonicalized to float64 bit views; everything else goes
    through ``pd.util.hash_array`` on the object form. Null keys all
    receive one fixed sentinel hash."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_dictionary(t):
        col = col.dictionary_decode()
        t = col.type
    null_mask = pc.is_null(col).to_numpy(zero_copy_only=False)

    def _splitmix64(v: "np.ndarray") -> "np.ndarray":
        with np.errstate(over="ignore"):
            z = v + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

    if (
        pa.types.is_integer(t)
        or pa.types.is_boolean(t)
        or pa.types.is_temporal(t)
    ):
        # unsigned stays unsigned: a uint64 above 2^63 (e.g. an LSH
        # bucket hash) would overflow an int64 cast; values
        # representable in BOTH widths hash identically either way
        # (the canonical form is the two's-complement uint64 pattern
        # of the logical value, and int64->uint64 is a bit reinterpret)
        wide = pa.uint64() if pa.types.is_unsigned_integer(t) else pa.int64()
        v = (
            pc.fill_null(col.cast(wide), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.uint64)
        )
        h = _splitmix64(v)
    elif pa.types.is_floating(t):
        v = pc.fill_null(col.cast(pa.float64()), 0.0).to_numpy(
            zero_copy_only=False
        )
        v = np.ascontiguousarray(v)
        # integral float64 values canonicalize to the INT hash: a key
        # batch that upcast int64->float64 through pandas null padding
        # must hash like its int-typed siblings (the motivating case)
        with np.errstate(invalid="ignore"):
            is_int = (v == np.floor(v)) & (np.abs(v) < 2**63)
        h = _splitmix64(v.view(np.uint64))
        if is_int.any():
            h_int = _splitmix64(v[is_int].astype(np.int64).astype(np.uint64))
            h[is_int] = h_int
    else:
        obj = col.to_pandas().to_numpy()
        h = pd.util.hash_array(obj, categorize=False).astype(np.uint64)
    h[null_mask] = np.uint64(0x9E3779B97F4A7C15)
    return h
