"""Empty-corpus hardening: every listed parity query must run on a
ZERO-ROW documents table without raising (the classic production crash
— an empty shard, a fully-filtered partition). Queries must return a
well-defined (usually empty) result; aggregates return their empty
identities. This sweep caught the domain_quality_filter empty-column
pull the day it was written."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import fineweb2_ro_ray.pipelines.parity as P

DOC_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("n_chars", pa.int64()),
    ]
)


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_sf")
    pq.write_table(DOC_SCHEMA.empty_table(), os.path.join(str(d), "documents.parquet"))
    return str(d)


# (query, expected row count or None for "any, just don't crash")
CASES = [
    ("q_doc_stats", 0),
    ("q_filter_min_chars", 0),
    ("q_dedup_exact", 0),
    ("q_word_counts_top", 0),
    ("q_lang_top_words", 0),
    ("q_url_canonical_dedup", 0),
    ("q_html_extract", 0),
    ("q_html_links", 0),
    ("q_doc_ttr", 0),
    ("q_script_census", 0),
    ("q_doc_readability", 0),
    ("q_doc_compress_ratio", 0),
    ("q_domain_quality_filter", 0),
    ("q_lang_regression", 0),
    ("q_corpus_profile", 7),       # metric rows exist, values 0/NaN
    ("q_dedup_funnel", 4),         # stage rows exist, all counts 0
    ("q_nchars_zscore_by_lang", 0),
    ("q_lang_source_cube", None),  # at minimum the lattice of nothing
]


@pytest.mark.parametrize("qname,want", CASES)
def test_query_on_empty_corpus(empty_sf, qname, want):
    fn = getattr(P, qname)
    res = fn(empty_sf)
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    if want is not None:
        assert len(df) == want, f"{qname}: {len(df)} rows"
    if qname == "q_dedup_funnel":
        assert df.n_docs.tolist() == [0, 0, 0, 0]
    if qname == "q_corpus_profile":
        vals = dict(zip(df.metric, df.value))
        assert vals["n_docs"] == 0.0 and vals["dup_texts"] == 0.0


@pytest.fixture(scope="module")
def allnull_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("allnull_sf")
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([None, None, None], pa.string()),
            "lang": pa.array(["ro", "en", None], pa.string()),
            "source": pa.array(["s0", None, "s1"], pa.string()),
            "n_chars": pa.array([0, 0, 0], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(str(d), "documents.parquet"))
    return str(d)


NULL_CASES = [
    "q_doc_stats",            # null stats propagate
    "q_word_counts_top",      # no tokens at all
    "q_dedup_exact",
    "q_lang_top_words",
    "q_doc_ttr",
    "q_script_census",
    "q_doc_readability",
    "q_doc_compress_ratio",
    "q_corpus_profile",
    "q_dedup_funnel",
    "q_html_extract",         # NULL text -> NULL html -> NULL extract
]


@pytest.mark.parametrize("qname", NULL_CASES)
def test_query_on_allnull_text(allnull_sf, qname):
    fn = getattr(P, qname)
    res = fn(allnull_sf)
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    # must not crash; per-doc queries keep their 3 rows, aggregates
    # produce a well-defined frame
    if qname in ("q_doc_stats", "q_doc_ttr", "q_script_census",
                 "q_doc_readability", "q_doc_compress_ratio", "q_html_extract"):
        assert len(df) == 3
    if qname == "q_corpus_profile":
        vals = dict(zip(df.metric, df.value))
        assert vals["null_texts"] == 3.0 and vals["dup_texts"] == 0.0
    if qname == "q_dedup_funnel":
        # all texts null -> funnel stages after input are 0
        assert df.n_docs.tolist()[0] == 3 and df.n_docs.tolist()[1:] == [0, 0, 0]


# round-5 additions: empty events table + the composed dedup funnel
EVENTS_SCHEMA = pa.schema(
    [
        ("event_id", pa.int64()),
        ("ts", pa.timestamp("us")),
        ("user_id", pa.int64()),
        ("event_type", pa.string()),
        ("value", pa.float64()),
        ("props", pa.string()),
    ]
)


@pytest.fixture(scope="module")
def empty_events_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_events_sf")
    pq.write_table(
        EVENTS_SCHEMA.empty_table(), os.path.join(str(d), "events.parquet")
    )
    pq.write_table(
        DOC_SCHEMA.empty_table(), os.path.join(str(d), "documents.parquet")
    )
    return str(d)


@pytest.mark.parametrize(
    "qname", ["q_events_lag_delta", "q_events_range_frame", "q_minhash_dedup_full"]
)
def test_round5_queries_on_empty_corpus(empty_events_sf, qname):
    fn = getattr(P, qname)
    res = fn(empty_events_sf)
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    assert len(df) == 0


@pytest.fixture(scope="module")
def empty_transcripts(tmp_path_factory):
    from fineweb2_ro_ray.schema import TRANSCRIPT_SCHEMA

    path = os.path.join(str(tmp_path_factory.mktemp("empty_tr")), "t.parquet")
    pq.write_table(TRANSCRIPT_SCHEMA.empty_table(), path)
    return path


@pytest.mark.parametrize("wiring", ["lazy", "flagship", "entry_query"])
def test_transcript_conversations_on_empty_input(empty_transcripts, wiring, monkeypatch):
    """An empty transcript file reassembles to a typed empty
    conversation table on every wiring, not a schema-less block."""
    import __ray_entry__ as E

    from fineweb2_ro_ray.pipelines.quality_filter import (
        annotate,
        read_transcripts,
        reassemble,
        run_flagship,
    )
    from fineweb2_ro_ray.schema import CONVERSATION_SCHEMA

    if wiring == "lazy":
        ds = reassemble(annotate(read_transcripts(empty_transcripts)))
    elif wiring == "flagship":
        ds = run_flagship(empty_transcripts)
    else:
        monkeypatch.setattr(E, "_transcripts_path", lambda sf_dir: empty_transcripts)
        ds = E._q_transcript_conversations("unused")
    out = ds.materialize()
    assert out.count() == 0
    assert out.schema().base_schema.equals(CONVERSATION_SCHEMA)
