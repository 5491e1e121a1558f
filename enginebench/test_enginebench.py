"""Tests of the benchmark's own machinery (no Ray session needed):

    python3 -m pytest enginebench -q
"""

from __future__ import annotations

import os

import pandas as pd
import pytest

from enginebench import checks, corpus
from enginebench.spans import Span, Tracer


@pytest.fixture(scope="module")
def labeled() -> pd.DataFrame:
    """Oracle labels of a small seeded corpus (one hot conversation)."""
    from fineweb2_ro_ray.sources.synth import gen_transcripts

    rows = gen_transcripts(60, seed=3).to_pylist()
    return pd.DataFrame(corpus._label_chunk(rows))


def test_generation_is_byte_identical_per_seed(tmp_path):
    corpus.write_corpus(str(tmp_path / "a"), seed=11)
    corpus.write_corpus(str(tmp_path / "b"), seed=11)
    corpus.write_corpus(str(tmp_path / "c"), seed=12)
    a = corpus.corpus_digest(str(tmp_path / "a"))
    assert a == corpus.corpus_digest(str(tmp_path / "b"))
    assert a != corpus.corpus_digest(str(tmp_path / "c"))


def test_cached_corpus_is_the_seed_corpus(tmp_path):
    cache = str(tmp_path / "cache")
    path = corpus.cached_corpus(cache, seed=11)
    corpus.write_corpus(str(tmp_path / "fresh"), seed=11)
    assert corpus.corpus_digest(path) == corpus.corpus_digest(str(tmp_path / "fresh"))
    assert corpus.cached_corpus(cache, seed=11) == path
    assert os.listdir(cache) == [os.path.basename(path)]


def test_turn_check_rejects_flipped_keep(labeled):
    assert checks.check_turns(labeled, labeled) == []
    bad = labeled.copy()
    bad.loc[5, "keep"] = not bad.loc[5, "keep"]
    problems = checks.check_turns(bad, labeled)
    assert problems and problems[0].startswith("keep: 1 rows differ")


def test_conversation_check_rejects_dropped_conversation(labeled):
    want = checks.expected_conversations(labeled)
    assert checks.check_conversations(want, want) == []
    got = want[want["conv_id"] != want["conv_id"].iloc[3]]
    assert checks.check_conversations(got, want) == [
        "key sets differ: 1 missing, 0 unexpected"
    ]


def _exact_dedup(labeled: pd.DataFrame) -> pd.DataFrame:
    """A correct keep_all near-dedup output: identical texts cluster,
    the smallest id of each cluster is kept."""
    df = pd.DataFrame({"doc_id": range(len(labeled)), "text": labeled["scrubbed_text"]})
    g = df.groupby("text")["doc_id"]
    df["cluster_size"] = g.transform("size")
    df["kept"] = df["doc_id"] == g.transform("min")
    return df


def test_neardup_check_rejects_duplicated_doc_id(labeled):
    out = _exact_dedup(labeled)
    assert out["cluster_size"].max() > 1  # the corpus has duplicate texts
    assert checks.check_neardup(out, len(out)) == []
    bad = out.copy()
    bad.loc[1, "doc_id"] = bad.loc[0, "doc_id"]
    assert "1 duplicated doc_id" in checks.check_neardup(bad, len(out))


def test_self_time_of_nested_spans():
    tr = Tracer()
    tr.spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the root loses 1..6 once
        Span("a.child", 2.0, 3.0, 1),
        Span("outside", 11.0, 12.0, None),
    ]
    assert tr.self_times() == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])
    assert tr.coverage("root") == pytest.approx((2.0 + 3.0 + 1.0) / 10.0)


def test_span_stack_records_parents():
    tr = Tracer()
    with tr.span("job"):
        with tr.span("layer"):
            with tr.span("kernel"):
                pass
        with tr.span("layer"):
            pass
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("job", None), ("layer", 0), ("kernel", 1), ("layer", 0),
    ]
    assert all(s.end >= s.start for s in tr.spans)
