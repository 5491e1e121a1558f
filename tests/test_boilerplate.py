"""Tests for stages.boilerplate — corpus-level frequent-unit scrub."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from fineweb2_ro_ray.stages.boilerplate import (
    explode_units,
    heavy_units,
    remove_frequent_units,
)


def _ds(texts):
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )


def _naive(texts, min_docs, sep="\n"):
    cnt = Counter()
    for t in texts:
        if t is None:
            continue
        for u in set(t.split(sep)):
            cnt[u] += 1
    out = []
    for i, t in enumerate(texts):
        if t is None:
            continue
        keep = [u for u in t.split(sep) if cnt[u] < min_docs]
        if keep:
            out.append((i, sep.join(keep)))
    return out


TEXTS = [
    "cookie banner\nreal content A\nshare this",
    "cookie banner\nunique text B",
    "share this\nanother unique C\ncookie banner",
    None,
    "cookie banner",  # all units boilerplate -> doc emits no row
    "",  # the '' unit occurs once -> kept
]


@pytest.mark.parametrize("strategy", ["broadcast", "exchange"])
def test_matches_naive(strategy):
    out = remove_frequent_units(_ds(TEXTS), min_docs=2, strategy=strategy).to_pandas()
    got = sorted(zip(out["doc_id"], out["text_clean"]))
    assert got == _naive(TEXTS, 2)


@pytest.mark.parametrize("strategy", ["broadcast", "exchange"])
def test_empty_heavy_set_keeps_everything(strategy):
    """Threshold above any unit's document frequency: output = every
    non-NULL-text doc unchanged."""
    out = remove_frequent_units(_ds(TEXTS), min_docs=99, strategy=strategy).to_pandas()
    got = sorted(zip(out["doc_id"], out["text_clean"]))
    assert got == [(i, t) for i, t in enumerate(TEXTS) if t is not None]


def test_strategies_agree_on_random_corpus():
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(30)]
    texts = [
        "\n".join(rng.choice(vocab, size=rng.integers(1, 8)))
        for _ in range(200)
    ]
    a = remove_frequent_units(_ds(texts), min_docs=20, strategy="broadcast").to_pandas()
    b = remove_frequent_units(_ds(texts), min_docs=20, strategy="exchange").to_pandas()
    ka = sorted(zip(a["doc_id"], a["text_clean"]))
    kb = sorted(zip(b["doc_id"], b["text_clean"]))
    assert ka == kb == _naive(texts, 20)


def test_within_doc_repeats_count_once():
    """Document frequency is DISTINCT docs: a unit repeated 5x inside
    one doc still counts that doc once."""
    texts = ["x\nx\nx\nx\nx\ny", "z"]
    out = remove_frequent_units(_ds(texts), min_docs=2, strategy="broadcast").to_pandas()
    got = sorted(zip(out["doc_id"], out["text_clean"]))
    assert got == [(0, "x\nx\nx\nx\nx\ny"), (1, "z")]


def test_heavy_units_and_explode():
    hv = heavy_units(_ds(TEXTS), text_col="text", sep="\n", min_docs=2).to_pandas()
    assert sorted(hv["unit"]) == ["cookie banner", "share this"]
    ex = explode_units(_ds(["a\nb", None, "c"]), text_col="text", id_col="doc_id", sep="\n")
    df = ex.to_pandas().sort_values(["doc_id", "ord"])
    assert list(zip(df["doc_id"], df["ord"], df["unit"])) == [
        (0, 1, "a"),
        (0, 2, "b"),
        (2, 1, "c"),
    ]


def test_custom_separator():
    texts = ["the cat sat", "the dog ran", "a cat ran"]
    out = remove_frequent_units(
        _ds(texts), sep=" ", min_docs=2, strategy="exchange"
    ).to_pandas()
    got = sorted(zip(out["doc_id"], out["text_clean"]))
    assert got == _naive(texts, 2, sep=" ")


def test_top_terms_matches_naive():
    from fineweb2_ro_ray.stages.boilerplate import top_terms_per_doc

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(12)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 15))) for _ in range(80)]
    texts[7] = None
    out = top_terms_per_doc(_ds(texts), sep=" ", k=3).to_pandas()
    got = sorted(map(tuple, out[["doc_id", "term", "tf", "nd", "rk"]].values.tolist()))

    df_cnt = Counter()
    for t in texts:
        if t is not None:
            for u in set(t.split(" ")):
                df_cnt[u] += 1
    want = []
    for i, t in enumerate(texts):
        if t is None:
            continue
        tf = Counter(t.split(" "))
        ranked = sorted(tf.items(), key=lambda kv: (-kv[1], df_cnt[kv[0]], kv[0]))
        for rk, (term, f) in enumerate(ranked[:3], 1):
            want.append((i, term, f, df_cnt[term], rk))
    assert got == sorted(want)


class TestDedupSpans:
    """Duplicate-span removal (Lee et al. EXACTSUBSTR at k-gram
    resolution) — edges + broadcast/exchange equivalence vs a DuckDB
    oracle."""

    def _docs(self):
        import pyarrow as pa

        rep = "alpha beta gamma delta"  # a 4-gram repeated across docs
        return pa.table(
            {
                "doc_id": pa.array(range(8), pa.int64()),
                "text": pa.array(
                    [
                        f"start {rep} end one",
                        f"intro {rep} outro two",
                        # overlapping spans: 5 words containing TWO
                        # duplicated 4-grams sharing 3 words
                        "alpha beta gamma delta epsilon",
                        "zeta alpha beta gamma delta epsilon",  # also has both
                        "short doc",  # < k words: survives whole
                        "",  # one empty word, survives
                        None,  # NULL text: no output row
                        rep,  # fully covered: no output row
                    ],
                    pa.string(),
                ),
            }
        )

    def _oracle(self, t):
        import duckdb

        import __ray_entry__ as E

        con = duckdb.connect()
        con.register("documents", t.to_pandas())
        sql = E.oracle_sql()["dedup_spans"]
        return (
            con.execute(sql).df().sort_values("doc_id").reset_index(drop=True)
        )

    @pytest.mark.parametrize("strategy", ["broadcast", "exchange"])
    def test_matches_oracle(self, strategy):
        import ray.data as rd

        from fineweb2_ro_ray.stages.spans import remove_duplicate_spans

        t = self._docs()
        out = (
            remove_duplicate_spans(
                rd.from_arrow(t), k=4, min_count=2, strategy=strategy
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = self._oracle(t)
        assert out["doc_id"].tolist() == want["doc_id"].tolist()
        assert out["text_clean"].tolist() == want["text_clean"].tolist()
        # spot-check semantics: doc 4/5 untouched, doc 6/7 dropped
        got = dict(zip(out["doc_id"], out["text_clean"]))
        assert got[4] == "short doc"
        assert got[5] == ""
        assert 6 not in got and 7 not in got
        # overlapping spans merge: doc 2 is entirely covered by the two
        # overlapping duplicated 4-grams (no row); doc 3 keeps only the
        # word outside both spans
        assert 2 not in got
        assert got[3] == "zeta"


def test_span_dedup_exchange_heavy_duplication():
    """Pathological corpus: 2000 identical docs (every 4-gram
    duplicated everywhere) + 1 unique doc. All clones vanish (fully
    covered), the unique doc survives whole — on the distributed
    exchange path, where the covered-span exchange carries one row per
    occurrence."""
    from fineweb2_ro_ray.stages.spans import remove_duplicate_spans

    n = 2000
    texts = ["alpha beta gamma delta epsilon"] * n + ["lone wolf text here now"]
    t = pa.table(
        {
            "doc_id": pa.array(range(n + 1), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = remove_duplicate_spans(
        rd.from_arrow(t).repartition(8), k=4, min_count=2, strategy="exchange"
    ).to_pandas()
    assert len(out) == 1
    assert out["doc_id"].iloc[0] == n
    assert out["text_clean"].iloc[0] == "lone wolf text here now"


@pytest.mark.parametrize("strategy", ["broadcast", "exchange"])
def test_span_dedup_keep_first_matches_oracle(strategy):
    """keep_first=True (the paper's semantics): the lexicographically
    first occurrence of each duplicated gram survives, later copies are
    removed — vs the row_number()-based SQL oracle, both strategies."""
    import duckdb

    import __ray_entry__ as E
    from fineweb2_ro_ray.stages.spans import remove_duplicate_spans

    rep = "alpha beta gamma delta"
    t = pa.table(
        {
            "doc_id": pa.array(range(5), pa.int64()),
            "text": pa.array(
                [
                    f"start {rep} end",          # doc 0 holds the FIRST copy -> kept whole
                    f"intro {rep} outro",        # later copy -> gram removed
                    rep,                          # later copy, fully covered -> no row
                    f"{rep} {rep}",               # two copies in one doc, both later
                    "unique words only here",
                ],
                pa.string(),
            ),
        }
    )
    out = (
        remove_duplicate_spans(
            rd.from_arrow(t), k=4, min_count=2, strategy=strategy, keep_first=True
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t.to_pandas())
    want = (
        con.execute(E.oracle_sql()["dedup_spans_keep_first"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == want["doc_id"].tolist()
    assert out["text_clean"].tolist() == want["text_clean"].tolist()
    got = dict(zip(out["doc_id"], out["text_clean"]))
    assert got[0] == f"start {rep} end"  # first copy survives INSIDE its doc
    assert got[1] == "intro outro"
    assert 2 not in got
    assert got[4] == "unique words only here"
