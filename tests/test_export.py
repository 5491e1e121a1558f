"""Fixed-length training-example export (stages/export.py): the
distributed concat-and-chunk must equal a sequential single-process
reference bit-for-bit, across block layouts, including docs that span
example boundaries and many tiny docs packed into one example (the
cross-doc fragment-ordering case)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from fineweb2_ro_ray.functions.bpe import BPETokenizer, load_merges
from fineweb2_ro_ray.stages.export import (
    BPEIdEncoder,
    export_bpe_examples,
)


def _ref_examples(texts: list[str | None], seq_len: int) -> list[list[int]]:
    tok = BPETokenizer()
    sep = 256 + len(load_merges())
    stream: list[int] = []
    for t in texts:
        stream.extend(tok.encode(t or ""))
        stream.append(sep)
    n = len(stream) // seq_len
    return [stream[i * seq_len : (i + 1) * seq_len] for i in range(n)]


def _corpus() -> tuple[pa.Table, list[str | None]]:
    rng = np.random.default_rng(11)
    vocab = ["spark", "merge", "join", "the", "a", "vector", "batch", "răspuns"]
    texts: list[str | None] = []
    for i in range(120):
        if i % 37 == 0:
            texts.append(None)  # null text -> separator-only document
        elif i % 23 == 0:
            texts.append("")  # empty doc
        elif i % 11 == 0:
            # long doc spanning several examples
            texts.append(" ".join(rng.choice(vocab, 90)))
        else:
            texts.append(" ".join(rng.choice(vocab, rng.integers(1, 6))))
    t = pa.table({"doc_id": pa.array(range(120), pa.int64()), "text": texts})
    return t, texts


def test_bpe_export_equals_sequential(ray_session):
    t, texts = _corpus()
    ref = _ref_examples(texts, 16)
    for parts in (1, 7, 40):  # block-layout invariance
        ds = rd.from_arrow(t).repartition(parts)
        got = (
            export_bpe_examples(ds, seq_len=16)
            .to_pandas()
            .sort_values("example_id")
            .reset_index(drop=True)
        )
        assert list(got["example_id"]) == list(range(len(ref)))
        assert [list(v) for v in got["input_ids"]] == ref


def test_bpe_export_many_tiny_docs_one_example(ray_session):
    """seq_len much larger than any doc: dozens of docs per example —
    fragment order inside an example must be global doc order even when
    the docs arrive in different blocks."""
    texts = [f"w{i}" for i in range(60)]
    t = pa.table({"doc_id": pa.array(range(60), pa.int64()), "text": texts})
    ref = _ref_examples(list(texts), 128)
    got = (
        export_bpe_examples(rd.from_arrow(t).repartition(13), seq_len=128)
        .to_pandas()
        .sort_values("example_id")
        .reset_index(drop=True)
    )
    assert [list(v) for v in got["input_ids"]] == ref


def test_bpe_export_shard_write(ray_session, tmp_path):
    t, texts = _corpus()
    out = str(tmp_path / "shards")
    ds = export_bpe_examples(rd.from_arrow(t), seq_len=16, out_dir=out)
    ref = _ref_examples(texts, 16)
    got = ds.to_pandas().sort_values("example_id").reset_index(drop=True)
    assert [list(v) for v in got["input_ids"]] == ref
    import glob

    assert glob.glob(out + "/*.parquet")


def test_encoder_emits_count_consistent_ids(ray_session):
    """The emit pass's list lengths must equal the count pass's n_tok
    (the scan offsets are computed from counts; any drift would corrupt
    every downstream example)."""
    from fineweb2_ro_ray.stages.export import bpe_id_counts

    t, _ = _corpus()
    ds = rd.from_arrow(t)
    enc = (
        ds.map_batches(BPEIdEncoder, batch_format="pyarrow", concurrency=1)
        .to_pandas()
        .sort_values("doc_id")
    )
    cnt = (
        bpe_id_counts(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert list(enc["n_tok"]) == list(cnt["n_tok"])
    assert [len(v) for v in enc["ids"]] == list(cnt["n_tok"])


def test_bpe_export_custom_merges_match_encoder(ray_session):
    """The count pass sizes documents with the SAME merges the encoder
    applies: with a custom merge table every example is exactly
    ``seq_len`` tokens and the examples are ``BPEIdEncoder``'s stream."""
    t = _corpus()[0].slice(0, 60)
    for merges in ([], [list(m) for m in load_merges()[:40]]):
        enc = (
            rd.from_arrow(t)
            .map_batches(
                BPEIdEncoder,
                fn_constructor_kwargs={"merges": merges},
                batch_format="pyarrow",
                concurrency=1,
            )
            .to_pandas()
            .sort_values("doc_id")
        )
        stream = [int(i) for ids in enc["ids"] for i in ids]
        ref = [stream[i : i + 16] for i in range(0, len(stream) - 15, 16)]
        got = (
            export_bpe_examples(rd.from_arrow(t).repartition(5), seq_len=16, merges=merges)
            .to_pandas()
            .sort_values("example_id")
        )
        assert all(len(v) == 16 for v in got["input_ids"])
        assert [list(v) for v in got["input_ids"]] == ref
