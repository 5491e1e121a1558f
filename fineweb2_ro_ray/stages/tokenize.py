"""True-subword token counting stage (A6/M8).

The reference's token accounting loads a pretrained tokenizer once per
worker and maps over documents (``/root/reference/small_model_inference/
token_stats.py:8-13``, ``fineweb/tokenize_fineweb2.py:20-34``); here the
tokenizer is the vendored mini-BPE (``functions/bpe.py``) and the stage
is the canonical Ray Data actor-pool shape: merge table + word cache
built once per actor, per-batch work vectorized through Arrow.

Batch path: tokenize → dictionary-encode so each UNIQUE word is
BPE-encoded once per batch (the actor's word cache carries across
batches too), then per-document sums via ``np.bincount`` — no per-row
Python in the hot loop beyond the unique-word encodes."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.bpe import BPETokenizer


class BPETokenCounter:
    def __init__(self, text_col: str = "text", merges: list | None = None) -> None:
        pa.set_cpu_count(1)  # actor pools must not spawn full Arrow thread pools
        self.tok = BPETokenizer(merges)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.fill_null(text, "")
        n = batch.num_rows
        words = pc.utf8_split_whitespace(text)
        raw_lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(words)
        if len(flat) == 0:
            return batch.append_column(
                "n_bpe_tokens", pa.array(np.zeros(n, np.int64), pa.int64())
            )
        flat_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        dic = flat.dictionary_encode()
        uniq = dic.dictionary.to_pylist()
        per_uniq = np.array([len(self.tok._encode_word(w)) for w in uniq], dtype=np.int64)
        tok_ids = dic.indices.to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(n), raw_lens)
        keep = flat_len > 0  # drop split-boundary empties (str.split semantics)
        counts = np.bincount(
            doc_of[keep], weights=per_uniq[tok_ids[keep]], minlength=n
        ).astype(np.int64)
        return batch.append_column("n_bpe_tokens", pa.array(counts, pa.int64()))


def bpe_token_counts(
    ds: ray.data.Dataset, *, text_col: str = "text", concurrency=None, batch_size: int = 4096
) -> ray.data.Dataset:
    # stateless tasks: the vendored BPE table builds in ~0.4 ms, so
    # per-batch construction is free and no pool spin-up caps
    # parallelism (a real HF tokenizer load would justify the pool —
    # swap BPETokenCounter back in as a class for that)
    return ds.map_batches(
        lambda b: BPETokenCounter(text_col=text_col)(b),
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=batch_size,
    )
