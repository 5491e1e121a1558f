"""Tokenized fixed-length training-example export (the dataloader
hand-off).

The reference stops at a cleaned text-only Parquet corpus
(``small_model_inference/parquet.py:8-35``) and counts tokens
(``fineweb/tokenize_fineweb2.py:20-34``); the step every pretraining
run performs next — tokenize, concatenate in a canonical order, cut
into fixed ``seq_len`` examples, write shards — is this module.
Semantics are the GPT-style concat-and-chunk: documents in ``id_col``
order, a separator token after each document, examples are consecutive
``seq_len`` windows of the global token stream, the trailing
incomplete window dropped.

Distributed shape (everything streams; token payloads cross the wire
twice, thin projections twice):

1. COUNT pass (actor-pool mini-BPE, word-cache per actor): thin
   ``(doc_id, n_tok)`` rows, n_tok including the separator.
2. ``packing.pack_spans`` turns the thin stream into exact global
   ``tok_start`` offsets (distributed Blelloch scan — two thin
   exchanges, 16 B/row).
3. EMIT pass re-encodes each document (the word cache makes the second
   encode cheap; re-encoding beats materializing the tokenized corpus
   between passes — the 100-TB trade this module picks deliberately),
   joins ``tok_start`` back by doc id on the exchange hash join, and
   cuts each document's ids at example boundaries: fragment rows
   ``(example_id, pos, ids)`` — pure offset arithmetic, no Python per
   token.
4. ONE exchange keyed on ``example_id`` co-locates each example's
   fragments; the reduce concatenates them in ``pos`` order into
   exactly-``seq_len`` rows.

``pack_token_examples`` is token-type-generic (any list column:
int32 BPE ids, or the words themselves) — the word instantiation is
SQL-expressible and oracle-checked end-to-end (q_doc_pack_examples);
the BPE instantiation is pinned by a sequential-reference pytest.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .exchange import hash_exchange_map_groups
from .joins import hash_join
from .packing import pack_spans


class BPEIdEncoder:
    """Actor-pool emit pass: (id_col, ids list<int32>) per document —
    each UNIQUE word in the batch is BPE-encoded once (plus the
    actor-lifetime word cache), the per-document id stream is assembled
    with one vectorized gather, and ``sep_id`` is appended per document
    (empty/null text ⇒ separator-only)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 merges: list | None = None, sep_id: int | None = None) -> None:
        from ..functions.bpe import BPETokenizer, load_merges

        pa.set_cpu_count(1)
        merges = [tuple(m) for m in merges] if merges is not None else load_merges()
        self.tok = BPETokenizer(merges)
        self.sep_id = int(sep_id) if sep_id is not None else 256 + len(merges)
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.fill_null(text, "")
        n = batch.num_rows
        words = pc.utf8_split_whitespace(text)
        raw_lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words)
        flat_ok = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        doc_of = np.repeat(np.arange(n), raw_lens)[flat_ok]
        dic = flat.filter(pa.array(flat_ok)).dictionary_encode()
        uniq = dic.dictionary.to_pylist()
        enc = [np.asarray(self.tok._encode_word(w), np.int32) for w in uniq]
        uniq_flat = (
            np.concatenate(enc) if enc else np.empty(0, np.int32)
        )
        uniq_len = np.array([len(e) for e in enc], np.int64)
        uniq_off = np.zeros(len(enc) + 1, np.int64)
        np.cumsum(uniq_len, out=uniq_off[1:])
        widx = dic.indices.to_numpy(zero_copy_only=False)
        # vectorized gather: word w contributes uniq_flat[off[w]:off[w]+len[w]]
        wl = uniq_len[widx]
        starts = np.repeat(uniq_off[widx], wl)
        intra = np.arange(int(wl.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(wl) - wl, wl
        )
        body = uniq_flat[starts + intra]
        # per-doc body lengths, then interleave one separator per doc
        n_body = np.bincount(doc_of, weights=wl, minlength=n).astype(np.int64)
        out_len = n_body + 1
        out_off = np.zeros(n + 1, np.int64)
        np.cumsum(out_len, out=out_off[1:])
        out = np.empty(int(out_off[-1]), np.int32)
        sep_pos = out_off[1:] - 1
        out[sep_pos] = self.sep_id
        mask = np.ones(len(out), bool)
        mask[sep_pos] = False
        out[mask] = body
        ids = pa.ListArray.from_arrays(
            pa.array(out_off, pa.int32()).cast(pa.int32()),
            pa.array(out, pa.int32()),
        )
        return pa.table(
            {self.id_col: batch[self.id_col], "n_tok": pa.array(out_len), "ids": ids}
        )


def bpe_id_counts(
    ds: ray.data.Dataset, *, text_col: str = "text", id_col: str = "doc_id",
    merges: list | None = None,
) -> ray.data.Dataset:
    """COUNT pass: thin (id_col, n_tok) — n_tok includes the separator
    (== the emit pass's list lengths under the same ``merges``;
    pytest-pinned)."""
    from .tokenize import BPETokenCounter

    def count(b: pa.Table) -> pa.Table:
        c = BPETokenCounter(text_col=text_col, merges=merges)(b)
        n = pc.add(c["n_bpe_tokens"], 1).cast(pa.int64())
        return pa.table({id_col: b[id_col], "n_tok": n})

    return ds.map_batches(count, batch_format="pyarrow")


def pack_token_examples(
    tok_ds: ray.data.Dataset,
    spans: ray.data.Dataset,
    *,
    seq_len: int,
    id_col: str = "doc_id",
    n_partitions: int = 64,
) -> ray.data.Dataset:
    """Cut a tokenized stream into fixed-length examples. ``tok_ds``
    carries (id_col, ids list<T>); ``spans`` carries (id_col,
    tok_start) from ``pack_spans`` over the matching thin counts.
    Token-type generic (T = int32 ids or string words). Returns
    (example_id, input_ids list<T>) with len(input_ids) == seq_len
    exactly; the trailing incomplete example is dropped."""
    def rename(b: pa.Table) -> pa.Table:
        # the exchange join requires disjoint column names
        return pa.table({"_rid": b[id_col], "tok_start": b["tok_start"]})

    joined = hash_join(
        tok_ds,
        spans.map_batches(rename, batch_format="pyarrow"),
        key=id_col,
        right_key="_rid",
        how="inner",
        n_partitions=n_partitions,
    )

    def fragments(b: pa.Table) -> pa.Table:
        ids = b["ids"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        lens = pc.list_value_length(ids).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(ids)
        tok_start = b["tok_start"].to_numpy(zero_copy_only=False).astype(np.int64)
        gpos = np.repeat(tok_start, lens) + (
            np.arange(int(lens.sum()), dtype=np.int64)
            - np.repeat(np.cumsum(lens) - lens, lens)
        )
        ex = gpos // seq_len
        if len(ex) == 0:
            return pa.table(
                {
                    "example_id": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "frag": pa.array([], ids.type),
                }
            )
        # fragment boundaries: where the example id changes OR a new
        # document starts — adjacent rows in a batch are NOT globally
        # consecutive documents, so two docs sharing an example must
        # stay separate fragments (each fragment is a CONTIGUOUS gpos
        # run; assembly orders fragments by pos)
        doc_flat = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        cut = np.flatnonzero((np.diff(ex) != 0) | (np.diff(doc_flat) != 0)) + 1
        starts = np.concatenate(([0], cut))
        offs = np.concatenate((starts, [len(ex)]))
        frag = pa.ListArray.from_arrays(
            pa.array(offs, pa.int64()).cast(pa.int32()), flat
        )
        return pa.table(
            {
                "example_id": pa.array(ex[starts], pa.int64()),
                "pos": pa.array(gpos[starts] % seq_len, pa.int64()),
                "frag": frag,
            }
        )

    frag_ds = joined.map_batches(fragments, batch_format="pyarrow")

    def assemble(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "example_id": pa.array([], pa.int64()),
                    "input_ids": pa.array([], t.schema.field("frag").type),
                }
            )
        order = pc.sort_indices(
            t, sort_keys=[("example_id", "ascending"), ("pos", "ascending")]
        )
        t = t.take(order)
        ex = t["example_id"].to_numpy(zero_copy_only=False)
        frag = t["frag"]
        if isinstance(frag, pa.ChunkedArray):
            frag = frag.combine_chunks()
        lens = pc.list_value_length(frag).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(frag)
        # per-example total length; keep only complete examples
        starts = np.flatnonzero(np.diff(ex, prepend=ex[0] - 1))
        ex_ids = ex[starts]
        tot = np.add.reduceat(lens, starts) if len(lens) else np.empty(0, np.int64)
        keep = tot == seq_len
        # flat is already in (example, pos) order; slice out kept runs
        flat_off = np.zeros(len(ex_ids) + 1, np.int64)
        np.cumsum(tot, out=flat_off[1:])
        if not keep.all():
            sel = np.concatenate(
                [np.arange(flat_off[i], flat_off[i + 1]) for i in np.flatnonzero(keep)]
            ) if keep.any() else np.empty(0, np.int64)
            flat = flat.take(pa.array(sel, pa.int64()))
            ex_ids = ex_ids[keep]
        out_off = np.arange(len(ex_ids) + 1, dtype=np.int64) * seq_len
        examples = pa.ListArray.from_arrays(
            pa.array(out_off, pa.int64()).cast(pa.int32()), flat
        )
        return pa.table(
            {
                "example_id": pa.array(ex_ids, pa.int64()),
                "input_ids": examples,
            }
        )

    return hash_exchange_map_groups(
        frag_ds,
        assemble,
        key="example_id",
    )


def export_bpe_examples(
    ds: ray.data.Dataset,
    *,
    seq_len: int,
    text_col: str = "text",
    id_col: str = "doc_id",
    merges: list | None = None,
    out_dir: str | None = None,
) -> ray.data.Dataset:
    """End-to-end BPE export: count → scan → encode+join → fragment →
    assemble; optionally write the example shards as Parquet (one file
    per output block — the resumable partitioned layout)."""
    thin = bpe_id_counts(ds, text_col=text_col, id_col=id_col, merges=merges)
    spans = pack_spans(thin, budget=seq_len, id_col=id_col, n_col="n_tok")

    def project(b: pa.Table) -> pa.Table:
        return b.select([id_col, "tok_start"])

    spans_thin = spans.map_batches(project, batch_format="pyarrow")
    enc = ds.map_batches(
        BPEIdEncoder,
        fn_constructor_kwargs={
            "text_col": text_col,
            "id_col": id_col,
            "merges": merges,
        },
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    tok = enc.map_batches(
        lambda b: b.select([id_col, "ids"]), batch_format="pyarrow"
    )
    examples = pack_token_examples(tok, spans_thin, seq_len=seq_len, id_col=id_col)
    if out_dir is not None:
        examples.write_parquet(out_dir)
        return ray.data.read_parquet(out_dir)
    return examples
