"""Corpus-trained word-bigram LM + perplexity scorer (CCNet-style).

The reference consumes an upstream-trained KenLM quality signal the
same way it consumes fastText LID (passenger columns,
``/root/reference/fineweb/fineweb2_download.py:14-24``); the frozen
byte-bigram scorer in ``functions/perplexity.py`` covers the
*interface*. This module adds the TRAINING half a standalone engine
needs — the standard web-pipeline flow (CCNet; Wenzek et al. 2019,
arXiv:1911.00359): fit an n-gram LM on a reference corpus, then score
and filter a target corpus by perplexity.

Shape:

- **fit** — ONE ``map_batches`` pass emits the raw unigram AND
  in-document adjacent bigram rows of each batch as one (w1, w2) table
  (``w2`` null ⇒ unigram row); :func:`.exchange.exchange_aggregate`
  combines each batch map-side once and ONE thin keyed exchange sums
  the partials exactly (integer counts, order-free). Only (gram,
  count) rows ever shuffle — never the corpus. ``total_tokens`` and
  the ``min_count`` prune are computed DISTRIBUTED on the summed
  counts; the driver pulls only the pruned tables, which are then a
  broadcast-sized artifact like any other frozen scorer state.
- **artifact** — :func:`save_lm_artifact` persists the pruned counts
  as hash-partitioned Parquet (``part=K/counts.parquet`` + meta.json,
  the ``stages.incremental`` layout) WITHOUT the counts ever visiting
  the driver — the 100-TB fit path, where even the pruned bigram table
  can reach tens of GB. :func:`score_word_bigram_artifact` loads an
  artifact under the broadcast bound (``joins._BROADCAST_PAYLOAD_BYTES``,
  compared with its on-disk bytes) once and broadcasts it
  (``ray.put``); past the bound it refuses, naming
  :func:`score_word_bigram_exchange`, a keyed exchange join of packed
  pair keys against the partitioned counts that holds at any size.
- **score** — the model is ``ray.put`` once; each batch maps words to
  vocab ids via ONE ``index_in`` against the model vocabulary (exact,
  no hashing — OOV becomes the UNK id), packs adjacent in-document id
  pairs into int64 keys, binary-searches the sorted bigram key table,
  and reduces add-alpha log-probs per document with the same
  fixed-order ``reduceat`` layout as the byte-bigram kernel: per-doc
  results are bit-identical across batch sizes and parallelism.

Tokenization is the engine's single-space word convention (DuckDB
``string_split(text, ' ')``), matching word_counts / span-dedup; empty
words (doubled separators) are dropped. Documents with no in-document
bigram score ``lm_ppl = 0.0`` (the byte-kernel's convention for
too-short rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from . import joins
from .boilerplate import _split_col
from .exchange import exchange_aggregate, hash_exchange_map_groups

_GRAM_SCHEMA = pa.schema(
    [("w1", pa.string()), ("w2", pa.string()), ("n", pa.int64())]
)  # w2 null ⇒ unigram row (gram_counts)


def _batch_words(t: pa.Table, text_col: str) -> tuple[pa.Array, np.ndarray]:
    """Flat nonempty word array + parent doc index per word."""
    lst = _split_col(t, text_col, " ")
    parents = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lst)
    keep = pc.greater(pc.utf8_length(flat), 0)
    keep_np = keep.to_numpy(zero_copy_only=False)
    return flat.filter(keep), parents[keep_np]


def bigram_counts(
    ds: ray.data.Dataset, *, text_col: str = "text", min_count: int = 1
) -> ray.data.Dataset:
    """(w1, w2, n) — exact corpus-wide counts of in-document ADJACENT
    word pairs (empty words dropped before adjacency) ≥ min_count."""

    def bigrams(t: pa.Table) -> pa.Table:
        flat, parents = _batch_words(t, text_col)
        idx = pa.array(np.flatnonzero(parents[:-1] == parents[1:]), pa.int64())
        return pa.table({"w1": flat.take(idx), "w2": flat.take(pc.add(idx, 1))})

    out = exchange_aggregate(
        ds.map_batches(bigrams, batch_format="pyarrow"),
        ["w1", "w2"],
        [(None, "size", "n")],
        out_schema=_GRAM_SCHEMA,
    )
    if min_count > 1:
        out = out.map_batches(
            lambda t: t.filter(pc.greater_equal(t["n"], min_count)),
            batch_format="pyarrow",
        )
    return out


def gram_counts(
    ds: ray.data.Dataset, *, text_col: str = "text"
) -> ray.data.Dataset:
    """Fused ONE-pass fit surface: exact corpus-wide unigram AND
    in-document adjacent bigram counts as one (w1, w2, n) table —
    ``w2`` null marks a unigram row. One ``map_batches`` over the
    corpus, one thin keyed exchange (null keys hash to a fixed
    sentinel, so unigram rows co-locate per word like any other key)."""

    def grams(t: pa.Table) -> pa.Table:
        flat, parents = _batch_words(t, text_col)
        idx = pa.array(np.flatnonzero(parents[:-1] == parents[1:]), pa.int64())
        return pa.table(
            {
                "w1": pa.concat_arrays([flat, flat.take(idx)]),
                "w2": pa.concat_arrays(
                    [pa.nulls(len(flat), flat.type), flat.take(pc.add(idx, 1))]
                ),
            }
        )

    return exchange_aggregate(
        ds.map_batches(grams, batch_format="pyarrow"),
        ["w1", "w2"],
        [(None, "size", "n")],
        out_schema=_GRAM_SCHEMA,
    )


def _total_tokens(grams: ray.data.Dataset) -> int:
    """Distributed sum of UNPRUNED unigram counts — a thin per-batch
    partial + scalar aggregate; the unpruned table never visits the
    driver."""

    def part(t: pa.Table) -> pa.Table:
        s = pc.sum(t.filter(pc.is_null(t["w2"]))["n"]).as_py() or 0
        return pa.table({"s": pa.array([s], pa.int64())})

    return int(grams.map_batches(part, batch_format="pyarrow").sum("s") or 0)


def _build_model(
    uni_t: pa.Table, bi_t: pa.Table, total_tokens: int, alpha: float
) -> dict:
    """Canonical model dict from PRUNED (w, n) / (w1, w2, n) tables —
    shared by the in-memory fit and the artifact load, so both paths
    produce bit-identical scorer state."""
    # canonical vocab order = sorted strings; UNK id = V (one past)
    order = pc.sort_indices(uni_t, sort_keys=[("w", "ascending")])
    uni_t = uni_t.take(order)
    vocab = uni_t["w"].combine_chunks()
    uni_counts = uni_t["n"].to_numpy(zero_copy_only=False).astype(np.int64)

    id1 = pc.index_in(bi_t["w1"], value_set=vocab)
    id2 = pc.index_in(bi_t["w2"], value_set=vocab)
    in_vocab = pc.and_(pc.is_valid(id1), pc.is_valid(id2))
    keep = in_vocab.to_numpy(zero_copy_only=False)
    V = len(vocab)
    i1 = pc.fill_null(id1, 0).to_numpy(zero_copy_only=False).astype(np.int64)[keep]
    i2 = pc.fill_null(id2, 0).to_numpy(zero_copy_only=False).astype(np.int64)[keep]
    bn = bi_t["n"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
    bkeys = i1 * np.int64(V + 1) + i2
    order = np.argsort(bkeys, kind="stable")
    return {
        "vocab": vocab,  # sorted pa.StringArray, ids 0..V-1; UNK = V
        "uni_counts": uni_counts,
        "bigram_keys": bkeys[order],  # sorted packed (id1*(V+1)+id2)
        "bigram_counts": bn[order],
        "total_tokens": total_tokens,
        "alpha": float(alpha),
    }


def fit_word_bigram_counts(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    min_count: int = 2,
    alpha: float = 1.0,
) -> dict:
    """Train the LM: exact corpus-wide unigram + in-document-adjacent
    bigram counts, pruned at ``min_count``. Returns the model dict
    consumed by :func:`score_word_bigram` (broadcast it via
    ``ray.put``). ONE corpus read (fused :func:`gram_counts` pass);
    ``total_tokens`` and the prune are distributed, so at 100 TB the
    driver only ever holds grams seen >= min_count times —
    ``min_count`` is the driver-exposure lever, and past it use
    :func:`save_lm_artifact` (no driver pull at all)."""
    grams = gram_counts(ds, text_col=text_col)
    total_tokens = _total_tokens(grams)
    pruned = grams.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n"], min_count)),
        batch_format="pyarrow",
    )
    tabs = [b for b in pruned.iter_batches(batch_format="pyarrow")]
    t = pa.concat_tables(tabs) if tabs else _GRAM_SCHEMA.empty_table()
    is_uni = pc.is_null(t["w2"])
    uni_t = pa.table(
        {"w": t.filter(is_uni)["w1"], "n": t.filter(is_uni)["n"]}
    )
    bi_t = t.filter(pc.invert(is_uni)).select(["w1", "w2", "n"])
    return _build_model(uni_t, bi_t, total_tokens, alpha)


def _score_batch(
    t: pa.Table, model: dict, text_col: str, out_col: str
) -> pa.Table:
    """Per-batch ppl kernel (shared by the broadcast and artifact
    scorer paths): exp(-mean add-alpha bigram log-prob) per document.
    Deterministic across batch sizes: each doc's pairs reduce in
    position order over its own segment only."""
    vocab: pa.Array = model["vocab"]
    V = len(vocab)
    uni_ext = np.zeros(V + 1, dtype=np.int64)
    uni_ext[:V] = model["uni_counts"]  # UNK unigram count = 0
    alpha = model["alpha"]
    n_docs = t.num_rows
    out = np.zeros(n_docs, dtype=np.float64)
    flat, parents = _batch_words(t, text_col)
    if len(flat) >= 2:
        ids = pc.index_in(flat, value_set=vocab)
        ids = (
            pc.fill_null(ids, V).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        same = parents[:-1] == parents[1:]
        pos = np.flatnonzero(same)
        if len(pos):
            k = ids[pos] * np.int64(V + 1) + ids[pos + 1]
            loc = np.searchsorted(model["bigram_keys"], k)
            loc_c = np.minimum(loc, len(model["bigram_keys"]) - 1)
            if len(model["bigram_keys"]):
                hit = model["bigram_keys"][loc_c] == k
                c2 = np.where(hit, model["bigram_counts"][loc_c], 0)
            else:
                c2 = np.zeros(len(k), dtype=np.int64)
            lp = np.log(c2 + alpha) - np.log(
                uni_ext[ids[pos]] + alpha * (V + 1)
            )
            doc_of = parents[pos]
            npairs = np.bincount(doc_of, minlength=n_docs)
            valid = npairs >= 1
            starts = np.searchsorted(doc_of, np.flatnonzero(valid))
            sums = np.zeros(n_docs, dtype=np.float64)
            # pairs of one doc are contiguous in pos order, so plain
            # reduceat over the valid docs' start offsets is exact
            sums[valid] = np.add.reduceat(lp, starts)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(
                    valid, np.exp(-(sums / np.maximum(npairs, 1))), 0.0
                )
    return t.append_column(out_col, pa.array(out, pa.float64()))


def score_word_bigram(
    ds: ray.data.Dataset,
    model_ref,
    *,
    text_col: str = "text",
    out_col: str = "lm_ppl",
) -> ray.data.Dataset:
    """Append ``out_col`` under the fitted model (``model_ref`` =
    ``ray.put(model)`` — fetched zero-copy once per task)."""

    def score(t: pa.Table) -> pa.Table:
        model = ray.get(model_ref) if isinstance(model_ref, ray.ObjectRef) else model_ref
        return _score_batch(t, model, text_col, out_col)

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Partitioned on-disk LM artifact — the 100-TB fit path
# ---------------------------------------------------------------------------

_LM_META = "meta.json"


def save_lm_artifact(
    ds: ray.data.Dataset,
    path: str,
    *,
    text_col: str = "text",
    min_count: int = 2,
    alpha: float = 1.0,
    n_parts: int = 16,
) -> dict:
    """Fit the word-bigram LM and persist the PRUNED counts as a
    hash-partitioned Parquet artifact (``part=K/counts.parquet`` +
    ``meta.json``) — the counts never visit the driver: the fused
    gram pass, the prune, and the per-partition writes all run inside
    the exchange. Partitioning is by the engine-pinned crc32 of ``w1``
    (``state.checkpoint.add_partition_column``), so any (w1, w2) pair's
    count is answerable from exactly one partition. Writes are atomic
    (temp + rename) and idempotent (one deterministic file per
    partition — a retried reduce task overwrites its own output).
    Returns (and writes) the meta dict."""
    import os

    from ..state.checkpoint import add_partition_column
    from .incremental import _atomic_write

    # clear any prior artifact at this path FIRST: a re-fit with fewer
    # partitions (or a corpus where some partition is empty) would
    # otherwise leave stale part=K/counts.parquet files that
    # load_lm_model / score_word_bigram_exchange silently read,
    # yielding a model mixing two corpora
    if os.path.isdir(path):
        import glob as _glob
        import shutil as _shutil

        for d in _glob.glob(os.path.join(path, "part=*")):
            _shutil.rmtree(d, ignore_errors=True)
        meta_p = os.path.join(path, "meta.json")
        if os.path.exists(meta_p):
            os.unlink(meta_p)
    os.makedirs(path, exist_ok=True)
    grams = gram_counts(ds, text_col=text_col)
    total_tokens = _total_tokens(grams)
    pruned = grams.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n"], min_count)),
        batch_format="pyarrow",
    ).map_batches(
        lambda t: add_partition_column(t, n_parts, key="w1"),
        batch_format="pyarrow",
    )

    def write_parts(t: pa.Table) -> pa.Table:
        # this reducer owns every row of each part value it sees; one
        # sorted deterministic file per part
        parts = pc.unique(t["part"]).to_pylist()
        rows = []
        for p in sorted(parts):
            sub = t.filter(pc.equal(t["part"], p)).select(["w1", "w2", "n"])
            sub = sub.take(
                pc.sort_indices(
                    sub, sort_keys=[("w1", "ascending"), ("w2", "ascending")]
                )
            )
            d = os.path.join(path, f"part={int(p):05d}")
            os.makedirs(d, exist_ok=True)
            _atomic_write(sub, os.path.join(d, "counts.parquet"))
            rows.append((int(p), sub.num_rows))
        return pa.table(
            {
                "part": pa.array([r[0] for r in rows], pa.int64()),
                "rows": pa.array([r[1] for r in rows], pa.int64()),
            }
        )

    stats_schema = pa.schema([("part", pa.int64()), ("rows", pa.int64())])
    stats = hash_exchange_map_groups(
        pruned,
        write_parts,
        key="part",
        out_schema=stats_schema,
    ).to_pandas()
    # V (pruned vocab size) — needed by the exchange-join scorer's
    # add-alpha denominator; distributed count over the (materialized-
    # refs) pruned stream, so still no driver pull
    n_unigrams = int(
        pruned.map_batches(
            lambda t: pa.table(
                {
                    "c": pa.array(
                        [pc.sum(pc.is_null(t["w2"]).cast(pa.int64())).as_py() or 0],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("c")
        or 0
    )
    meta = {
        "total_tokens": total_tokens,
        "alpha": float(alpha),
        "min_count": int(min_count),
        "n_parts": int(n_parts),
        "n_rows": int(stats["rows"].sum()) if len(stats) else 0,
        "n_unigrams": n_unigrams,
        "text_col": text_col,
    }
    import json

    with open(os.path.join(path, _LM_META), "w") as f:
        json.dump(meta, f)
    return meta


def lm_artifact_nbytes(path: str) -> int:
    import glob
    import os

    return sum(
        os.path.getsize(f)
        for f in glob.glob(os.path.join(path, "part=*", "*.parquet"))
    )


def load_lm_model(path: str) -> dict:
    """Read the artifact back into the canonical scorer dict —
    bit-identical to :func:`fit_word_bigram_counts` on the same corpus
    (pytest-pinned): partition files are already (w1, w2)-sorted and
    :func:`_build_model` re-canonicalizes vocab order anyway."""
    import glob
    import json
    import os

    import pyarrow.parquet as pq

    with open(os.path.join(path, _LM_META)) as f:
        meta = json.load(f)
    files = sorted(glob.glob(os.path.join(path, "part=*", "*.parquet")))
    t = (
        pq.read_table(files)
        if files
        else _GRAM_SCHEMA.empty_table()
    )
    is_uni = pc.is_null(t["w2"])
    uni_t = pa.table({"w": t.filter(is_uni)["w1"], "n": t.filter(is_uni)["n"]})
    bi_t = t.filter(pc.invert(is_uni)).select(["w1", "w2", "n"])
    return _build_model(uni_t, bi_t, meta["total_tokens"], meta["alpha"])


def score_word_bigram_artifact(
    ds: ray.data.Dataset,
    path: str,
    *,
    text_col: str = "text",
    out_col: str = "lm_ppl",
) -> ray.data.Dataset:
    """Score against a saved artifact in place: while its on-disk bytes
    stay under the broadcast bound (``joins._BROADCAST_PAYLOAD_BYTES``,
    the bound every small-side broadcast pulls under) the model is
    loaded once and ``ray.put`` (zero-copy per task). Past the bound it
    logs the exchange route and refuses, naming it: appending a column
    in place needs the model resident, and
    :func:`score_word_bigram_exchange` scores at any size."""
    nbytes = lm_artifact_nbytes(path)
    bound = joins._BROADCAST_PAYLOAD_BYTES
    route = "broadcast" if nbytes <= bound else "exchange"
    joins._log.info(
        "score_word_bigram_artifact: %s route, %d bytes on disk, bound %d bytes",
        route, nbytes, bound,
    )
    if route == "exchange":
        raise NotImplementedError(
            f"LM artifact is {nbytes} bytes > the broadcast bound of {bound} "
            "bytes: this scorer appends a column in place, which needs the "
            "model resident; use score_word_bigram_exchange (keyed exchange "
            "join against the partitioned counts, returns (id, ppl)) at that scale"
        )
    ref = ray.put(load_lm_model(path))
    return score_word_bigram(ds, ref, text_col=text_col, out_col=out_col)


def score_word_bigram_exchange(
    ds: ray.data.Dataset,
    path: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    out_col: str = "lm_ppl",
) -> ray.data.Dataset:
    """The past-any-heap scoring path: ppl via a KEYED EXCHANGE JOIN
    against the partitioned artifact — no task ever holds more than one
    count partition, so the model can be arbitrarily large. Returns
    ``(id_col, out_col)`` (per-doc result, not an appended column —
    appending in place is exactly what requires a resident model).

    Shape: one corpus pass emits (doc, w1, w2) adjacency rows; an
    exchange keyed on ``w1`` (the artifact's own crc32 partitioning, so
    each reduce task co-locates its pair rows with exactly ONE
    ``part=K/counts.parquet`` file it reads locally) computes add-alpha
    log-probs and collapses them to per-doc (Σlp, n) partials; a second
    thin exchange keyed on the doc id merges partials with zero-seeds
    (every doc scores, pair-less docs get the 0.0 convention). Equal to
    the broadcast scorer up to float summation order (rtol 1e-9,
    pytest-pinned) — the fixed-order reduceat guarantee is the
    broadcast paths' property only."""
    import json
    import os
    import zlib as _zlib

    import pyarrow.parquet as pq

    with open(os.path.join(path, _LM_META)) as f:
        meta = json.load(f)
    n_parts, V, alpha = int(meta["n_parts"]), int(meta["n_unigrams"]), meta["alpha"]
    if n_parts < 2:
        raise ValueError("exchange-join scoring needs an artifact with n_parts >= 2")
    id_type = ds.schema().base_schema.field(id_col).type
    pairs_schema = pa.schema(
        [("doc", id_type), ("w1", pa.string()), ("w2", pa.string())]
    )
    part_schema = pa.schema(
        [("doc", id_type), ("lp", pa.float64()), ("n", pa.int64())]
    )

    def pair_rows(t: pa.Table) -> pa.Table:
        flat, parents = _batch_words(t, text_col)
        if len(flat) < 2:
            return pairs_schema.empty_table()
        same = parents[:-1] == parents[1:]
        pos = np.flatnonzero(same)
        if len(pos) == 0:
            return pairs_schema.empty_table()
        ids = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        return pa.table(
            {
                "doc": ids.take(pa.array(parents[pos], pa.int64())),
                "w1": flat.take(pa.array(pos, pa.int64())),
                "w2": flat.take(pa.array(pos + 1, pa.int64())),
            },
            schema=pairs_schema,
        )

    def seeds(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc": t[id_col],
                "lp": pa.array(np.zeros(t.num_rows), pa.float64()),
                "n": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
            },
            schema=part_schema,
        )

    def _arr(ca) -> pa.Array:
        if isinstance(ca, pa.ChunkedArray):
            ca = ca.combine_chunks()
            return ca if isinstance(ca, pa.Array) else (
                ca.chunk(0) if ca.num_chunks else pa.array([], ca.type)
            )
        return ca

    def lookup(tt: pa.Table) -> pa.Table:
        # every row here shares crc32(w1) % n_parts — read that ONE
        # artifact partition (unigrams for c1 AND w1-keyed bigrams for
        # c2 live in it by construction)
        part = _zlib.crc32(tt["w1"][0].as_py().encode("utf-8")) % n_parts
        f = os.path.join(path, f"part={part:05d}", "counts.parquet")
        grams = (
            pq.read_table(f) if os.path.exists(f) else _GRAM_SCHEMA.empty_table()
        )
        is_uni = pc.is_null(grams["w2"])
        uni = grams.filter(is_uni)
        bi = grams.filter(pc.invert(is_uni))
        w1 = _arr(tt["w1"])
        w2 = _arr(tt["w2"])
        c1_idx = pc.index_in(w1, value_set=_arr(uni["w1"]))
        c1 = pc.fill_null(
            _arr(uni["n"]).take(c1_idx) if uni.num_rows else pa.nulls(len(w1), pa.int64()),
            0,
        ).to_numpy(zero_copy_only=False)
        # exact (w1, w2) match via a shared local code space (no
        # separator-composition collisions)
        vocab_all = pc.unique(
            pa.concat_arrays(
                [_arr(bi["w1"]), _arr(bi["w2"]), w1.cast(pa.string()), w2.cast(pa.string())]
            )
        )
        L = np.int64(len(vocab_all) + 1)
        b1 = pc.index_in(_arr(bi["w1"]), value_set=vocab_all).cast(pa.int64()).to_numpy(zero_copy_only=False)
        b2 = pc.index_in(_arr(bi["w2"]), value_set=vocab_all).cast(pa.int64()).to_numpy(zero_copy_only=False)
        bkeys = b1 * L + b2
        order = np.argsort(bkeys, kind="stable")
        bkeys_s = bkeys[order]
        bn = _arr(bi["n"]).to_numpy(zero_copy_only=False)[order]
        q1 = pc.index_in(w1, value_set=vocab_all).cast(pa.int64()).to_numpy(zero_copy_only=False)
        q2 = pc.index_in(w2, value_set=vocab_all).cast(pa.int64()).to_numpy(zero_copy_only=False)
        qk = q1 * L + q2
        if len(bkeys_s):
            loc = np.searchsorted(bkeys_s, qk)
            loc_c = np.minimum(loc, len(bkeys_s) - 1)
            hit = bkeys_s[loc_c] == qk
            c2 = np.where(hit, bn[loc_c], 0)
        else:
            c2 = np.zeros(len(qk), dtype=np.int64)
        lp = np.log(c2 + alpha) - np.log(c1 + alpha * (V + 1))
        out = (
            pa.table({"doc": tt["doc"], "lp": pa.array(lp, pa.float64())})
            .group_by("doc")
            .aggregate([("lp", "sum"), ("lp", "count")])
        )
        return pa.table(
            {
                "doc": out["doc"],
                "lp": out["lp_sum"],
                "n": out["lp_count"].cast(pa.int64()),
            },
            schema=part_schema,
        )

    def per_doc(t: pa.Table) -> pa.Table:
        g = t.group_by("doc").aggregate([("lp", "sum"), ("n", "sum")])
        lp = g["lp_sum"].to_numpy(zero_copy_only=False)
        n = g["n_sum"].to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            ppl = np.where(n > 0, np.exp(-(lp / np.maximum(n, 1))), 0.0)
        return pa.table(
            {id_col: g["doc"], out_col: pa.array(ppl, pa.float64())},
            schema=pa.schema([(id_col, id_type), (out_col, pa.float64())]),
        )

    pair_ds = ds.map_batches(pair_rows, batch_format="pyarrow")
    seed_ds = ds.select_columns([id_col]).map_batches(seeds, batch_format="pyarrow")
    partials = hash_exchange_map_groups(
        pair_ds,
        lookup,
        key="w1",
        n_reducers=n_parts,
        out_schema=part_schema,
    )
    return hash_exchange_map_groups(
        partials.union(seed_ds),
        per_doc,
        key="doc",
        out_schema=pa.schema([(id_col, id_type), (out_col, pa.float64())]),
    )


def lm_ppl_pipeline(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_count: int = 2,
    alpha: float = 1.0,
) -> ray.data.Dataset:
    """Fit on the corpus, score the same corpus (the CCNet self-ppl
    diagnostic): returns (id, lm_ppl). The fit is a barrier (the model
    must exist before scoring); the score pass streams."""
    model = fit_word_bigram_counts(
        ds, text_col=text_col, min_count=min_count, alpha=alpha
    )
    ref = ray.put(model)
    scored = score_word_bigram(ds, ref, text_col=text_col)
    return scored.map_batches(
        lambda t: t.select([id_col, "lm_ppl"]), batch_format="pyarrow"
    )
