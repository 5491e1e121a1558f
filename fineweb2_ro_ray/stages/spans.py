"""Duplicate-span removal: delete every word k-gram occurrence whose
gram appears >= ``min_count`` times in the WHOLE corpus (including
within-document repeats), and rebuild each document from its surviving
words in original order.

This is the "exact substring deduplication" step of Lee et al.,
*Deduplicating Training Data Makes Language Models Better* (ACL 2022,
arXiv:2107.06499 §4.1 — their EXACTSUBSTR), restated at word-k-gram
granularity so the dup condition is SQL-expressible (the paper's
suffix-array formulation marks byte spans; the k-gram form marks the
same repeated regions with a fixed resolution of ``k`` words). The
reference corpus consumes an upstream dedup of this family
(``/root/reference/fineweb/fineweb2_download.py:22``); this operator
is the engine-native producer side.

Scale shape — three stages, none driver-resident:

1. **Gram keys** are 128-bit (two independent 64-bit hashes: pandas
   ``hash_array`` word hashes combined by two polynomial rolls), built
   per batch from ONE flat word array — no per-row Python, windows
   never cross documents. A 128-bit collision (~2^-128 per pair) is
   the only divergence from string-equality semantics.
2. **Dup-gram set** via a THIN count exchange: per-batch Arrow
   ``group_by`` partials (gram, n), hash-exchanged on the gram key,
   kept where the summed count >= min_count. The exchange moves
   16-byte keys + a count — never gram strings, never positions.
3. **Rebuild**: ``broadcast`` ships the (bounded) dup-key set once via
   ``ray.put`` and re-scans documents map-side (documents never move);
   ``exchange`` SEMI-joins the per-occurrence rows against the dup set
   on a keyed exchange, then reassembles each document on a second
   exchange keyed by the document id (the boilerplate-scrub shape).
   ``auto`` picks broadcast while the pulled dup set stays under the
   broadcast bound (``joins._pull_bounded``), else exchange.

Output: ``(id_col, text_clean)``. Documents with NO surviving words —
including NULL-text documents, which have no words — emit no row (the
SQL ``JOIN … GROUP BY`` oracle drops them too). Documents shorter than
``k`` words have no grams and survive whole.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..schema import from_pandas_clean
from .boilerplate import _rebuild, _split_col
from .exchange import hash_exchange_map_groups, sorted_runs
from .joins import _pull_bounded

# 16-char hash keys -> two INDEPENDENT 64-bit word-hash families
_H1_KEY = "fineweb2_spans_1"
_H2_KEY = "fineweb2_spans_2"
_BASE1 = np.uint64(1099511628211)  # FNV-64 prime
_BASE2 = np.uint64(6364136223846793005)  # PCG multiplier

_PAIR_DT = np.dtype([("g1", "<u8"), ("g2", "<u8")])


def _word_hashes(flat: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    # hash UNIQUE words only (dictionary encode) and gather per
    # instance — hash_array is elementwise-deterministic so the values
    # are identical to hashing every instance, but natural text repeats
    # words heavily: the object conversion + two hash passes shrink
    # from the full word stream to the vocabulary (~600 -> ~55 ms per
    # 1.5M-word batch). flat never contains nulls (split of a non-null
    # string; null texts produce null LISTS, which list_flatten skips).
    dic = flat.dictionary_encode()
    uobj = dic.dictionary.to_numpy(zero_copy_only=False)
    idx = dic.indices.to_numpy(zero_copy_only=False)
    h1 = pd.util.hash_array(uobj, hash_key=_H1_KEY, categorize=False).astype(np.uint64)
    h2 = pd.util.hash_array(uobj, hash_key=_H2_KEY, categorize=False).astype(np.uint64)
    return h1[idx], h2[idx]


def _poly_windows(h: np.ndarray, k: int, base: np.uint64) -> np.ndarray:
    """Rolling polynomial combine of k consecutive word hashes (mod
    2^64) — one vectorized pass, k shifted adds."""
    L = len(h)
    with np.errstate(over="ignore"):
        g = np.zeros(L - k + 1, dtype=np.uint64)
        for j in range(k):
            g = g * base + h[j : L - k + 1 + j]
    return g


def _batch_windows(t: pa.Table, *, text_col: str, k: int, sep: str):
    """Per-batch flat word view + all in-document window keys.

    Returns (flat words, parents, doc word offsets, window flat start
    indices, g1, g2) — windows crossing a document boundary excluded."""
    lst = _split_col(t, text_col, sep)
    parents = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lst)
    lens = (
        pc.fill_null(pc.list_value_length(lst), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    L = len(flat)
    if L < k:
        z = np.array([], np.int64)
        return flat, parents, offsets, z, z.astype(np.uint64), z.astype(np.uint64)
    h1, h2 = _word_hashes(flat)
    g1 = _poly_windows(h1, k, _BASE1)
    g2 = _poly_windows(h2, k, _BASE2)
    valid = parents[: L - k + 1] == parents[k - 1 :]
    win = np.arange(L - k + 1, dtype=np.int64)[valid]
    return flat, parents, offsets, win, g1[valid], g2[valid]


def gram_occurrences(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 4,
    sep: str = " ",
) -> ray.data.Dataset:
    """(id, start, g1, g2) — one row per in-document word k-gram
    occurrence; ``start`` is the 1-based word position (matches SQL
    ``generate_subscripts``)."""

    def occ(t: pa.Table) -> pa.Table:
        flat, parents, offsets, win, g1, g2 = _batch_windows(
            t, text_col=text_col, k=k, sep=sep
        )
        par = parents[win] if len(win) else np.array([], np.int64)
        start = win - offsets[par] + 1
        return pa.table(
            {
                id_col: t[id_col].take(pa.array(par, pa.int64())),
                "start": pa.array(start, pa.int64()),
                "g1": pa.array(g1, pa.uint64()),
                "g2": pa.array(g2, pa.uint64()),
            }
        )

    return ds.map_batches(occ, batch_format="pyarrow")


_DUP_SCHEMA = pa.schema([("g1", pa.uint64()), ("g2", pa.uint64())])


def duplicated_grams(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 4,
    sep: str = " ",
    min_count: int = 2,
    n_reducers: int | None = None,
    with_canonical: bool = False,
) -> ray.data.Dataset:
    """Distinct gram keys whose TOTAL occurrence count across the
    corpus >= min_count. Thin exchange: per-batch (g1, g2, n) partials
    only. With ``with_canonical`` each key also carries its
    lexicographically-first occurrence (min (id, start) — the copy a
    keep-one-copy dedup preserves): partials pre-reduce to one
    candidate per gram per batch, the exchange min-merges them, so the
    canonical columns add 12-16 bytes per DISTINCT gram per batch and
    nothing per occurrence."""

    def partials(t: pa.Table) -> pa.Table:
        flat, parents, offsets, win, g1, g2 = _batch_windows(
            t, text_col=text_col, k=k, sep=sep
        )
        if not with_canonical:
            g = (
                pa.table(
                    {"g1": pa.array(g1, pa.uint64()), "g2": pa.array(g2, pa.uint64())}
                )
                .group_by(["g1", "g2"])
                .aggregate([("g1", "count")])
            )
            return pa.table(
                {"g1": g["g1"], "g2": g["g2"], "n": g["g1_count"].cast(pa.int64())}
            )
        par = parents[win] if len(win) else np.array([], np.int64)
        start = win - offsets[par] + 1
        df = pa.table(
            {
                "g1": pa.array(g1, pa.uint64()),
                "g2": pa.array(g2, pa.uint64()),
                "cid": t[id_col].take(pa.array(par, pa.int64())),
                "cstart": pa.array(start, pa.int64()),
            }
        ).to_pandas()
        df = df.sort_values(["g1", "g2", "cid", "cstart"], kind="mergesort")
        g = df.groupby(["g1", "g2"], as_index=False, sort=False).agg(
            n=("cstart", "size"), cid=("cid", "first"), cstart=("cstart", "first")
        )
        g["n"] = g["n"].astype(np.int64)
        return from_pandas_clean(g[["g1", "g2", "n", "cid", "cstart"]])

    cnt = ds.map_batches(partials, batch_format="pyarrow")

    if not with_canonical:

        def tot(t: pa.Table) -> pa.Table:
            g = t.group_by(["g1", "g2"]).aggregate([("n", "sum")])
            return g.filter(pc.greater_equal(g["n_sum"], min_count)).select(
                ["g1", "g2"]
            )

        return hash_exchange_map_groups(
            cnt,
            tot,
            key="g1",
            n_reducers=n_reducers,
            out_schema=_DUP_SCHEMA,
        )

    id_type = ds.schema().base_schema.field(id_col).type
    out_schema = pa.schema(
        [
            ("g1", pa.uint64()),
            ("g2", pa.uint64()),
            ("cid", id_type),
            ("cstart", pa.int64()),
        ]
    )

    def tot_canon(t: pa.Table) -> pa.Table:
        st, starts = sorted_runs(
            t, ["g1", "g2"], [("cid", "ascending"), ("cstart", "ascending")]
        )
        n = np.add.reduceat(st["n"].to_numpy(), starts[:-1])
        first = st.take(pa.array(starts[:-1]))
        return first.filter(pa.array(n >= min_count)).select(
            ["g1", "g2", "cid", "cstart"]
        )

    return hash_exchange_map_groups(
        cnt, tot_canon, key="g1", n_reducers=n_reducers, out_schema=out_schema
    )


def _member(
    sorted_pairs: np.ndarray, g1: np.ndarray, g2: np.ndarray, *, with_pos: bool = False
):
    """Exact vectorized membership of (g1, g2) in a sorted 128-bit set.
    With ``with_pos`` also returns each query's index into the sorted
    set (meaningful only where the mask is True)."""
    if len(sorted_pairs) == 0 or len(g1) == 0:
        mask = np.zeros(len(g1), dtype=bool)
        return (mask, np.zeros(len(g1), np.int64)) if with_pos else mask
    q = np.empty(len(g1), dtype=_PAIR_DT)
    q["g1"], q["g2"] = g1, g2
    pos = np.minimum(np.searchsorted(sorted_pairs, q), len(sorted_pairs) - 1)
    mask = sorted_pairs[pos] == q
    return (mask, pos) if with_pos else mask


def _mask_and_rebuild(
    flat: pa.Array,
    parents: np.ndarray,
    hit_starts: np.ndarray,
    k: int,
    n_docs: int,
    sep: str,
):
    """Word-coverage mask from duplicated-window flat start indices
    (+1/-1 delta + cumsum — overlapping spans merge for free), then the
    shared per-doc rebuild."""
    delta = np.zeros(len(flat) + k + 1, dtype=np.int64)
    np.add.at(delta, hit_starts, 1)
    np.add.at(delta, hit_starts + k, -1)
    covered = np.cumsum(delta[: len(flat)]) > 0
    return _rebuild(flat, ~covered, parents, n_docs, sep)


def remove_duplicate_spans(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 4,
    sep: str = " ",
    min_count: int = 2,
    strategy: str = "auto",
    n_reducers: int | None = None,
    out_col: str = "text_clean",
    keep_first: bool = False,
) -> ray.data.Dataset:
    """Duplicate-span removal (see module docstring). ``id_col`` must
    uniquely identify a document (the reassembly / GROUP BY key).

    ``keep_first=True`` is the paper's actual dedup semantics: the
    lexicographically-FIRST occurrence of each duplicated gram (min
    (id, start)) is exempt from removal, so one copy of every repeated
    region survives; the default False removes every occurrence (the
    stricter contamination-style scrub)."""
    if strategy not in ("auto", "broadcast", "exchange"):
        raise ValueError(f"unknown strategy {strategy!r}")
    dup = duplicated_grams(
        ds,
        text_col=text_col,
        id_col=id_col,
        k=k,
        sep=sep,
        min_count=min_count,
        n_reducers=n_reducers,
        with_canonical=keep_first,
    )
    # the DF exchange is a barrier: the pull reads materialized reduce
    # outputs, no corpus re-scan
    pulled = None if strategy == "exchange" else _pull_bounded(dup, "remove_duplicate_spans")
    if strategy == "broadcast" and pulled is None:
        raise ValueError("dup-gram set exceeds the broadcast bound; use strategy='exchange'")

    if pulled is not None:
        ddf = (
            pa.concat_tables(pulled).to_pandas()
            if pulled
            else pd.DataFrame(columns=["g1", "g2", "cid", "cstart"])
        )
        raw = np.empty(len(ddf), dtype=_PAIR_DT)
        raw["g1"] = ddf["g1"].to_numpy(dtype=np.uint64)
        raw["g2"] = ddf["g2"].to_numpy(dtype=np.uint64)
        order = np.argsort(raw, kind="stable")
        pairs = raw[order]
        ref = ray.put(pairs)
        if keep_first:
            canon_ref = ray.put(
                (
                    ddf["cid"].to_numpy()[order],
                    ddf["cstart"].to_numpy(dtype=np.int64)[order],
                )
            )

        def scrub(t: pa.Table) -> pa.Table:
            flat, parents, offsets, win, g1, g2 = _batch_windows(
                t, text_col=text_col, k=k, sep=sep
            )
            mask, pos = _member(ray.get(ref), g1, g2, with_pos=True)
            if keep_first and mask.any():
                cid, cstart = ray.get(canon_ref)
                par = parents[win] if len(win) else np.array([], np.int64)
                ids = t[id_col].to_numpy(zero_copy_only=False)[par]
                start = win - offsets[par] + 1
                canonical = mask & (ids == cid[pos]) & (start == cstart[pos])
                mask = mask & ~canonical
            hits = win[mask]
            joined, kept = _mask_and_rebuild(flat, parents, hits, k, t.num_rows, sep)
            out = pa.table({id_col: t[id_col], out_col: joined})
            return out.filter(pa.array(kept > 0))

        return ds.map_batches(scrub, batch_format="pyarrow")

    # exchange path: SEMI-join occurrences against the dup set (keyed
    # exchange on the gram key), then reassemble per document with the
    # covered starts and the document text co-located on a second
    # exchange — nothing driver-resident
    from .joins import hash_join

    occ = gram_occurrences(ds, text_col=text_col, id_col=id_col, k=k, sep=sep)
    if keep_first:
        dup_r = dup.map_batches(
            lambda t: t.rename_columns(["g1_r", "g2_r", "cid", "cstart"]),
            batch_format="pyarrow",
        )
        joined = hash_join(
            occ, dup_r, key=["g1", "g2"], right_key=["g1_r", "g2_r"], how="inner"
        )
        covered = joined.map_batches(
            lambda t: t.filter(
                pc.invert(
                    pc.and_(
                        pc.equal(t[id_col], t["cid"]),
                        pc.equal(t["start"], t["cstart"]),
                    )
                )
            ).select([id_col, "start"]),
            batch_format="pyarrow",
        )
    else:
        dup_r = dup.map_batches(
            lambda t: t.rename_columns(["g1_r", "g2_r"]), batch_format="pyarrow"
        )
        covered = hash_join(
            occ, dup_r, key=["g1", "g2"], right_key=["g1_r", "g2_r"], how="semi"
        ).select_columns([id_col, "start"])

    id_type = ds.schema().base_schema.field(id_col).type
    # explicit row tag — _txt can't double as the tag because doc rows
    # may carry genuinely NULL text ('' would conflate with empty docs)
    docs = ds.map_batches(
        lambda t: pa.table(
            {
                id_col: t[id_col],
                "start": pa.nulls(t.num_rows, pa.int64()),
                "_txt": t[text_col],
                "_tag": pa.array(np.ones(t.num_rows, np.int8)),
            }
        ),
        batch_format="pyarrow",
    )
    spans = covered.map_batches(
        lambda t: pa.table(
            {
                id_col: t[id_col],
                "start": t["start"],
                "_txt": pa.nulls(t.num_rows, pa.string()),
                "_tag": pa.array(np.zeros(t.num_rows, np.int8)),
            }
        ),
        batch_format="pyarrow",
    )
    both = docs.union(spans)
    out_schema = pa.schema([(id_col, id_type), (out_col, pa.string())])

    def reassemble(t: pa.Table) -> pa.Table:
        is_doc = pc.equal(t["_tag"], 1)
        d = t.filter(is_doc)
        s = t.filter(pc.invert(is_doc))
        dt = pa.table({id_col: d[id_col], text_col: d["_txt"]})
        lst = _split_col(dt, text_col, sep)
        parents = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(lst)
        lens = (
            pc.fill_null(pc.list_value_length(lst), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        # map span rows to their doc row via sorted-id searchsorted
        ids_d = d[id_col].to_numpy(zero_copy_only=False)
        ids_s = s[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids_d, kind="stable")
        row_of = order[np.searchsorted(ids_d[order], ids_s)]
        starts = s["start"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit_flat = offsets[row_of] + starts - 1
        joined, kept = _mask_and_rebuild(flat, parents, hit_flat, k, d.num_rows, sep)
        out = pa.table({id_col: d[id_col], out_col: joined})
        return out.filter(pa.array(kept > 0))

    return hash_exchange_map_groups(
        both,
        reassemble,
        key=id_col,
        n_reducers=n_reducers,
        out_schema=out_schema,
    )
