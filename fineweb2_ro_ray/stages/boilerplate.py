"""Corpus-level boilerplate scrub: remove text units (lines, or any
separator-delimited unit) that occur in >= ``min_docs`` DISTINCT
documents, and rebuild each document from its surviving units in
original order.

This is the CCNet / RefinedWeb "deduplicate at the line level against
the whole dump" step (Wenzek et al., arXiv:1911.00359 §4.1; Penedo et
al., arXiv:2306.01116 §3.3) — navigation menus, cookie banners and
share buttons repeat verbatim across pages and survive document-level
dedup. The reference's per-turn ``dup_lines`` rule
(SURVEY.md §2, A1 heuristics) is the WITHIN-document analog; this
operator is the cross-corpus one, and needs a shuffle.

Shapes (both exact; selected by ``strategy``):

- ``broadcast`` — a THIN count exchange first: each batch emits one
  ``(unit, n_docs_in_batch)`` partial per distinct unit (a document
  never spans batches, so per-batch distinct-doc counts sum exactly);
  the reduce keeps units with total >= min_docs. That heavy set is by
  construction <= total_units / min_docs distinct values; while its
  pull stays under the broadcast bound (``joins._pull_bounded``) it
  ships once via ``ray.put`` and every batch rebuilds its documents
  map-side with zero further shuffle.
- ``exchange`` — when the heavy set is too large to broadcast: ANTI
  hash-join the exploded units against the heavy set (one keyed
  exchange), then reassemble documents with a second exchange keyed on
  the document id. Nothing is ever collected on the driver.
- ``auto`` (default) — broadcast if the heavy set fits, else exchange.

Output: ``(id_col, text_clean)``. Documents with NO surviving units —
including NULL-text documents, which have no units — emit no row
(the SQL ``JOIN … GROUP BY`` oracle shape drops them too).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .exchange import hash_exchange_map_groups
from .joins import _pull_bounded


def _split_col(t: pa.Table, text_col: str, sep: str) -> pa.Array:
    col = t[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.split_pattern(col, pattern=sep)


def explode_units(
    ds: ray.data.Dataset, *, text_col: str, id_col: str, sep: str
) -> ray.data.Dataset:
    """(id, ord, unit) — one row per separator-delimited unit, 1-based
    original position. NULL text emits no rows (SQL UNNEST on a NULL
    split). Split + delegate to the reshape UNNEST kernel."""
    from .reshape import explode_list

    def split(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t[id_col], "_units": _split_col(t, text_col, sep)})

    return explode_list(
        ds.map_batches(split, batch_format="pyarrow"),
        list_col="_units",
        id_cols=[id_col],
        pos_col="ord",
        val_col="unit",
    )


_DF_SCHEMA = pa.schema([("unit", pa.string()), ("nd", pa.int64())])


def unit_doc_frequencies(
    ds: ray.data.Dataset,
    *,
    text_col: str,
    sep: str,
    n_reducers: int | None = None,
) -> ray.data.Dataset:
    """(unit, nd) — distinct-document frequency of every unit. One THIN
    exchange: batches move (unit, partial distinct-doc count), never
    per-occurrence rows (a document never spans batches, so per-batch
    distinct-doc partials sum exactly)."""

    def partials(t: pa.Table) -> pa.Table:
        lst = _split_col(t, text_col, sep)
        parents = pc.list_parent_indices(lst)
        flat = pc.list_flatten(lst)
        if len(flat) == 0:
            return pa.table(
                {"unit": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        # Arrow group_by, NOT pandas: pandas' string hash table uses
        # C-string semantics, so units differing only past an embedded
        # NUL ('' vs '\x00') collide in drop_duplicates/groupby
        # (hypothesis-found). Arrow hashes the full binary value.
        dd = (
            pa.table({"unit": flat, "p": parents})
            .group_by(["unit", "p"])
            .aggregate([])
        )
        n = dd.group_by("unit").aggregate([("p", "count")])
        return pa.table(
            {
                "unit": n["unit"],
                "n": n["p_count"].cast(pa.int64()),
            }
        )

    cnt = ds.map_batches(partials, batch_format="pyarrow")

    def tot(t: pa.Table) -> pa.Table:
        g = t.group_by("unit").aggregate([("n", "sum")])
        return g.select(["unit", "n_sum"]).rename_columns(["unit", "nd"])

    return hash_exchange_map_groups(
        cnt,
        tot,
        key="unit",
        n_reducers=n_reducers,
        out_schema=_DF_SCHEMA,
    )


def heavy_units(
    ds: ray.data.Dataset,
    *,
    text_col: str,
    sep: str,
    min_docs: int,
    n_reducers: int | None = None,
) -> ray.data.Dataset:
    """Distinct units occurring in >= min_docs documents (the
    boilerplate set) — document frequencies filtered at the reduce."""
    df = unit_doc_frequencies(ds, text_col=text_col, sep=sep, n_reducers=n_reducers)
    return df.map_batches(
        lambda t: t.filter(pc.greater_equal(t["nd"], min_docs)).select(["unit"]),
        batch_format="pyarrow",
    )


def _rebuild(flat: pa.Array, keep: np.ndarray, parents: np.ndarray, n_docs: int, sep: str):
    """Filtered units → per-doc joined strings + per-doc kept counts."""
    kept_per_doc = np.bincount(parents[keep], minlength=n_docs).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(kept_per_doc)))
    lst = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), flat.filter(pa.array(keep))
    )
    return pc.binary_join(lst, sep), kept_per_doc


def remove_frequent_units(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    min_docs: int = 2,
    strategy: str = "auto",
    n_reducers: int | None = None,
    out_col: str = "text_clean",
) -> ray.data.Dataset:
    """Corpus-level boilerplate scrub (see module docstring).

    ``id_col`` must uniquely identify a document (it is the GROUP BY /
    reassembly key — the same precondition the SQL oracle's
    ``GROUP BY doc_id`` carries): rows sharing an id would have their
    units counted as separate documents and reassembled interleaved."""
    if strategy not in ("auto", "broadcast", "exchange"):
        raise ValueError(f"unknown strategy {strategy!r}")
    heavy = heavy_units(
        ds, text_col=text_col, sep=sep, min_docs=min_docs, n_reducers=n_reducers
    )
    # the DF exchange is a barrier, so `heavy` is backed by materialized
    # reduce outputs: the pull never re-scans the corpus
    pulled = None if strategy == "exchange" else _pull_bounded(heavy, "remove_frequent_units")
    if strategy == "broadcast" and pulled is None:
        raise ValueError("heavy set exceeds the broadcast bound; use strategy='exchange'")

    if pulled is not None:
        heavy_arr = (
            pa.concat_tables(pulled)["unit"].combine_chunks().cast(pa.string())
            if pulled
            else pa.array([], pa.string())  # empty heavy set
        )
        ref = ray.put(heavy_arr)

        def scrub(t: pa.Table) -> pa.Table:
            lst = _split_col(t, text_col, sep)
            parents = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)
            flat = pc.list_flatten(lst)
            hv = ray.get(ref)
            keep = np.logical_not(
                pc.is_in(flat, value_set=hv).to_numpy(zero_copy_only=False)
            )
            joined, kept_per_doc = _rebuild(flat, keep, parents, t.num_rows, sep)
            out = pa.table({id_col: t[id_col], out_col: joined})
            return out.filter(pa.array(kept_per_doc > 0))

        return ds.map_batches(scrub, batch_format="pyarrow")

    # exchange path: anti-join occurrences against the heavy set, then
    # reassemble per document — both sides distributed end to end
    from .joins import hash_join

    units = explode_units(ds, text_col=text_col, id_col=id_col, sep=sep)
    # past the bound the heavy set is non-empty; only a forced exchange
    # can meet an empty one, which has no schema to join on
    if strategy == "exchange" and heavy.count() == 0:
        survivors = units  # nothing to scrub; still reassemble (drops NULL text)
    else:
        heavy_r = heavy.map_batches(
            lambda t: t.rename_columns(["unit_r"]), batch_format="pyarrow"
        )
        survivors = hash_join(
            units, heavy_r, key="unit", right_key="unit_r", how="anti"
        )

    id_type = ds.schema().base_schema.field(id_col).type
    out_schema = pa.schema([(id_col, id_type), (out_col, pa.string())])

    def reassemble(t: pa.Table) -> pa.Table:
        t = t.sort_by([(id_col, "ascending"), ("ord", "ascending")])
        ids = t[id_col].to_numpy(zero_copy_only=False)
        uniq, starts = np.unique(ids, return_index=True)
        order = np.argsort(starts)  # np.unique sorts by value; keep row order
        starts = starts[order]
        uniq = uniq[order]
        offsets = np.concatenate((starts, [len(ids)]))
        lst = pa.LargeListArray.from_arrays(
            pa.array(offsets.astype(np.int64), pa.int64()),
            t["unit"].combine_chunks() if isinstance(t["unit"], pa.ChunkedArray) else t["unit"],
        )
        return pa.table(
            {
                id_col: pa.array(uniq).cast(id_type),
                out_col: pc.binary_join(lst, sep),
            }
        )

    return hash_exchange_map_groups(
        survivors,
        reassemble,
        key=id_col,
        n_reducers=n_reducers,
        out_schema=out_schema,
    )


def top_terms_per_doc(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = " ",
    k: int = 3,
    n_reducers: int | None = None,
) -> ray.data.Dataset:
    """Top-k characteristic terms per document, ranked by
    (term frequency DESC, document frequency ASC, term ASC) — the
    integer-exact cousin of tf-idf (idf is monotone-decreasing in df,
    so within equal tf the df ASC order IS the tf-idf order; across tf
    the lexicographic rank trades the log weighting for bit-exact
    reproducibility against a SQL oracle — no float in any key).

    Output: (id_col, term, tf, nd, rk), rk in 1..k. NULL-text docs emit
    no rows. ``id_col`` must uniquely identify a document (the tf
    combiner and the oracle's ``GROUP BY doc_id, term`` both assume it).

    Shape: per-batch (doc, term, tf) combiner (exact — a doc never
    spans batches) → thin DF exchange (``unit_doc_frequencies``) →
    both-sides-large INNER hash join on term → per-doc top-k in a
    reassembly exchange keyed on the doc id. Nothing driver-resident;
    the vocabulary is never broadcast."""
    from .joins import hash_join

    def tf_rows(t: pa.Table) -> pa.Table:
        lst = _split_col(t, text_col, sep)
        parents = pc.list_parent_indices(lst)
        flat = pc.list_flatten(lst)
        if len(flat) == 0:
            return pa.table(
                {
                    id_col: t[id_col].slice(0, 0),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                }
            )
        # Arrow group_by for the same embedded-NUL reason as `partials`
        g = (
            pa.table({"p": parents, "term": flat})
            .group_by(["p", "term"])
            .aggregate([("term", "count")])
        )
        return pa.table(
            {
                id_col: t[id_col].take(g["p"]),
                "term": g["term"],
                "tf": g["term_count"].cast(pa.int64()),
            }
        )

    tf = ds.map_batches(tf_rows, batch_format="pyarrow")
    df = unit_doc_frequencies(ds, text_col=text_col, sep=sep, n_reducers=n_reducers).map_batches(lambda t: t.rename_columns(["term_r", "nd"]), batch_format="pyarrow")
    joined = hash_join(tf, df, key="term", right_key="term_r", how="inner")

    id_type = ds.schema().base_schema.field(id_col).type
    out_schema = pa.schema(
        [
            (id_col, id_type),
            ("term", pa.string()),
            ("tf", pa.int64()),
            ("nd", pa.int64()),
            ("rk", pa.int64()),
        ]
    )

    def topk(t: pa.Table) -> pa.Table:
        from .exchange import run_rank, sorted_runs

        d, starts = sorted_runs(
            t.select([id_col, "term", "tf", "nd"]),
            [id_col],
            [("tf", "descending"), ("nd", "ascending"), ("term", "ascending")],
        )
        rk = run_rank(starts) + 1
        return d.append_column("rk", pa.array(rk)).filter(pa.array(rk <= k))

    return hash_exchange_map_groups(
        joined,
        topk,
        key=id_col,
        n_reducers=n_reducers,
        out_schema=out_schema,
    )
