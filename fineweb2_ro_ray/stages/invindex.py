"""Partitioned on-disk inverted index — build once, serve term lookups
with file-pruned reads.

``stages.search.bm25_topk`` answers a query by re-scanning the corpus;
that is the right shape for ad-hoc queries over a fresh corpus, but a
curation loop that probes the same 100-TB corpus repeatedly (eval-set
decontamination sweeps, targeted quality audits, "show me documents
containing X") wants the classic IR artifact instead: postings lists
``term → (doc_id, tf)`` persisted once, then any term answered by
reading ONE partition file. Same artifact discipline as the LM counts
(`stages/lm.py:save_lm_artifact`) and the incremental dedup index
(`stages/incremental.py`): hash-partitioned Parquet, atomic idempotent
writes, nothing driver-resident.

Scale shape:

1. build: ONE map pass turns each batch into THIN ``(term, doc_id,
   tf)`` postings (flatten + composite-code ``np.unique`` — tf is
   FINAL per doc already, a doc lives in exactly one batch, so the
   exchange only co-locates, it never merges); one keyed exchange on
   the artifact partition id (``crc32(term) % n_parts``, the engine's
   pinned partitioner) writes one ``(term, doc_id)``-sorted Parquet
   file per partition. Raw text never enters the exchange; bytes moved
   ≈ Σ distinct (doc, term) pairs × ~20 B.
   Each file is written in row groups of ``ROW_GROUP_ROWS`` postings,
   so every row group carries a narrow term min/max.
2. lookup: hash the probe terms, read ONLY their ⌈|terms|⌉ partition
   files (usually ≪ n_parts), and in each only the row groups whose
   term min/max holds a probe term; one vectorized ``is_in`` filter.
   The scan fraction is |hit partitions| / n_parts — the IVF argument
   applied to text.

Tokenization is the engine-wide single-space convention
(``unnest(string_split(text, ' '))`` — empty tokens are real terms),
so the artifact is value-exact checkable against a DuckDB oracle.
"""

from __future__ import annotations

import glob
import json
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..state.checkpoint import add_partition_column
from .exchange import hash_exchange_map_groups
from .incremental import _atomic_write

_META = "meta.json"
# Postings per Parquet row group of a partition file: small enough that
# a lookup decodes a sliver of a large partition, large enough that the
# footer stays small.
ROW_GROUP_ROWS = 64 * 1024

_POSTINGS_SCHEMA = pa.schema(
    [("term", pa.string()), ("doc_id", pa.int64()), ("tf", pa.int64())]
)


def postings_partials(
    b: pa.Table, *, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Per-batch exact postings: one (term, doc_id, tf) row per
    distinct (doc, term) pair. Null texts emit nothing."""
    t = b.filter(pc.is_valid(b[text_col]))
    if t.num_rows == 0:
        return _POSTINGS_SCHEMA.empty_table()
    text = t[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern(text, " ")
    flat = pc.list_flatten(words)
    if len(flat) == 0:
        return _POSTINGS_SCHEMA.empty_table()
    parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    dic = flat.dictionary_encode()
    idx = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    k = len(dic.dictionary)
    # composite (row, term) code; rows*k < batch_rows * batch_vocab —
    # far under 2^63 for any sane batch
    code = parent.astype(np.int64) * k + idx
    uniq, tf = np.unique(code, return_counts=True)
    row_of = uniq // k
    term_of = uniq % k
    ids = t[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    ids_np = ids.to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "term": pc.take(dic.dictionary, pa.array(term_of, pa.int64())),
            "doc_id": pa.array(ids_np[row_of], pa.int64()),
            "tf": pa.array(tf.astype(np.int64), pa.int64()),
        }
    )


def build_inverted_index(
    ds: ray.data.Dataset,
    path: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_parts: int = 16,
) -> dict:
    """Build the artifact at ``path`` (``part=K/postings.parquet`` +
    ``meta.json``). Stale partitions from a prior build are cleared
    first (same staleness rule as the LM artifact: a re-build with
    fewer/empty partitions must not leave old files that lookups
    silently read). Returns (and writes) the meta dict."""
    if os.path.isdir(path):
        import shutil

        for d in glob.glob(os.path.join(path, "part=*")):
            shutil.rmtree(d, ignore_errors=True)
        mp = os.path.join(path, _META)
        if os.path.exists(mp):
            os.unlink(mp)
    os.makedirs(path, exist_ok=True)

    postings = ds.select_columns([id_col, text_col]).map_batches(
        lambda b: postings_partials(b, text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    ).map_batches(
        lambda t: add_partition_column(t, n_parts, key="term"),
        batch_format="pyarrow",
    )

    # read driver-side: the write tasks get the value with the closure
    row_group_rows = ROW_GROUP_ROWS

    def write_parts(t: pa.Table) -> pa.Table:
        parts = pc.unique(t["part"]).to_pylist()
        rows = []
        for p in sorted(parts):
            sub = t.filter(pc.equal(t["part"], p)).select(["term", "doc_id", "tf"])
            sub = sub.take(
                pc.sort_indices(
                    sub, sort_keys=[("term", "ascending"), ("doc_id", "ascending")]
                )
            )
            d = os.path.join(path, f"part={int(p):05d}")
            os.makedirs(d, exist_ok=True)
            _atomic_write(
                sub, os.path.join(d, "postings.parquet"), row_group_size=row_group_rows
            )
            rows.append((int(p), sub.num_rows))
        return pa.table(
            {
                "part": pa.array([r[0] for r in rows], pa.int64()),
                "rows": pa.array([r[1] for r in rows], pa.int64()),
            }
        )

    stats_schema = pa.schema([("part", pa.int64()), ("rows", pa.int64())])
    stats = hash_exchange_map_groups(
        postings,
        write_parts,
        key="part",
        out_schema=stats_schema,
    ).to_pandas()
    meta = {
        "n_parts": int(n_parts),
        "n_postings": int(stats["rows"].sum()) if len(stats) else 0,
        "text_col": text_col,
        "id_col": id_col,
    }
    with open(os.path.join(path, _META), "w") as f:
        json.dump(meta, f)
    return meta


def row_groups_holding(meta, terms: list[str]) -> list[int]:
    """Row groups of a postings file whose ``term`` min/max range holds
    at least one of ``terms`` (a row group without statistics is kept).
    Done by hand: Arrow 16's ``filters=[("term", "in", terms)]`` reads
    every row group, because an ``is_in`` predicate is not checked
    against row-group statistics. Python ``str`` order is code-point
    order, which is the UTF-8 byte order the statistics use."""
    import bisect

    probe = sorted(terms)
    col = meta.schema.to_arrow_schema().get_field_index("term")
    keep = []
    for i in range(meta.num_row_groups):
        st = meta.row_group(i).column(col).statistics
        if st is None or not st.has_min_max:
            keep.append(i)
            continue
        j = bisect.bisect_left(probe, st.min)
        if j < len(probe) and probe[j] <= st.max:
            keep.append(i)
    return keep


def lookup_terms(path: str, terms: list[str]) -> pa.Table:
    """Postings for ``terms``: reads ONLY the partitions the probe
    terms hash into (the whole point of the artifact), and in each file
    only the row groups whose term min/max can hold a probe term. Output
    sorted (term, doc_id) — the partition files already are;
    cross-partition order is restored by one final take."""
    with open(os.path.join(path, _META)) as f:
        meta = json.load(f)
    n_parts = meta["n_parts"]
    by_part: dict[int, list[str]] = {}
    for term in terms:
        p = zlib.crc32(term.encode("utf-8")) % n_parts
        by_part.setdefault(p, []).append(term)
    import pyarrow.parquet as pq

    chunks = []
    for p in sorted(by_part):
        f = os.path.join(path, f"part={p:05d}", "postings.parquet")
        if not os.path.exists(f):
            continue  # partition was empty at build time
        pf = pq.ParquetFile(f)
        t = pf.read_row_groups(row_groups_holding(pf.metadata, by_part[p]))
        chunks.append(t.filter(pc.is_in(t["term"], pa.array(by_part[p]))))
    if not chunks:
        return _POSTINGS_SCHEMA.empty_table()
    out = pa.concat_tables(chunks)
    return out.take(
        pc.sort_indices(
            out, sort_keys=[("term", "ascending"), ("doc_id", "ascending")]
        )
    )


def index_scan_fraction(path: str, terms: list[str]) -> float:
    """Fraction of partition files a lookup touches (the pruning
    evidence a bench records)."""
    with open(os.path.join(path, _META)) as f:
        meta = json.load(f)
    hit = {zlib.crc32(t.encode("utf-8")) % meta["n_parts"] for t in terms}
    return len(hit) / meta["n_parts"]


def search_boolean(
    path: str,
    must: list[str],
    should: list[str] | tuple = (),
    must_not: list[str] | tuple = (),
) -> pa.Table:
    """Boolean document search over the persisted postings artifact
    (round-5): docs containing ALL ``must`` terms, at least one
    ``should`` term (when any are given), and no ``must_not`` term —
    posting-list intersection / union / difference on SORTED int64 doc
    arrays (numpy set kernels), reading ONLY the partitions the query
    terms hash into (same pruning as :func:`lookup_terms`; the
    ``must_not`` side reads its own partitions, never the corpus).
    Output: (doc_id, tf_sum) with tf summed over the present
    must+should terms — the ranking-ready AND/OR/NOT primitive a
    BM25 front end composes. Sorted by doc_id."""
    out_schema = pa.schema(
        [pa.field("doc_id", pa.int64()), pa.field("tf_sum", pa.int64())]
    )
    must = list(dict.fromkeys(must))
    should = list(dict.fromkeys(should))
    must_not = list(dict.fromkeys(must_not))
    all_terms = list(dict.fromkeys(must + should + must_not))
    if not must and not should:
        return out_schema.empty_table()
    posts = lookup_terms(path, all_terms)
    terms_np = posts["term"].to_numpy(zero_copy_only=False)
    docs_np = posts["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    tf_np = posts["tf"].to_numpy(zero_copy_only=False).astype(np.int64)

    def docs_of(term: str) -> np.ndarray:
        return docs_np[terms_np == term]  # sorted (lookup_terms contract)

    cand: np.ndarray | None = None
    for term in must:
        d = docs_of(term)
        cand = d if cand is None else np.intersect1d(cand, d, assume_unique=True)
        if len(cand) == 0:
            return out_schema.empty_table()
    if should:
        union = np.unique(np.concatenate([docs_of(t) for t in should]))
        cand = union if cand is None else cand[np.isin(cand, union, assume_unique=True)]
    for term in must_not:
        cand = np.setdiff1d(cand, docs_of(term), assume_unique=True)
    if cand is None or len(cand) == 0:
        return out_schema.empty_table()
    # tf over the present must+should terms for surviving docs
    pos_terms = set(must) | set(should)
    keep = np.isin(docs_np, cand) & np.isin(
        terms_np, np.array(sorted(pos_terms), dtype=object)
    )
    kd, kt = docs_np[keep], tf_np[keep]
    order = np.argsort(kd, kind="stable")
    kd, kt = kd[order], kt[order]
    starts = np.flatnonzero(np.concatenate([[True], kd[1:] != kd[:-1]]))
    sums = np.add.reduceat(kt, starts)
    return pa.table(
        {
            "doc_id": pa.array(kd[starts], pa.int64()),
            "tf_sum": pa.array(sums.astype(np.int64), pa.int64()),
        }
    )
