"""Distributed ordered prefix-scan + GPT-style sequence packing.

``pack_spans`` computes, for every document, its EXACT global token
offset under "concatenate all documents in ``id_col`` order, then cut
every ``budget`` tokens" — the standard concat-and-chunk sample-packing
step between a cleaned corpus and a pretraining dataloader (the stage
the reference feeds with its text-only Parquet corpus,
``/root/reference/small_model_inference/parquet.py:8-35``, and counts
tokens for at ``fineweb/tokenize_fineweb2.py:20-34``). A document may
span pack boundaries; the output reports its global ``tok_start`` and
first/last pack index.

The global offset is an ORDERED PREFIX SUM — the one primitive no
embarrassingly-parallel map can express, because row i's result
depends on every row before it in a total order. The classic
distributed scan (Blelloch) restated over Ray Data:

1. **Boundaries**: a deterministic mergeable quantile sketch over
   ``id_col`` (``sketches.quantile_sketch`` — rank error ≲ 3/m) picks
   R−1 interior split points, giving R contiguous id RANGES of roughly
   equal row count. Only load balance depends on the sketch; the scan
   below is exact for ANY boundaries.
2. **Range sums**: one pass emits per-batch ``(range_id, Σ n_tok)``
   partials — R tiny rows per batch; the driver folds them into R
   range totals and prefix-sums ONCE (an R-element cumsum — the only
   sequential step, microseconds for thousands of ranges).
3. **Scan**: the thin ``(id, n_tok)`` stream is hash-exchanged on
   ``range_id`` (every range lands whole on one reducer), each
   partition sorts ITS ranges by id and adds ``base[range_id]`` to a
   local cumsum — exact global offsets with nothing sequential left.

Bytes moved: the thin projection (~16 B/row + any passenger columns),
twice; the text column never leaves the read stage. Assumption
(documented contract): the ordering key is unique — ties would make
"the previous document" undefined (DuckDB's ``ORDER BY doc_id`` window
has the same requirement for a deterministic answer).

``sort_col`` supports NON-numeric total orders (e.g. a deterministic
md5 shuffle): ``id_col`` is then a numeric ORDER SURROGATE (monotone
non-strict in ``sort_col`` — e.g. the md5's leading 8 bytes) used only
for range assignment; rows within a partition sort by the exact
``sort_col``. Equal surrogates always land in one range (searchsorted
is consistent), so the cross-range order stays exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .exchange import hash_exchange_map_groups, sorted_runs
from .sketches import quantile_sketch


def _range_ids(ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Range index per id: bounds are R-1 sorted interior split points;
    range r covers (bounds[r-1], bounds[r]]."""
    return np.searchsorted(bounds, ids, side="left").astype(np.int64)


def _arrow_type(base, name: str) -> pa.DataType:
    if isinstance(base, pa.Schema):
        return base.field(name).type
    # pandas-block source: numpy dtypes
    dt = dict(zip(base.names, base.types))[name]
    if dt == object:
        return pa.string()
    return pa.from_numpy_dtype(dt)


def pack_spans(
    thin: ray.data.Dataset,
    *,
    budget: int,
    id_col: str = "doc_id",
    n_col: str = "n_tok",
    sort_col: str | None = None,
    n_ranges: int | None = None,
) -> ray.data.Dataset:
    """Exact global scan over a thin Dataset carrying ``id_col`` (a
    numeric order key / surrogate), ``n_col`` (the summand) and any
    passenger columns.

    Returns a Dataset with every ``thin`` column plus ``(tok_start,
    pack_first, pack_last)`` where ``tok_start`` is the sum of
    ``n_col`` over all rows earlier in the total order (``sort_col``
    if given, else ``id_col``). ``thin`` is materialized (it is the
    scan's small side; the caller projects the corpus down to it
    first)."""
    thin = thin.materialize()
    base = thin.schema().base_schema
    names = list(base.names)
    out_schema = pa.schema(
        [(c, _arrow_type(base, c)) for c in names]
        + [
            ("tok_start", pa.int64()),
            ("pack_first", pa.int64()),
            ("pack_last", pa.int64()),
        ]
    )
    if thin.count() == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    r = n_ranges or max(8, 2 * cpus)
    # rank-uniform boundaries; exactness never depends on them
    qs = [100.0 * i / r for i in range(1, r)]
    bounds = (
        quantile_sketch(thin, id_col, qs)["value"].to_numpy(np.float64)
        if r > 1
        else np.array([], np.float64)
    )
    bounds = np.unique(bounds)
    bounds_ref = ray.put(bounds)

    def range_partial(b: pa.Table) -> pa.Table:
        bd = ray.get(bounds_ref)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.float64)
        n = b[n_col].to_numpy(zero_copy_only=False).astype(np.int64)
        rid = _range_ids(ids, bd)
        sums = np.bincount(rid, weights=n, minlength=len(bd) + 1).astype(np.int64)
        nz = np.flatnonzero(sums)
        return pa.table(
            {
                "range_id": pa.array(nz, pa.int64()),
                "s": pa.array(sums[nz], pa.int64()),
            }
        )

    partials = thin.map_batches(range_partial, batch_format="pyarrow").to_pandas()
    totals = np.zeros(len(bounds) + 1, dtype=np.int64)
    if len(partials):
        agg = partials.groupby("range_id")["s"].sum()
        totals[agg.index.to_numpy()] = agg.to_numpy()
    bases = np.zeros_like(totals)
    np.cumsum(totals[:-1], out=bases[1:])  # exclusive prefix over ranges
    base_ref = ray.put(bases)
    order_col = sort_col or id_col

    def tag(b: pa.Table) -> pa.Table:
        bd = ray.get(bounds_ref)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return b.append_column("range_id", pa.array(_range_ids(ids, bd), pa.int64()))

    def scan(t: pa.Table) -> pa.Table:
        bs = ray.get(base_ref)
        t, starts = sorted_runs(t, ["range_id"], [(order_col, "ascending")])
        n = t[n_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.cumsum(n) - n  # exclusive local cumsum
        rid = t["range_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # restart the local cumsum at each range boundary, add its base
        cum = cum - np.repeat(cum[starts[:-1]], np.diff(starts))
        tok_start = cum + bs[rid]
        out = t.select(names)
        out = out.set_column(names.index(n_col), n_col, pa.array(n, pa.int64()))
        return (
            out.append_column("tok_start", pa.array(tok_start, pa.int64()))
            .append_column("pack_first", pa.array(tok_start // budget, pa.int64()))
            .append_column(
                "pack_last", pa.array((tok_start + n - 1) // budget, pa.int64())
            )
        )

    return hash_exchange_map_groups(
        thin.map_batches(tag, batch_format="pyarrow"),
        scan,
        key="range_id",
        out_schema=out_schema,
    )


def doc_token_counts(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    """Thin (doc_id, n_tok) projection: n_tok = single-space word count
    (DuckDB ``len(string_split(text, ' '))`` semantics — empty text is
    ONE empty word), null text excluded."""

    def counts(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b[text_col]))
        lists = pc.split_pattern(
            t[text_col].combine_chunks()
            if isinstance(t[text_col], pa.ChunkedArray)
            else t[text_col],
            pattern=" ",
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tok": pc.list_value_length(lists).cast(pa.int64()),
            }
        )

    return ds.map_batches(counts, batch_format="pyarrow")


def shuffle_positions(
    ds: ray.data.Dataset, id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Deterministic global shuffle: every row's EXACT 0-based position
    under ``md5(id)`` order — the reproducible corpus shuffle a
    training run needs (same input ⇒ same order on any cluster layout,
    unlike ``random_shuffle``). A unit-summand instance of the scan:
    the md5 hex is the total order (``sort_col``), its leading 8 bytes
    the numeric range surrogate, n≡1 makes ``tok_start`` the row's
    global rank. Returns ``(id_col, shuffle_key, pos)``."""
    import hashlib

    def key(b: pa.Table) -> pa.Table:
        ids = b[id_col].cast(pa.string()).to_pylist()
        hexes = [hashlib.md5(s.encode()) if s is not None else None for s in ids]
        hx = [h.hexdigest() if h is not None else None for h in hexes]
        sur = np.array(
            [int.from_bytes(h.digest()[:8], "big") if h is not None else 0 for h in hexes],
            dtype=np.float64,
        )
        return pa.table(
            {
                id_col: b[id_col],
                "shuffle_key": pa.array(hx, pa.string()),
                "_sur": pa.array(sur, pa.float64()),
                "n": pa.array(np.ones(b.num_rows, np.int64), pa.int64()),
            }
        )

    spans = pack_spans(
        ds.map_batches(key, batch_format="pyarrow"),
        budget=1,
        id_col="_sur",
        n_col="n",
        sort_col="shuffle_key",
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: b[id_col],
                "shuffle_key": b["shuffle_key"],
                "pos": b["tok_start"],
            }
        )

    return spans.map_batches(finish, batch_format="pyarrow")
