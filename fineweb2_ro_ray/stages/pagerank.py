"""Distributed PageRank (integer fixed-point power iteration).

The iterative-graph shape the engine otherwise lacks: K rounds of
"ship each node's rank along its out-edges, sum at the destination" —
per round ONE thin exchange join (ranks → edges on src) and ONE thin
keyed sum (contributions on dst); edge rows carry (src, dst,
out-degree) only, rank rows (id, r) only. The edge table (+ per-src
out-degree) is built once — distinct edges via a keyed exchange, the
degree attached by a second — and MATERIALIZED, because K dependent
iterations re-consume it (Ray lineage would otherwise re-derive it
from the raw input every round; the distinct edge set is the small
invariant working set, the same justification as bpe_train's shards).

Arithmetic is INTEGER fixed-point so the result is bit-deterministic
under any execution order and SQL-expressible (DuckDB mirrors it with
unrolled-CTE iterations and BIGINT ``//``):

    r_0(v)   = SCALE                        (SCALE = 10^12)
    c(u→v)   = (85 * r_i(u)) // (100 * d_out(u))
    r_{i+1}(v) = (15 * SCALE) // 100 + Σ_{u→v} c(u→v)

i.e. standard damping 0.85 with every division floored — the rank mass
a real-valued PageRank would spread as fractions is truncated
identically on both sides, and dangling-node mass is dropped (nodes
with no out-edges contribute nothing; their own rank still updates).
Node ids must be int64; callers building bipartite graphs offset one
side into a disjoint id range.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .exchange import (
    exchange_aggregate,
    exchange_distinct,
    hash_exchange_map_groups,
    sorted_runs,
)

SCALE = 10**12


def distinct_edges(ds: ray.data.Dataset, src: str = "src", dst: str = "dst") -> ray.data.Dataset:
    """Exact distinct (src, dst) via per-batch local distinct (the
    combiner) + one keyed exchange."""

    def local(b: pa.Table) -> pa.Table:
        return b.select([src, dst]).group_by([src, dst]).aggregate([])

    return exchange_distinct(ds.map_batches(local, batch_format="pyarrow"), [src, dst])


def pagerank(
    edges: ray.data.Dataset,
    *,
    n_iters: int = 3,
    src: str = "src",
    dst: str = "dst",
) -> ray.data.Dataset:
    """Integer fixed-point PageRank over a directed edge Dataset.
    Returns (id, r) for every node appearing as src OR dst. See the
    module docstring for the exact (SQL-mirrored) recurrence."""
    e = distinct_edges(edges, src, dst)

    # attach out-degree to each edge row once: (src, dst, d)
    def deg_reduce(t: pa.Table) -> pa.Table:
        t, starts = sorted_runs(t, [src])
        lens = np.diff(starts)
        return t.append_column("d", pa.array(np.repeat(lens, lens), pa.int64()))

    ewd = hash_exchange_map_groups(e, deg_reduce, key=src).materialize()

    # node universe: src ∪ dst, exact distinct
    def nodes_local(b: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [
                b[src].combine_chunks().cast(pa.int64()),
                b[dst].combine_chunks().cast(pa.int64()),
            ]
        )
        return pa.table({"id": ids}).group_by(["id"]).aggregate([])

    nodes = exchange_distinct(
        ewd.map_batches(nodes_local, batch_format="pyarrow"), "id"
    ).materialize()  # thin (id) rows; re-joined every iteration

    # Rank rows are (_rs, r) between rounds: already named as the
    # join's right key, so every hash_join below gets materialized or
    # exchange-output sides whose schema Ray knows without executing
    # anything. A lazy rename map on a join side would make the join's
    # schema probe run that map and cancel its in-flight tasks. The
    # last round names the column ``id`` for the caller.
    def rank_table(ids, r, last: bool) -> pa.Table:
        return pa.table({"id" if last else "_rs": ids, "r": r})

    def init(b: pa.Table) -> pa.Table:
        r = pa.array(np.full(b.num_rows, SCALE, np.int64), pa.int64())
        return rank_table(b["id"], r, n_iters == 0)

    ranks = nodes.map_batches(init, batch_format="pyarrow").materialize()
    base = 15 * SCALE // 100

    from .joins import hash_join

    for i in range(n_iters):
        # contributions: edges ⋈ ranks on src (one thin exchange join),
        # then one keyed sum on dst
        j = hash_join(ewd, ranks, key=src, right_key="_rs", how="inner")

        def contrib(b: pa.Table) -> pa.Table:
            r = b["r"].to_numpy(zero_copy_only=False).astype(np.int64)
            d = b["d"].to_numpy(zero_copy_only=False).astype(np.int64)
            ids = b[dst].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"_cs": ids, "c": (85 * r) // (100 * d)})

        sums = exchange_aggregate(
            j.map_batches(contrib, batch_format="pyarrow"), "_cs", [("c", "sum", "c")]
        )
        merged = hash_join(nodes, sums, key="id", right_key="_cs", how="left")

        def new_rank(b: pa.Table, last: bool = i == n_iters - 1) -> pa.Table:
            import pyarrow.compute as pc

            c = pc.fill_null(b["c"], 0).cast(pa.int64())
            return rank_table(b["id"], pc.add(c, base), last)

        ranks = merged.map_batches(new_rank, batch_format="pyarrow").materialize()

    return ranks
