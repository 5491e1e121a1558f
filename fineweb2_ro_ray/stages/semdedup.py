"""SemDeDup — semantic deduplication over an embedding column
(Abbas et al. 2023, arXiv:2303.09540).

The scale trick that makes embedding near-dedup tractable at corpus
size: instead of an all-pairs O(N²) cosine scan (``similarity.
embedding_neardup_pairs``), first CLUSTER the embeddings (k-means,
``stages/clustering.py``) and only compare WITHIN a cluster — O(Σ m_c²)
with m_c ≈ N/k, a k-fold compute reduction controlled entirely by k
(the paper uses k in the tens of thousands at web scale).

Engine shape:

- **Assignment** reuses :func:`clustering.kmeans_assign` — centroids
  broadcast once via ``ray.put``, one vectorized exact-L2 argmin pass.
- **Co-location** of each cluster's rows is ONE keyed exchange
  (:func:`exchange.hash_exchange_map_groups` on the integer cluster
  id) — the only all-to-all in the operator, moving (id, embedding,
  cluster) thin rows. The per-partition body never sees more than its
  clusters.
- **Within-cluster scan is chunked**: rows sorted by id, normalized
  once, then per row-chunk one (chunk × m) matmul against the
  already-seen prefix — peak memory O(chunk · m) regardless of
  cluster size, exact O(m²/2) compute.
- **Skew**: one giant cluster lands on one reducer and its m² scan
  dominates — the standard SemDeDup failure mode; the lever is k
  (more, smaller clusters), same as the paper. The exchange routes
  each cluster independently so a hot cluster only skews its own
  partition.

Two deterministic keep rules:

- ``mode="min_id"`` (default, oracle-expressible): a row is dropped
  iff SOME same-cluster row with a SMALLER id has cosine ≥ tau —
  the ``NOT EXISTS`` form a SQL engine can verify value-exactly.
  Note this is not the sequential greedy scan (a row similar only to
  an already-dropped smaller row is still dropped).
- ``mode="component"`` (paper-faithful): connected components of the
  thresholded within-cluster pair graph; each component keeps the
  example LEAST similar to the cluster centroid (lowest cosine,
  ties → smallest id) — SemDeDup's "keep the outlier" rule that
  preserves diversity. Components need the pair list, so per-cluster
  pair counts are bounded by ``max_pairs_per_cluster`` (clusters past
  the bound fall back to ``min_id``, logged in the output via
  ``kept`` semantics staying deterministic).

The reference repo has no semantic-dedup operator (its corpus
inherits FineWeb2's MinHash dedup upstream); this extends the engine's
dedup family (SURVEY.md §2.7) on the embedding axis.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .clustering import kmeans_assign
from .similarity import _to_matrix

# bound on the (chunk, m) float64 similarity slab per cluster scan
_CHUNK_FLOATS = 4_000_000


def _normalize(x: np.ndarray) -> np.ndarray:
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-30)


def _min_id_kept(xn: np.ndarray, tau: float) -> np.ndarray:
    """kept[j] = not any(cos(j, i) >= tau for i < j), rows pre-sorted
    by id and pre-normalized. Chunked triangular scan."""
    m = len(xn)
    kept = np.ones(m, dtype=bool)
    step = max(1, _CHUNK_FLOATS // max(1, m))
    for s in range(1, m, step):
        e = min(s + step, m)
        sims = xn[s:e] @ xn[:e].T  # (e-s, e)
        cols = np.arange(e)
        mask = cols[None, :] < np.arange(s, e)[:, None]
        kept[s:e] = ~((sims >= tau) & mask).any(axis=1)
    return kept


def _threshold_pairs(
    xn: np.ndarray, tau: float, max_pairs: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """All local (i < j, cos >= tau) index pairs, or None once the
    count exceeds ``max_pairs`` (caller falls back to min_id)."""
    m = len(xn)
    ii: list[np.ndarray] = []
    jj: list[np.ndarray] = []
    total = 0
    step = max(1, _CHUNK_FLOATS // max(1, m))
    for s in range(1, m, step):
        e = min(s + step, m)
        sims = xn[s:e] @ xn[:e].T
        cols = np.arange(e)
        mask = cols[None, :] < np.arange(s, e)[:, None]
        r, c = np.nonzero((sims >= tau) & mask)
        total += len(r)
        if total > max_pairs:
            return None
        ii.append(c)
        jj.append(r + s)
    if not ii:
        return np.array([], np.int64), np.array([], np.int64)
    return np.concatenate(ii).astype(np.int64), np.concatenate(jj).astype(np.int64)


def _union_find_labels(m: int, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Min-index component label per row (0..m-1) under the pair
    edges — vectorized neighbor-min label propagation (np.minimum.at
    + pointer jumping), the same kernel as the driver path of
    :func:`components.connected_components`; a per-edge Python
    union-find loop was measured there as the hot spot at 444k edges
    and this site is bounded at ``max_pairs_per_cluster`` (5M) edges
    inside ONE reducer task."""
    lab = np.arange(m, dtype=np.int64)
    if len(ii) == 0:
        return lab
    while True:
        mn = np.minimum(lab[ii], lab[jj])
        new = lab.copy()
        np.minimum.at(new, ii, mn)
        np.minimum.at(new, jj, mn)
        while True:  # full pointer-jump collapse (strictly decreasing)
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, lab):
            return lab
        lab = new


def _component_kept(
    xn: np.ndarray, cent_n: np.ndarray, tau: float, max_pairs: int
) -> np.ndarray:
    """Paper rule: per connected component of the thresholded graph,
    keep the row with the LOWEST cosine to the cluster centroid
    (ties → smallest id = smallest local index, rows id-sorted)."""
    pairs = _threshold_pairs(xn, tau, max_pairs)
    if pairs is None:  # bounded fallback, still deterministic
        return _min_id_kept(xn, tau)
    ii, jj = pairs
    m = len(xn)
    kept = np.ones(m, dtype=bool)
    if len(ii) == 0:
        return kept
    labels = _union_find_labels(m, ii, jj)
    cos_c = xn @ cent_n
    # keeper per component: argmin (cos_c, index); np.lexsort gives the
    # stable (cos, index) order, first occurrence per label wins
    order = np.lexsort((np.arange(m), cos_c))
    seen: set[int] = set()
    involved = np.zeros(m, dtype=bool)
    involved[ii] = True
    involved[jj] = True
    for idx in order:
        lab = int(labels[idx])
        if not involved[idx]:
            continue
        if lab in seen:
            kept[idx] = False
        else:
            seen.add(lab)
    return kept


def semdedup_flags(
    ds: ray.data.Dataset,
    centroids: np.ndarray,
    *,
    tau: float = 0.45,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    labels: np.ndarray | None = None,
    mode: str = "min_id",
    max_pairs_per_cluster: int = 5_000_000,
    n_reducers: int | None = None,
) -> ray.data.Dataset:
    """Per-row SemDeDup verdict: ``(id, cluster, kept)`` for EVERY
    input row. ``centroids``/``labels`` as in
    :func:`clustering.kmeans_assign` (labels must be ascending).
    See module docstring for the two ``mode`` rules."""
    if mode not in ("min_id", "component"):
        raise ValueError(f"unknown mode {mode!r}")
    from .exchange import hash_exchange_map_groups

    c = np.asarray(centroids, dtype=np.float64)
    cent_n = _normalize(c)
    lab = (
        np.arange(len(c), dtype=np.int64)
        if labels is None
        else np.asarray(labels, dtype=np.int64)
    )
    # cluster label -> centroid row, for the component rule
    cent_by_label = {int(l): cent_n[i] for i, l in enumerate(lab)}
    cent_ref = ray.put(cent_by_label)

    assigned = kmeans_assign(
        ds, c, id_col=id_col, emb_col=emb_col, labels=lab, out_col="cluster"
    )

    out_schema = pa.schema(
        [
            pa.field(id_col, pa.int64()),
            pa.field("cluster", pa.int64()),
            pa.field("kept", pa.bool_()),
        ]
    )

    def per_partition(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        cents = ray.get(cent_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        clus = t["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = _to_matrix(t[emb_col])
        out_ids: list[np.ndarray] = []
        out_cl: list[np.ndarray] = []
        out_kept: list[np.ndarray] = []
        order = np.argsort(clus, kind="stable")
        clus_s = clus[order]
        bounds = np.searchsorted(
            clus_s, np.unique(clus_s), side="left"
        ).tolist() + [len(clus_s)]
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            sel = order[b0:b1]
            sub_ids = ids[sel]
            io = np.argsort(sub_ids, kind="stable")
            sub_ids = sub_ids[io]
            xn = _normalize(x[sel][io].astype(np.float64))
            cl = int(clus_s[b0])
            if mode == "component":
                kept = _component_kept(
                    xn, cents[cl], tau, max_pairs_per_cluster
                )
            else:
                kept = _min_id_kept(xn, tau)
            out_ids.append(sub_ids)
            out_cl.append(np.full(len(sub_ids), cl, dtype=np.int64))
            out_kept.append(kept)
        return pa.table(
            {
                id_col: pa.array(np.concatenate(out_ids), pa.int64()),
                "cluster": pa.array(np.concatenate(out_cl), pa.int64()),
                "kept": pa.array(np.concatenate(out_kept), pa.bool_()),
            }
        )

    return hash_exchange_map_groups(
        assigned,
        per_partition,
        key="cluster",
        n_reducers=n_reducers,
        out_schema=out_schema,
    )


def semdedup_filter(
    ds: ray.data.Dataset,
    centroids: np.ndarray,
    *,
    tau: float = 0.45,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    labels: np.ndarray | None = None,
    mode: str = "min_id",
    max_pairs_per_cluster: int = 5_000_000,
    n_reducers: int | None = None,
) -> ray.data.Dataset:
    """The consuming form: the original rows with dropped ids removed.
    The dropped-id set is bounded by the corpus DUP RATE, not its
    size; it is pulled to the driver and broadcast sorted while the
    pull stays under the broadcast bound (``joins._pull_bounded``).
    Past the bound the driver pull is abandoned and the corpus is
    anti-joined against the distributed dropped-flag table through the
    keyed exchange instead (``joins.hash_join(how="anti")``) — driver
    memory stays O(bound) at any dup rate. The thin (id-only) dropped
    table is MATERIALIZED once before the pull so the expensive flags
    pipeline (assignment + exchange + O(m²) cluster scans) never
    re-executes on the anti-join path; holding it in the object store
    costs 8 B/dup."""
    from .joins import _pull_bounded, hash_join

    flags = semdedup_flags(
        ds,
        centroids,
        tau=tau,
        id_col=id_col,
        emb_col=emb_col,
        labels=labels,
        mode=mode,
        max_pairs_per_cluster=max_pairs_per_cluster,
        n_reducers=n_reducers,
    )
    dropped_ds = flags.map_batches(
        lambda t: t.filter(
            pc.invert(t["kept"].combine_chunks())
        ).select([id_col]),
        batch_format="pyarrow",
    ).materialize()
    pulled = _pull_bounded(dropped_ds, "semdedup_filter")
    if pulled is None:
        dropped_r = dropped_ds.map_batches(
            lambda t: t.rename_columns(["__drop_id"]), batch_format="pyarrow"
        )
        return hash_join(ds, dropped_r, key=id_col, right_key="__drop_id", how="anti")

    ids = [b[id_col].to_numpy(zero_copy_only=False).astype(np.int64) for b in pulled]
    dropped = np.sort(np.concatenate(ids)) if ids else np.array([], np.int64)
    ref = ray.put(dropped)

    def keep(t: pa.Table) -> pa.Table:
        d = ray.get(ref)
        if len(d) == 0 or t.num_rows == 0:
            return t
        ids = t[id_col].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(d, ids), len(d) - 1)
        return t.filter(pa.array(d[pos] != ids))

    return ds.map_batches(keep, batch_format="pyarrow")
