"""SemDeDup (stages/semdedup.py): cluster-then-intra-cluster cosine
dedup, both keep rules, vs a naive single-process reference."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data


def _mk_ds(x, ids=None):
    n, d = x.shape
    vid = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
    t = pa.table(
        {
            "vec_id": pa.array(vid),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(x.reshape(-1).astype(np.float64)), d
            ),
        }
    )
    return ray.data.from_arrow(t).repartition(4)


def _naive(x, vid, cent, labels, tau, mode):
    """Reference: exact-L2 assignment (first-min tie-break), then the
    stated keep rule within each cluster."""
    cn = cent / np.maximum(np.linalg.norm(cent, axis=1, keepdims=True), 1e-30)
    xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-30)
    d2 = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    a = np.argmin(d2, axis=1)
    clus = labels[a]
    kept = np.ones(len(x), dtype=bool)
    for cl in np.unique(clus):
        rows = np.where(clus == cl)[0]
        rows = rows[np.argsort(vid[rows])]
        sub = xn[rows]
        sims = sub @ sub.T
        m = len(rows)
        if mode == "min_id":
            for j in range(m):
                if any(sims[i, j] >= tau for i in range(j)):
                    kept[rows[j]] = False
        else:  # component: union-find, keep lowest cos-to-centroid
            parent = list(range(m))

            def find(z):
                while parent[z] != z:
                    parent[z] = parent[parent[z]]
                    z = parent[z]
                return z

            involved = set()
            for i in range(m):
                for j in range(i + 1, m):
                    if sims[i, j] >= tau:
                        ri, rj = find(i), find(j)
                        if ri != rj:
                            parent[max(ri, rj)] = min(ri, rj)
                        involved.update((i, j))
            cidx = int(np.where(labels == cl)[0][0])
            cosc = sub @ cn[cidx]
            comps: dict[int, list[int]] = {}
            for i in involved:
                comps.setdefault(find(i), []).append(i)
            for mem in comps.values():
                keeper = min(mem, key=lambda i: (cosc[i], i))
                for i in mem:
                    if i != keeper:
                        kept[rows[i]] = False
    return clus, kept


@pytest.mark.parametrize("mode", ["min_id", "component"])
def test_semdedup_matches_naive(ray_session, mode):
    from fineweb2_ro_ray.stages.semdedup import semdedup_flags

    rng = np.random.default_rng(11)
    base = rng.normal(size=(6, 5))
    # planted near-dup groups: each base vector plus tiny jitters
    rows = []
    for b in base:
        for _ in range(rng.integers(2, 6)):
            rows.append(b + rng.normal(scale=0.05, size=5))
    x = np.array(rows)
    vid = rng.permutation(len(x)).astype(np.int64)
    ds = _mk_ds(x, ids=vid)
    cent = base[:3].astype(np.float64)
    labels = np.array([2, 5, 9], dtype=np.int64)
    out = (
        semdedup_flags(ds, cent, tau=0.9, labels=labels, mode=mode)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    clus_ref, kept_ref = _naive(x, vid, cent, labels, 0.9, mode)
    order = np.argsort(vid)
    assert list(out["vec_id"]) == list(vid[order])
    np.testing.assert_array_equal(out["cluster"].to_numpy(), clus_ref[order])
    np.testing.assert_array_equal(out["kept"].to_numpy(), kept_ref[order])
    # sanity: the planted jitter groups actually produced drops
    assert (~out["kept"]).sum() > 0


def test_semdedup_component_keeps_outlier(ray_session):
    from fineweb2_ro_ray.stages.semdedup import semdedup_flags

    # one cluster, three mutually-similar rows; the one LEAST similar
    # to the centroid must be the keeper regardless of id order
    cent = np.array([[1.0, 0.0, 0.0]])
    x = np.array(
        [
            [1.0, 0.02, 0.0],  # id 0: very centroid-like
            [1.0, 0.00, 0.0],  # id 1: exactly the centroid
            [1.0, 0.30, 0.1],  # id 2: the outlier -> keeper
        ]
    )
    ds = _mk_ds(x)
    out = (
        semdedup_flags(ds, cent, tau=0.9, mode="component")
        .to_pandas()
        .sort_values("vec_id")
    )
    assert list(out["kept"]) == [False, False, True]
    # min_id rule keeps the SMALLEST id instead
    out2 = (
        semdedup_flags(ds, cent, tau=0.9, mode="min_id")
        .to_pandas()
        .sort_values("vec_id")
    )
    assert list(out2["kept"]) == [True, False, False]


def test_semdedup_filter_roundtrip(ray_session):
    from fineweb2_ro_ray.stages.semdedup import semdedup_filter, semdedup_flags

    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 4))
    x[20:] = x[:20] + rng.normal(scale=0.01, size=(20, 4))  # 20 near-dups
    ds = _mk_ds(x)
    cent = x[:2].astype(np.float64)
    flags = semdedup_flags(ds, cent, tau=0.95).to_pandas()
    kept_ids = set(flags.loc[flags["kept"], "vec_id"])
    out = semdedup_filter(ds, cent, tau=0.95).to_pandas()
    assert set(out["vec_id"]) == kept_ids
    assert len(out) < 40  # something was actually dropped


def test_semdedup_pair_bound_fallback(ray_session):
    from fineweb2_ro_ray.stages.semdedup import semdedup_flags

    # identical rows -> dense pair graph; past max_pairs the component
    # rule must fall back to min_id (keep the smallest id only)
    x = np.tile(np.array([1.0, 2.0, 3.0]), (12, 1))
    ds = _mk_ds(x)
    cent = np.array([[1.0, 2.0, 3.0]])
    out = (
        semdedup_flags(
            ds, cent, tau=0.99, mode="component", max_pairs_per_cluster=3
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    assert list(out["kept"]) == [True] + [False] * 11


def test_semdedup_filter_exchange_path_equals_broadcast(ray_session, monkeypatch):
    from fineweb2_ro_ray.stages import joins
    from fineweb2_ro_ray.stages.semdedup import semdedup_filter

    rng = np.random.default_rng(9)
    x = rng.normal(size=(30, 4))
    x[15:] = x[:15] + rng.normal(scale=0.01, size=(15, 4))
    ds = _mk_ds(x)
    cent = x[:2].astype(np.float64)
    a = semdedup_filter(ds, cent, tau=0.95).to_pandas()
    monkeypatch.setattr(joins, "_BROADCAST_PAYLOAD_BYTES", 0)  # anti-join route
    b = semdedup_filter(ds, cent, tau=0.95).to_pandas()
    assert sorted(a["vec_id"]) == sorted(b["vec_id"])
    assert sorted(a.columns) == sorted(b.columns)
