"""Range-partitioned sample sort: total order across the streamed
output, exact global rank, multi-key ties crossing splitter values,
null placement, string keys, constant keys (full skew), parallelism
invariance, and the segment-exchange composition (callable routing
through disk segments).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from fineweb2_ro_ray.stages.sortop import sample_sort


def _mk(n=5000, seed=4, with_nulls=False) -> pa.Table:
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 800, n).astype("float64")
    if with_nulls:
        v[rng.random(n) < 0.05] = np.nan
    return pa.table(
        {
            "a": pa.array(v if not with_nulls else
                          [None if np.isnan(x) else float(x) for x in v],
                          pa.float64()),
            "b": pa.array(rng.integers(0, 50, n).astype(np.int64)),
            "s": pa.array([f"id-{i:06d}" for i in rng.permutation(n)]),
        }
    )


def _stream_rows(ds: rd.Dataset, cols: list[str]) -> pd.DataFrame:
    tabs = [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
    return pa.concat_tables(tabs).select(cols).to_pandas()


def test_total_order_and_values(ray_session):
    t = _mk()
    ds = rd.from_arrow(t).repartition(23)
    out = _stream_rows(sample_sort(ds, ["a", "b", "s"], n_reducers=11),
                       ["a", "b", "s"])
    exp = t.to_pandas().sort_values(["a", "b", "s"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out.reset_index(drop=True), exp)


def test_global_rank_exact(ray_session):
    t = _mk(n=1200, seed=9)
    ds = rd.from_arrow(t).repartition(9)
    out = _stream_rows(
        sample_sort(ds, ["a", "s"], n_reducers=7, rank_col="rn"),
        ["a", "s", "rn"],
    )
    assert list(out["rn"]) == list(range(1, len(out) + 1))
    # rank order == lexicographic order of (a, s)
    exp = t.to_pandas().sort_values(["a", "s"]).reset_index(drop=True)
    assert list(out["s"]) == list(exp["s"])


def test_nulls_last_and_string_key(ray_session):
    t = _mk(n=800, seed=2, with_nulls=True)
    ds = rd.from_arrow(t).repartition(7)
    out = _stream_rows(sample_sort(ds, ["a", "s"], n_reducers=5), ["a", "s"])
    a = out["a"].to_numpy()
    nn = a[~pd.isna(a)]
    assert (np.diff(nn) >= 0).all()
    assert not pd.isna(a[: len(nn)]).any() and pd.isna(a[len(nn):]).all()
    # string range key
    out2 = _stream_rows(sample_sort(ds, "s", n_reducers=5), ["s"])
    assert list(out2["s"]) == sorted(t["s"].to_pylist())


def test_constant_key_and_parallelism_invariance(ray_session):
    t = pa.table({"a": pa.array([7.0] * 300), "b": pa.array(range(300))})
    ds = rd.from_arrow(t).repartition(5)
    out = _stream_rows(sample_sort(ds, ["a", "b"], n_reducers=6), ["a", "b"])
    assert list(out["b"]) == list(range(300))  # ties co-locate, full key sorts
    t2 = _mk(n=700, seed=5)
    for p in (2, 13):
        got = _stream_rows(
            sample_sort(rd.from_arrow(t2).repartition(3), ["a", "b", "s"],
                        n_reducers=p),
            ["s"],
        )
        assert list(got["s"]) == list(
            t2.to_pandas().sort_values(["a", "b", "s"])["s"]
        )


def test_write_sorted_parquet_and_range_read(ray_session, tmp_path):
    import json
    import os as _os

    t = _mk(n=2000, seed=12)
    ds = rd.from_arrow(t).repartition(9)
    out_dir = str(tmp_path / "sorted")
    man = __import__(
        "fineweb2_ro_ray.stages.sortop", fromlist=["write_sorted_parquet"]
    ).write_sorted_parquet(ds, out_dir, ["a", "s"], n_reducers=8)
    # manifest invariants: disjoint ascending [min, max] ranges, rows sum
    files = man["files"]
    assert sum(f["rows"] for f in files) == 2000
    for e1, e2 in zip(files, files[1:]):
        assert e1["max"] <= e2["min"]
    assert _os.path.exists(_os.path.join(out_dir, "manifest.json"))
    assert not [f for f in _os.listdir(out_dir) if f.startswith(".tmp-")]
    with open(_os.path.join(out_dir, "manifest.json")) as f:
        assert json.load(f)["key"] == "a"

    from ray.data import DataContext

    from fineweb2_ro_ray.stages.sortop import read_sorted_range

    exp = (
        t.to_pandas()
        .sort_values(["a", "s"])[["a", "s"]]
        .reset_index(drop=True)
    )

    # full read: exact values; with preserve_order, exact global ORDER
    ctx = DataContext.get_current()
    old = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        full = _stream_rows(read_sorted_range(out_dir), ["a", "s"])
        pd.testing.assert_frame_equal(full.reset_index(drop=True), exp)

        # bounded read: exact interval, and it PRUNED files
        lo, hi = 100.0, 300.0
        got = _stream_rows(read_sorted_range(out_dir, lo, hi), ["a", "s"])
        expb = exp[(exp["a"] >= lo) & (exp["a"] <= hi)].reset_index(
            drop=True
        )
        pd.testing.assert_frame_equal(got.reset_index(drop=True), expb)
    finally:
        ctx.execution_options.preserve_order = old
    # without the flag, VALUES are still exact (order-insensitive)
    got2 = _stream_rows(read_sorted_range(out_dir, 100.0, 300.0), ["a", "s"])
    pd.testing.assert_frame_equal(
        got2.sort_values(["a", "s"]).reset_index(drop=True),
        exp[(exp["a"] >= 100.0) & (exp["a"] <= 300.0)].reset_index(drop=True),
    )
    overlapping = [
        f for f in files if not (f["max"] < lo or f["min"] > hi)
    ]
    assert len(overlapping) < len(files)  # pruning actually happened


def test_range_read_timestamp_key(ray_session, tmp_path):
    import datetime

    from fineweb2_ro_ray.stages.sortop import (
        read_sorted_range,
        write_sorted_parquet,
    )

    base = datetime.datetime(2025, 1, 1)
    ts = [base + datetime.timedelta(minutes=int(i)) for i in range(500)]
    rng = np.random.default_rng(1)
    t = pa.table(
        {
            "ts": pa.array(list(rng.permutation(np.array(ts))),
                           pa.timestamp("us")),
            "i": pa.array(range(500)),
        }
    )
    d = str(tmp_path / "ts_sorted")
    write_sorted_parquet(rd.from_arrow(t).repartition(4), d, "ts",
                         n_reducers=5)
    lo = base + datetime.timedelta(minutes=100)
    hi = base + datetime.timedelta(minutes=199)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        got = _stream_rows(read_sorted_range(d, lo, hi), ["ts", "i"])
    finally:
        ctx.execution_options.preserve_order = old
    assert len(got) == 100
    assert got["ts"].is_monotonic_increasing
