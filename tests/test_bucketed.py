"""Bucketed layout + zero-exchange bucket join: DuckDB join parity for
inner/left/full outer, missing-bucket handling, layout-compat refusal,
rebuild staleness, int and string keys."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest

import ray.data

from fineweb2_ro_ray.stages.bucketed import (
    bucket_join,
    read_bucketed_meta,
    write_bucketed,
)

A = pa.table(
    {
        "k": [1, 2, 3, 4, 5, 5],
        "name": ["a1", "a2", "a3", "a4", "a5", "a5b"],
    }
)
B = pa.table(
    {
        "bk": [2, 2, 3, 9],
        "val": [20, 21, 30, 90],
        # collides with A's column name -> must be suffixed
        "name": ["b2", "b2x", "b3", "b9"],
    }
)


def _oracle(join_type: str):
    con = duckdb.connect()
    con.register("a", A)
    con.register("b", B)
    kind = {"inner": "JOIN", "left outer": "LEFT JOIN", "full outer": "FULL OUTER JOIN"}[
        join_type
    ]
    # COALESCE on the key mirrors Arrow Table.join's full-outer key
    # column (one merged key, never NULL when either side matched)
    return (
        con.sql(
            f"""SELECT COALESCE(a.k, b.bk) AS k, a.name, b.val,
                       b.name AS name_b
                FROM a {kind} b ON a.k = b.bk
                ORDER BY k NULLS LAST, b.val NULLS LAST"""
        )
        .fetchdf()
        .to_dict("records")
    )


@pytest.mark.parametrize("join_type", ["inner", "left outer", "full outer"])
def test_bucket_join_matches_duckdb(tmp_path, join_type):
    pa_dir, pb_dir = str(tmp_path / "a"), str(tmp_path / "b")
    write_bucketed(ray.data.from_arrow(A), pa_dir, key="k", n_buckets=7)
    write_bucketed(ray.data.from_arrow(B), pb_dir, key="bk", n_buckets=7)
    got = (
        bucket_join(pa_dir, pb_dir, join_type=join_type)
        .to_pandas()
        .sort_values(["k", "val"], na_position="last", ignore_index=True)
    )
    want = _oracle(join_type)
    # full outer keeps B-only rows: k is NULL there, bk appears as a
    # joined column only on the Ray side (oracle's a.k is NULL) — align
    # on the shared projection
    gotr = got[["k", "name", "val", "name_b"]].to_dict("records")

    def norm(rows):
        import math

        def c(v):
            return None if v is None or (isinstance(v, float) and math.isnan(v)) else v

        return [{kk: c(vv) for kk, vv in r.items()} for r in rows]

    assert norm(gotr) == norm(want)


def test_bucket_join_refuses_incompatible(tmp_path):
    pa_dir, pb_dir = str(tmp_path / "a"), str(tmp_path / "b")
    write_bucketed(ray.data.from_arrow(A), pa_dir, key="k", n_buckets=4)
    write_bucketed(ray.data.from_arrow(B), pb_dir, key="bk", n_buckets=8)
    with pytest.raises(ValueError, match="incompatible"):
        bucket_join(pa_dir, pb_dir)


def test_rebuild_clears_stale_buckets(tmp_path):
    p = str(tmp_path / "a")
    write_bucketed(ray.data.from_arrow(A), p, key="k", n_buckets=4)
    # rebuild with a single row; stale buckets must not leak old rows
    one = pa.table({"k": [1], "name": ["only"]})
    meta = write_bucketed(ray.data.from_arrow(one), p, key="k", n_buckets=4)
    assert meta["n_rows"] == 1
    pb = str(tmp_path / "b")
    write_bucketed(ray.data.from_arrow(B), pb, key="bk", n_buckets=4)
    out = bucket_join(p, pb, join_type="left outer").to_pandas()
    assert out.name.tolist() == ["only"]


def test_string_keys_and_meta(tmp_path):
    sa = pa.table({"s": ["x", "y", "y"], "v": [1, 2, 3]})
    sb = pa.table({"t": ["y", "z"], "w": [10, 20]})
    pa_dir, pb_dir = str(tmp_path / "sa"), str(tmp_path / "sb")
    write_bucketed(ray.data.from_arrow(sa), pa_dir, key="s", n_buckets=5)
    write_bucketed(ray.data.from_arrow(sb), pb_dir, key="t", n_buckets=5)
    assert read_bucketed_meta(pa_dir)["hash"] == "crc32-str"
    got = bucket_join(pa_dir, pb_dir).to_pandas().sort_values("v")
    assert got[["s", "v", "w"]].values.tolist() == [["y", 2, 10], ["y", 3, 10]]


def test_bucket_map_groups_key_complete(tmp_path):
    """Every key's rows arrive in ONE fn call (the co-location
    contract), across multiple buckets; empty buckets skipped."""
    from fineweb2_ro_ray.stages.bucketed import bucket_map_groups

    t = pa.table({"k": [1, 1, 2, 3, 3, 3], "v": [1, 2, 3, 4, 5, 6]})
    p = str(tmp_path / "t")
    write_bucketed(ray.data.from_arrow(t).repartition(3), p, key="k", n_buckets=8)
    schema = pa.schema([("k", pa.int64()), ("n", pa.int64()), ("s", pa.int64())])

    def agg(tab: pa.Table) -> pa.Table:
        df = tab.to_pandas().groupby("k", as_index=False).agg(
            n=("v", "size"), s=("v", "sum")
        )
        return pa.Table.from_pandas(df, preserve_index=False).cast(schema)

    got = (
        bucket_map_groups(p, agg, out_schema=schema)
        .to_pandas()
        .sort_values("k", ignore_index=True)
    )
    assert got.values.tolist() == [[1, 2, 3], [2, 1, 3], [3, 3, 15]]


def test_cogroup_three_sides():
    """Key-completeness across 3 sides, absent-side handling, null
    padding of other sides' columns, layout invariance."""
    from fineweb2_ro_ray.stages.exchange import run_ids, sorted_runs
    from fineweb2_ro_ray.stages.joins import cogroup

    a = pa.table({"k": [1, 2], "name": ["one", "two"]})
    b = pa.table({"bk": [1, 1, 3], "x": [10, 11, 30]})
    c = pa.table({"ck": [2, 2, 2], "y": ["p", "q", "r"]})
    schema = pa.schema(
        [("k", pa.int64()), ("name", pa.string()),
         ("nb", pa.int64()), ("nc", pa.int64())]
    )

    def fn(t: pa.Table) -> pa.Table:
        t, starts = sorted_runs(t, ["k"], [("__side", "ascending")])
        side, rid, n = t["__side"].to_numpy(), run_ids(starts), len(starts) - 1
        first = t.take(pa.array(starts[:-1]))
        out = pa.table(
            {
                "k": first["k"],
                "name": first["s0_name"],
                "nb": np.bincount(rid[side == 1], minlength=n),
                "nc": np.bincount(rid[side == 2], minlength=n),
            }
        )
        return out.filter(pa.array(side[starts[:-1]] == 0))

    for nb_parts in (1, 2):
        got = (
            cogroup(
                [
                    (ray.data.from_arrow(a).repartition(nb_parts), "k"),
                    (ray.data.from_arrow(b), "bk"),
                    (ray.data.from_arrow(c), "ck"),
                ],
                fn,
                out_schema=schema,
            )
            .to_pandas()
            .sort_values("k", ignore_index=True)
        )
        # k=3 has no side-0 row -> dropped; k=1: 2 b-rows; k=2: 3 c-rows
        assert got.values.tolist() == [[1, "one", 2, 0], [2, "two", 0, 3]]


def test_interval_overlap_join_edges():
    """Hand-built intervals: strict half-open overlap (touching
    endpoints do NOT match), multi-key isolation, all-pairs within a
    dense key, empty sides."""
    import pandas as pd

    from fineweb2_ro_ray.stages.joins import interval_overlap_join

    left = pa.table(
        {
            "lid": [1, 2, 3, 4],
            "lk": ["u", "u", "v", "w"],
            "ls": [0, 100, 0, 0],
            "le": [10, 110, 10, 10],
        }
    )
    right = pa.table(
        {
            "rid": [10, 11, 12, 13, 14],
            "rk": ["u", "u", "u", "v", "x"],
            "rs": [5, 10, 105, 3, 0],
            "re": [7, 20, 106, 4, 10],
        }
    )
    got = (
        interval_overlap_join(
            ray.data.from_arrow(left),
            ray.data.from_arrow(right),
            key="lk",
            right_key="rk",
            left_start="ls",
            left_end="le",
            right_start="rs",
            right_end="re",
            n_partitions=7,
        )
        .to_pandas()
        .sort_values(["lid", "rid"], ignore_index=True)
    )
    pairs = list(map(tuple, got[["lid", "rid"]].values.tolist()))
    # lid1 [0,10): overlaps rid10 [5,7); rid11 [10,20) touches -> NO
    # lid2 [100,110): overlaps rid12 [105,106)
    # lid3 v [0,10): overlaps rid13 [3,4); lid4 w: no right rows
    assert pairs == [(1, 10), (2, 12), (3, 13)]


def test_tree_depths_pointer_doubling():
    """Deep chain (depth 40 > 2^5) resolves exactly in 6 rounds;
    multiple roots; forest isolation; root column correct."""
    import pandas as pd

    from fineweb2_ro_ray.stages.graph import tree_depths

    # chain 0<-1<-2<-...<-40 (parent(i)=i-1, root 0) + a star at 100
    nodes = list(range(41)) + [100, 101, 102]
    parents = [0] + list(range(40)) + [100, 100, 100]
    t = pa.table({"node": nodes, "parent": parents})
    got = (
        tree_depths(ray.data.from_arrow(t).repartition(3), max_depth=64)
        .to_pandas()
        .sort_values("node", ignore_index=True)
    )
    chain = got[got.node <= 40]
    assert chain.depth.tolist() == list(range(41))
    assert (chain.root == 0).all()
    star = got[got.node >= 100]
    assert star.depth.tolist() == [0, 1, 1]
    assert (star.root == 100).all()


def test_asof_nearest_direction():
    """direction='nearest' (the third merge_asof mode) through the
    same positions-only exchange kernel: each left row attaches the
    right row with minimal |Δts| of its key."""
    from fineweb2_ro_ray.stages.joins import asof_join

    left = pa.table(
        {"lid": [1, 2, 3], "k": ["u", "u", "u"], "lts": [10, 55, 300]}
    )
    right = pa.table(
        {"rid": [7, 8, 9], "rk": ["u", "u", "u"], "rts": [0, 60, 200]}
    )
    got = (
        asof_join(
            ray.data.from_arrow(left),
            ray.data.from_arrow(right),
            key="k",
            right_key="rk",
            left_ts="lts",
            right_ts="rts",
            direction="nearest",
        )
        .to_pandas()
        .sort_values("lid", ignore_index=True)
    )
    # 10 -> 0 (|10|<|50|); 55 -> 60 (|5|); 300 -> 200
    assert got[["lid", "rid"]].values.tolist() == [[1, 7], [2, 8], [3, 9]]


def test_asof_positions_match_pandas_merge_asof():
    """The sort-and-searchsorted as-of kernel against ``pd.merge_asof``
    (the reference) on seeded random inputs: all three directions,
    heavily tied right timestamps, keys present on one side only,
    int and float timestamps."""
    import pandas as pd

    from fineweb2_ro_ray.stages.exchange import key_codes
    from fineweb2_ro_ray.stages.joins import _asof_positions

    rng = np.random.default_rng(20)
    for trial in range(200):
        nl, nr = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        # keys 0..5 left, 2..8 right: some keys on one side only
        lk = rng.integers(0, 6, nl)
        rk = rng.integers(2, 9, nr)
        lts = rng.integers(0, 15, nl)
        rts = rng.integers(0, 15, nr)  # few distinct values: many ties
        if trial % 2:
            lts, rts = lts * 0.5, rts * 0.5
        lcode, rcode = key_codes(
            pa.table({"k": lk}), ["k"], pa.table({"k": rk}), ["k"]
        )
        lpos = pd.DataFrame({"k": lk, "t": lts, "li": np.arange(nl)})
        rpos = pd.DataFrame({"k": rk, "t": rts, "ri": np.arange(nr)})
        lpos = lpos.sort_values("t", kind="mergesort")
        rpos = rpos.sort_values("t", kind="mergesort")
        for direction in ("backward", "forward", "nearest"):
            want = pd.merge_asof(lpos, rpos, on="t", by="k", direction=direction)
            want = want[want["ri"].notna()]
            li, ri = _asof_positions(lcode, rcode, lts, rts, direction)
            assert li.tolist() == want["li"].tolist(), (trial, direction)
            assert ri.tolist() == want["ri"].astype(np.int64).tolist(), (
                trial,
                direction,
            )


def test_asof_join_matches_pandas_merge_asof_end_to_end():
    """``asof_join`` through the exchange on a random table with string
    keys, tied timestamps and one-sided keys: the same matched pairs
    as ``pd.merge_asof`` for every direction."""
    import pandas as pd

    from fineweb2_ro_ray.stages.joins import asof_join

    rng = np.random.default_rng(21)
    left = pa.table(
        {
            "lid": np.arange(300),
            "k": [f"u{i}" for i in rng.integers(0, 12, 300)],
            "lts": rng.integers(0, 50, 300),
        }
    )
    right = pa.table(
        {
            "rid": np.arange(200) + 1000,
            "rk": [f"u{i}" for i in rng.integers(4, 16, 200)],
            "rts": rng.integers(0, 50, 200),
        }
    )
    lp = left.to_pandas().sort_values("lts", kind="mergesort")
    rp = right.to_pandas().sort_values("rts", kind="mergesort")
    for direction in ("backward", "forward", "nearest"):
        want = pd.merge_asof(
            lp, rp, left_on="lts", right_on="rts", left_by="k", right_by="rk",
            direction=direction,
        ).dropna(subset=["rid"])
        got = asof_join(
            ray.data.from_arrow(left),
            ray.data.from_arrow(right),
            key="k",
            right_key="rk",
            left_ts="lts",
            right_ts="rts",
            direction=direction,
            n_partitions=7,
        ).to_pandas()
        assert len(got) == len(want) > 0
        pairs = sorted(zip(got["lid"], got["rid"]))
        assert pairs == sorted(zip(want["lid"], want["rid"].astype(np.int64)))
