"""Inverted-index artifact: build/lookup round-trip vs a DuckDB
recount, rebuild staleness, partition pruning evidence."""

from __future__ import annotations

import glob
import os

import duckdb
import numpy as np
import pyarrow as pa
import pytest

import ray.data

from fineweb2_ro_ray.stages.invindex import (
    build_inverted_index,
    index_scan_fraction,
    lookup_terms,
    postings_partials,
)


def _corpus() -> pa.Table:
    return pa.table(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "text": [
                "ana are mere",
                "are  are mere",  # double space -> empty token
                None,
                "mere",
                "ana ana ana",
            ],
        }
    )


def _oracle(tbl: pa.Table, terms: list[str]):
    con = duckdb.connect()
    con.register("docs", tbl)
    ph = ", ".join("?" for _ in terms)
    return con.execute(
        f"""
        SELECT term, doc_id, CAST(count(*) AS BIGINT) AS tf
        FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM docs)
        WHERE term IN ({ph})
        GROUP BY term, doc_id ORDER BY term, doc_id
        """,
        terms,
    ).fetch_arrow_table()


def test_build_lookup_matches_duckdb(tmp_path):
    tbl = _corpus()
    path = str(tmp_path / "idx")
    meta = build_inverted_index(ray.data.from_arrow(tbl), path, n_parts=8)
    # every distinct term, incl. the empty token
    terms = sorted(
        {w for t in tbl["text"].to_pylist() if t is not None for w in t.split(" ")}
    )
    got = lookup_terms(path, terms)
    want = _oracle(tbl, terms)
    assert got.to_pylist() == want.to_pylist()
    assert meta["n_postings"] == want.num_rows
    # absent term: empty, schema intact
    miss = lookup_terms(path, ["nope"])
    assert miss.num_rows == 0 and miss.schema.names == ["term", "doc_id", "tf"]


def test_rebuild_clears_stale_partitions(tmp_path):
    path = str(tmp_path / "idx")
    build_inverted_index(ray.data.from_arrow(_corpus()), path, n_parts=8)
    # rebuild over a corpus WITHOUT 'mere'; a stale partition file must
    # not resurrect the old postings
    small = pa.table({"doc_id": [9], "text": ["ana"]})
    build_inverted_index(ray.data.from_arrow(small), path, n_parts=8)
    assert lookup_terms(path, ["mere"]).num_rows == 0
    assert lookup_terms(path, ["ana"]).to_pylist() == [
        {"term": "ana", "doc_id": 9, "tf": 1}
    ]


def test_row_groups_do_not_change_lookups(tmp_path, monkeypatch):
    """Partition files written in several term-sorted row groups answer
    ``lookup_terms`` and ``search_boolean`` exactly as one row group
    does (the row-group statistics only prune, never drop a posting)."""
    import pyarrow.parquet as pq

    from fineweb2_ro_ray.stages import invindex
    from fineweb2_ro_ray.stages.invindex import search_boolean

    rng = np.random.default_rng(5)
    vocab = ["ana", "are", "mere", "pere", "", "x", "yy", "zăpadă", "b", "c"]
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(80), pa.int64()),
            "text": [" ".join(rng.choice(vocab, size=rng.integers(1, 9))) for _ in range(80)],
        }
    )
    one, many = str(tmp_path / "one"), str(tmp_path / "many")
    build_inverted_index(ray.data.from_arrow(tbl), one, n_parts=2)
    monkeypatch.setattr(invindex, "ROW_GROUP_ROWS", 7)
    build_inverted_index(ray.data.from_arrow(tbl), many, n_parts=2)
    for path, single in ((one, True), (many, False)):
        for f in glob.glob(os.path.join(path, "part=*", "postings.parquet")):
            groups = pq.ParquetFile(f).num_row_groups
            assert (groups == 1) if single else (groups > 1), (f, groups)

    # the statistics prune: one probe term needs only the row groups
    # whose term range holds it
    f = sorted(glob.glob(os.path.join(many, "part=*", "postings.parquet")))[0]
    meta = pq.read_metadata(f)
    term = pq.read_table(f)["term"][0].as_py()
    kept = invindex.row_groups_holding(meta, [term])
    assert 0 < len(kept) < meta.num_row_groups
    assert invindex.row_groups_holding(meta, ["\uffff"]) == []

    for terms in (vocab, ["ana"], ["zăpadă", "nope", ""], ["nope"]):
        got = lookup_terms(many, terms)
        assert got.equals(lookup_terms(one, terms))
        assert got.to_pylist() == _oracle(tbl, terms).to_pylist()
    for q in (
        {"must": ["ana", "are"]},
        {"must": ["mere"], "should": ["x", "yy"], "must_not": ["c"]},
        {"must": [], "should": ["", "b"]},
    ):
        assert search_boolean(many, **q).equals(search_boolean(one, **q))


def test_partition_pruning(tmp_path):
    path = str(tmp_path / "idx")
    build_inverted_index(ray.data.from_arrow(_corpus()), path, n_parts=16)
    frac = index_scan_fraction(path, ["ana"])
    assert frac == 1 / 16
    # ≤ one file per probe term
    assert index_scan_fraction(path, ["ana", "are", "mere"]) <= 3 / 16
    assert len(glob.glob(os.path.join(path, "part=*", "*.parquet"))) <= 16


def test_postings_kernel_edges():
    empty = postings_partials(pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}))
    assert empty.num_rows == 0
    nulls = postings_partials(pa.table({"doc_id": [1], "text": pa.array([None], pa.string())}))
    assert nulls.num_rows == 0
    one = postings_partials(pa.table({"doc_id": [7], "text": [""]}))
    # "" splits to one empty token — a real term, matching string_split
    assert one.to_pylist() == [{"term": "", "doc_id": 7, "tf": 1}]


def test_grouped_regression_edges():
    """Degenerate groups → NULLs; numpy closed-form parity; result
    invariant to batch layout (exact integer fold)."""
    import numpy as np

    from fineweb2_ro_ray.stages.analysis import grouped_regression

    tbl = pa.table(
        {
            "g": ["a"] * 4 + ["const_x"] * 3 + ["const_y"] * 3 + ["n1"],
            "x": [1, 2, 3, 4, 5, 5, 5, 1, 2, 3, 9],
            "y": [2, 4, 7, 8, 1, 2, 3, 6, 6, 6, 9],
        }
    )
    for nblocks in (1, 4):
        df = grouped_regression(
            ray.data.from_arrow(tbl).repartition(nblocks), "g", "x", "y"
        )
        row = df[df.g == "a"].iloc[0]
        sl, ic = np.polyfit([1, 2, 3, 4], [2, 4, 7, 8], 1)
        assert abs(row.slope - sl) < 1e-12 and abs(row.intercept - ic) < 1e-12
        r = np.corrcoef([1, 2, 3, 4], [2, 4, 7, 8])[0, 1]
        assert abs(row.r2 - r * r) < 1e-12
        cx = df[df.g == "const_x"].iloc[0]
        assert cx.slope is None or np.isnan(cx.slope)
        cy = df[df.g == "const_y"].iloc[0]  # flat line: slope 0, r2 NULL
        assert cy.slope == 0.0 and (cy.r2 is None or np.isnan(cy.r2))
        n1 = df[df.g == "n1"].iloc[0]  # single point: dxx = 0
        assert n1.slope is None or np.isnan(n1.slope)
        assert list(df.g) == sorted(df.g)


def test_compress_ratio_pins_zlib():
    """Values equal direct zlib; repetitive < natural < random ratio
    ordering; null/empty handling; batch-layout invariance."""
    import zlib

    from fineweb2_ro_ray.functions.compressq import (
        compress_ratio_batch,
        repetitive_mask,
    )

    rng = np.random.default_rng(3)
    rand = "".join(chr(33 + int(c)) for c in rng.integers(0, 90, 4000))
    rep = "spam " * 800
    nat = ("the quick brown fox jumps over the lazy dog and keeps going " * 60)
    tbl = pa.table(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "text": [rep, nat, rand, None, ""],
        }
    )
    out = compress_ratio_batch(tbl).to_pylist()
    for row, s in zip(out, tbl["text"].to_pylist()):
        if s:
            assert row["raw_bytes"] == len(s.encode())
            assert row["comp_bytes"] == len(zlib.compress(s.encode(), 6))
            assert row["compress_ratio"] == row["comp_bytes"] / row["raw_bytes"]
    assert out[0]["compress_ratio"] < out[1]["compress_ratio"] < out[2]["compress_ratio"]
    assert out[3]["raw_bytes"] is None and out[3]["compress_ratio"] is None
    assert out[4]["raw_bytes"] == 0 and out[4]["compress_ratio"] is None
    thr = (out[0]["compress_ratio"] + out[1]["compress_ratio"]) / 2
    mask = repetitive_mask(
        pa.table({"r": [r["compress_ratio"] for r in out]})["r"].combine_chunks(),
        min_ratio=thr,
    ).to_pylist()
    assert mask == [False, True, True, False, False]
    # ray path, split blocks
    got = (
        ray.data.from_arrow(tbl)
        .repartition(3)
        .map_batches(compress_ratio_batch, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert got.comp_bytes.tolist()[:3] == [r["comp_bytes"] for r in out[:3]]


def test_grouped_quantile_sketch_rank_error():
    """Per-group sketch quantiles within the 2/m rank-error bound of
    exact per-group quantiles, across batch layouts; tiny groups are
    exact (fewer points than m)."""
    from fineweb2_ro_ray.stages.sketches import grouped_quantile_sketch

    rng = np.random.default_rng(5)
    n = 4000
    g = np.where(rng.random(n) < 0.5, "a", "b")
    # different distributions per group
    v = np.where(g == "a", rng.normal(100, 10, n), rng.exponential(40, n))
    tbl = pa.table({"g": g.tolist() + ["tiny"] * 3, "x": v.tolist() + [1.0, 2.0, 3.0]})
    m = 128
    for nb in (1, 5):
        out = grouped_quantile_sketch(
            ray.data.from_arrow(tbl).repartition(nb), "g", "x", [50.0], m=m
        )
        for grp in ("a", "b"):
            vals = np.sort(v[g == grp])
            got = out[(out.g == grp) & (out.q == 50.0)]["value"].iloc[0]
            # rank of the sketch answer must be within 2/m of 0.5
            rank = np.searchsorted(vals, got) / len(vals)
            assert abs(rank - 0.5) <= 2.0 / m + 0.01
        tiny = out[out.g == "tiny"]["value"].iloc[0]
        assert tiny == 2.0  # exact on tiny groups


def test_search_boolean_semantics(ray_session, tmp_path):
    """AND/OR/NOT posting algebra: must-intersection, should-union
    gate, must_not-difference, tf_sum over present positive terms, and
    the empty-result identities."""
    import pyarrow as pa

    import ray.data

    from fineweb2_ro_ray.stages.invindex import (
        build_inverted_index,
        search_boolean,
    )

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        "a b a c",      # a:2 b:1 c:1
                        "a b d",        # a:1 b:1 d:1
                        "a x",          # no b
                        "a b bad",      # excluded by must_not
                    ],
                    pa.string(),
                ),
            }
        )
    )
    path = str(tmp_path / "idx")
    build_inverted_index(docs, path, n_parts=4)

    out = search_boolean(path, must=["a", "b"]).to_pandas()
    assert out.doc_id.tolist() == [1, 2, 4]
    assert out.tf_sum.tolist() == [3, 2, 2]

    out = search_boolean(
        path, must=["a", "b"], should=["c", "d"], must_not=["bad"]
    ).to_pandas()
    assert out.doc_id.tolist() == [1, 2]
    assert out.tf_sum.tolist() == [4, 3]  # + the present should term

    assert len(search_boolean(path, must=["zzz"]).to_pandas()) == 0
    assert len(search_boolean(path, must=[]).to_pandas()) == 0
    only_should = search_boolean(path, must=[], should=["c"]).to_pandas()
    assert only_should.doc_id.tolist() == [1]
