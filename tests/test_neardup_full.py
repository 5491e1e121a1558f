"""Round-5 composed near-dedup funnel (VERDICT r4 #1) and the LAG/LEAD
window op (VERDICT r4 #5)."""

from __future__ import annotations

import functools
import hashlib
import inspect

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data

from fineweb2_ro_ray.stages import components, dedup, joins
from fineweb2_ro_ray.stages.dedup import (
    minhash_cluster_edges,
    minhash_dedup_full,
    minhash_lsh_pairs,
    near_dedup_full,
)
from fineweb2_ro_ray.stages.windows import lag_lead_delta


def _docs(rows):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )


# near_dedup_full's two delivery routes: the per-doc cluster table is
# broadcast while it stays under joins._BROADCAST_PAYLOAD_BYTES, and
# reaches the corpus through a hash-join exchange past it (forced by a
# bound of 0)
ROUTES = {"broadcast": joins._BROADCAST_PAYLOAD_BYTES, "exchange": 0}
_COMPONENT_LABELS = components._component_labels


def _on_route(monkeypatch, route: str) -> None:
    """Put ``near_dedup_full`` on one delivery ``route``. The exchange
    route also takes the components' label-propagation route (limit 0):
    their driver route leaves a driver-side table, which is always
    broadcast. An empty pair graph takes the driver route at any limit,
    so it is broadcast on both."""
    limit = _default_edge_limit() if route == "broadcast" else 0
    monkeypatch.setattr(joins, "_BROADCAST_PAYLOAD_BYTES", ROUTES[route])
    monkeypatch.setattr(
        components,
        "_component_labels",
        functools.partial(_COMPONENT_LABELS, driver_edge_limit=limit),
    )


def _default_edge_limit() -> int:
    return inspect.signature(components.connected_components).parameters[
        "driver_edge_limit"
    ].default


def test_near_dedup_full_clusters_and_singletons(ray_session, monkeypatch):
    # pair graph: {1,2,3} chained cluster, {10,11} cluster, 20/21 singletons
    docs = _docs(
        [(1, "a"), (2, "a"), (3, "a"), (10, "b"), (11, "b"), (20, "c"), (21, "d")]
    )
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([1, 2, 10], pa.int64()),
                "doc_b": pa.array([2, 3, 11], pa.int64()),
            }
        )
    )
    for route in ROUTES:
        _on_route(monkeypatch, route)
        out = near_dedup_full(docs, pairs, keep_all=True).to_pandas()
        out = out.sort_values("doc_id", ignore_index=True)
        assert list(out["doc_id"]) == [1, 2, 3, 10, 11, 20, 21], route
        assert list(out["cluster_size"]) == [3, 3, 3, 2, 2, 1, 1], route
        # survivor = MIN doc id per cluster; singletons always kept
        assert list(out["kept"]) == [True, False, False, True, False, True, True], route
        # ds columns ride along untouched, in front of the two new ones
        assert list(out.columns) == ["doc_id", "text", "cluster_size", "kept"], route
        assert list(out["text"]) == ["a", "a", "a", "b", "b", "c", "d"], route

        survivors = near_dedup_full(docs, pairs).to_pandas()
        assert sorted(survivors["doc_id"]) == [1, 10, 20, 21], route
        assert list(survivors.columns) == ["doc_id", "text", "cluster_size"], route


def test_near_dedup_full_no_pairs(ray_session, monkeypatch):
    docs = _docs([(5, "x"), (6, "y")])
    pairs = ray.data.from_arrow(
        pa.table(
            {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
        )
    )
    for route in ROUTES:
        _on_route(monkeypatch, route)
        out = near_dedup_full(docs, pairs, keep_all=True).to_pandas()
        assert sorted(out["doc_id"]) == [5, 6], route
        assert set(out["cluster_size"]) == {1}, route
        assert out["kept"].all(), route


def test_near_dedup_full_routes_agree_on_null_ids_and_empty_blocks(ray_session, monkeypatch):
    """Both delivery routes give the same rows on a corpus with null
    doc ids, ids in no pair, pair ids not in the corpus, and an empty
    first block. A null id keeps its row as a singleton, as a LEFT join
    keeps a null key."""
    schema = pa.schema([pa.field("doc_id", pa.int64()), pa.field("text", pa.string())])
    t = pa.table(
        {
            "doc_id": pa.array([1, None, 2, 3, None, 7, 8, 0], pa.int64()),
            "text": ["a", "n1", "a", "a", "n2", "b", "c", "z"],
        },
        schema=schema,
    )
    pairs = ray.data.from_arrow(
        pa.table(
            {
                # 0 is an id of the corpus, so a null id read as 0 would
                # match it; 99 is not in the corpus but counts in the
                # size of {0, 7, 99}
                "doc_a": pa.array([1, 2, 0, 7], pa.int64()),
                "doc_b": pa.array([2, 3, 99, 99], pa.int64()),
            }
        )
    )
    want = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3, 7, 8, None, None],
            "text": ["z", "a", "a", "a", "b", "c", "n1", "n2"],
            "cluster_size": [3, 3, 3, 3, 3, 1, 1, 1],
            "kept": [True, True, False, False, False, True, True, True],
        }
    )
    got = {}
    for route in ROUTES:
        _on_route(monkeypatch, route)
        docs = ray.data.from_arrow([schema.empty_table(), t])
        for keep_all in (True, False):
            out = near_dedup_full(docs, pairs, keep_all=keep_all).to_pandas()
            got[route, keep_all] = out.sort_values(
                ["doc_id", "text"], ignore_index=True
            )
    pd.testing.assert_frame_equal(got["broadcast", True], got["exchange", True])
    pd.testing.assert_frame_equal(got["broadcast", False], got["exchange", False])
    pd.testing.assert_frame_equal(got["broadcast", True], want, check_dtype=False)
    survivors = want[want["kept"]].drop(columns="kept").reset_index(drop=True)
    pd.testing.assert_frame_equal(got["broadcast", False], survivors, check_dtype=False)


def test_delivery_routes_are_logged(ray_session, monkeypatch, caplog):
    """``score_pairs`` and ``near_dedup_full`` each log the delivery
    route they take on the package logger, with what they pulled and
    the bound."""
    import logging

    base = "the quick brown fox jumps over the lazy dog again and again"
    docs = _docs([(i, base) for i in range(4)] + [(9, "a standalone document body")])
    caplog.set_level(logging.INFO, logger="fineweb2_ro_ray")

    def logged() -> dict[str, str]:
        pairs = minhash_lsh_pairs(docs, threshold=0.5).select_columns(["doc_a", "doc_b"])
        near_dedup_full(docs, pairs).materialize()
        return {
            r.getMessage().split(":")[0]: r.getMessage()
            for r in caplog.records
            if r.name == "fineweb2_ro_ray"
        }

    # a components Dataset (their label-propagation route) is pulled
    # under the bound on both routes
    for route, bound in ROUTES.items():
        monkeypatch.setattr(joins, "_BROADCAST_PAYLOAD_BYTES", bound)
        monkeypatch.setattr(
            components,
            "_component_labels",
            functools.partial(_COMPONENT_LABELS, driver_edge_limit=0),
        )
        caplog.clear()
        lines = logged()
        for op in ("score_pairs", "near_dedup_full"):
            assert f"{op}: {route} route" in lines[op], lines
            assert f"bound {bound} bytes" in lines[op], lines
    # the components' driver-side table is broadcast as it is: no pull,
    # no delivery line, even under a bound of 0
    monkeypatch.setattr(components, "_component_labels", _COMPONENT_LABELS)
    monkeypatch.setattr(joins, "_BROADCAST_PAYLOAD_BYTES", 0)
    caplog.clear()
    lines = logged()
    assert lines["connected_components"].startswith("connected_components: driver route"), lines
    assert "near_dedup_full" not in lines, lines


def test_minhash_dedup_full_never_probes_a_lazy_corpus(ray_session, monkeypatch, tmp_path):
    """On a lazy ``read_parquet(...).map_batches(...)`` corpus (the
    ``neardup`` benchmark's ``read_docs`` shape) no schema lookup needs
    to execute anything: a probe runs the corpus to its first block and
    cancels the rest of its tasks."""
    import pyarrow.parquet as pq

    from ray.data import Dataset

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    t = pa.table(
        {
            "doc_id": pa.array(range(40), pa.int64()),
            "text": [
                base if i % 4 == 0 else hashlib.sha256(str(i).encode()).hexdigest()
                for i in range(40)
            ],
        }
    )
    for i in range(4):
        pq.write_table(t.slice(10 * i, 10), tmp_path / f"part-{i}.parquet")
    docs = ray.data.read_parquet(str(tmp_path)).map_batches(
        lambda b: b.select(["doc_id", "text"]), batch_format="pyarrow"
    )

    real = Dataset.schema
    probed: list = []

    def checked(self, fetch_if_missing=True):
        if fetch_if_missing:
            probed.append(real(self, fetch_if_missing=False))
        return real(self, fetch_if_missing)

    monkeypatch.setattr(Dataset, "schema", checked)
    out = minhash_dedup_full(docs, keep_all=True).to_pandas()
    monkeypatch.undo()
    assert all(s is not None for s in probed), probed
    assert len(out) == 40
    assert out.loc[out["doc_id"] == 0, "cluster_size"].item() == 10


def _random_pair_graph(seed: int) -> tuple[pd.DataFrame, np.ndarray]:
    """(pairs, doc ids of ``ds``): random edges, a shuffled 40-node
    chain, self-loops (one on a node in no other pair), duplicate and
    reversed edges, and pair ids absent from ``ds``; ids spread over a
    wide range so every component hashes across partitions."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(10**6, 140, replace=False).astype(np.int64)
    chain = rng.permutation(ids[:40])
    a = [chain[:-1]]
    b = [chain[1:]]
    pool = ids[40:120]
    ra, rb = rng.choice(pool, 50), rng.choice(pool, 50)
    a += [ra, rb[:5], ids[:3], ids[120:121]]
    b += [rb, ra[:5], ids[:3], ids[120:121]]
    pairs = pd.DataFrame({"doc_a": np.concatenate(a), "doc_b": np.concatenate(b)})
    pairs = pairs.sample(frac=1.0, random_state=seed, ignore_index=True)
    # ds: all but 15 of the pair ids, plus 10 docs in no pair
    in_pairs = np.unique(pairs.to_numpy())
    absent = rng.choice(in_pairs, 15, replace=False)
    docs = np.concatenate([np.setdiff1d(in_pairs, absent), ids[130:140]])
    return pairs, rng.permutation(docs)


def _duckdb_components(pairs: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, component = min id of its connected component) by a
    recursive-CTE reachability closure."""
    import duckdb

    con = duckdb.connect()
    con.register("pairs", pairs)
    return con.execute(
        """
        WITH RECURSIVE edges(a, b) AS (
            SELECT doc_a, doc_b FROM pairs UNION SELECT doc_b, doc_a FROM pairs
        ),
        reach(node, src) AS (
            SELECT a, a FROM edges
            UNION
            SELECT e.b, r.src FROM reach r JOIN edges e ON r.node = e.a
        )
        SELECT node AS doc_id, min(src) AS component
        FROM reach GROUP BY node ORDER BY node
        """
    ).df()


@pytest.mark.parametrize("seed", [1, 2])
def test_funnel_matches_duckdb_component_oracle(ray_session, monkeypatch, seed):
    """``connected_components`` and ``near_dedup_full`` against a DuckDB
    recursive-CTE component oracle on random pair graphs, through both
    component paths (the driver union-find and label propagation), each
    crossed with both of ``near_dedup_full``'s delivery bounds (the
    driver path's table is broadcast under either)."""
    pairs, doc_ids = _random_pair_graph(seed)
    want = _duckdb_components(pairs)
    size = want.groupby("component")["doc_id"].transform("size")
    cluster = dict(zip(want["doc_id"], zip(want["component"], size)))
    want_docs = pd.DataFrame(
        {
            "doc_id": np.sort(doc_ids),
            "cluster_size": [cluster.get(d, (d, 1))[1] for d in np.sort(doc_ids)],
            "kept": [cluster.get(d, (d, 1))[0] == d for d in np.sort(doc_ids)],
        }
    )
    docs = ray.data.from_arrow(
        pa.table({"doc_id": doc_ids, "text": [f"t{d}" for d in doc_ids]})
    ).repartition(6)
    real_cc = components.connected_components
    for limit in (2_000_000, 0):  # driver union-find, then label propagation
        ds_pairs = ray.data.from_pandas(pairs).repartition(5)
        got = (
            real_cc(ds_pairs, driver_edge_limit=limit)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

        for route, bound in ROUTES.items():  # both delivery routes
            monkeypatch.setattr(joins, "_BROADCAST_PAYLOAD_BYTES", bound)
            monkeypatch.setattr(
                components,
                "_component_labels",
                functools.partial(_COMPONENT_LABELS, driver_edge_limit=limit),
            )
            out = (
                near_dedup_full(docs, ds_pairs, keep_all=True, n_partitions=7)
                .to_pandas()
                .sort_values("doc_id", ignore_index=True)
            )
            pd.testing.assert_frame_equal(
                out[["doc_id", "cluster_size", "kept"]], want_docs, check_dtype=False,
                obj=f"{route} route, driver_edge_limit={limit}",
            )
            assert (out["text"] == "t" + out["doc_id"].astype(str)).all()


def test_component_routes_are_logged(ray_session, caplog):
    """``connected_components`` logs one line per call: the route, the
    edge rows and the limit."""
    import logging

    from fineweb2_ro_ray.stages.components import connected_components

    pairs = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([1, 2, 10], pa.int64()), "doc_b": pa.array([2, 3, 11], pa.int64())})
    )
    caplog.set_level(logging.INFO, logger="fineweb2_ro_ray")
    for limit, route in ((_default_edge_limit(), "driver"), (0, "label propagation")):
        caplog.clear()
        comp = connected_components(pairs, driver_edge_limit=limit).to_pandas()
        assert dict(zip(comp["doc_id"], comp["component"])) == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}
        lines = [
            r.getMessage()
            for r in caplog.records
            if r.name == "fineweb2_ro_ray" and r.getMessage().startswith("connected_components:")
        ]
        assert lines == [
            f"connected_components: {route} route, 3 edge rows, driver_edge_limit {limit}"
        ]


def test_connected_components_executes_pairs_once(ray_session, tmp_path):
    """A lazy ``pairs`` Dataset runs each of its blocks once on either
    route: the route is chosen from the executed blocks' metadata, and
    label propagation starts from those same blocks."""
    import os

    from fineweb2_ro_ray.stages.components import connected_components

    blocks = [
        pa.table({"doc_a": pa.array([10 * i, 10 * i + 1], pa.int64()),
                  "doc_b": pa.array([10 * i + 1, 10 * i + 2], pa.int64())})
        for i in range(4)
    ]
    for limit in (_default_edge_limit(), 0):
        marks = tmp_path / f"limit-{limit}"
        marks.mkdir()

        def record(t: pa.Table, marks: str = str(marks)) -> pa.Table:
            with open(os.path.join(marks, str(t["doc_a"][0].as_py())), "a") as f:
                f.write("x")
            return t

        pairs = ray.data.from_arrow(blocks).map_batches(
            record, batch_format="pyarrow", batch_size=None
        )
        comp = connected_components(pairs, driver_edge_limit=limit).to_pandas()
        assert dict(zip(comp["doc_id"], comp["component"])) == {
            10 * i + j: 10 * i for i in range(4) for j in range(3)
        }
        assert sorted(os.listdir(marks)) == sorted(str(10 * i) for i in range(4))
        assert {(marks / f).read_text() for f in os.listdir(marks)} == {"x"}, limit


def test_streaming_settings_stay_off_the_callers_context(ray_session, monkeypatch, tmp_path):
    """The signature pass runs on its own DataContext copy whose
    streaming buffer holds a split read task's whole output; a corpus
    whose read does not split keeps Ray's buffer. After both funnels
    ran, the caller's Dataset, its logical plan and the process-global
    context hold their original streaming settings, and the returned
    Datasets keep the caller's."""
    import pyarrow.parquet as pq

    from ray.data import DataContext

    key = "_max_num_blocks_in_streaming_gen_buffer"
    base = "the quick brown fox jumps over the lazy dog again and again"
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 9], pa.int64()),
            "text": [base] * 4 + ["a standalone document body"],
        }
    )
    pq.write_table(t, tmp_path / "one.parquet")
    (tmp_path / "five").mkdir()
    for i in range(5):
        pq.write_table(t.slice(i, 1), tmp_path / "five" / f"part-{i}.parquet")
    pairs = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([0, 1], pa.int64()), "doc_b": pa.array([1, 2], pa.int64())})
    )
    seen = []
    real = dedup.hash_exchange_map_groups

    def spy(ds, *args, **kwargs):
        seen.append(getattr(ds.context, key))
        return real(ds, *args, **kwargs)

    monkeypatch.setattr(dedup, "hash_exchange_map_groups", spy)
    default = getattr(DataContext.get_current(), key)
    corpora = {
        # one file read as 8 blocks: one read task, its output split 8 ways
        8: ray.data.read_parquet(str(tmp_path / "one.parquet"), override_num_blocks=8),
        # five files read as 5 blocks: one unsplit block per task
        default: ray.data.read_parquet(str(tmp_path / "five"), override_num_blocks=5),
    }
    for want, read in corpora.items():
        # a derived Dataset, which shares its parent's context object
        docs = read.map_batches(lambda b: b, batch_format="pyarrow")
        callers = (docs.context, docs._logical_plan.context, DataContext.get_current())
        before = [getattr(c, key) for c in callers]
        seen.clear()
        outs = [minhash_dedup_full(docs, keep_all=True), near_dedup_full(docs, pairs, keep_all=True)]
        for out in outs:
            assert len(out.materialize().to_pandas()) == 5
        assert seen[0] == want  # the signature pass feeding the bucket exchange
        assert [getattr(c, key) for c in callers] == before == [default] * 3
        for out in outs:
            assert getattr(out.context, key) == default


def test_minhash_dedup_full_end_to_end(ray_session):
    # two exact-duplicate families + distinct docs: LSH must pair the
    # identical texts (identical signatures collide in every band)
    base = "the quick brown fox jumps over the lazy dog again and again"
    other = "entirely different words compose this second document body text"
    rows = [(i, base) for i in range(4)] + [(10 + i, other) for i in range(3)]
    rows += [(100, "unique text one for the corpus"), (101, "another standalone body")]
    docs = _docs(rows)
    out = minhash_dedup_full(docs, keep_all=True).to_pandas()
    out = out.sort_values("doc_id", ignore_index=True)
    by_id = dict(zip(out["doc_id"], out["cluster_size"]))
    assert [by_id[i] for i in range(4)] == [4, 4, 4, 4]
    assert [by_id[10 + i] for i in range(3)] == [3, 3, 3]
    assert by_id[100] == by_id[101] == 1
    kept = set(out[out["kept"]]["doc_id"])
    assert kept == {0, 10, 100, 101}


@pytest.mark.parametrize("corpus", ["duplicates", "singletons"])
def test_minhash_dedup_full_blocks_keep_the_schema(ray_session, corpus):
    """Every output block, empty ones included, carries the output
    schema: a map after the join would turn its empty partitions into
    schema-less blocks. The singletons corpus has an empty pair graph."""
    if corpus == "duplicates":
        rows = [(i, f"alpha beta gamma delta epsilon {i % 7}") for i in range(60)]
    else:
        rows = [(i, hashlib.sha256(str(i).encode()).hexdigest()) for i in range(40)]
        assert minhash_cluster_edges(_docs(rows)).count() == 0
    out = minhash_dedup_full(_docs(rows), keep_all=True).materialize()
    want = ["doc_id", "text", "cluster_size", "kept"]
    n = 0
    for bundle in out.iter_internal_ref_bundles():
        for ref in bundle.block_refs:
            block = ray.get(ref)
            assert block.schema.names == want, (block.num_rows, block.schema)
            n += block.num_rows
    assert n == len(rows)


def test_lag_lead_delta_matches_pandas_oracle(ray_session):
    rng = np.random.default_rng(7)
    n = 500
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 20, n),
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10_000, n), unit="s"),
            "value": rng.uniform(0, 50, n).round(2),
        }
    )
    ds = ray.data.from_pandas(df)
    got = (
        lag_lead_delta(ds)
        .to_pandas()
        .sort_values(["user_id", "event_id"], ignore_index=True)
    )

    exp = df.copy()
    exp["cents"] = (exp["value"] * 100).round().astype(np.int64)
    exp = exp.sort_values(["user_id", "ts", "event_id"], ignore_index=True)
    g = exp.groupby("user_id", sort=False)
    exp["prev_event_id"] = g["event_id"].shift(1).fillna(-1).astype(np.int64)
    exp["next_event_id"] = g["event_id"].shift(-1).fillna(-1).astype(np.int64)
    exp["delta_cents"] = (exp["cents"] - g["cents"].shift(1)).fillna(0).astype(np.int64)
    exp = exp[
        ["user_id", "event_id", "cents", "prev_event_id", "next_event_id", "delta_cents"]
    ].sort_values(["user_id", "event_id"], ignore_index=True)

    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)


def test_lag_lead_delta_single_row_keys(ray_session):
    df = pd.DataFrame(
        {
            "user_id": [1, 2],
            "event_id": np.array([7, 8], np.int64),
            "ts": pd.to_datetime(["2024-01-01", "2024-01-02"]),
            "value": [1.25, 2.50],
        }
    )
    out = lag_lead_delta(ray.data.from_pandas(df)).to_pandas()
    assert set(out["prev_event_id"]) == {-1}
    assert set(out["next_event_id"]) == {-1}
    assert set(out["delta_cents"]) == {0}
    assert sorted(out["cents"]) == [125, 250]


def test_minhash_dedup_full_cluster_mode_matches_pairs_mode(ray_session):
    """minhash_dedup_full (datatrove bucket-union star edges) finds the
    same clusters as the funnel over pairwise ``minhash_lsh_pairs`` on a
    corpus of clear-cut families (exact dups + a near-dup + singletons)."""
    base = "the quick brown fox jumps over the lazy dog again and again"
    near = base.replace("lazy", "hazy")
    other = "entirely different words compose this second document body text"
    rows = (
        [(i, base) for i in range(5)]
        + [(50, near)]
        + [(10 + i, other) for i in range(3)]
        + [(100, "unique text one for the corpus"), (101, "another standalone body")]
    )
    docs = _docs(rows)
    a = (
        minhash_dedup_full(docs, keep_all=True)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    pairs = minhash_lsh_pairs(docs, threshold=0.5).select_columns(["doc_a", "doc_b"])
    b = (
        near_dedup_full(docs, pairs, keep_all=True)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(
        a[["doc_id", "cluster_size", "kept"]], b[["doc_id", "cluster_size", "kept"]]
    )
    by_id = dict(zip(a["doc_id"], a["cluster_size"]))
    assert by_id[0] == 6 and by_id[50] == 6 and by_id[10] == 3 and by_id[100] == 1


def test_range_frame_sum_peers_and_window(ray_session):
    """RANGE frame semantics: tied timestamps are peers (both see the
    full frame total), events outside the trailing interval fall out,
    and keys are isolated."""
    from fineweb2_ro_ray.stages.windows import range_frame_sum

    df = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 1, 2],
            "event_id": np.array([1, 2, 3, 4, 5], np.int64),
            "ts": pd.to_datetime(
                [
                    "2024-01-01 00:00:00",
                    "2024-01-01 00:30:00",
                    "2024-01-01 00:30:00",  # peer of event 2
                    "2024-01-01 02:00:00",  # outside 1h of everything
                    "2024-01-01 00:10:00",  # other key
                ]
            ),
            "value": [1.00, 2.00, 3.00, 4.00, 50.00],
        }
    )
    out = (
        range_frame_sum(ray.data.from_pandas(df), window_s=3600)
        .to_pandas()
        .set_index("event_id")["range_cents"]
        .to_dict()
    )
    assert out[1] == 100
    assert out[2] == out[3] == 600  # peers: 100+200+300 each
    assert out[4] == 400            # only itself
    assert out[5] == 5000           # key isolation


def test_round5_ops_layout_invariant(ray_session):
    """Determinism across block layouts: the funnel, LAG/LEAD, and the
    RANGE frame produce identical results whatever the input
    partitioning (the engine's parallelism-invariance contract)."""
    rng = np.random.default_rng(11)
    texts = [
        " ".join(
            rng.choice(["alpha", "beta", "gamma", "delta", "epsilon"], 12)
        )
        for _ in range(60)
    ] * 3  # plenty of exact dups
    docs = _docs(list(enumerate(texts)))

    a = (
        minhash_dedup_full(docs, keep_all=True)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    b = (
        minhash_dedup_full(docs.repartition(7), keep_all=True)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(a, b)

    from fineweb2_ro_ray.stages.windows import lag_lead_delta, range_frame_sum

    n = 400
    ev = pd.DataFrame(
        {
            "user_id": rng.integers(0, 15, n),
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.Timestamp("2024-03-01")
            + pd.to_timedelta(rng.integers(0, 50_000, n), unit="s"),
            "value": rng.uniform(0, 30, n).round(2),
        }
    )
    for op in (lag_lead_delta, range_frame_sum):
        x = (
            op(ray.data.from_pandas(ev))
            .to_pandas()
            .sort_values(["user_id", "event_id"], ignore_index=True)
        )
        y = (
            op(ray.data.from_pandas(ev).repartition(9))
            .to_pandas()
            .sort_values(["user_id", "event_id"], ignore_index=True)
        )
        pd.testing.assert_frame_equal(x, y)
