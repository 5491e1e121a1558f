"""``exchange_aggregate`` / ``exchange_distinct`` against DuckDB.

The two ready-made Arrow reduce bodies replaced pandas ``groupby`` /
``drop_duplicates`` bodies, so they pin the conventions those had and
where they differ from SQL:

- null KEYS form one group (SQL ``GROUP BY``; pandas only with
  ``dropna=False``);
- a ``sum`` over a group whose values are all null is 0 (pandas), not
  NULL (SQL and Arrow's default), so the oracle wraps it in COALESCE;
- groups come out of each partition sorted by key, nulls last (pandas).

Tables are randomized from fixed seeds and split into several blocks,
an empty one included; the exchange auto-sizes to at least 8 reducers,
so the few-key cases leave most reduce partitions empty.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from fineweb2_ro_ray.stages.exchange import (
    aggregate_table,
    distinct_table,
    exchange_aggregate,
    exchange_distinct,
)

AGGS = [
    ("v", "sum", "s"),
    ("v", "min", "lo"),
    ("v", "max", "hi"),
    ("v", "count", "n"),
    (None, "size", "rows"),
    ("b", "sum", "nb"),
]
SQL_AGGS = (
    "COALESCE(SUM(v), 0) AS s, MIN(v) AS lo, MAX(v) AS hi, "
    "COUNT(v) AS n, COUNT(*) AS rows, COALESCE(SUM(b::INTEGER), 0) AS nb"
)


def _table(seed: int, n: int, n_keys: int) -> pa.Table:
    """Random (k_int, k_str, v, b) rows: ~10% null keys per key column,
    ~30% null values, and the keys >= n_keys - 2 (string form
    ``z<key>``) with only null values; ``b`` is a boolean with ~20%
    nulls."""
    rng = np.random.default_rng(seed)
    ki = rng.integers(0, n_keys, n)
    v = rng.integers(-50, 50, n)
    v_null = (rng.random(n) < 0.3) | (ki >= n_keys - 2)
    return pa.table(
        {
            "k_int": pa.array(ki, pa.int64(), mask=rng.random(n) < 0.1),
            "k_str": pa.array(
                [f"s{x % 5}" if x < n_keys - 2 else f"z{x}" for x in ki],
                pa.string(),
                mask=rng.random(n) < 0.1,
            ),
            "v": pa.array(v, pa.int64(), mask=v_null),
            "b": pa.array(rng.random(n) < 0.5, pa.bool_(), mask=rng.random(n) < 0.2),
        }
    )


def _blocks(t: pa.Table) -> rd.Dataset:
    a, b = t.num_rows // 3, 2 * t.num_rows // 3
    return rd.from_arrow([t.slice(0, a), t.slice(a, 0), t.slice(a, b - a), t.slice(b)])


def _rows(t) -> list[tuple]:
    """Order-free comparable rows (nulls sort first, as None-aware)."""
    cols = t.to_pydict() if isinstance(t, pa.Table) else t
    rows = list(zip(*cols.values()))
    return sorted(rows, key=lambda r: tuple((x is not None, x) for x in r))


def _duckdb(t: pa.Table, sql: str) -> dict:
    con = duckdb.connect()
    con.register("t", t)
    return con.execute(sql).arrow().to_pydict()


# "str_int" puts a nullable string key before an integer key: Arrow 16's
# group_by splits that null group unless the integer key goes first
KEYS = {
    "int": ["k_int"],
    "str": ["k_str"],
    "multi": ["k_int", "k_str"],
    "str_int": ["k_str", "k_int"],
}


@pytest.mark.parametrize("kind", list(KEYS))
def test_exchange_aggregate_matches_duckdb_group_by(kind):
    keys = KEYS[kind]
    t = _table(seed=len(kind), n=3000, n_keys=40)
    key = keys if len(keys) > 1 else keys[0]
    k = ", ".join(keys)
    want = _duckdb(t, f"SELECT {k}, {SQL_AGGS} FROM t GROUP BY {k}")
    # the null-key groups and the all-null-value groups are present
    assert any(r[0] is None for r in _rows(want))
    assert any(r[len(keys)] == 0 and r[len(keys) + 1] is None for r in _rows(want))
    # the combine runs per input block: a few large blocks, an empty
    # one, and the same rows spread over 7 blocks
    for ds in (_blocks(t), _blocks(t).repartition(7)):
        got = _collect(exchange_aggregate(ds, key, AGGS))
        assert got.column_names == keys + ["s", "lo", "hi", "n", "rows", "nb"]
        assert got.schema.field("s").type == pa.int64()
        assert got.schema.field("nb").type == pa.int64()
        assert _rows(got) == _rows(want)


@pytest.mark.parametrize("kind", list(KEYS))
def test_exchange_distinct_matches_duckdb_distinct(kind):
    keys = KEYS[kind]
    t = _table(seed=10 + len(kind), n=2000, n_keys=25)
    key = keys if len(keys) > 1 else keys[0]
    got = _collect(exchange_distinct(_blocks(t), key))
    want = _duckdb(t, f"SELECT DISTINCT {', '.join(keys)} FROM t")
    assert got.column_names == keys
    assert any(None in r for r in _rows(want))
    assert _rows(got) == _rows(want)


def test_exchange_aggregate_empty_partitions_and_empty_input():
    """Three keys (one null) over >= 8 reducers: most partitions are
    empty, with and without a pinned schema. An empty input gives a
    typed empty result when the schema is pinned, and no rows without."""
    t = _table(seed=7, n=300, n_keys=3)
    schema = pa.schema(
        [("k_int", pa.int64()), ("s", pa.int64()), ("lo", pa.int64()),
         ("hi", pa.int64()), ("n", pa.int64()), ("rows", pa.int64()),
         ("nb", pa.int64())]
    )
    want = _rows(_duckdb(t, f"SELECT k_int, {SQL_AGGS} FROM t GROUP BY k_int"))
    assert len(want) == 4
    for out_schema in (schema, None):
        got = exchange_aggregate(_blocks(t), "k_int", AGGS, out_schema=out_schema)
        assert _rows(_collect(got)) == want

    empty = t.schema.empty_table()
    got = exchange_aggregate(rd.from_arrow(empty), "k_int", AGGS, out_schema=schema)
    tabs = _blocks_of(got)
    assert sum(b.num_rows for b in tabs) == 0
    assert all(b.schema.equals(schema) for b in tabs)
    got = exchange_aggregate(rd.from_arrow(empty), "k_int", AGGS)
    assert got.count() == 0


def test_exchange_aggregate_refuses_non_decomposable():
    """Only functions whose partials merge (size, count, sum, min, max)
    pass through the map-side combine; ``mean`` is refused up front,
    while ``aggregate_table`` still computes it in process."""
    t = _table(seed=5, n=100, n_keys=5)
    with pytest.raises(ValueError, match="mean"):
        exchange_aggregate(_blocks(t), "k_int", [("v", "mean", "m")])
    assert "m" in aggregate_table(t, ["k_int"], [("v", "mean", "m")]).column_names


def _blocks_of(ds: rd.Dataset) -> list[pa.Table]:
    import ray

    return [ray.get(r) for r in ds.to_arrow_refs()]


def _collect(ds: rd.Dataset) -> pa.Table:
    """The non-empty output blocks, concatenated (types as produced)."""
    return pa.concat_tables([b for b in _blocks_of(ds) if b.num_rows])


def test_aggregate_and_distinct_bodies_keep_pandas_group_order():
    """Inside a partition the groups come out sorted by key with the
    null group last — the order pandas ``groupby`` gave the bodies
    these replaced."""
    t = _table(seed=3, n=500, n_keys=30)
    for keys in KEYS.values():
        for out in (aggregate_table(t, keys, AGGS), distinct_table(t, keys)):
            rows = list(zip(*[out[k].to_pylist() for k in keys]))
            assert rows == sorted(rows, key=lambda r: tuple((x is None, x) for x in r))
            assert len(set(rows)) == len(rows)
    # and an all-null value group sums to 0 in the body itself
    g = aggregate_table(t, ["k_int"], AGGS).to_pydict()
    i = g["k_int"].index(29)
    assert g["s"][i] == 0 and g["lo"][i] is None and g["n"][i] == 0
