"""Distinct set operators: INTERSECT / EXCEPT over arbitrary key columns.

Both sides are tagged, unioned, and hash-partitioned by the key columns
on the raw exchange (``stages.exchange``), so every occurrence of a key
tuple lands in one reduce partition; each partition then emits its
distinct keys per the set predicate with ONE vectorized groupby — no
sort, no driver materialization. Cost is a single all-to-all of the
distinct-candidate columns only (callers should project first), which
is the minimum any distributed set op pays.

NULL keys follow SQL set-op semantics (NULLs compare equal for
INTERSECT/EXCEPT): pandas ``dropna=False`` groupbys keep them.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_TAG = "__setop_side"


def _tagged_union(
    a: ray.data.Dataset, b: ray.data.Dataset, cols: list[str]
) -> ray.data.Dataset:
    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            t = t.select(cols)
            return t.append_column(_TAG, pa.array([side] * t.num_rows, pa.int8()))

        return fn

    return a.map_batches(tag(0), batch_format="pyarrow").union(
        b.map_batches(tag(1), batch_format="pyarrow")
    )


def _setop(
    a: ray.data.Dataset, b: ray.data.Dataset, cols: list[str], want: str
) -> ray.data.Dataset:
    from .exchange import aggregate_table, hash_exchange_map_groups

    def reduce(t: pa.Table) -> pa.Table:
        g = aggregate_table(t, cols, [(_TAG, "min", "lo"), (_TAG, "max", "hi")])
        if want == "intersect":
            keep = pc.and_(pc.equal(g["lo"], 0), pc.equal(g["hi"], 1))
        else:  # except: in a, never in b
            keep = pc.equal(g["hi"], 0)
        return g.filter(keep).select(cols)

    return hash_exchange_map_groups(_tagged_union(a, b, cols), reduce, key=cols)


def intersect_distinct(
    a: ray.data.Dataset, b: ray.data.Dataset, cols: list[str]
) -> ray.data.Dataset:
    """SQL ``SELECT cols FROM a INTERSECT SELECT cols FROM b``."""
    return _setop(a, b, cols, "intersect")


def except_distinct(
    a: ray.data.Dataset, b: ray.data.Dataset, cols: list[str]
) -> ray.data.Dataset:
    """SQL ``SELECT cols FROM a EXCEPT SELECT cols FROM b``."""
    return _setop(a, b, cols, "except")
