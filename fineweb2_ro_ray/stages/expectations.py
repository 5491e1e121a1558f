"""Data-quality expectations — the Deequ/Great-Expectations operator
family: declarative constraints validated in ONE pass of thin partials,
emitting a (check, column, metric, passed) report.

A 100-TB curation loop re-ingests and re-publishes continuously; the
publish gate is exactly this: "doc_id unique", "text null fraction
under 0.1%", "n_chars within [0, 1e6]", "every o_custkey exists in
customer". Each check folds to a handful of integers, so the whole
suite costs one streamed scan (plus one thin exchange for uniqueness
and one Bloom/exchange semi-join for referential integrity) — nothing
row-sized ever reaches the driver.

Checks:

- ``not_null(col, max_frac)`` — null fraction ≤ bound; metric is the
  EXACT fraction as one float division of exact counts.
- ``unique(col)`` — duplicate-row count == 0, via per-batch partial
  (value, n) counts folded through one keyed exchange; metric = extra
  rows (Σ max(n-1, 0)).
- ``in_range(col, lo, hi)`` — violation count == 0 (NULLs don't
  violate; pair with not_null to bound them).
- ``foreign_key(col, ref_ds, ref_col)`` — orphan count == 0 via a
  broadcast distinct set when the reference is small (dimension
  tables): the reference's distinct values come from one keyed
  exchange and are pulled under the broadcast bound
  (``joins._pull_bounded``); past it the pull stops mid-stream and the
  check refuses, naming the Bloom semi-join (``stages.bloom``).

The report is SQL-oracle-checkable: every metric is a count or a fixed
float expression a SQL engine reproduces bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from . import joins
from .exchange import aggregate_table, exchange_distinct, hash_exchange_map_groups


@dataclass(frozen=True)
class Check:
    kind: str            # not_null | unique | in_range | foreign_key
    col: str
    bound: float = 0.0   # max_frac for not_null; unused otherwise
    lo: float | None = None
    hi: float | None = None
    ref: Any = None      # (ref_ds, ref_col) for foreign_key


def not_null(col: str, max_frac: float = 0.0) -> Check:
    return Check("not_null", col, bound=max_frac)


def unique(col: str) -> Check:
    return Check("unique", col)


def in_range(col: str, lo: float, hi: float) -> Check:
    return Check("in_range", col, lo=lo, hi=hi)


def foreign_key(col: str, ref_ds: ray.data.Dataset, ref_col: str) -> Check:
    return Check("foreign_key", col, ref=(ref_ds, ref_col))


def validate(ds: ray.data.Dataset, checks: list[Check]) -> pd.DataFrame:
    """Run every check; returns the report frame
    ``(check, column, metric, passed)`` ordered as given. Scans the
    input once per *scan group*: all not_null/in_range/foreign_key
    checks share ONE map pass; each unique() adds one thin exchange.
    Each foreign_key reference adds one distinct exchange whose output
    is pulled under the broadcast bound (``joins._pull_bounded``); past
    it the check raises ``ValueError`` before the scan."""
    simple = [c for c in checks if c.kind in ("not_null", "in_range", "foreign_key")]
    fk_sets: dict[int, Any] = {}
    for i, c in enumerate(checks):
        if c.kind == "foreign_key":
            ref_ds, ref_col = c.ref
            vals = joins._pull_bounded(exchange_distinct(ref_ds, ref_col), "validate")
            if vals is None:
                raise ValueError(
                    f"foreign_key({c.col}): reference distinct values exceed the "
                    f"broadcast limit of {joins._BROADCAST_PAYLOAD_BYTES} bytes; "
                    "route this check through stages.bloom (membership "
                    "semi-join) instead"
                )
            fk_sets[i] = ray.put(
                pa.concat_tables(vals)[ref_col].combine_chunks() if vals else pa.array([])
            )

    # one shared pass for all row-local checks: per batch emit one thin
    # row of counters per check
    def partial(b: pa.Table) -> pa.Table:
        rows = []
        for i, c in enumerate(checks):
            if c.kind == "not_null":
                col = b[c.col]
                rows.append(
                    (i, b.num_rows, pc.sum(pc.is_null(col).cast(pa.int64())).as_py() or 0)
                )
            elif c.kind == "in_range":
                col = b[c.col]
                bad = pc.sum(
                    pc.cast(
                        pc.or_kleene(
                            pc.less(col, c.lo), pc.greater(col, c.hi)
                        ),
                        pa.int64(),
                    )
                ).as_py() or 0
                rows.append((i, b.num_rows, int(bad)))
            elif c.kind == "foreign_key":
                col = b[c.col]
                present = pc.is_in(col, ray.get(fk_sets[i]))
                orphan = pc.sum(
                    pc.cast(
                        pc.and_(pc.is_valid(col), pc.invert(present)), pa.int64()
                    )
                ).as_py() or 0
                rows.append((i, b.num_rows, int(orphan)))
        return pa.table(
            {
                "check_i": pa.array([r[0] for r in rows], pa.int64()),
                "n": pa.array([r[1] for r in rows], pa.int64()),
                "bad": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    agg: dict[int, list[int]] = {i: [0, 0] for i in range(len(checks))}
    if simple:
        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        for r in parts.itertuples(index=False):
            agg[int(r.check_i)][0] += int(r.n)
            agg[int(r.check_i)][1] += int(r.bad)

    # uniqueness: per-batch (value, n) partials -> one keyed exchange;
    # metric = sum of (n - 1) over duplicated values, nothing else moves
    out_schema = pa.schema([("extra", pa.int64())])
    for i, c in enumerate(checks):
        if c.kind != "unique":
            continue

        def vpartial(b: pa.Table, col=c.col) -> pa.Table:
            x = b[col]
            if isinstance(x, pa.ChunkedArray):
                x = x.combine_chunks()
            vc = x.value_counts()
            return pa.table(
                {
                    "v": vc.field("values"),
                    "n": pc.cast(vc.field("counts"), pa.int64()),
                }
            )

        def reduce_part(t: pa.Table) -> pa.Table:
            n = aggregate_table(t, ["v"], [("n", "sum", "n")])["n"].to_numpy()
            return pa.table({"extra": [int(np.clip(n - 1, 0, None).sum())]})

        extra = int(
            hash_exchange_map_groups(
                ds.map_batches(vpartial, batch_format="pyarrow"),
                reduce_part,
                key="v",
                out_schema=out_schema,
            ).sum("extra")
            or 0
        )
        agg[i] = [0, extra]

    rows = []
    for i, c in enumerate(checks):
        n, bad = agg[i]
        if c.kind == "not_null":
            metric = float(bad) / float(n) if n else 0.0
            passed = metric <= c.bound
            label = f"not_null(max_frac={c.bound})"
        elif c.kind == "unique":
            metric = float(bad)
            passed = bad == 0
            label = "unique"
        elif c.kind == "in_range":
            metric = float(bad)
            passed = bad == 0
            label = f"in_range[{c.lo}, {c.hi}]"
        else:
            metric = float(bad)
            passed = bad == 0
            label = "foreign_key"
        rows.append((label, c.col, metric, passed))
    return pd.DataFrame(rows, columns=["check", "column", "metric", "passed"])
