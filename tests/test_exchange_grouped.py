"""Grouped-returns exchange wiring: output equality vs the ungrouped
path, auto-width selection, and fault tolerance through the new
``_split_block_grouped`` / ``_ungroup_merge`` tasks.

The grouped wiring exists to bound the driver's transient slice-ref
matrix (M x P → max(M x ⌈P/W⌉, (M/F) x P)); locally it never
auto-enables (M x P is tiny), so these tests force it via the
``group_width`` parameter or a lowered ``exchange._DRIVER_REFS_MAX`` and
assert bit-equality with the default wiring on every shape the
exchange supports: single string key, multi-column key, pinned and
unpinned output schema, empty partitions, and merge-tree depth > 1
(fan-in forced to 2).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from fineweb2_ro_ray.stages import exchange
from fineweb2_ro_ray.stages.exchange import (
    _auto_group_width,
    _auto_reducers,
    _group_bounds,
    aggregate_table,
    hash_exchange_map_groups,
)


def _mk_ds(n_rows: int = 5000, n_keys: int = 37, seed: int = 3) -> rd.Dataset:
    rng = np.random.default_rng(seed)
    t = pa.table(
        {
            "k": pa.array(
                [f"key-{i}" for i in rng.integers(0, n_keys, n_rows)]
            ),
            "g": pa.array(rng.integers(0, 5, n_rows).astype(np.int64)),
            "v": pa.array(rng.normal(size=n_rows)),
        }
    )
    # many small blocks => many map groups once split-bytes is tiny
    return rd.from_arrow(t).repartition(40)


def _mk_aggs():
    """Reduce bodies built as closures so cloudpickle ships them by
    value (a module-level test function isn't importable in workers)."""

    def agg_pa(t: pa.Table) -> pa.Table:
        g = t.group_by("k").aggregate([("v", "sum"), ("v", "count")])
        return g.select(["k", "v_sum", "v_count"]).sort_by("k")

    def agg_kg(t: pa.Table) -> pa.Table:
        return aggregate_table(t, ["k", "g"], [("v", "sum", "v")])

    return agg_pa, agg_kg


def _collect(ds: rd.Dataset, by: list[str]) -> pd.DataFrame:
    return ds.to_pandas().sort_values(by).reset_index(drop=True)


def test_grouped_equals_ungrouped_all_shapes(ray_session, monkeypatch):
    # deep merge tree + many map groups through both wirings
    monkeypatch.setattr(exchange, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(exchange, "_MERGE_FANIN", 2)
    ds = _mk_ds()
    agg_pa, agg_kg = _mk_aggs()

    # pyarrow body, pinned schema, string key
    schema = pa.schema(
        [("k", pa.string()), ("v_sum", pa.float64()), ("v_count", pa.int64())]
    )
    base = _collect(
        hash_exchange_map_groups(
            ds, agg_pa, key="k", n_reducers=13, out_schema=schema, group_width=1,
        ),
        ["k"],
    )
    assert len(base) == 37
    for w in (2, 3, 6):  # 13 % 3 == 1 exercises the merged trailing group
        got = _collect(
            hash_exchange_map_groups(
                ds, agg_pa, key="k", n_reducers=13, out_schema=schema, group_width=w,
            ),
            ["k"],
        )
        pd.testing.assert_frame_equal(got, base)

    # multi-column body, NO pinned schema (row-count sync path), multi-col key,
    # empty partitions (n_reducers >> key cardinality)
    base2 = _collect(
        hash_exchange_map_groups(
            ds, agg_kg, key=["k", "g"], n_reducers=64, group_width=1
        ),
        ["k", "g"],
    )
    got2 = _collect(
        hash_exchange_map_groups(
            ds, agg_kg, key=["k", "g"], n_reducers=64, group_width=7
        ),
        ["k", "g"],
    )
    pd.testing.assert_frame_equal(got2, base2)


def test_grouped_env_forced_flagship_identical(ray_session, monkeypatch, tmp_path):
    """A 1-ref driver budget makes every auto-sized exchange in the
    flagship pick the grouped wiring (W >= 2); output must equal the
    default run."""
    from fineweb2_ro_ray.pipelines.quality_filter import (
        annotate,
        read_transcripts,
        reassemble,
    )
    from fineweb2_ro_ray.sources.synth import write_transcripts

    src = str(tmp_path / "in")
    write_transcripts(src, 150, seed=11)

    def run() -> pd.DataFrame:
        out = reassemble(annotate(read_transcripts(src))).to_pandas()
        return out.sort_values("conv_id").reset_index(drop=True)

    clean = run()
    assert len(clean) == 150
    widths: list[int] = []

    def spy(n_groups: int, p: int, fanin: int) -> int:
        widths.append(_auto_group_width(n_groups, p, fanin))
        return widths[-1]

    monkeypatch.setattr(exchange, "_DRIVER_REFS_MAX", 1)
    monkeypatch.setattr(exchange, "_SPLIT_BYTES", 65536)
    monkeypatch.setattr(exchange, "_auto_group_width", spy)
    pd.testing.assert_frame_equal(run(), clean)
    assert widths and min(widths) >= 2


def test_grouped_survives_split_merge_reduce_death(ray_session, monkeypatch, tmp_path):
    """SIGKILL one worker per stage (split / ungroup-merge / reduce)
    mid-run through the grouped wiring; retries must reproduce the
    clean output exactly."""
    monkeypatch.setattr(exchange, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(exchange, "_MERGE_FANIN", 2)
    ds = _mk_ds(2000, 23, seed=9)
    agg_pa, _ = _mk_aggs()
    schema = pa.schema(
        [("k", pa.string()), ("v_sum", pa.float64()), ("v_count", pa.int64())]
    )

    def run() -> pd.DataFrame:
        return _collect(
            hash_exchange_map_groups(
                ds, agg_pa, key="k", n_reducers=11, out_schema=schema, group_width=4,
            ),
            ["k"],
        )

    clean = run()
    assert len(clean) == 23
    for stage in ("split", "merge", "reduce"):
        marker = str(tmp_path / f"died_grouped_{stage}")
        exchange._TEST_FAILPOINT = (stage, marker)
        try:
            got = run()
        finally:
            exchange._TEST_FAILPOINT = None
        assert os.path.exists(marker), f"failpoint never fired for {stage}"
        pd.testing.assert_frame_equal(got, clean)


def test_auto_group_width_rules(monkeypatch):
    # under budget: ungrouped
    assert _auto_group_width(100, 64, fanin=64) == 1
    # 100-TB shape: M=1.6e6, P=4e5 => W caps at fan-in
    assert _auto_group_width(1_600_000, 400_000, fanin=64) == 64
    # just over budget: smallest sufficient W
    monkeypatch.setattr(exchange, "_DRIVER_REFS_MAX", 1000)
    assert _auto_group_width(100, 30, fanin=64) == 3
    # never more than P/2 (num_returns needs >= 2 groups)
    assert _auto_group_width(10_000, 8, fanin=64) == 4
    # a forced group_width is clamped to P/2 as well
    assert _group_bounds(12, 50) == (0, 6, 12)
    # width 1 is the ungrouped wiring; no width-1 trailing group
    assert _group_bounds(12, 1) is None
    assert _group_bounds(13, 3) == (0, 3, 6, 9, 13)


def test_exchange_sizing_constants_keep_their_defaults():
    """The sizing constants carry the defaults the former environment
    overrides had, so the default wiring is unchanged."""
    assert exchange._SPLIT_BYTES == 64 << 20
    assert exchange._MERGE_FANIN == 64
    assert exchange._PARTITION_BYTES == 256 << 20
    assert exchange._MAX_REDUCERS == 1 << 16
    assert exchange._DRIVER_REFS_MAX == 4_000_000


def test_auto_reducers_rules(monkeypatch):
    mib = 1 << 20
    # parallelism floor max(8, 2 x CPUs) for small or empty inputs
    assert _auto_reducers(0, 1) == 8
    assert _auto_reducers(10 * mib, 4) == 8
    assert _auto_reducers(10 * mib, 16) == 32
    # one reducer per 256 MiB of streamed input, rounded up
    assert _auto_reducers(12 * (256 * mib) + 1, 4) == 13
    # capped by _MAX_REDUCERS, never below 2 (splits need num_returns >= 2)
    monkeypatch.setattr(exchange, "_MAX_REDUCERS", 5)
    assert _auto_reducers(12 * (256 * mib), 4) == 5
    monkeypatch.setattr(exchange, "_MAX_REDUCERS", 1)
    assert _auto_reducers(12 * (256 * mib), 4) == 2
    # the partition target is read on every call
    monkeypatch.setattr(exchange, "_MAX_REDUCERS", 1 << 16)
    monkeypatch.setattr(exchange, "_PARTITION_BYTES", 1000)
    assert _auto_reducers(50_500, 4) == 51
