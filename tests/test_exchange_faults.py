"""Fault-injection tests for the raw-Ray hash exchange.

The exchange bypasses Ray Data's map operators, so its fault paths are
plain Ray task semantics: split / merge / reduce are stateless
idempotent tasks with default ``max_retries=3``; a SIGKILL'd worker's
task is re-executed automatically, and a lost intermediate object is
rebuilt by lineage re-running its producer. These tests kill one
worker per stage mid-run (via the exchange's ``_TEST_FAILPOINT`` hook,
claimed atomically so exactly one task instance dies) and assert the
flagship output is identical to the clean run.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from fineweb2_ro_ray.stages import exchange
from fineweb2_ro_ray.stages.exchange import aggregate_table


def _flagship(tmp_in: str) -> pd.DataFrame:
    from fineweb2_ro_ray.pipelines.quality_filter import (
        annotate,
        read_transcripts,
        reassemble,
    )

    out = reassemble(annotate(read_transcripts(tmp_in))).to_pandas()
    return out.sort_values("conv_id").reset_index(drop=True)


def _with_failpoint(stage: str, marker: str, fn):
    exchange._TEST_FAILPOINT = (stage, marker)
    try:
        return fn()
    finally:
        exchange._TEST_FAILPOINT = None


def test_flagship_survives_split_and_reduce_worker_death(
    ray_session, tmp_path
):
    """Kill one _split_block worker and (separately) one
    _reduce_partition worker mid-flagship; output must equal the clean
    run exactly (values, dtypes, row count)."""
    from fineweb2_ro_ray.sources.synth import write_transcripts

    src = str(tmp_path / "in")
    write_transcripts(src, 120, seed=21)
    clean = _flagship(src)
    assert len(clean) == 120

    for stage in ("split", "reduce"):
        marker = str(tmp_path / f"died_{stage}")
        got = _with_failpoint(stage, marker, lambda: _flagship(src))
        assert os.path.exists(marker), f"failpoint never fired for {stage}"
        pd.testing.assert_frame_equal(got, clean)


def test_exchange_hot_key_skew_confined(ray_session):
    """The exchange docstring's skew claim, proven: one conversation
    with 60x the rows of any other key lands in exactly ONE reduce
    partition; every other partition's row count and per-partition
    reduce wall stay at the balanced level, and raising n_reducers
    thins the cold partitions without touching the hot one (the
    documented thin-partition lever)."""
    import time

    rng = np.random.default_rng(7)
    hot_n, cold_convs, cold_n = 120_000, 1500, 80
    frames = []
    hot = pd.DataFrame(
        {
            "conv_id": np.repeat("conv-hot", hot_n),
            "v": rng.integers(0, 100, hot_n).astype(np.int64),
        }
    )
    for i in range(0, hot_n, 20_000):
        frames.append(hot.iloc[i : i + 20_000])
    cold = pd.DataFrame(
        {
            "conv_id": np.repeat(
                [f"conv-{i:05d}" for i in range(cold_convs)], cold_n
            ),
            "v": rng.integers(0, 100, cold_convs * cold_n).astype(np.int64),
        }
    )
    for i in range(0, len(cold), 20_000):
        frames.append(cold.iloc[i : i + 20_000])

    def reduce_stats(t: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        g = t.group_by("conv_id").aggregate([("v", "sum")])  # real reduce work
        wall = time.perf_counter() - t0
        import pyarrow.compute as pc_

        return pa.table(
            {
                "n_rows": pa.array([t.num_rows], pa.int64()),
                "n_keys": pa.array([g.num_rows], pa.int64()),
                "has_hot": pa.array(
                    [bool(pc_.any(pc_.equal(t["conv_id"], "conv-hot")).as_py())],
                    pa.bool_(),
                ),
                "wall_ms": pa.array([wall * 1000.0], pa.float64()),
            }
        )

    def run(p: int) -> pd.DataFrame:
        ds = rd.from_pandas(frames)
        return exchange.hash_exchange_map_groups(
            ds,
            reduce_stats,
            key="conv_id",
            n_reducers=p,
        ).to_pandas()

    s16 = run(16)
    hot16 = s16[s16["has_hot"]]
    cold16 = s16[~s16["has_hot"]]
    assert len(hot16) == 1  # a key's rows land in exactly one reducer
    assert hot16["n_rows"].iloc[0] >= hot_n  # all hot rows together
    # cold partitions stay balanced — none inherits the skew
    assert cold16["n_rows"].max() <= (cold_convs * cold_n / 16) * 3
    # the hot partition's extra wall stays in its own partition: the
    # slowest cold reduce is far below the hot reduce's row count
    assert cold16["n_rows"].max() < hot16["n_rows"].iloc[0] / 5

    s64 = run(64)
    hot64 = s64[s64["has_hot"]]
    cold64 = s64[~s64["has_hot"]]
    assert len(hot64) == 1
    assert hot64["n_rows"].iloc[0] >= hot_n  # hot partition cannot thin
    # the lever: 4x reducers → cold partitions ~4x thinner (bounded 2x)
    assert cold64["n_rows"].max() <= cold16["n_rows"].max() / 2


def test_tree_merge_survives_merge_worker_death(
    ray_session, tmp_path, monkeypatch
):
    """Force the multi-level tree (one split per upstream block, fan-in
    2) and kill one _merge_slices worker; the keyed aggregate must be
    unchanged. Also covers lineage reconstruction: the dead merge's
    retry re-fetches (or re-creates) its input slices."""
    monkeypatch.setattr(exchange, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(exchange, "_MERGE_FANIN", 2)

    rng = np.random.default_rng(3)
    frames = [
        pd.DataFrame(
            {
                "k": [f"g{int(x)}" for x in rng.integers(0, 11, 30)],
                "v": rng.integers(0, 100, 30).astype(np.int64),
            }
        )
        for _ in range(24)
    ]

    def per_part(t: pa.Table) -> pa.Table:
        return aggregate_table(t, ["k"], [("v", "sum", "v")])

    def run() -> pd.DataFrame:
        ds = rd.from_pandas(frames)
        return (
            exchange.hash_exchange_map_groups(ds, per_part, key="k")
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )

    clean = run()
    marker = str(tmp_path / "died_merge")
    got = _with_failpoint("merge", marker, run)
    assert os.path.exists(marker), "merge failpoint never fired"
    pd.testing.assert_frame_equal(got, clean)
    want = (
        pd.concat(frames)
        .groupby("k", as_index=False)["v"]
        .sum()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
