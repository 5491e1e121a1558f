"""Hot-key reducer-skew evidence for BASELINE.md (VERDICT r3 #6).

Builds a corpus with ONE conversation of 1M turns beside 1M cold turns
spread over 12.5k conversations, pushes it through the flagship's
reassembly exchange (thin rows + hash exchange + Arrow reduce), and
records the PER-REDUCER wall/row distribution via a timing-wrapped
reduce fn — the measured form of the exchange docstring's claim that a
skewed key skews only its own partition, and that thinning partitions
(more reducers) is the lever for everything else.

Run in a QUIET host window only (see BASELINE.md protocol):

    python scripts/bench_hotkey.py [--hot 1000000] [--cold 1000000]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from fineweb2_ro_ray.stages.exchange import hash_exchange_map_groups


def build_frames(hot_n: int, cold_n: int, chunk: int = 50_000) -> list[pd.DataFrame]:
    rng = np.random.default_rng(13)
    n_cold_convs = max(1, cold_n // 80)
    texts = np.array([f"turn text {i % 97} with some payload bytes" for i in range(97)])
    frames = []
    hot_ids = np.repeat("conv-hot", hot_n)
    cold_ids = np.repeat(
        [f"conv-{i:06d}" for i in range(n_cold_convs)],
        -(-cold_n // n_cold_convs),
    )[:cold_n]
    ids = np.concatenate([hot_ids, cold_ids])
    order = rng.permutation(len(ids))
    ids = ids[order]
    for i in range(0, len(ids), chunk):
        sl = ids[i : i + chunk]
        frames.append(
            pd.DataFrame(
                {
                    "conv_id": sl,
                    "turn_idx": np.arange(len(sl), dtype=np.int32),
                    "ts": pd.Timestamp("2025-01-01")
                    + pd.to_timedelta(np.arange(len(sl)), unit="s"),
                    "keep": rng.random(len(sl)) < 0.6,
                    "scrubbed_text": texts[
                        rng.integers(0, len(texts), len(sl))
                    ],
                }
            )
        )
    return frames


def run(p: int, frames: list[pd.DataFrame]) -> dict:
    from fineweb2_ro_ray.pipelines.quality_filter import (
        _thin_dropped,
        _reassemble_partition,
    )

    def timed_reduce(t: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        out = _reassemble_partition(t)
        wall = time.perf_counter() - t0
        # part_id: conv_ids are partition-disjoint, so the min conv_id
        # uniquely tags this reducer — two reducers that happen to
        # report identical (wall, rows) must still count as two samples
        # in the percentile distribution
        import pyarrow.compute as pc

        pid = pc.min(t["conv_id"]).as_py() or ""
        return (
            out.append_column(
                "reduce_wall_ms", pa.array(np.full(out.num_rows, wall * 1000.0))
            )
            .append_column(
                "part_rows", pa.array(np.full(out.num_rows, t.num_rows, np.int64))
            )
            .append_column(
                "part_id", pa.array(np.repeat(str(pid), out.num_rows))
            )
        )

    ds = rd.from_pandas(frames).map_batches(
        _thin_dropped, batch_format="pyarrow"
    )
    t0 = time.perf_counter()
    res = hash_exchange_map_groups(
        ds, timed_reduce, key="conv_id", n_reducers=p
    )
    stats = (
        res.map_batches(
            lambda t: t.group_by(
                ["part_id", "reduce_wall_ms", "part_rows"]
            ).aggregate([("conv_id", "count")]),
            batch_format="pyarrow",
        )
        .to_pandas()
        .rename(columns={"conv_id_count": "n_convs"})
    )
    total = time.perf_counter() - t0
    per_part = stats.drop_duplicates(["part_id"])
    walls = np.sort(per_part["reduce_wall_ms"].to_numpy())
    hot_row = per_part.loc[per_part["part_rows"].idxmax()]
    return {
        "n_reducers": p,
        "exchange_wall_s": round(total, 2),
        "hot_partition_rows": int(hot_row["part_rows"]),
        "hot_partition_wall_ms": round(float(hot_row["reduce_wall_ms"]), 1),
        "cold_partition_rows_max": int(
            per_part.loc[per_part["part_rows"] != hot_row["part_rows"], "part_rows"].max()
        ),
        "reduce_wall_ms_p50": round(float(np.percentile(walls, 50)), 1),
        "reduce_wall_ms_p90": round(float(np.percentile(walls, 90)), 1),
        "reduce_wall_ms_max": round(float(walls.max()), 1),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--hot", type=int, default=1_000_000)
    ap.add_argument("--cold", type=int, default=1_000_000)
    ap.add_argument("--cpus", type=int, default=32)
    args = ap.parse_args()
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    frames = build_frames(args.hot, args.cold)
    out = {"hot_turns": args.hot, "cold_turns": args.cold, "runs": []}
    for p in (16, 64, 256):
        out["runs"].append(run(p, frames))
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
