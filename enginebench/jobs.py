"""The three workloads' jobs, called through the engine's public API,
and the reads that feed their output checks (untimed)."""

from __future__ import annotations

import gc
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from . import checks

N_GROUPS = 8
FLAGSHIP_COLS = ["conv_id", *checks.CONV_COLS]
TURN_COLS = [*checks.TURN_KEY, *checks.EXACT_TURN_COLS, "ppl"]


def settle(timeout: float = 60.0) -> None:
    """Untimed, before every job: collect finished Datasets (their actor
    pools live until garbage collection) and wait until every logical
    CPU of the session is free again."""
    gc.collect()
    want = ray.cluster_resources().get("CPU", 0)
    t0 = time.monotonic()
    while ray.available_resources().get("CPU", 0) < want:
        if time.monotonic() - t0 > timeout:
            raise RuntimeError(f"Ray CPUs still busy after {timeout:.0f} s")
        time.sleep(0.05)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def build_turns(ds):
    """The resumable runner's per-group build: the fused Annotator with
    the default rule config."""
    from fineweb2_ro_ray.functions.decide import FilterConfig
    from fineweb2_ro_ray.pipelines.quality_filter import annotate

    return annotate(ds, FilterConfig())


def with_doc_ids(t: pa.Table) -> pa.Table:
    """(conv_id, turn_idx, text) -> (doc_id, text): a 63-bit hash of
    ``conv_id#turn_idx`` as the near-dedup document id."""
    from fineweb2_ro_ray.schema import hash_key_u64

    u = hash_key_u64(
        pc.binary_join_element_wise(t["conv_id"], pc.cast(t["turn_idx"], pa.string()), "#")
    )
    return pa.table(
        {
            "doc_id": pa.array((u >> np.uint64(1)).astype(np.int64), pa.int64()),
            "text": t["text"],
        }
    )


def read_docs(corpus: str):
    return ray.data.read_parquet(corpus, columns=["conv_id", "turn_idx", "text"]).map_batches(
        with_doc_ids, batch_format="pyarrow"
    )


# ---- flagship -------------------------------------------------------


def flagship(corpus: str, out: str) -> float:
    from fineweb2_ro_ray.pipelines.quality_filter import run_flagship

    t0 = time.perf_counter()
    run_flagship(corpus).write_parquet(out)
    return time.perf_counter() - t0


def read_conversations(out: str) -> pd.DataFrame:
    return pq.read_table(out, columns=FLAGSHIP_COLS).to_pandas()


# ---- resumable ------------------------------------------------------


def resumable(corpus: str, out: str) -> tuple[float, dict]:
    from fineweb2_ro_ray.state.checkpoint import run_resumable

    t0 = time.perf_counter()
    summary = run_resumable(corpus, out, build_turns, n_groups=N_GROUPS)
    return time.perf_counter() - t0, summary


def lost_group() -> int:
    """The group holding the largest (2,500-turn) conversation: the
    costliest one to lose. Conversation ids do not depend on the seed."""
    from fineweb2_ro_ray.state.checkpoint import partition_of

    return partition_of("conv-00000001", N_GROUPS)


def read_turns(out: str) -> pd.DataFrame:
    parts = sorted(d for d in os.listdir(out) if d.startswith("part="))
    return pd.concat(
        [pq.read_table(os.path.join(out, d), columns=TURN_COLS).to_pandas() for d in parts],
        ignore_index=True,
    )


def committed(out: str) -> dict[int, dict]:
    from fineweb2_ro_ray.state.checkpoint import Manifest

    return Manifest(out).completed_records()


# ---- neardup --------------------------------------------------------


def neardup(docs) -> tuple[float, pd.DataFrame]:
    from fineweb2_ro_ray.stages.dedup import minhash_dedup_full

    t0 = time.perf_counter()
    out = minhash_dedup_full(docs, keep_all=True, num_perm=64, bands=8).materialize()
    wall = time.perf_counter() - t0
    return wall, out.to_pandas()
