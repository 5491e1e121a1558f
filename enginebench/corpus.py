"""Seeded input corpus and its cached oracle labels."""

from __future__ import annotations

import hashlib
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

# One corpus size for every workload: 4,000 conversations including
# the generator's three hot ones (600, 1,000 and 2,500 turns), ~28k
# turns and ~7 MB. Sized so that a run of each workload, with its
# set-up, oracle and warm-up job, fits the benchmark's time budget on a
# 4-CPU host (README.md, "Sizes").
N_CONVS = 4000

ORACLE_COLS = [
    "conv_id", "turn_idx", "ts", "keep", "drop_reason", "scrubbed_text",
    "lang", "pii_hits", "ppl",
]


def write_corpus(path: str, seed: int) -> None:
    from fineweb2_ro_ray.sources.synth import write_transcripts

    write_transcripts(path, N_CONVS, seed=seed)


def cached_corpus(cache_dir: str, seed: int) -> str:
    """The seed's corpus, written once per checkout: generation is
    byte-identical for a seed, so a later run with the same seed reads
    the same files. Jobs only read it."""
    path = os.path.join(cache_dir, f"corpus-{N_CONVS}-seed{seed}")
    if not os.path.isdir(path):
        tmp = f"{path}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        write_corpus(tmp, seed)
        os.replace(tmp, path)
    return path


def corpus_digest(path: str) -> str:
    h = hashlib.sha256()
    for f in sorted(os.listdir(path)):
        if f.endswith(".parquet"):
            h.update(f.encode())
            with open(os.path.join(path, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _label_chunk(rows: list[dict]) -> list[dict]:
    from fineweb2_ro_ray.oracle import label_table

    return [{c: r[c] for c in ORACLE_COLS} for r in label_table(rows)]


class OracleLabels:
    """Per-turn oracle labels of ``corpus``. The pure-Python oracle
    labels ~2.4k turns/s per process, so the labels are computed once
    per corpus content, in a process pool that starts at construction
    and runs in the background (the untimed warm-up job overlaps it),
    and cached under ``cache_dir``."""

    def __init__(self, corpus: str, cache_dir: str, procs: int) -> None:
        self._cached = os.path.join(cache_dir, f"oracle-{corpus_digest(corpus)}.parquet")
        self._labels: pd.DataFrame | None = None
        self._pool = None
        if os.path.exists(self._cached):
            self._labels = pq.read_table(self._cached).to_pandas()
            return
        import multiprocessing as mp

        rows = pq.read_table(corpus).to_pylist()
        self._pool = mp.get_context("spawn").Pool(procs)
        self._parts = self._pool.map_async(_label_chunk, [rows[i::procs] for i in range(procs)])

    def get(self, timeout: float = 120.0) -> pd.DataFrame:
        if self._labels is None:
            try:
                parts = self._parts.get(timeout)
            finally:
                self.close()
            labels = pa.Table.from_pylist([r for p in parts for r in p])
            os.makedirs(os.path.dirname(self._cached), exist_ok=True)
            tmp = f"{self._cached}.tmp-{os.getpid()}"
            pq.write_table(labels, tmp)
            os.replace(tmp, self._cached)
            self._labels = labels.to_pandas()
        return self._labels

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
