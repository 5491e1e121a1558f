"""No-Ray multiprocessing control for the N→4N scaling criterion.

Runs the EXACT flagship per-turn kernel (the fused ``annotate_batch``) over
the scaling corpus with plain ``multiprocessing`` — no Ray, no object
store, no shuffle — at two process counts. If this control shows the
same efficiency ratio as ``bench.py --scaling``, the ceiling is the
VM's DRAM bandwidth (each added core brings no added memory bandwidth
on one box), not the engine. The round-2 control pinned the 8→30
regime (0.45 efficiency, zero Ray); this script makes the 2→8 regime
reproducible the same way.

Usage: python scripts/bench_mp_control.py [lo] [hi]
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

CORPUS = os.environ.get(
    "MP_CONTROL_DIR", "/tmp/fineweb2_ro_bench/transcripts_500000"
)


def _work(items: list[tuple[str, int]]) -> int:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fineweb2_ro_ray.pipelines.quality_filter import annotate_batch

    n = 0
    for f, rg in items:
        for batch in pq.ParquetFile(f).iter_batches(batch_size=4096, row_groups=[rg]):
            out = annotate_batch(pa.Table.from_batches([batch]))
            n += out.num_rows
    return n


def run(nprocs: int, files: list[str]) -> tuple[float, int]:
    import pyarrow.parquet as pq

    # (file, row group) items dealt round-robin (same data every run):
    # a one-file corpus still gives every process work
    items = [
        (f, rg)
        for f in files
        for rg in range(pq.ParquetFile(f).metadata.num_row_groups)
    ]
    chunks = [items[i::nprocs] for i in range(nprocs)]
    t0 = time.time()
    with ProcessPoolExecutor(max_workers=nprocs) as ex:
        total = sum(ex.map(_work, chunks))
    return time.time() - t0, total


def main() -> None:
    lo = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    hi = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    files = sorted(glob.glob(os.path.join(CORPUS, "*.parquet")))
    assert files, f"no corpus at {CORPUS} — run bench.py --scaling first"
    # warm page cache so both levels read from memory
    for f in files:
        with open(f, "rb") as fh:
            while fh.read(1 << 24):
                pass
    t_lo, n = run(lo, files)
    t_hi, n2 = run(hi, files)
    assert n == n2
    eff = (t_lo / t_hi) / (hi / lo)
    print(
        json.dumps(
            {
                "control": "multiprocessing, no Ray",
                f"sec_{lo}": round(t_lo, 2),
                f"sec_{hi}": round(t_hi, 2),
                f"rows_per_sec_{lo}": round(n / t_lo, 1),
                f"rows_per_sec_{hi}": round(n / t_hi, 1),
                "scaling_efficiency": round(eff, 3),
                "rows": n,
            }
        )
    )


if __name__ == "__main__":
    main()
