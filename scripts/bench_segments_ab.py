"""A/B: object-store exchange vs disk-segment exchange (BASELINE.md
quiet-window protocol).

Runs the flagship annotate→reassemble pipeline over the sf bench
corpus twice per impl, interleaved (seg, obj, seg, obj) so neither
impl owns a noise window, min-of-2 each, and a second exchange-heavy
shape (dedup_exact over documents) the same way. Segment files go to
a fresh /tmp dir per run (node-local disk — the deployment shape).

Prints one JSON line. The segment mode is NOT expected to win locally
(the object store is shared memory; segments add a disk round-trip) —
the measurement bounds the cost of the M+P driver-ref collapse.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from bench import _probe_page_supply_ms, _wait_for_quiet_window  # noqa: E402


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    p, _ = _wait_for_quiet_window(float(os.environ.get("BENCH_MAX_WAIT_S", "3600")))
    out: dict = {"probe_page_ms": p, "sf_dir": sf_dir}

    import ray

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from fineweb2_ro_ray.pipelines.quality_filter import (
        annotate,
        read_transcripts,
        reassemble,
    )
    from fineweb2_ro_ray.stages.dedup import dedup_exact

    # flagship input: the deterministic 1M-conv bench corpus (bench.py
    # generates and reuses it; page-cache-warm across runs)
    n_convs = int(os.environ.get("BENCH_CONVS", "1000000"))
    src = f"/tmp/fineweb2_ro_bench/transcripts_{n_convs}"
    if not os.path.exists(os.path.join(src, ".complete")):
        from fineweb2_ro_ray.sources.synth import write_transcripts

        write_transcripts(src, n_convs, seed=42, procs=16)
        with open(os.path.join(src, ".complete"), "w") as f:
            f.write("ok")

    def flagship() -> int:
        ds = reassemble(annotate(read_transcripts(src)))
        return sum(
            b.num_rows for b in ds.iter_batches(batch_format="pyarrow")
        )

    def dedup() -> int:
        import ray.data as rd

        docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
        return dedup_exact(docs, text_col="text", id_col="doc_id").count()

    def run(fn, mode: str) -> float:
        # mode: "obj" (object store), "seg" (plain segments),
        # "segm" (segments + forced push-merge consolidation)
        seg_dir = None
        if mode != "obj":
            seg_dir = tempfile.mkdtemp(prefix="fw2segab-", dir="/tmp")
            os.environ["FW2_EXCHANGE_SEGMENT_DIR"] = seg_dir
            if mode == "segm":
                os.environ["FW2_EXCHANGE_SEGMENT_MERGE"] = "1"
        try:
            t0 = time.perf_counter()
            n = fn()
            dt = time.perf_counter() - t0
        finally:
            os.environ.pop("FW2_EXCHANGE_SEGMENT_DIR", None)
            os.environ.pop("FW2_EXCHANGE_SEGMENT_MERGE", None)
            if seg_dir:
                shutil.rmtree(seg_dir, ignore_errors=True)
        out.setdefault("rows", {})[fn.__name__] = n
        return dt

    for fn in (flagship, dedup):
        times: dict[str, list[float]] = {"seg": [], "obj": [], "segm": []}
        for _ in range(2):  # interleaved min-of-2
            for mode in ("seg", "obj", "segm"):
                times[mode].append(run(fn, mode))
        out[fn.__name__] = {
            "seg_s": round(min(times["seg"]), 2),
            "obj_s": round(min(times["obj"]), 2),
            "segmerge_s": round(min(times["segm"]), 2),
            "seg_runs": [round(t, 2) for t in times["seg"]],
            "obj_runs": [round(t, 2) for t in times["obj"]],
            "segmerge_runs": [round(t, 2) for t in times["segm"]],
        }
    out["probe_page_ms_end"] = _probe_page_supply_ms()
    ray.shutdown()
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
