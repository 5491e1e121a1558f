"""Benchmark harness — headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "turns": T, "turns_per_sec": r}

``--scaling``: runs the flagship in two fresh processes at N and 4N
CPUs (default 2 vs 8; ``SCALE_LO``/``SCALE_HI``) on identical input
and reports both throughputs + scaling efficiency (sandbox substitute
for the N-vs-4N-node criterion, SURVEY.md §4.2 — 8->32 would measure
this VM's DRAM wall, not the engine; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_CONVS = int(os.environ.get("BENCH_CONVS", "1000000"))
BENCH_DIR = f"/tmp/fineweb2_ro_bench/transcripts_{BENCH_CONVS}"


def _ensure_bench_transcripts() -> int:
    """Deterministic bench corpus, generated once and reused (so both
    scaling runs see identical, page-cache-warm input)."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from fineweb2_ro_ray.sources.synth import write_transcripts

    marker = os.path.join(BENCH_DIR, ".complete")
    if os.path.exists(marker):
        import pyarrow.parquet as pq
        import glob

        return sum(
            pq.read_metadata(f).num_rows for f in glob.glob(f"{BENCH_DIR}/*.parquet")
        )
    n = write_transcripts(BENCH_DIR, BENCH_CONVS, seed=42, procs=16)
    with open(marker, "w") as f:
        f.write("ok")
    return n


def _probe_page_supply_ms() -> float:
    """Host-health telemetry: wall ms to mmap + first-touch 64 MB of
    fresh anonymous memory. Sub-10 ms is a healthy host; hundreds-to-
    thousands means the hypervisor is supplying pages slowly (memory
    overcommit) and EVERY fresh allocation in every worker pays it —
    (allocator page-retention was tried as a defense and measured
    2x WORSE under the string-heavy churn — heap fragmentation faults
    new pages while holding old ones; see BASELINE.md "host
    page-supply stalls"). Recorded in the bench JSON so a slow run
    carries its own host evidence."""
    import mmap

    t0 = time.perf_counter()
    m = mmap.mmap(-1, 1 << 26)
    m[:: 1 << 12] = b"\1" * (len(m) >> 12)
    dt = (time.perf_counter() - t0) * 1e3
    m.close()
    return round(dt, 1)


def _wait_for_quiet_window(
    max_wait_s: float = float(os.environ.get("BENCH_MAX_WAIT_S", "240")),
    degraded_ms: float = float(os.environ.get("BENCH_DEGRADED_MS", "25")),
):
    """Bounded wait for the host to stop paging slowly before the timed
    section. Round 2's driver bench caught a degraded window with every
    repeat (81.8 s vs the 44.6 s canonical); round 3's first driver pass
    measured 79 s vs the 22.1 s canonical with the page probe at 57-60 ms
    for the whole run. Waiting out a short contention burst is cheaper
    than mis-measuring the engine by 3.6x; the wait is bounded so a
    long-degraded host still produces a (probe-annotated) number."""
    waited = 0.0
    probe = _probe_page_supply_ms()
    quiet_streak = 1 if probe <= degraded_ms else 0
    # require 2 consecutive quiet probes: a single lucky probe inside a
    # degraded window would green-light a doomed multi-minute run
    while quiet_streak < 2 and waited < max_wait_s:
        time.sleep(15.0)
        waited += 15.0
        probe = _probe_page_supply_ms()
        quiet_streak = quiet_streak + 1 if probe <= degraded_ms else 0
    return probe, waited


def run_bench() -> dict:
    host_page_ms, host_wait_s = _wait_for_quiet_window()

    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from fineweb2_ro_ray.pipelines import parity as P
    from fineweb2_ro_ray.pipelines.quality_filter import run_flagship

    n_turns = _ensure_bench_transcripts()

    # Warm the page cache (untimed) so we measure compute + shuffle,
    # not the VM's disk. NOTE: a bare ``read_parquet(...).count()`` is
    # NOT a warm-up — Ray Data answers count() from parquet metadata
    # without reading data pages (root cause of a 47 s vs 72 s
    # cold-cache swing, BASELINE.md). Read the actual bytes.
    def _warm(d: str) -> None:
        for f in os.listdir(d):
            if f.endswith(".parquet"):
                with open(os.path.join(d, f), "rb") as fh:
                    while fh.read(1 << 24):
                        pass

    for d in {BENCH_DIR, SF_DIR}:
        _warm(d)

    # Per-query MIN over BENCH_REPEATS full passes: this shared VM's
    # wall times swing up to 2x within minutes under neighbor load
    # (measured 47 s vs 96 s for the identical flagship run,
    # BASELINE.md); the min isolates the engine's cost from the noise.
    # Default 3 passes: round 2's driver run caught a noisy window with
    # BOTH of its 2 passes (81.8 s min vs the 44.6 s canonical).
    repeats = int(os.environ.get("BENCH_REPEATS", "3"))
    max_repeats = int(os.environ.get("BENCH_REPEATS_MAX", "8"))
    timings: dict[str, float] = {}
    flagship_runs: list[float] = []

    # representative operator benches over the sf tables (skipped in
    # scaling mode — the scaling criterion is about the flagship job)
    op_benches = [] if os.environ.get("BENCH_FLAGSHIP_ONLY") else [
        ("lineitem_pricing", P.q_lineitem_pricing),
        ("events_hourly", P.q_events_hourly),
        ("dedup_exact", P.q_dedup_exact),
        ("minhash_pairs", P.q_minhash_pairs),
        ("ann_cosine", P.q_ann_cosine),
        # round-2 operators
        ("word_counts_top", P.q_word_counts_top),
        ("events_rolling", P.q_events_rolling),
        ("embedding_neardup", P.q_embedding_neardup),
        # round-3 operators
        ("contamination", P.q_contamination),
        ("sample_stratified", P.q_sample_stratified),
        ("dedup_clusters", P.q_dedup_clusters),
        ("orders_top_revenue", P.q_orders_top_revenue),
        # round-4 operator: corpus-trained LM fit (fused one-pass gram
        # exchange) + per-doc perplexity over the documents table
        ("doc_lm_ppl", P.q_doc_lm_ppl),
        # round-4 late: edit-distance near-dup join (Ed-Join prefix
        # filter + exact banded-DP verify) over the documents table
        ("editdist_pairs", P.q_editdist_pairs),
        # round-4 late: SemDeDup (k-means buckets + intra-cluster
        # chunked cosine scan through one keyed exchange)
        ("semdedup", P.q_semdedup),
        # round-4 late: range-partitioned global sort + exact rank
        # over events, and distributed BPE training over documents
        ("events_global_rank", P.q_events_global_rank),
        ("bpe_train", P.q_bpe_train),
        # round-4 continuation 5: HTML extraction chain and the
        # inverted-index build + pruned lookup over documents
        ("html_extract", P.q_html_extract),
        ("index_lookup", P.q_index_lookup),
        # continuation 5, late: interval-overlap join over events and
        # the log-round pointer-doubling resolve over documents
        ("events_overlap_join", P.q_events_overlap_join),
        ("doc_tree_depths", P.q_doc_tree_depths),
        # round-3 continuation: cross-snapshot dedup at transcript scale
        ("incremental_dedup", lambda _sf: _incremental_dedup_bench()),
        # round-3 continuation: duplicate-span removal at transcript scale
        ("dedup_spans", lambda _sf: _dedup_spans_bench()),
        # round-5 (VERDICT r4 #1): the COMPOSED minhash near-dedup
        # funnel over the FULL corpus — signatures -> banded-LSH bucket
        # star edges (datatrove clustering semantic; strictly linear in
        # bucket size) -> connected components -> keep-one +
        # cluster_size. Signature math dominates (~6M docs x 64 perms);
        # capped at 2 repeats to protect the suite wall on a degraded
        # host (every other op keeps the x3 min).
        ("minhash_dedup_full", lambda _sf: _minhash_dedup_full_bench(), 2),
    ]

    def _dedup_spans_bench():
        """Lee-et-al duplicate-span removal (word 8-grams, total-count
        >= 2): exercises the thin 128-bit count exchange and the
        broadcast/exchange rebuild at transcript scale. Runs on every
        8th shard (~750k turns) — the full corpus costs ~140 s/pass,
        out of band for a x3-repeat suite entry; the 1/8 sample keeps
        the same per-byte shape. Consumed with count() — the rebuilt
        texts stay distributed."""
        import glob

        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data

        from fineweb2_ro_ray.stages.spans import remove_duplicate_spans

        files = sorted(glob.glob(f"{BENCH_DIR}/*.parquet"))[::8]
        ds = ray.data.read_parquet(files, columns=["conv_id", "turn_idx", "text"])

        def uid(t: pa.Table) -> pa.Table:
            u = pc.binary_join_element_wise(
                t["conv_id"], pc.cast(t["turn_idx"], pa.string()), "#"
            )
            return pa.table({"doc_id": u, "text": t["text"]})

        out = remove_duplicate_spans(
            ds.map_batches(uid, batch_format="pyarrow"), k=8, min_count=2
        )
        return out.count()

    def _incremental_dedup_bench():
        """Cross-snapshot exact dedup over the FULL bench corpus: hash
        the first half of the transcript shards into a fresh on-disk
        index, anti-join the second half against it (Bloom fast-path +
        exchange). Exercises stages.incremental at millions of turns —
        the tiny documents table wouldn't."""
        import glob

        import ray.data

        from fineweb2_ro_ray.stages.incremental import (
            build_hash_index,
            filter_against_index,
        )

        files = sorted(glob.glob(f"{BENCH_DIR}/*.parquet"))
        half = max(1, len(files) // 2)
        idx = "/tmp/fineweb2_ro_bench/hashidx"
        shutil.rmtree(idx, ignore_errors=True)
        build_hash_index(
            ray.data.read_parquet(files[:half], columns=["conv_id", "turn_idx", "text"]),
            idx,
            n_parts=64,
        )
        kept = filter_against_index(
            ray.data.read_parquet(files[half:], columns=["conv_id", "turn_idx", "text"]),
            idx,
        )
        return kept.count()
    def _minhash_dedup_full_bench() -> int:
        """Composed MinHash near-dedup funnel (stages.dedup.
        minhash_dedup_full, cluster mode) over the FULL bench corpus:
        (conv_id, turn_idx) -> int64 ids, 64-perm signatures, 8-band
        (r=8) bucket star edges, components, keep-min + cluster_size.
        r=8 banding (collision 1-(1-J^8)^8, effective threshold ~0.85)
        — the r=4 default chained 88% of the corpus into one cluster
        on this template-heavy synthetic corpus. Consumed with a thin
        (kept, cluster_size) grouped count: the per-doc annotations
        stay distributed."""
        import glob

        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data

        from fineweb2_ro_ray.schema import hash_key_u64
        from fineweb2_ro_ray.stages.analysis import grouped_counts
        from fineweb2_ro_ray.stages.dedup import minhash_dedup_full

        files = sorted(glob.glob(f"{BENCH_DIR}/*.parquet"))
        ds = ray.data.read_parquet(files, columns=["conv_id", "turn_idx", "text"])

        def uid(t: pa.Table) -> pa.Table:
            u = hash_key_u64(
                pc.binary_join_element_wise(
                    t["conv_id"], pc.cast(t["turn_idx"], pa.string()), "#"
                )
            )
            return pa.table(
                {
                    "doc_id": pa.array(
                        (u >> np.uint64(1)).astype(np.int64), pa.int64()
                    ),
                    "text": t["text"],
                }
            )

        out = minhash_dedup_full(
            ds.map_batches(uid, batch_format="pyarrow"),
            keep_all=True,
            num_perm=64,
            bands=8,
        )
        hist = grouped_counts(
            out.map_batches(
                lambda t: pa.table(
                    {"kept": t["kept"], "cs": t["cluster_size"]}
                ),
                batch_format="pyarrow",
            ),
            ["kept", "cs"],
        ).to_pandas()
        return int(hist[hist.kept]["n"].sum())

    def _flagship_once() -> None:
        # headline: full quality-filter DAG + conversation reassembly → sink
        out_dir = f"/tmp/fineweb2_ro_bench/out_{NUM_CPUS}"
        shutil.rmtree(out_dir, ignore_errors=True)
        # re-warm before EVERY flagship repeat: the operator benches and
        # the /tmp parquet sink between repeats can evict corpus pages
        # (round-2's driver pass caught flagship 1.8x slow with both of
        # its repeats); a cached re-read costs ~1 s, an evicted one is
        # exactly the warm-up we need
        _warm(BENCH_DIR)
        t0 = time.time()
        run_flagship(BENCH_DIR).write_parquet(out_dir)
        el = time.time() - t0
        flagship_runs.append(round(el, 3))
        timings["flagship_filter"] = min(el, timings.get("flagship_filter", el))

    t_run0 = time.time()
    for rep in range(repeats):
        _flagship_once()
        for entry in op_benches:
            name, fn = entry[0], entry[1]
            rep_cap = entry[2] if len(entry) > 2 else repeats
            if rep >= rep_cap:
                continue
            t0 = time.time()
            res = fn(SF_DIR)
            if hasattr(res, "to_pandas"):
                res.to_pandas()
            el = time.time() - t0
            timings[name] = min(el, timings.get(name, el))

    # Adaptive extension: if the host probe still shows a degraded
    # window, or the flagship repeats disagree with each other by >1.5x
    # (both are noise signatures, not engine behavior), take extra
    # flagship-only passes — each preceded by a short sleep so a burst
    # of neighbor load can pass — keeping the min. Bounded by
    # BENCH_REPEATS_MAX so a permanently-degraded host still finishes.
    # wall-clock budget caps the extension so a degraded host can't push
    # the whole bench past a reasonable driver timeout
    degraded_ms = float(os.environ.get("BENCH_DEGRADED_MS", "25"))
    budget_s = float(os.environ.get("BENCH_BUDGET_S", "900"))
    while (
        len(flagship_runs) < max_repeats
        and time.time() - t_run0 < budget_s - (15 + max(flagship_runs))
        and (
            _probe_page_supply_ms() > degraded_ms
            or max(flagship_runs) > 1.5 * min(flagship_runs)
        )
    ):
        time.sleep(15.0)
        _flagship_once()

    total = sum(timings.values())
    result = {
        "metric": "turns/sec end-to-end transcript quality-filter + operator suite",
        "value": round(timings["flagship_filter"], 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in timings.items()},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "turns": n_turns,
        "turns_per_sec": round(n_turns / timings["flagship_filter"], 1),
        "total_sec": round(total, 3),
        # host-health evidence: ms to fault-in 64 MB fresh anon memory
        # at bench start / end (healthy < 10; degraded windows measured
        # 1000+ on this VM — see BASELINE.md "host page-supply stalls")
        "host_page_ms_start": host_page_ms,
        "host_page_ms_end": _probe_page_supply_ms(),
        # seconds spent waiting (pre-bench) for the page probe to drop
        # below the degraded threshold, and every flagship repeat's wall
        # time — a wide spread here is host noise, not engine variance
        "host_wait_s": host_wait_s,
        "flagship_runs": flagship_runs,
    }
    ray.shutdown()
    return result


def run_scaling() -> None:
    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            BENCH_FLAGSHIP_ONLY="1",
            # the corpus must be big enough that the ~5-10 s fixed
            # overhead (actor spin-up + shuffle planning) is noise in
            # the FAST leg too — at 250k convs the 8-CPU leg was ~40 s
            # and the overhead ate ~15% of it, understating efficiency;
            # both legs use the SAME input so efficiency is well-defined
            BENCH_CONVS=os.environ.get("BENCH_CONVS_SCALING", "500000"),
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # N vs 4N CPUs. Default 2 vs 8: this single VM's DRAM bandwidth
    # saturates around ~10-13 busy cores on this string-heavy workload
    # (pure-multiprocessing control shows the same ceiling, see
    # BASELINE.md), so 8->32 measures the memory wall, not the engine.
    # On a real N->4N NODE cluster each node brings its own bandwidth.
    lo = int(os.environ.get("SCALE_LO", "2"))
    hi = int(os.environ.get("SCALE_HI", "8"))
    r_lo, r_hi = run(lo), run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    print(
        json.dumps(
            {
                f"sec_{lo}": t_lo,
                f"sec_{hi}": t_hi,
                f"turns_per_sec_{lo}": r_lo["turns_per_sec"],
                f"turns_per_sec_{hi}": r_hi["turns_per_sec"],
                "cpus_lo": lo,
                "cpus_hi": hi,
                "scaling_efficiency": round(eff, 3),
                "turns": r_lo["turns"],
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_bench()))
