"""One benchmark session, run as a child of ``run.py``:

    python3 -m enginebench.session --workload W --seed N --seconds S --trace T
    python3 -m enginebench.session --probe

It starts the Ray session, imports the engine and prints ``READY`` (the
parent times set-up from outside, up to that line). ``--probe`` then
shuts down. Otherwise it writes the seeded corpus (once per seed and
checkout), starts the oracle labelling in the background (both
untimed), runs either the workload's closed loop (``--trace 0``) or the
traced layer-by-layer run (``--trace 1``), checks every job's output,
and prints one ``RESULT`` line with the metrics and a report. The
parent stops the session once it has read that line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

READY = "ENGINEBENCH_READY"
RESULT = "ENGINEBENCH_RESULT "
# Logical CPUs of the Ray session, the count tests/conftest.py uses.
# At num_cpus=1 annotate() never finishes: its fused pool takes the
# only CPU and the read tasks starve (a known engine defect).
RAY_CPUS = 4
WORKLOADS = ("flagship", "resumable", "neardup")
IDLE_WORKER_KEEP_MS = 3_600_000
# The corpus is ~7 MB and no job holds more than a few tens of MB in
# the object store. Ray's default store is 30 % of host memory (~5 GB
# on a 16 GB host); on a freshly booted host the raylet has stalled
# right after it began creating that /dev/shm buffer, past ray.init's
# start-up wait.
OBJECT_STORE_BYTES = 512 * 1024**2


def start_session() -> None:
    import logging

    import ray

    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        # Keep idle workers: Ray's default kills a worker idle for 1 s,
        # so every job of the closed loop would respawn its task and
        # actor processes (0.1-1.2 s each here), and that churn, not the
        # engine, would dominate the spread of small jobs.
        _system_config={"idle_worker_killing_time_threshold_ms": IDLE_WORKER_KEEP_MS},
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)

    import fineweb2_ro_ray.pipelines.quality_filter  # noqa: F401
    import fineweb2_ro_ray.stages.dedup  # noqa: F401
    import fineweb2_ro_ray.state.checkpoint  # noqa: F401


class Run:
    """Paths, inputs and check bookkeeping of one session."""

    def __init__(self, root: str, seed: int, sampler, needs_oracle: bool) -> None:
        import pyarrow.parquet as pq

        from . import corpus

        self.work = os.path.join(root, ".enginebench", f"run-{os.getpid()}")
        self.sampler = sampler
        shutil.rmtree(self.work, ignore_errors=True)
        cache = os.path.join(root, ".enginebench", "cache")
        self.corpus = corpus.cached_corpus(cache, seed)
        files = [os.path.join(self.corpus, f) for f in sorted(os.listdir(self.corpus))]
        self.corpus_bytes = sum(os.path.getsize(f) for f in files)
        self.n_turns = sum(pq.read_metadata(f).num_rows for f in files)
        procs = max(1, min(4, len(os.sched_getaffinity(0))))
        self._oracle = corpus.OracleLabels(self.corpus, cache, procs) if needs_oracle else None
        self._expected_conv = None
        self.neardup_digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    @property
    def oracle(self):
        return self._oracle.get()

    @property
    def expected_conv(self):
        from . import checks

        if self._expected_conv is None:
            self._expected_conv = checks.expected_conversations(self.oracle)
        return self._expected_conv

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def record(self, job: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"job": job, "problems": problems[:5]})

    def close(self) -> None:
        if self._oracle is not None:
            self._oracle.close()
        shutil.rmtree(self.work, ignore_errors=True)


# ---- one job per workload: timed section, then untimed checks --------


def flagship_job(run: Run, warmup: bool) -> dict:
    from . import checks, jobs

    out = jobs.fresh_dir(run.path("flagship-out"))
    run.sampler.take_peak()
    wall = jobs.flagship(run.corpus, out)
    peak = run.sampler.take_peak()
    run.record("flagship", checks.check_conversations(jobs.read_conversations(out), run.expected_conv))
    return {"wall_s": wall, "peak_rss_b": peak}


def resumable_job(run: Run, warmup: bool) -> dict:
    """Full resumable run, then lose the costliest group and resume."""
    from . import checks, jobs

    out = jobs.fresh_dir(run.path("resumable-out"))
    run.sampler.take_peak()
    wall, summary = jobs.resumable(run.corpus, out)
    peak = run.sampler.take_peak()
    turns = jobs.read_turns(out)
    problems = checks.check_turns(turns, run.oracle)
    problems += checks.check_lineage(jobs.committed(out), run.oracle, jobs.N_GROUPS)
    if summary.get("groups_run") != jobs.N_GROUPS:
        problems.append(f"full run: {summary}")
    before = checks.digest(turns, checks.TURN_KEY)
    shutil.rmtree(os.path.join(out, f"part={jobs.lost_group()}"))
    jobs.settle()
    resume_s, summary = jobs.resumable(run.corpus, out)
    after = checks.digest(jobs.read_turns(out), checks.TURN_KEY)
    problems += checks.check_resume(summary, jobs.N_GROUPS, before, after)
    problems += checks.check_lineage(jobs.committed(out), run.oracle, jobs.N_GROUPS)
    run.record("resumable", problems)
    return {"wall_s": wall, "peak_rss_b": peak, "resume_s": resume_s}


def neardup_job(run: Run, warmup: bool) -> dict:
    """Near-dedup over (doc_id, text); the warm-up job reads through
    ``repartition(7)``, and every job of the run must produce the same
    output digest."""
    from . import checks, jobs

    docs = jobs.read_docs(run.corpus)
    if warmup:
        docs = docs.repartition(7)
    run.sampler.take_peak()
    wall, out = jobs.neardup(docs)
    peak = run.sampler.take_peak()
    problems = checks.check_neardup(out, run.n_turns)
    d = checks.digest(out[["doc_id", "cluster_size", "kept"]], ["doc_id"])
    run.neardup_digest = run.neardup_digest or d
    if d != run.neardup_digest:
        problems.append("output digest differs from the run's first job")
    run.record("neardup", problems)
    return {"wall_s": wall, "peak_rss_b": peak}


JOBS = {"flagship": flagship_job, "resumable": resumable_job, "neardup": neardup_job}
# A full resumable job takes ~13 s of a run's budget; one flagship job
# warms the same read, Annotator-pool and parquet-sink paths.
WARMUP = {"flagship": flagship_job, "resumable": flagship_job, "neardup": neardup_job}


def closed_loop(run: Run, workload: str, seconds: float) -> tuple[dict, dict]:
    """One untimed warm-up job, then one job at a time until ``seconds``
    have passed (at least one timed job)."""
    from . import jobs

    job = JOBS[workload]
    t0 = time.monotonic()
    jobs.settle()
    WARMUP[workload](run, warmup=True)  # overlaps the oracle pool; its check waits for it
    samples: list[dict] = []
    t_warm = time.monotonic()
    t_end = t_warm + seconds
    while not samples or time.monotonic() < t_end:
        jobs.settle()
        samples.append(job(run, warmup=False))
    walls = [s["wall_s"] for s in samples]
    metrics = {
        "turns_per_s": statistics.median(run.n_turns / w for w in walls),
        "peak_rss_mb": statistics.median(s["peak_rss_b"] for s in samples) / 1e6,
    }
    report = {
        "samples": samples,
        "n_timed_jobs": len(samples),
        "phases_s": {"warmup": t_warm - t0, "timed_loop": time.monotonic() - t_warm},
    }
    if workload == "resumable":
        report["resume_s_median"] = statistics.median(s["resume_s"] for s in samples)
    return metrics, report


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()

    start_session()
    print(READY, flush=True)
    import ray

    try:
        if args.probe:
            return 0
        from . import host

        root = os.getcwd()
        cpu0 = host.cpu_times()
        rec = host.host_record()
        with host.RssSampler() as sampler:
            t0 = time.monotonic()
            run = Run(root, args.seed, sampler, args.trace or args.workload != "neardup")
            t_inputs = time.monotonic() - t0
            try:
                if args.trace:
                    from .traced import traced_run

                    metrics, report = traced_run(run, args.workload, args.seed)
                else:
                    metrics, report = closed_loop(run, args.workload, args.seconds)
            finally:
                run.close()
        rec.update(
            ray_logical_cpus=RAY_CPUS,
            steal_share=host.steal_share(cpu0, host.cpu_times()),
            seed=args.seed,
            corpus_turns=run.n_turns,
            corpus_bytes=run.corpus_bytes,
        )
        out = {
            "correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
            "report": {"host": rec, "problems": run.problems, "inputs_s": t_inputs, **report},
        }
        print(RESULT + json.dumps(out), flush=True)
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
