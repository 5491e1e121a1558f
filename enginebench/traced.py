"""The traced run: each layer called on its own from the benchmark,
materialized before the next starts, with one span per call. It is
separate from the closed loop (tracing off there), and reports every
per-layer metric whatever the workload; the workload only names the
run. Spans are kept in memory and written once, at the end."""

from __future__ import annotations

import os
import shutil
import statistics

import pyarrow as pa
import pyarrow.parquet as pq

from . import checks, jobs
from .spans import Tracer

KERNELS = ("textstats", "lid", "perplexity", "scrub", "decide")
READ_COLS = ["conv_id", "turn_idx", "role", "text", "ts"]
THIN_COLS = ["conv_id", "turn_idx", "ts", "keep", "scrubbed_text"]


def identity(t: pa.Table) -> pa.Table:
    return t


def _dir_mb(path: str) -> float:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    ) / 1e6


def kernels_in_process(tr: Tracer, corpus: str, batch_rows: int = 4096) -> None:
    """The fused Annotator's five kernels, in this process without Ray,
    over ``batch_rows``-row batches, one Arrow thread as in the actor."""
    from fineweb2_ro_ray.functions.decide import FilterConfig, decide_batch
    from fineweb2_ro_ray.functions.lid import LangIdScorer
    from fineweb2_ro_ray.functions.perplexity import PerplexityScorer
    from fineweb2_ro_ray.functions.scrub import Scrubber
    from fineweb2_ro_ray.functions.textstats import compute_text_stats

    tbl = pq.read_table(corpus, columns=READ_COLS).combine_chunks()
    lid, ppl, scrub, cfg = LangIdScorer(), PerplexityScorer(), Scrubber(), FilterConfig()
    threads = pa.cpu_count()
    pa.set_cpu_count(1)
    try:
        with tr.span("functions.kernels"):
            for off in range(0, tbl.num_rows, batch_rows):
                b = tbl.slice(off, batch_rows)
                with tr.span("functions.textstats"):
                    b, shared = compute_text_stats(b, return_shared=True)
                with tr.span("functions.lid"):
                    b = lid(b, shared=shared)
                with tr.span("functions.perplexity"):
                    b = ppl(b)
                with tr.span("functions.scrub"):
                    b = scrub(b)
                with tr.span("functions.decide"):
                    b = decide_batch(b, cfg)
    finally:
        pa.set_cpu_count(threads)


def traced_flagship(tr: Tracer, run) -> dict:
    """read -> annotate -> reassemble -> sink, one layer at a time."""
    from fineweb2_ro_ray.pipelines.quality_filter import (
        annotate,
        read_transcripts_pruned,
        reassemble,
    )

    out = jobs.fresh_dir(run.path("flagship-traced"))
    jobs.settle()
    with tr.span("flagship.job"):
        with tr.span("sources.read"):
            read = read_transcripts_pruned(run.corpus, READ_COLS).materialize()
        with tr.span("quality_filter.annotate"):
            ann = annotate(read, project=THIN_COLS).materialize()
        with tr.span("quality_filter.reassemble"):
            conv = reassemble(ann).materialize()
        with tr.span("sink.write"):
            conv.write_parquet(out)
    run.record(
        "flagship traced",
        checks.check_conversations(jobs.read_conversations(out), run.expected_conv),
    )
    keep = ann.select_columns(["keep"]).to_pandas()["keep"]
    layers = {"quality_filter.keep_ratio": float(keep.mean()), "sink.mb_written": _dir_mb(out)}

    from fineweb2_ro_ray.stages.exchange import hash_exchange_map_groups

    jobs.settle()
    with tr.span("exchange.identity"):
        ex = hash_exchange_map_groups(
            ann, identity, key="conv_id", batch_format="pyarrow", out_schema=ann.schema().base_schema
        ).materialize()
    rows = [m.num_rows for b in ex.iter_internal_ref_bundles() for m in b.metadata]
    if sum(rows) != ann.count():
        run.record("exchange identity", [f"identity exchange moved {sum(rows)} of {ann.count()} rows"])
    layers["exchange.mb_in"] = ann.size_bytes() / 1e6
    layers["exchange.skew"] = max(rows) / max(1.0, statistics.median(rows))
    return layers


def traced_checkpoint(tr: Tracer, run) -> dict:
    """run_resumable: full run, resume after losing one group, no-op
    re-run. Staging is timed by wrapping the module's staging pass; a
    group's manifest ``wall_sec`` is measured inside run_resumable, and
    group 0's includes the staging pass."""
    from fineweb2_ro_ray.state import checkpoint

    out = jobs.fresh_dir(run.path("resumable-traced"))
    stage = checkpoint._stage_input

    def traced_stage(*a, **kw):
        with tr.span("checkpoint.staging"):
            return stage(*a, **kw)

    checkpoint._stage_input = traced_stage
    try:
        jobs.settle()
        with tr.span("checkpoint.full"):
            _, full = jobs.resumable(run.corpus, out)
        records = jobs.committed(out)
        turns = jobs.read_turns(out)
        problems = checks.check_turns(turns, run.oracle)
        problems += checks.check_lineage(records, run.oracle, jobs.N_GROUPS)
        staging = tr.total("checkpoint.staging")
        group_sum = sum(r["wall_sec"] for r in records.values()) - staging

        before = checks.digest(turns, checks.TURN_KEY)
        shutil.rmtree(os.path.join(out, f"part={jobs.lost_group()}"))
        jobs.settle()
        with tr.span("checkpoint.resume"):
            _, resumed = jobs.resumable(run.corpus, out)
        after = checks.digest(jobs.read_turns(out), checks.TURN_KEY)
        problems += checks.check_resume(resumed, jobs.N_GROUPS, before, after)

        jobs.settle()
        with tr.span("checkpoint.noop"):
            _, noop = jobs.resumable(run.corpus, out)
        if noop.get("groups_skipped") != jobs.N_GROUPS:
            problems.append(f"no-op re-run: {noop}")
        run.record("resumable traced", problems)
    finally:
        checkpoint._stage_input = stage
    return {
        "checkpoint.group_s_sum": group_sum,
        "checkpoint.staging_s": staging,
    }


def traced_neardup(tr: Tracer, run) -> dict:
    """ids -> LSH star edges -> near_dedup_full on the materialized
    edges; components timed on their own afterwards (near_dedup_full
    runs them again inside)."""
    from fineweb2_ro_ray.stages.components import connected_components
    from fineweb2_ro_ray.stages.dedup import minhash_cluster_edges, near_dedup_full

    jobs.settle()
    with tr.span("neardup.job"):
        with tr.span("sources.read_docs"):
            docs = jobs.read_docs(run.corpus).materialize()
        with tr.span("dedup.edges"):
            edges = minhash_cluster_edges(docs, num_perm=64, bands=8).materialize()
        with tr.span("dedup.near_dedup_full"):
            nd = near_dedup_full(docs, edges, keep_all=True, n_partitions=512).materialize()
    out = nd.to_pandas()
    run.record("neardup traced", checks.check_neardup(out, run.n_turns))
    jobs.settle()
    with tr.span("components.cc"):
        connected_components(edges).materialize()
    return {"dedup.edges": float(edges.count()), "dedup.kept_ratio": float(out["kept"].mean())}


def traced_run(run, workload: str, seed: int) -> tuple[dict, dict]:
    from .session import flagship_job

    tr = Tracer()
    flagship_job(run, warmup=True)
    jobs.settle()
    ref_wall = flagship_job(run, warmup=False)["wall_s"]
    layers = traced_flagship(tr, run)
    kernels_in_process(tr, run.corpus)
    layers.update(traced_checkpoint(tr, run))
    layers.update(traced_neardup(tr, run))

    kernel_s = sum(tr.total(f"functions.{k}") for k in KERNELS)
    annotate_s = tr.total("quality_filter.annotate")
    flagship_wall = tr.total("flagship.job")
    layers.update(
        {
            "sources.read_s": tr.total("sources.read"),
            **{f"functions.{k}_s": tr.total(f"functions.{k}") for k in KERNELS},
            "functions.kernel_s": kernel_s,
            "quality_filter.annotate_s": annotate_s,
            "quality_filter.annotate_overhead_s": annotate_s - kernel_s,
            "quality_filter.reassemble_s": tr.total("quality_filter.reassemble"),
            "exchange.identity_s": tr.total("exchange.identity"),
            "sink.write_s": tr.total("sink.write"),
            "checkpoint.full_s": tr.total("checkpoint.full"),
            "checkpoint.resume_s": tr.total("checkpoint.resume"),
            "checkpoint.noop_s": tr.total("checkpoint.noop"),
            "dedup.edges_s": tr.total("dedup.edges"),
            "components.cc_s": tr.total("components.cc"),
            "dedup.near_dedup_full_s": tr.total("dedup.near_dedup_full"),
            "flagship.coverage": tr.coverage("flagship.job"),
            "flagship.engine_kernel_ratio": ref_wall / kernel_s,
            "flagship.trace_overhead_s": flagship_wall - ref_wall,
            "neardup.coverage": tr.coverage("neardup.job"),
        }
    )
    spans = os.path.join(os.path.dirname(run.work), "reports", f"spans-{workload}-seed{seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    tr.dump(spans)
    report = {"spans_file": os.path.relpath(spans), "flagship_untraced_wall_s": ref_wall,
              "flagship_traced_wall_s": flagship_wall}
    return layers, report
