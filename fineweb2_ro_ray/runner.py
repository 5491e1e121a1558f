"""CLI entry point — the ``ray job submit`` story.

On a real cluster:  ``ray job submit -- python -m fineweb2_ro_ray.runner
--input s3://transcripts --output s3://filtered --groups 256``; in this
sandbox it runs local mode.  Owns the Ray session (library code never
calls ``ray.init``), runs the resumable partitioned pipeline, prints a
summary JSON line.

The reference's equivalent is ``run.sh`` + per-machine ``--offset``
strides (``/root/reference/run.sh:1-26``, ``ro_vs_eng/fineweb2_jql.py:86-88``);
here one submission covers the whole input and resume is automatic from
the manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="transcript quality-filter job")
    ap.add_argument("--input", required=True, help="transcript parquet dir/file(s)")
    ap.add_argument("--output", required=True, help="output root (part=g dirs + manifest)")
    ap.add_argument("--groups", type=int, default=8, help="resumable partition groups")
    ap.add_argument("--batch-size", type=int, default=4096)
    ap.add_argument("--ppl-percentile", type=float, default=None,
                    help="derive max_ppl from this corpus percentile (G3 flow)")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="ray.init num_cpus (default: let Ray decide)")
    args = ap.parse_args(argv)

    import ray

    started_ray = not ray.is_initialized()
    if started_ray:
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from fineweb2_ro_ray.functions.decide import FilterConfig
    from fineweb2_ro_ray.pipelines.quality_filter import annotate, derive_ppl_threshold
    from fineweb2_ro_ray.state.checkpoint import run_resumable

    cfg = FilterConfig()
    if args.ppl_percentile is not None:
        cfg = derive_ppl_threshold(args.input, args.ppl_percentile, cfg, args.batch_size)

    t0 = time.time()
    summary = run_resumable(
        args.input,
        args.output,
        lambda ds: annotate(ds, cfg, batch_size=args.batch_size),
        n_groups=args.groups,
    )
    summary["wall_sec"] = round(time.time() - t0, 2)
    summary["max_ppl"] = cfg.max_ppl
    print(json.dumps(summary))
    if started_ray:  # embedded callers (tests, notebooks) own the session
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
