"""Generic operator CLI — run any registered query over a table dir.

``python -m fineweb2_ro_ray.ops_cli --list`` shows every operator;
``python -m fineweb2_ro_ray.ops_cli --op dedup_exact --sf-dir
/root/testdata/sf0.01 --output /tmp/dedup`` runs one and writes
parquet (Dataset results stream to a sharded directory; DataFrame
results land as a single file). Owns the Ray session like ``runner``;
launch from the repo root so workers resolve the package.

The reference's analogs are its per-script entrypoints
(``/root/reference/full_dataset_analysis/*.py`` each hard-code one
analysis); here one CLI fronts the whole operator registry."""

from __future__ import annotations

import argparse
import json
import sys
import time
from fineweb2_ro_ray.schema import from_pandas_clean


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="run one registered operator")
    ap.add_argument("--op", help="operator name (see --list)")
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    ap.add_argument("--output", default=None, help="parquet output path (optional)")
    ap.add_argument("--limit", type=int, default=10, help="preview rows when no --output")
    ap.add_argument("--list", action="store_true", help="list operators and exit")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument(
        "--stats",
        action="store_true",
        help="print Ray Data per-stage execution stats after the run "
        "(Dataset results only — the ds.stats() wall/CPU breakdown "
        "used to find the stage that dominates)",
    )
    args = ap.parse_args(argv)

    sys.path.insert(0, ".")
    import __ray_entry__ as entry_mod

    qmap = entry_mod.queries()
    if args.list or not args.op:
        oracle = set(entry_mod.oracle_sql())
        for name in sorted(qmap):
            tag = "sql-checked" if name in oracle else "rows-only"
            print(f"{name:32s} {tag}")
        return 0
    if args.op not in qmap:
        print(f"unknown op {args.op!r}; use --list", file=sys.stderr)
        return 2

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

    import pandas as pd
    import pyarrow as pa

    import ray.data

    t0 = time.time()
    res = qmap[args.op](args.sf_dir)
    if isinstance(res, ray.data.Dataset):
        if args.output:
            res.write_parquet(args.output)
            n = None  # streamed; count would re-execute
            if args.stats:
                print(res.stats(), file=sys.stderr)
        else:
            lim = res.limit(args.limit)
            df = lim.to_pandas()
            print(df.to_string())
            n = len(df)
            if args.stats:
                # stats belong to the EXECUTED plan handle; with no
                # --output only the limited preview ran, so the
                # breakdown covers that partial execution
                print(lim.stats(), file=sys.stderr)
    else:
        df = res.to_pandas() if isinstance(res, pa.Table) else res
        if args.output:
            import pyarrow.parquet as pq

            pq.write_table(from_pandas_clean(df), args.output)
        else:
            print(df.head(args.limit).to_string())
        n = len(df)
    summary = {"op": args.op, "sf_dir": args.sf_dir, "wall_sec": round(time.time() - t0, 3)}
    if n is not None:
        summary["rows"] = n
    if args.output:
        summary["output"] = args.output
    print(json.dumps(summary))
    if started_ray:  # embedded callers (tests, notebooks) own the session
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
