"""The flagship pipeline: transcript quality filtering.

Ray Data restatement of the reference's production chain
(``run.sh:1-26``: download → JQL scoring → percentile thresholds →
conjunctive filter → join → parquet) as ONE streaming DAG
(SURVEY.md §3.1):

    read_parquet(transcripts, pruned columns)
      → map_batches(Annotator, fixed actor pool)   # stats → LID → ppl →
                                                   # scrub → decide, fused
      → map_batches(_precombine_dropped)           # dropped turns → meta rows
      → hash exchange on conv_id + Arrow reduce    # the only wide op
      → write_parquet (or partitioned and resumable — state/checkpoint.py)

Unlike the reference, no stage materializes the corpus to disk between
steps; the streaming executor pipelines blocks with backpressure.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.decide import FilterConfig, decide_batch
from ..functions.lid import LangIdScorer
from ..functions.perplexity import PerplexityScorer
from ..functions.scrub import Scrubber
from ..functions.textstats import compute_text_stats


def read_transcripts(path: str | list[str]) -> ray.data.Dataset:
    """Source: the transcript Parquet table (reference source analog S1,
    ``/root/reference/fineweb/fineweb2_download.py:40-57`` — but a
    column-pruned parquet read instead of an HF stream). A
    metadata-free schema is passed AT the read so the b'pandas' blob of
    pandas-written files never enters any block — including Ray's fused
    ReadParquet operator, where it would make schemas unhashable
    (``schema.clean_parquet_schema``)."""
    from ..schema import clean_parquet_schema

    first = path[0] if isinstance(path, list) else path
    return ray.data.read_parquet(path, schema=clean_parquet_schema(first))


def read_transcripts_pruned(path: str | list[str], columns: list[str]) -> ray.data.Dataset:
    """S1 with column projection pushed INTO the Parquet scan — only the
    named columns leave storage (prune-at-the-read rule; the flagship
    never consumes ``tool``)."""
    from ..schema import clean_parquet_schema

    first = path[0] if isinstance(path, list) else path
    sch = clean_parquet_schema(first)
    pruned = pa.schema([sch.field(c) for c in columns])
    return ray.data.read_parquet(path, schema=pruned, columns=columns)


# Test-only fault injection for the fused actor pool: set to
# ("annotate", marker_path) and the FIRST Annotator batch to run
# SIGKILLs its actor (atomically claimed via O_EXCL on the marker).
# Read driver-side at annotate() wiring time and shipped as a plain
# constructor argument. Exercised by tests/test_actor_faults.py.
_TEST_FAILPOINT: tuple[str, str] | None = None


class Annotator:
    """Fused actor-pool stage: stats → LID → perplexity → scrub →
    decide in one ``__call__``.

    All five transforms are turn-local, so fusing them into one actor
    avoids four object-store round-trips of the (growing) table per
    block — at 10^12 turns those hops are pure shuffle-free overhead.
    Every scorer's frozen state (lexicons, LOGP table, regex packs) is
    bound once per actor (reference stateful-stage pattern, SURVEY.md
    §2.3)."""

    def __init__(
        self,
        cfg: FilterConfig | None = None,
        project: list[str] | None = None,
        failpoint: tuple[str, str] | None = None,
    ) -> None:
        # each actor is a 1-CPU worker: pin Arrow's internal pools so 30
        # actors don't spawn 30×32 threads and thrash the node
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        self.cfg = cfg or FilterConfig()
        self.project = project
        self._failpoint = failpoint
        self.lid = LangIdScorer()
        self.ppl = PerplexityScorer()
        self.scrub = Scrubber()

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._failpoint is not None:
            # test-only: SIGKILL exactly one actor mid-stream (atomic
            # marker claim — the exchange's _maybe_die); Ray Data must
            # restart the actor and re-run the lost batch, and the
            # flagship output must be byte-identical (the engine's
            # answer to the reference's mid-run crash recovery,
            # fineweb/big_inference.py:296-303)
            from ..stages.exchange import _maybe_die

            _maybe_die(self._failpoint, "annotate")
        # stats hands its dictionary-encoded tokenization (and byte-kernel
        # diacritic counts) straight to LID in-process — no re-encode
        b, shared = compute_text_stats(batch, return_shared=True)
        b = self.lid(b, shared=shared)
        b = self.ppl(b)
        b = self.scrub(b)
        b = decide_batch(b, self.cfg)
        if self.project:
            # project inside the actor: the dropped columns (notably the
            # original text) never hit the object store again
            b = b.select(self.project)
        return b


def annotate(
    ds: ray.data.Dataset,
    cfg: FilterConfig | None = None,
    *,
    batch_size: int = 4096,
    project: list[str] | None = None,
) -> ray.data.Dataset:
    """Append every engine column per turn: one fixed actor pool running
    the whole per-turn chain (see ``Annotator``); ``project`` keeps only
    the named columns, inside the actor."""
    cfg = cfg or FilterConfig()
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:
        cpus = 8
    # FIXED pool size: the autoscaling (min,max) pool ramps up too
    # slowly and halves throughput on steady batch streams; a fixed
    # pool sized to the cluster is right for a saturating stage.
    # ALWAYS leave >=1 CPU free for read/write/shuffle tasks — a
    # pool that reserves every CPU starves them and the pipeline
    # crawls (observed at num_cpus=2).
    pool = max(1, cpus - 2) if cpus >= 4 else max(1, cpus - 1)
    # read tasks ask for a whole CPU, so at 1 CPU the one actor
    # reserves none and shares it with them (reserving it hung)
    actor_cpus = 1 if cpus > 1 else 0
    return ds.map_batches(
        Annotator,
        # failpoint read driver-side at wiring time and shipped as a
        # plain constructor argument (the exchange's test-only fault
        # pattern — tests/test_actor_faults.py)
        fn_constructor_kwargs={
            "cfg": cfg,
            "project": project,
            "failpoint": _TEST_FAILPOINT,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=pool,
        num_cpus=actor_cpus,
    )


def _precombine_dropped(b: pa.Table) -> pa.Table:
    """Map-side combiner for the reassembly exchange: DROPPED turns'
    scrubbed text never needs to cross the shuffle — a dropped turn
    contributes only its count and its (turn_idx, ts) boundary to the
    conversation row. Each batch's dropped rows collapse to ONE meta
    row per conversation (columns d_n / d_min_ti / d_min_ts / d_max_ti
    / d_max_ts, text null); kept rows pass through (meta columns null).
    At a 40% drop rate this removes ~40% of the text bytes from the
    only all-to-all exchange in the pipeline.

    Assumption (schema contract): ``turn_idx`` is unique per
    conversation — first/last reduce to min/max over turn_idx."""
    import pyarrow.compute as pc

    keep = b["keep"]
    kept = b.filter(keep)
    dropped = b.filter(pc.invert(pc.fill_null(keep, False)))
    null_i32 = pa.nulls(kept.num_rows, pa.int32())
    null_i64 = pa.nulls(kept.num_rows, pa.int64())
    null_ts = pa.nulls(kept.num_rows, b.schema.field("ts").type)
    kept_t = pa.table(
        {
            "conv_id": kept["conv_id"],
            "turn_idx": kept["turn_idx"],
            "ts": kept["ts"],
            "scrubbed_text": kept["scrubbed_text"],
            "d_n": null_i64,
            "d_min_ti": null_i32.cast(kept.schema.field("turn_idx").type),
            "d_min_ts": null_ts,
            "d_max_ti": null_i32.cast(kept.schema.field("turn_idx").type),
            "d_max_ts": null_ts,
        }
    )
    if dropped.num_rows:
        df = dropped.select(["conv_id", "turn_idx", "ts"]).to_pandas()
        df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        d_n = df.groupby("conv_id", sort=False).size()
        # first/last ts follow pandas groupby.first/last semantics
        # (SKIP nulls): boundaries are computed over the NON-NULL-ts
        # subset only, so a dropped turn with null ts contributes its
        # count but never a NaT boundary
        nn = df[df["ts"].notna()]
        gn = nn.groupby("conv_id", sort=False)
        agg = pd.DataFrame(
            {
                "d_n": d_n.astype(np.int64),
                "d_min_ti": gn["turn_idx"].first().reindex(d_n.index),
                "d_min_ts": gn["ts"].first().reindex(d_n.index),
                "d_max_ti": gn["turn_idx"].last().reindex(d_n.index),
                "d_max_ts": gn["ts"].last().reindex(d_n.index),
            }
        ).reset_index()
        ti_type = kept.schema.field("turn_idx").type
        ts_type = b.schema.field("ts").type
        meta_t = pa.table(
            {
                "conv_id": pa.array(agg["conv_id"], kept_t.schema.field("conv_id").type),
                "turn_idx": pa.nulls(len(agg), ti_type),
                "ts": pa.nulls(len(agg), ts_type),
                "scrubbed_text": pa.nulls(len(agg), pa.string()),
                "d_n": pa.array(agg["d_n"], pa.int64()),
                "d_min_ti": pa.array(agg["d_min_ti"], ti_type, from_pandas=True),
                "d_min_ts": pa.array(agg["d_min_ts"], ts_type, from_pandas=True),
                "d_max_ti": pa.array(agg["d_max_ti"], ti_type, from_pandas=True),
                "d_max_ts": pa.array(agg["d_max_ts"], ts_type, from_pandas=True),
            }
        )
        return pa.concat_tables([kept_t, meta_t]).combine_chunks()
    return kept_t


def _as_array(ca) -> pa.Array:
    """ChunkedArray → single Array (empty-safe)."""
    if isinstance(ca, pa.Array):
        return ca
    ca = ca.combine_chunks()
    return ca if isinstance(ca, pa.Array) else (
        ca.chunk(0) if ca.num_chunks else pa.array([], ca.type)
    )


def _segment_starts(conv: pa.Array) -> np.ndarray:
    """Start offsets of equal-conv_id runs in a (conv_id, …)-sorted
    array."""
    n = len(conv)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    neq = pc.not_equal(conv.slice(1), conv.slice(0, n - 1))
    change = np.concatenate(
        [[True], pc.fill_null(neq, True).to_numpy(zero_copy_only=False)]
    )
    return np.flatnonzero(change).astype(np.int64)


def _reassemble_partition(t: pa.Table) -> pa.Table:
    """Reduce side of the reassembly exchange: every conversation of one
    hash partition of :func:`_precombine_dropped` output. Kept rows
    rebuild the text (newline-joined in ``turn_idx`` order — the single
    ordering contract, never positional); dropped-side partials merge
    by min/max over ``turn_idx``. ``first_ts``/``last_ts`` are the
    first/last NON-NULL ts. One ``sort_indices`` + run-boundary numpy
    over the kept side, with the per-conversation text join done by the
    single vectorized ``binary_join`` kernel over a ListArray view — no
    pandas object columns, no per-group Python."""
    is_meta = pc.is_null(t["turn_idx"])
    meta = t.filter(is_meta)
    kept = t.filter(pc.invert(is_meta))
    ti_type = t.schema.field("turn_idx").type
    ts_type = t.schema.field("ts").type
    cid_type = t.schema.field("conv_id").type
    empty_c = pa.array([], cid_type)

    # ---- kept side: one sort, run boundaries, list-view text join ----
    if kept.num_rows:
        kept = kept.take(
            pc.sort_indices(
                kept,
                sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")],
            )
        )
        conv = _as_array(kept["conv_id"])
        starts = _segment_starts(conv)
        k_convs = conv.take(pa.array(starts, pa.int64()))
        k_n = np.diff(np.append(starts, len(conv))).astype(np.int64)
        offsets = np.append(starts, len(conv))
        txt = _as_array(kept["scrubbed_text"])
        lst = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), txt)
        k_text = pc.binary_join(lst, "\n")
        # ts boundaries over the NON-NULL-ts kept rows only (pandas
        # first()/last() skip nulls); rows stay (conv, turn_idx)-sorted
        knn = kept.filter(pc.is_valid(kept["ts"]))
        conv_nn = _as_array(knn["conv_id"])
        s_nn = _segment_starts(conv_nn)
        e_nn = np.append(s_nn[1:], len(conv_nn)) - 1
        knn_convs = conv_nn.take(pa.array(s_nn, pa.int64()))
        k_min_ti = _as_array(knn["turn_idx"]).take(pa.array(s_nn, pa.int64()))
        k_min_ts = _as_array(knn["ts"]).take(pa.array(s_nn, pa.int64()))
        k_max_ti = _as_array(knn["turn_idx"]).take(pa.array(e_nn, pa.int64()))
        k_max_ts = _as_array(knn["ts"]).take(pa.array(e_nn, pa.int64()))
    else:
        k_convs, k_n, k_text = empty_c, np.zeros(0, np.int64), pa.array([], pa.string())
        knn_convs = empty_c
        k_min_ti = k_max_ti = pa.array([], ti_type)
        k_min_ts = k_max_ts = pa.array([], ts_type)

    # ---- meta side: merge per-batch dropped partials ----
    if meta.num_rows:
        g = meta.group_by("conv_id").aggregate([("d_n", "sum")])
        m_convs = _as_array(g["conv_id"])
        m_n = _as_array(g["d_n_sum"]).cast(pa.int64())
        # min: nulls sort last, take first row per run (row-wise
        # null-together d_*_ti/d_*_ts — see _precombine_dropped)
        ms = meta.take(
            pc.sort_indices(
                meta,
                sort_keys=[("conv_id", "ascending"), ("d_min_ti", "ascending")],
                null_placement="at_end",
            )
        )
        cmin = _as_array(ms["conv_id"])
        smin = _segment_starts(cmin)
        m_min_convs = cmin.take(pa.array(smin, pa.int64()))
        m_min_ti = _as_array(ms["d_min_ti"]).take(pa.array(smin, pa.int64()))
        m_min_ts = _as_array(ms["d_min_ts"]).take(pa.array(smin, pa.int64()))
        # max: nulls sort FIRST, take last row per run
        mx = meta.take(
            pc.sort_indices(
                meta,
                sort_keys=[("conv_id", "ascending"), ("d_max_ti", "ascending")],
                null_placement="at_start",
            )
        )
        cmax = _as_array(mx["conv_id"])
        smax = _segment_starts(cmax)
        emax = np.append(smax[1:], len(cmax)) - 1
        m_max_convs = cmax.take(pa.array(smax, pa.int64()))
        m_max_ti = _as_array(mx["d_max_ti"]).take(pa.array(emax, pa.int64()))
        m_max_ts = _as_array(mx["d_max_ts"]).take(pa.array(emax, pa.int64()))
    else:
        m_convs, m_n = empty_c, pa.array([], pa.int64())
        m_min_convs = m_max_convs = empty_c
        m_min_ti = m_max_ti = pa.array([], ti_type)
        m_min_ts = m_max_ts = pa.array([], ts_type)

    # ---- union + reindex (index_in: absent conv → null → null take) ----
    u = pc.unique(pa.concat_arrays([k_convs.cast(cid_type), m_convs.cast(cid_type)]))
    convs = u.take(pc.sort_indices(u))

    def rx(src: pa.Array, vals: pa.Array) -> pa.Array:
        if len(src) == 0:
            return pa.nulls(len(convs), vals.type)
        return vals.take(pc.index_in(convs, value_set=src))

    k_n_u = pc.fill_null(rx(k_convs, pa.array(k_n, pa.int64())), 0)
    m_n_u = pc.fill_null(rx(m_convs, m_n), 0)
    n_turns = pc.add(k_n_u, m_n_u)
    kmin_ti_u = rx(knn_convs, k_min_ti)
    kmax_ti_u = rx(knn_convs, k_max_ti)
    dmin_ti_u = rx(m_min_convs, m_min_ti)
    dmax_ti_u = rx(m_max_convs, m_max_ti)
    use_k_min = pc.or_kleene(
        pc.is_null(dmin_ti_u),
        pc.and_kleene(pc.is_valid(kmin_ti_u), pc.less_equal(kmin_ti_u, dmin_ti_u)),
    )
    use_k_max = pc.or_kleene(
        pc.is_null(dmax_ti_u),
        pc.and_kleene(pc.is_valid(kmax_ti_u), pc.greater_equal(kmax_ti_u, dmax_ti_u)),
    )
    first_ts = pc.if_else(use_k_min, rx(knn_convs, k_min_ts), rx(m_min_convs, m_min_ts))
    last_ts = pc.if_else(use_k_max, rx(knn_convs, k_max_ts), rx(m_max_convs, m_max_ts))
    return pa.table(
        {
            "conv_id": convs,
            "n_turns": n_turns,
            "n_kept": k_n_u,
            "conv_keep": pc.greater(k_n_u, 0),
            "text": pc.fill_null(rx(k_convs, k_text), ""),
            "first_ts": first_ts,
            "last_ts": last_ts,
        }
    )


def reassemble(
    ds: ray.data.Dataset,
    input_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Conversation reassembly: the only all-to-all exchange in the
    pipeline. Dropped turns first collapse map-side to one
    per-conversation meta row per batch (:func:`_precombine_dropped`),
    so their scrubbed text never enters the shuffle. Conversations are
    then hash-partitioned by ``conv_id`` (crc32, the ONE partitioning
    key used everywhere — SURVEY.md §7.2) by the raw-Ray push-based
    exchange (:mod:`..stages.exchange`: no key sampling, no per-block
    sort) and each partition is reassembled by the Arrow reduce
    :func:`_reassemble_partition`. Hot conversations skew only their
    partition (salting is impossible here — a conversation must land in
    exactly one group; thinning partitions is the lever)."""
    from ..stages.exchange import hash_exchange_map_groups

    # prune to the five columns the shuffle needs — the exchange moves
    # scrubbed text + keys only, not the full annotated table.
    # ``input_schema``: callers that know the upstream schema (e.g.
    # run_flagship, whose annotate stage projects to a fixed column
    # set) pass it to avoid ds.schema() triggering a limit-1 PARTIAL
    # EXECUTION of the lazy chain — which spins up the whole annotate
    # actor pool just to learn column names (~2-4 s at 32 CPUs).
    if input_schema is not None:
        names, ts_type = input_schema.names, input_schema.field("ts").type
    else:
        sch = ds.schema()
        names, ts_type = sch.names, sch.base_schema.field("ts").type
    needed = ["conv_id", "turn_idx", "ts", "keep", "scrubbed_text"]
    have = [c for c in needed if c in names]
    if len(have) == len(needed):
        ds = ds.select_columns(needed)
    ds = ds.map_batches(_precombine_dropped, batch_format="pyarrow")
    out_schema = pa.schema(
        [
            pa.field("conv_id", pa.string()),
            pa.field("n_turns", pa.int64()),
            pa.field("n_kept", pa.int64()),
            pa.field("conv_keep", pa.bool_()),
            pa.field("text", pa.string()),
            pa.field("first_ts", ts_type),
            pa.field("last_ts", ts_type),
        ]
    )
    return hash_exchange_map_groups(
        ds,
        _reassemble_partition,
        key="conv_id",
        out_schema=out_schema,
    )


def ordered_turns(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-turn labeled output in stable (conv_id, turn_idx) order —
    Ray Data's sort is a distributed range-partitioned sort, so this is
    a wide op; use only when a globally ordered per-turn view is needed."""
    return ds.sort(["conv_id", "turn_idx"])


def filter_kept(ds: ray.data.Dataset) -> ray.data.Dataset:
    """The reference's final threshold filter analog
    (``/root/reference/small_model_inference/filter.py:22``): keep rows
    with ``keep``; vectorized Arrow predicate, not a per-row filter."""
    import pyarrow.compute as pc

    return ds.map_batches(
        lambda t: t.filter(pc.equal(t["keep"], True)), batch_format="pyarrow"
    )


def derive_ppl_threshold(
    input_path: str | list[str],
    percentile: float = 92.0,
    cfg: FilterConfig | None = None,
    batch_size: int = 4096,
) -> FilterConfig:
    """The cheap first pass of the reference's two-phase production flow
    (G3 →M3, ``run.sh:1-26``: quantiles_fetcher → filter at the 92nd
    percentile): ``cfg`` with ``max_ppl`` set to the corpus's own ppl
    percentile (mergeable rounded-histogram percentile). Perplexity
    needs only the text, so the scorer runs statelessly over the raw
    turns."""
    import dataclasses

    from ..functions.perplexity import perplexity_batch
    from ..stages.analysis import approx_percentiles

    pre = read_transcripts(input_path).map_batches(
        perplexity_batch, batch_format="pyarrow", batch_size=batch_size
    )
    thr = approx_percentiles(pre, "ppl", [percentile]).iloc[0]["value"]
    return dataclasses.replace(cfg or FilterConfig(), max_ppl=float(thr))


def run_flagship(
    input_path: str | list[str],
    cfg: FilterConfig | None = None,
    *,
    batch_size: int = 4096,
) -> ray.data.Dataset:
    """read → annotate → reassemble. Returns the conversation-level
    Dataset (lazy; caller consumes). The fused annotate stage projects
    to exactly the reassembly columns, so the original text column never
    leaves the actor."""
    # parquet-footer schema (metadata-only, no task execution) feeds the
    # reassembly schema hint so nothing pre-executes the annotate chain
    base = ray.data.read_parquet(input_path).schema().base_schema
    project = ["conv_id", "turn_idx", "ts", "keep", "scrubbed_text"]
    ann_schema = pa.schema(
        [
            pa.field("conv_id", pa.string()),
            pa.field("turn_idx", base.field("turn_idx").type),
            pa.field("ts", base.field("ts").type),
            pa.field("keep", pa.bool_()),
            pa.field("scrubbed_text", pa.string()),
        ]
    )
    ds = annotate(
        read_transcripts_pruned(
            input_path, ["conv_id", "turn_idx", "role", "text", "ts"]
        ),
        cfg,
        batch_size=batch_size,
        project=project,
    )
    return reassemble(ds, input_schema=ann_schema)
