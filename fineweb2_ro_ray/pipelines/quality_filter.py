"""The flagship pipeline: transcript quality filtering.

Ray Data restatement of the reference's production chain
(``run.sh:1-26``: download → JQL scoring → percentile thresholds →
conjunctive filter → join → parquet) as ONE streaming DAG
(SURVEY.md §3.1):

    read_transcripts(pruned columns)               # one task per row group;
                                                   # TRANSCRIPT_SCHEMA batches
                                                   # of <= 4,096 turns
      → map_batches(_annotate_block)               # stats → LID → ppl →
                                                   # scrub → decide;
                                                   # LABELED_SCHEMA, projected
      → map_batches(_thin_dropped)                 # dropped turns lose text;
                                                   # Ray fuses the read and
                                                   # both maps into one task
                                                   # per row group
      → hash exchange on conv_id + Arrow reduce    # the only wide op:
                                                   # one sort, run boundaries;
                                                   # CONVERSATION_SCHEMA
      → write_parquet (or partitioned and resumable — state/checkpoint.py)

:func:`run_flagship` is this DAG; the bench and the driver entry point
both run it, and the resumable runner (``runner.py``) runs its annotate
stage over the same :func:`read_transcripts` read. Both ends of it are
declared schemas (:mod:`..schema`), so no stage runs a lazy input to
learn its schema.

Unlike the reference, no stage materializes the corpus to disk between
steps; the streaming executor pipelines blocks with backpressure.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.decide import FilterConfig, decide_batch
from ..functions.lid import lang_id_batch
from ..functions.perplexity import perplexity_batch
from ..functions.scrub import Scrubber
from ..functions.textstats import compute_text_stats
from ..sources.rowgroups import read_row_groups


def read_transcripts(
    path: str | list[str], columns: list[str] | None = None
) -> ray.data.Dataset:
    """Source: the transcript Parquet table (reference source analog S1,
    ``/root/reference/fineweb/fineweb2_download.py:40-57`` — but a
    column-pruned Parquet read instead of an HF stream), one read task
    per row group (:func:`..sources.rowgroups.read_row_groups`). Only
    ``columns`` (default: all) leave storage, in batches of at most
    4,096 rows cast to the first file's metadata-free schema, so the
    b'pandas' blob of pandas-written files never enters a block."""
    return read_row_groups(path, columns)


def read_transcripts_pruned(path: str | list[str], columns: list[str]) -> ray.data.Dataset:
    """:func:`read_transcripts` of the named columns only (the flagship
    never consumes ``tool``); ``enginebench/traced.py`` reads by this
    name."""
    return read_transcripts(path, columns)


# Test-only fault injection for the fused annotate task: set to
# ("annotate", marker_path) and the FIRST annotate batch to run
# SIGKILLs its worker process (atomically claimed via O_EXCL on the
# marker). Read driver-side at annotate() wiring time and shipped as a
# plain argument. Exercised by tests/test_actor_faults.py.
_TEST_FAILPOINT: tuple[str, str] | None = None


def annotate_batch(
    batch: pa.Table,
    cfg: FilterConfig | None = None,
    project: list[str] | None = None,
    failpoint: tuple[str, str] | None = None,
) -> pa.Table:
    """The fused per-turn chain: stats → LID → perplexity → scrub →
    decide, then the projection, in one call.

    All five transforms are turn-local, so fusing them into one task
    avoids four object-store round-trips of the (growing) table per
    block. The function holds no state: every frozen table (the LOGP
    table, the lexicon value sets, the compiled regexes) is module
    state that each worker process builds once and keeps warm across
    tasks and jobs (the reference loads its models once per worker,
    SURVEY.md §2.3)."""
    if failpoint is not None:
        # test-only: SIGKILL exactly one worker mid-stream (atomic
        # marker claim — the exchange's _maybe_die); Ray Data must
        # re-run the lost task, and the flagship output must be
        # byte-identical (the engine's answer to the reference's
        # mid-run crash recovery, fineweb/big_inference.py:296-303)
        from ..stages.exchange import _maybe_die

        _maybe_die(failpoint, "annotate")
    # stats hands its dictionary-encoded tokenization (and byte-kernel
    # diacritic counts) straight to LID in-process — no re-encode
    b, shared = compute_text_stats(batch, return_shared=True)
    b = lang_id_batch(b, shared=shared)
    b = perplexity_batch(b)
    b = Scrubber()(b)
    b = decide_batch(b, cfg or FilterConfig())
    if project:
        # project inside the task: the dropped columns (notably the
        # original text) never hit the object store again
        b = b.select(project)
    return b


def _annotate_block(block: pa.Table, rows: int, **kwargs):
    """:func:`annotate_batch` over ``block`` in slices of at most
    ``rows`` turns (an empty block is one call, so its output is typed)."""
    for i in range(0, block.num_rows or 1, rows):
        yield annotate_batch(block.slice(i, rows), **kwargs)


def annotate(
    ds: ray.data.Dataset,
    cfg: FilterConfig | None = None,
    *,
    batch_size: int = 4096,
    project: list[str] | None = None,
) -> ray.data.Dataset:
    """Append every engine column per turn: one stateless task map
    running the whole per-turn chain (:func:`annotate_batch`) on every
    CPU; ``project`` keeps only the named columns, inside the task. No
    actor pool is started, so a job pays no pool start-up.

    The map takes each block as it arrives and the kernel sees at most
    ``batch_size`` turns per call. With no batch size on the map, Ray
    fuses it with a row-group read (:func:`read_transcripts`): one task
    per row group reads, annotates and (in :func:`reassemble`) thins
    its turns."""
    return ds.map_batches(
        _annotate_block,
        # failpoint read driver-side at wiring time and shipped as a
        # plain argument (the exchange's test-only fault pattern —
        # tests/test_actor_faults.py)
        fn_kwargs={
            "rows": batch_size, "cfg": cfg, "project": project, "failpoint": _TEST_FAILPOINT,
        },
        batch_format="pyarrow",
        batch_size=None,
    )


def _thin_dropped(b: pa.Table) -> pa.Table:
    """Map side of the reassembly exchange: every turn crosses as one
    thin row ``(conv_id, turn_idx, ts, keep, scrubbed_text)``. A dropped
    turn (``keep`` false or null) keeps its key and boundary columns but
    loses its text, so its scrubbed bytes never enter the shuffle."""
    keep = pc.fill_null(b["keep"], False)
    text = b["scrubbed_text"]
    # the else-branch is an ARRAY of nulls: a null scalar there gives a
    # sliced string column out-of-bounds offsets on Arrow 16.1
    text = pc.if_else(keep, text, pa.nulls(b.num_rows, text.type))
    return pa.table(
        {
            "conv_id": b["conv_id"],
            "turn_idx": b["turn_idx"],
            "ts": b["ts"],
            "keep": keep,
            "scrubbed_text": text,
        }
    )


def _reassemble_partition(t: pa.Table) -> pa.Table:
    """Reduce side of the reassembly exchange: every conversation of one
    hash partition of :func:`_thin_dropped` rows, ``conv_id`` ascending.
    One sort by (conv_id, turn_idx), then run boundaries: ``n_turns`` is
    the run length, ``n_kept`` counts kept rows, the kept rows' text is
    newline-joined in ``turn_idx`` order (the single ordering contract,
    never positional) by one ``binary_join`` over a ListArray view, and
    ``first_ts``/``last_ts`` are the first/last NON-NULL ts of the run."""
    from ..stages.exchange import run_ids, sorted_runs

    t, starts = sorted_runs(t, ["conv_id"], [("turn_idx", "ascending")])
    rid = run_ids(starts)
    n_runs = len(starts) - 1
    keep = t["keep"].to_numpy()
    n_kept = np.bincount(rid[keep], minlength=n_runs).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(n_kept)]).astype(np.int32)
    kept_text = t["scrubbed_text"].filter(pa.array(keep)).combine_chunks()
    text = pc.binary_join(pa.ListArray.from_arrays(offsets, kept_text), "\n")
    # row of the first/last non-null ts of each run; a run with none
    # takes a null index (the padding slot keeps the lookups in range)
    valid = np.flatnonzero(pc.is_valid(t["ts"]).to_numpy())
    n_valid = np.bincount(rid[valid], minlength=n_runs)
    end = np.cumsum(n_valid)
    none = n_valid == 0
    valid = np.append(valid, 0)
    first = pa.array(valid[end - n_valid], mask=none)
    last = pa.array(valid[end - 1], mask=none)
    return pa.table(
        {
            "conv_id": t["conv_id"].take(starts[:-1]),
            "n_turns": np.diff(starts),
            "n_kept": n_kept,
            "conv_keep": n_kept > 0,
            "text": pc.fill_null(text, ""),
            "first_ts": t["ts"].take(first),
            "last_ts": t["ts"].take(last),
        }
    )


def reassemble(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Conversation reassembly: the only all-to-all exchange in the
    pipeline. Every turn crosses it as one thin row; a dropped turn's
    text is nulled map-side (:func:`_thin_dropped`, which Ray fuses
    into the annotate task), so its scrubbed bytes never enter the
    shuffle. Conversations are then hash-partitioned by ``conv_id``
    (crc32, the ONE partitioning key used everywhere — SURVEY.md §7.2)
    by the raw-Ray push-based exchange (:mod:`..stages.exchange`: no
    key sampling, no per-block sort) and each partition is reassembled
    by the Arrow reduce :func:`_reassemble_partition`. Hot
    conversations skew only their partition (salting is impossible
    here — a conversation must land in exactly one group; thinning
    partitions is the lever).

    The output is always :data:`..schema.CONVERSATION_SCHEMA`, so the
    input's schema is never needed and nothing runs the lazy input to
    learn it; an empty input gives a typed empty table. ``first_ts``/
    ``last_ts`` are ``timestamp[us]``, the ``ts`` type that
    :data:`..schema.TRANSCRIPT_SCHEMA` declares and every transcript
    writer uses; an input ``ts`` of another unit is cast (safely) to
    it rather than carried through."""
    from ..schema import CONVERSATION_SCHEMA
    from ..stages.exchange import hash_exchange_map_groups

    return hash_exchange_map_groups(
        ds.map_batches(_thin_dropped, batch_format="pyarrow"),
        _reassemble_partition,
        key="conv_id",
        out_schema=CONVERSATION_SCHEMA,
    )


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
    """The flagship job, the one wiring of every conversation-level
    transcript job (the bench, ``entry()``, the
    ``transcript_conversations`` query): pruned read → annotate →
    reassemble. Returns the conversation-level Dataset with schema
    :data:`..schema.CONVERSATION_SCHEMA` over the in-flight reduce
    outputs (the exchange consumes the read and annotate stages within
    this call; the caller consumes the rest). The read leaves ``tool`` in
    storage, and one fused task per row group reads, annotates and thins
    its turns, projecting to exactly the reassembly columns, so the
    original text column never enters the object store."""
    read = read_transcripts(input_path, ["conv_id", "turn_idx", "role", "text", "ts"])
    project = ["conv_id", "turn_idx", "ts", "keep", "scrubbed_text"]
    return reassemble(annotate(read, cfg, batch_size=batch_size, project=project))
