"""Raw-Ray tree-merged hash exchange for keyed map_groups.

This is the engine's one deliberate drop below the Dataset API (the
"raw tasks only where Dataset can't express it" rule): Ray Data 2.49
expresses a keyed ``groupby().map_groups`` ONLY as a range-partitioned
SORT — boundary sampling, per-block sort, merge reduce — and its
experimental hash-shuffle strategy hangs in local mode (measured,
BASELINE.md). A keyed map_groups needs CO-LOCATION of each key's rows,
not global order, so the sort is pure overhead: profiled at ~2/3 of
the flagship wall (Sort 51 s vs 19 s of scoring compute at sf-bench,
per-operator ``Dataset.stats()``), and a multi-second fixed floor per
groupby on small inputs (sampling pass + sort tasks + merge).

Shape (push-based hash shuffle with a tree-merge reduce fan-in, the
same exchange the reference delegates to its external dedup/shuffle
tooling for):

    M map tasks     — split each ~64 MB group of upstream blocks into
                      P slices by a canonical 64-bit key hash
                      (``schema.hash_key_u64`` per key column,
                      splitmix64-combined; single string keys use the
                      engine-pinned crc32 of
                      ``state.checkpoint.add_partition_column``);
    merge levels    — per reduce partition, slices are concatenated in
                      a tree with fan-in F (64): M slices →
                      ⌈M/F⌉ merged chunks → … until ≤ F chunks remain.
                      With M ≤ F (every local run) the tree is empty
                      and the wiring is identical to a flat exchange.
    P reduce tasks  — concat their ≤ F chunks, run ONE vectorized
                      Arrow reduce_fn over the whole partition (every key's
                      rows are now co-located), emit an Arrow block.

vs the sort-based groupby: no sampling pass, no per-block sort, no
merge heap. Both are all-to-all pipeline BARRIERS (the input
materializes either way — no reducer can finish before every map ran).

Reducer count ``P`` auto-sizes from the STREAMED input bytes:
``P = clamp(bytes / _PARTITION_BYTES, min = max(8, 2 x cluster CPUs),
max = _MAX_REDUCERS)`` with a 256 MB partition target, so a reduce
partition fits a worker heap at any input size instead of scaling with
driver-visible CPU count. Callers with key-cardinality knowledge can
still pass ``n_reducers``.

Scale notes (100 TB, 256 MB partitions → P ≈ 4e5, M ≈ 1.6e6 map
groups): the tree merge bounds every task's ref fan-in at F (the flat
exchange handed each reducer all M slice refs — ~1.6e6 task args — and
concatenated them in one go). The driver's transient slice-ref matrix
is bounded by GROUPED RETURNS: past a ref budget (``_DRIVER_REFS_MAX``,
4e6) splits return ⌈P/W⌉ group-objects of W consecutive-partition
slices instead of P singles, and an ``_ungroup_merge`` level (fan-in F
over group-objects, W returns each) restores per-partition chunks —
driver peak drops from M x P to max(M x ⌈P/W⌉, (M/F) x P), i.e.
W = F = 64 cuts the 100-TB point from ~6e11 refs to ~1e10 for one extra
object-store copy of the data. Skewed keys skew only their partition
(a key's rows must land in one reducer — thinning partitions is the
lever, and byte-based P sizing does exactly that). Map outputs are
plain object-store objects, so Ray spills them to disk under memory
pressure exactly as it spills sort blocks.

The sizing knobs are the module constants below, read by the driver
while it wires each exchange (tests force a shape by patching them).

Fault tolerance: split / merge / reduce are stateless idempotent tasks
(``max_retries`` applies, default 3). A worker death re-runs the dead
task; a LOST intermediate slice is rebuilt by Ray's lineage
reconstruction re-running its producer split. Proven by
``tests/test_exchange_faults.py`` (SIGKILL of a split worker and of a
reduce worker mid-run → byte-identical output).
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

# Map side: coalesce upstream blocks into ~64 MB split tasks.
_SPLIT_BYTES = 64 << 20
# Tree-merge fan-in F: no merge or reduce task takes more than F refs.
_MERGE_FANIN = 64
# Auto-sized reducers: one per 256 MB of streamed input, at most 2^16.
_PARTITION_BYTES = 256 << 20
_MAX_REDUCERS = 1 << 16
# Driver slice-ref budget past which splits use grouped returns.
_DRIVER_REFS_MAX = 4_000_000

def _concat_named(tabs: list[pa.Table], where: str) -> pa.Table:
    """``pa.concat_tables`` that, on schema drift between blocks (e.g. an
    upstream pandas ``map_batches`` that re-inferred a type), fails
    with the mismatching schemas named instead of a bare Arrow error —
    the coalesced map side concats up to 128 upstream blocks, so the
    failure needs enough context to find the odd producer.

    Permissive promotion is allowed ONLY when every drifted field is
    null-typed on one side (an all-null or empty block whose type
    Arrow re-inferred as null): promoting null → the pinned type is
    lossless. Two DISTINCT non-null types for the same field (e.g. an
    int64 key re-inferred as float64 by a pandas producer) raise the
    named error instead of being silently unified — a permissive
    int64→float64 promotion would collapse ids above 2^53 and merge
    rows under the wrong key with no signal."""
    try:
        return pa.concat_tables(tabs)
    except (pa.ArrowInvalid, pa.ArrowTypeError) as e:
        types: dict[str, set] = {}
        for t in tabs:
            for f in t.schema:
                if not pa.types.is_null(f.type):
                    types.setdefault(f.name, set()).add(f.type)
        real_drift = sorted(n for n, ts in types.items() if len(ts) > 1)
        if not real_drift:
            try:
                return pa.concat_tables(tabs, promote_options="permissive")
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                pass  # fall through to the named error
        uniq: list[str] = []
        for t in tabs:
            s = str(t.schema)
            if s not in uniq:
                uniq.append(s)
        raise ValueError(
            f"exchange {where}: schema drift across {len(tabs)} blocks "
            f"({len(uniq)} distinct schemas"
            + (
                f"; conflicting non-null types for {real_drift}"
                if real_drift
                else ", not permissively unifiable"
            )
            + "):\n"
            + "\n---\n".join(uniq[:4])
        ) from e


# Test-only fault injection: set to ("split"|"merge"|"reduce",
# marker_path) and the FIRST task of that stage to run SIGKILLs its
# worker (atomically claimed via O_EXCL on the marker, so exactly one
# instance dies and its retry proceeds). Read driver-side at wiring
# time and shipped into tasks as a plain argument — no env plumbing.
# Exercised by tests/test_exchange_faults.py to prove the exchange's
# task-retry / lineage-reconstruction semantics.
_TEST_FAILPOINT: tuple[str, str] | None = None


def _maybe_die(failpoint: tuple[str, str] | None, stage: str) -> None:
    if failpoint is not None and failpoint[0] == stage:
        try:
            fd = os.open(failpoint[1], os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            return  # this stage already died once; the retry proceeds
        os.kill(os.getpid(), 9)


def _part_codes(t: pa.Table, keys: list[str], n_reducers: int) -> np.ndarray:
    """Partition id per row: canonical per-column 64-bit hashes,
    splitmix64-combined across key columns (dtype-representation-safe —
    see ``schema.hash_key_u64``)."""
    from ..schema import hash_key_u64
    from .bloom import _mix64

    acc: np.ndarray | None = None
    for c in keys:
        h = hash_key_u64(t[c])
        acc = h if acc is None else _mix64(acc ^ h, np.uint64(0xA076_1D64_78BD_642F))
    return (acc % np.uint64(n_reducers)).astype(np.int64)


def _split_core(
    n_reducers: int,
    key: str | list[str],
    blocks: tuple,
) -> list[pa.Table]:
    """Shared split body: coalesce a group of upstream blocks and cut
    the result into ``n_reducers`` hash-routed slices. A single STRING
    key routes via the engine-pinned crc32 partition hash (computed
    per *unique* key — cheap for multi-turn conversations); other keys
    via the canonical hash.

    No engine stage emits pandas blocks, but a caller's own
    ``ray.data.from_pandas`` input arrives as DataFrame blocks: those
    are converted to Arrow here, metadata-stripped."""
    tabs = [
        pa.Table.from_pandas(b, preserve_index=False).replace_schema_metadata(None)
        if isinstance(b, pd.DataFrame)
        else b
        for b in blocks
    ]
    live = [t for t in tabs if t.num_rows > 0]
    # Ray 2.49 map operators emit 0-row blocks with an EMPTY schema (no
    # key column to hash) — drop them unless everything is empty
    t = _concat_named(live, "map-side split").combine_chunks() if live else tabs[0]
    if t.num_rows == 0:
        # route an empty slice everywhere — the reduce side drops
        # row-less chunks before concat
        return [t for _ in range(n_reducers)]
    if callable(key):
        # custom partitioner (e.g. range routing for sample_sort):
        # key(table) -> int64 partition codes in [0, n_reducers)
        part = np.asarray(key(t), dtype=np.int64)
        tt = t
    elif isinstance(key, str) and pa.types.is_string(t.schema.field(key).type):
        from ..state.checkpoint import add_partition_column

        # the routing column is appended LAST; remove it by index so a
        # user column that happens to be named "part" is untouched
        # (pyarrow drop_columns raises on duplicate names)
        t2 = add_partition_column(t, n_reducers, key=key)
        part = t2.column(t2.num_columns - 1).to_numpy(zero_copy_only=False)
        tt = t2.remove_column(t2.num_columns - 1)
    else:
        keys = [key] if isinstance(key, str) else list(key)
        part = _part_codes(t, keys, n_reducers)
        tt = t
    order = np.argsort(part, kind="stable")
    sorted_part = part[order]
    tt = tt.take(pa.array(order, pa.int64()))
    bounds = np.searchsorted(sorted_part, np.arange(n_reducers + 1))
    return [
        tt.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(n_reducers)
    ]


@ray.remote
def _split_block(
    n_reducers: int,
    key: str | list[str],
    failpoint: tuple[str, str] | None,
    *blocks,
) -> tuple:
    """Map side, ungrouped returns: one task per GROUP of upstream
    blocks (the driver coalesces small blocks to ~64 MB per task — an
    actor-pool stage emits one ~batch-sized block per call, and
    splitting each of ~1500 such blocks into P slices floods the
    object store with M x P tiny objects; grouping cuts both the
    object count and the reduce-side concat fan-in ~an order of
    magnitude). Returns ``n_reducers`` table slices, one driver ref
    each."""
    _maybe_die(failpoint, "split")
    return tuple(_split_core(n_reducers, key, blocks))


@ray.remote
def _split_block_grouped(
    n_reducers: int,
    group_bounds: tuple,
    key: str | list[str],
    failpoint: tuple[str, str] | None,
    *blocks,
) -> tuple:
    """Map side, grouped returns: same split as ``_split_block`` but
    the P slices come back packed into ``len(group_bounds) - 1``
    GROUP-OBJECTS of consecutive-partition slices (group ``c`` holds
    partitions ``group_bounds[c]:group_bounds[c+1]``), so the driver
    holds M x ⌈P/W⌉ refs instead of M x P while wiring the merge tree.
    ``_ungroup_merge`` restores per-partition chunks downstream."""
    _maybe_die(failpoint, "split")
    slices = _split_core(n_reducers, key, blocks)
    return tuple(
        tuple(slices[a:b]) for a, b in zip(group_bounds, group_bounds[1:])
    )


@ray.remote
def _ungroup_merge(
    failpoint: tuple[str, str] | None,
    width: int,
    *gobjs,
) -> tuple:
    """Grouped-exchange merge level: take up to F same-group
    GROUP-OBJECTS (each a tuple of ``width`` consecutive-partition
    slices from one split task) and emit ``width`` per-partition
    merged chunks (slot j = concat of every input's slot j). Pure data
    movement like ``_merge_slices`` — idempotent/retryable — and the
    point where the grouped wiring rejoins the ordinary per-partition
    tree."""
    _maybe_die(failpoint, "merge")
    outs: list[pa.Table] = []
    for j in range(width):
        live = [g[j] for g in gobjs if g[j].num_rows > 0]
        outs.append(
            _concat_named(live, "grouped ungroup-merge").combine_chunks()
            if live
            else gobjs[0][j]
        )
    return tuple(outs)


@ray.remote
def _num_rows(t: pa.Table) -> int:
    return t.num_rows


@ray.remote
def _merge_slices(failpoint: tuple[str, str] | None, *chunks: pa.Table) -> pa.Table:
    """Intermediate tree-merge level: concatenate up to F same-partition
    slices into one object. Pure data movement — no reduce_fn — so it
    is trivially idempotent/retryable and keeps per-task ref fan-in at
    F however many map groups ran."""
    _maybe_die(failpoint, "merge")
    live = [c for c in chunks if c.num_rows > 0]
    if not live:
        return chunks[0]
    return _concat_named(live, "tree merge").combine_chunks()


@ray.remote
def _reduce_partition(
    fn: Callable,
    out_schema: pa.Schema | None,
    failpoint: tuple[str, str] | None,
    *chunks: pa.Table,
) -> pa.Table:
    """Reduce side: all of one partition's (merged) chunks → one
    vectorized ``fn`` call → one Arrow block. ``out_schema`` pins the
    output type so an empty partition emits a schema-identical empty
    block."""
    _maybe_die(failpoint, "reduce")
    live = [c for c in chunks if c.num_rows > 0]
    if not live:
        # every upstream slice was a 0-row (possibly empty-SCHEMA) block
        if out_schema is not None:
            return out_schema.empty_table()
        return chunks[0]  # degenerate; pruned by the 0-row filter below
    out = fn(_concat_named(live, "reduce concat").combine_chunks())
    return out.cast(out_schema) if out_schema is not None else out


def _auto_reducers(total_bytes: int, cpus: int) -> int:
    """Byte-based reducer count: one reducer per ``_PARTITION_BYTES``
    of map input, so a reduce partition fits a worker heap at any
    scale, clamped below by the parallelism floor ``max(8, 2 x CPUs)``
    (small inputs) and above by ``_MAX_REDUCERS`` (ref-matrix guard)."""
    floor = max(8, 2 * cpus)
    by_bytes = -(-total_bytes // _PARTITION_BYTES) if total_bytes > 0 else 0
    return max(2, min(_MAX_REDUCERS, max(floor, by_bytes)))


def _auto_group_width(n_groups: int, p: int, fanin: int) -> int:
    """Grouped-returns width W: 1 (ungrouped) while the driver's
    transient slice-ref matrix M x P stays under ``_DRIVER_REFS_MAX``
    (~ a few hundred MB of driver heap); beyond that, the smallest W
    that brings M x ⌈P/W⌉ back under budget, capped at the merge
    fan-in (a wider W buys nothing once the ungroup level's output
    matrix (M/F) x P dominates) and at P/2 (at least two groups, so
    grouped splits can use ``num_returns``)."""
    refs = n_groups * p
    if refs <= _DRIVER_REFS_MAX:
        return 1
    return max(2, min(-(-refs // _DRIVER_REFS_MAX), fanin, p // 2))


def _group_bounds(p: int, width: int) -> tuple | None:
    """Partition bounds of the grouped-returns wiring (group ``c`` holds
    partitions ``b[c]:b[c+1]``) for ``p`` reducers at ``width`` clamped
    to [1, P/2]; ``None`` when the clamped width is 1 (ungrouped). A
    trailing width-1 group folds into its neighbour, since grouped
    splits and ungroup merges need ``num_returns`` >= 2."""
    w = max(1, min(width, p // 2))
    if w < 2:
        return None
    b = list(range(0, p, w)) + [p]
    if p % w == 1:
        del b[-2]
    return tuple(b)


def hash_exchange_map_groups(
    ds: ray.data.Dataset,
    fn: Callable,
    *,
    key: str | list[str] | Callable,
    n_reducers: int | None = None,
    out_schema: pa.Schema | None = None,
    batch_format: str = "pyarrow",
    group_width: int | None = None,
) -> ray.data.Dataset:
    """Hash-partition ``ds`` by ``key`` (one column or several) and
    apply ``fn`` once per partition (all rows of any key value
    co-located), bypassing Ray Data's sort-based groupby. Returns a
    Dataset over the reduce outputs — IN PARTITION ORDER (block i holds
    partition i's reduce output; range partitioners rely on this) — so
    downstream stages (``write_parquet``, further ``map_batches``)
    stream as usual. ``key`` may instead be a CALLABLE
    ``(pa.Table) -> int64 codes in [0, n_reducers)`` for non-hash
    routing (range partitioning for ordered sorts, bucket routing); it
    ships to every split task, so capture big payloads (splitter
    arrays) via ``ray.put`` and fetch inside.

    ``fn`` must be partition-local and key-complete (the contract of
    ``groupby(key).map_groups`` with a vectorized body): it takes an
    Arrow table holding EVERY row of each key in the partition, groups
    internally, and returns an Arrow table. Unlike ``map_groups`` it is
    called once per PARTITION, not per key — no bucket pre-binning
    column needed. Plain keyed sums/counts/min/max and distinct rows
    have ready bodies: ``exchange_aggregate`` and ``exchange_distinct``;
    ``sorted_runs`` gives the sort-plus-run-boundary layout the other
    bodies group with. ``batch_format`` accepts only ``"pyarrow"`` (the
    benchmark's traced identity exchange still passes it).

    ``n_reducers=None`` auto-sizes from the streamed input bytes (see
    ``_auto_reducers``); pass it explicitly only when key cardinality
    is known to be small. ``group_width=None`` auto-selects the
    grouped-returns width from the driver-ref budget (see
    ``_auto_group_width``; 1 = the ungrouped wiring) when ``n_reducers``
    is auto-sized and stays ungrouped otherwise; pass it only in tests
    that force a specific wiring. Map outputs always live in the object
    store; the module constants above fix the split size, merge fan-in
    and sizing budgets."""
    if batch_format != "pyarrow":
        raise ValueError(
            f"hash_exchange_map_groups: reduce bodies take and return Arrow "
            f"tables; batch_format={batch_format!r} is not supported"
        )
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    fp = _TEST_FAILPOINT
    fanin = _MERGE_FANIN

    # Two launch modes for the map side:
    #   EAGER (n_reducers explicit): the reducer count — and therefore
    #   every split task's num_returns — is known up front, so splits
    #   launch AS the upstream stream drains; each group's block refs
    #   are handed to its split task and dropped immediately, so
    #   upstream blocks are freed/spilled incrementally and split CPU
    #   overlaps the upstream stage. The grouped-returns width comes
    #   from the ``group_width`` param only (the ref-budget auto-width
    #   needs the final map-group count).
    #   DEFERRED (n_reducers=None): byte-based reducer auto-sizing
    #   needs the TOTAL streamed bytes, so block refs are held until
    #   the stream ends, then every split launches. The deferral costs
    #   no reduce-side wall time (the exchange is a barrier either
    #   way: no reducer can start until every split ran), but it DOES
    #   pin the whole input in the object store until the splits
    #   consume it — the price of not knowing P in advance; Ray spills
    #   the pinned blocks to disk under memory pressure.
    eager = n_reducers is not None
    p = 0
    gb: tuple | None = None

    def _resolve_wiring(n_red: int, n_groups_hint: int) -> None:
        nonlocal p, gb
        p = max(2, n_red)  # num_returns >= 2 so splits return ref tuples
        if group_width is not None:
            gw = group_width
        elif eager:
            gw = 1
        else:
            gw = _auto_group_width(n_groups_hint, p, fanin)
        gb = _group_bounds(p, gw)

    splits: list = []

    def _launch(blocks: list) -> None:
        if gb is not None:
            splits.append(
                _split_block_grouped.options(num_returns=len(gb) - 1).remote(
                    p, gb, key, fp, *blocks
                )
            )
        else:
            splits.append(
                _split_block.options(num_returns=p).remote(p, key, fp, *blocks)
            )

    if eager:
        _resolve_wiring(n_reducers, 0)
    groups: list[list] = []
    pend: list = []
    pend_bytes = 0
    total_bytes = 0

    def _flush() -> None:
        nonlocal pend, pend_bytes
        if pend:
            if eager:
                _launch(pend)
            else:
                groups.append(pend)
            pend, pend_bytes = [], 0

    for bundle in ds.iter_internal_ref_bundles():
        for r, meta in zip(bundle.block_refs, bundle.metadata):
            pend.append(r)
            b = meta.size_bytes or 0
            pend_bytes += b
            total_bytes += b
            if pend_bytes >= _SPLIT_BYTES or len(pend) >= 128:
                _flush()
    _flush()
    if not splits and not groups:
        # zero bundles yielded: empty input. Preserve the output schema
        # when pinned; else fall back to the (empty, cheap) plan.
        if out_schema is not None:
            return ray.data.from_arrow(out_schema.empty_table())
        return ds.materialize()
    if not eager:
        _resolve_wiring(_auto_reducers(total_bytes, cpus), len(groups))
        for g in groups:
            _launch(g)
        del groups

    outs = []
    if gb is not None:
        # Grouped-returns wiring: splits returned ⌈P/W⌉ GROUP-OBJECTS
        # of W consecutive-partition slices each, cutting the driver's
        # transient ref matrix from M x P to max(M x ⌈P/W⌉, (M/F) x P).
        # An _ungroup_merge level (fan-in F over group-objects, W
        # returns) restores per-partition chunks, after which the
        # ordinary per-partition tree + reduce runs unchanged. Costs
        # one extra copy of the data through the object store, so it
        # auto-enables only past the driver-ref budget
        # (_auto_group_width); output is ref-for-ref equal to the
        # ungrouped wiring (tests/test_exchange_grouped.py).
        for c in range(len(gb) - 1):
            grefs = [s[c] for s in splits]
            w = gb[c + 1] - gb[c]
            cols: list[list] = [[] for _ in range(w)]
            for j in range(0, len(grefs), fanin):
                rs = _ungroup_merge.options(num_returns=w).remote(
                    fp, w, *grefs[j : j + fanin]
                )
                for t in range(w):
                    cols[t].append(rs[t])
            for t in range(w):
                refs = cols[t]
                while len(refs) > fanin:
                    refs = [
                        _merge_slices.remote(fp, *refs[j : j + fanin])
                        for j in range(0, len(refs), fanin)
                    ]
                outs.append(
                    _reduce_partition.remote(fn, out_schema, fp, *refs)
                )
    else:
        # Tree-merge each partition's slice column with bounded fan-in
        # F: with M <= F (every local-scale run) no merge task is
        # created and the wiring degenerates to the flat exchange;
        # beyond that, each level collapses F refs into one object
        # until a reducer's argument list fits F. Slice refs are
        # dropped level by level, so Ray frees consumed intermediate
        # objects as the tree drains.
        for i in range(p):
            refs = [s[i] for s in splits]
            while len(refs) > fanin:
                refs = [
                    _merge_slices.remote(fp, *refs[j : j + fanin])
                    for j in range(0, len(refs), fanin)
                ]
            outs.append(
                _reduce_partition.remote(fn, out_schema, fp, *refs)
            )
    del splits
    if out_schema is not None:
        # empty partitions emit schema-correct empty blocks
        # (out_schema.empty_table() / cast), which downstream stages
        # skip harmlessly, so no partition is dropped. This is still a
        # barrier: on Ray 2.49 from_arrow_refs runs one metadata task
        # per ref and waits for all of them, so the exchange returns
        # only after every reduce has finished
        return ray.data.from_arrow_refs(outs)
    # no pinned schema: drop 0-row partitions — Ray's map operators
    # emit an EMPTY-SCHEMA block for a 0-row input block (observed on
    # 2.49), and a fully-empty partition propagates that degenerate
    # block (see _reduce_partition), which poisons any downstream keyed
    # stage with a KeyError; the exchange is a barrier anyway, so this
    # row-count sync costs nothing extra here
    counts = ray.get([_num_rows.remote(o) for o in outs])
    keep = [o for o, n in zip(outs, counts) if n > 0]
    return ray.data.from_arrow_refs(keep or outs[:1])


# --- Ready-made Arrow reduce bodies ---
#
# Most keyed reduces are one of three shapes: a groupby-aggregate, a
# distinct, or "sort each key's rows, then act on runs of equal keys"
# (first-k per key, per-key rank / cumsum / shift). The first two are
# whole exchanges below; ``sorted_runs``/``run_rank`` give the third its
# layout. Group order inside a partition is key-ascending with nulls
# last, and a sum over a group whose values are all null is 0 (pandas
# ``groupby`` conventions, which the callers' outputs are pinned to);
# null KEYS form their own group (SQL ``GROUP BY``), so a caller that
# must drop them filters before the exchange.


def sort_by_keys(t: pa.Table, keys: list[str], order=()) -> pa.Table:
    """``t`` sorted by ``keys`` ascending, then by the extra ``order``
    ``(column, "ascending"|"descending")`` pairs; nulls last, stable."""
    if t.num_rows < 2:
        return t
    sk = [(k, "ascending") for k in keys] + list(order)
    return t.take(pc.sort_indices(t, sort_keys=sk, null_placement="at_end"))


def run_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Start row of every run of equal ``keys`` in a key-sorted table,
    with ``num_rows`` appended (so ``np.diff`` gives the run lengths).
    Two nulls are equal here; a null and a value are not."""
    n = t.num_rows
    if n == 0:
        return np.zeros(1, np.int64)
    new = np.zeros(n, bool)
    new[0] = True
    for k in keys:
        c = t[k].combine_chunks()
        a, b = c.slice(1), c.slice(0, n - 1)
        ne = pc.fill_null(pc.not_equal(a, b), False)
        if c.null_count:
            ne = pc.or_(ne, pc.xor(pc.is_null(a), pc.is_null(b)))
        new[1:] |= ne.to_numpy(zero_copy_only=False)
    return np.append(np.flatnonzero(new), n).astype(np.int64)


def sorted_runs(
    t: pa.Table, keys: list[str], order=()
) -> tuple[pa.Table, np.ndarray]:
    """``sort_by_keys`` plus the ``run_starts`` of the sorted table."""
    st = sort_by_keys(t, keys, order)
    return st, run_starts(st, keys)


def run_rank(starts: np.ndarray) -> np.ndarray:
    """0-based position of every row inside its run (pandas
    ``groupby().cumcount()`` over a sorted table)."""
    lens = np.diff(starts)
    return np.arange(starts[-1], dtype=np.int64) - np.repeat(starts[:-1], lens)


def run_ids(starts: np.ndarray) -> np.ndarray:
    """Run index of every row (pandas ``groupby().ngroup()`` over a
    sorted table)."""
    return np.repeat(np.arange(len(starts) - 1, dtype=np.int64), np.diff(starts))


def key_codes(
    a: pa.Table, a_keys: list[str], b: pa.Table, b_keys: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Dense int64 codes for the key tuples of ``a`` and ``b`` on one
    shared scale: equal tuples get equal codes, and a null equals a
    null (pandas ``merge``/``factorize`` matching)."""
    n = a.num_rows
    code = np.zeros(n + b.num_rows, np.int64)
    for ka, kb in zip(a_keys, b_keys):
        ca = a[ka].combine_chunks()
        col = pa.concat_arrays([ca, b[kb].combine_chunks().cast(ca.type)])
        vs = pc.unique(col)
        idx = pc.index_in(col, value_set=vs, skip_nulls=False)
        idx = idx.to_numpy(zero_copy_only=False).astype(np.int64)
        code = np.unique(code * len(vs) + idx, return_inverse=True)[1].ravel()
    return code[:n], code[n:]


def aggregate_table(
    t: pa.Table, keys: list[str], aggs: list[tuple[str, str, str]]
) -> pa.Table:
    """Keyed aggregate of one table (``exchange_aggregate`` runs it as
    both its map-side combine and its reduce): keys then one column per
    ``(column, function, output_name)`` aggregate, one row per key,
    sorted by key. ``function`` is an Arrow hash-aggregate name
    (``sum``, ``min``, ``max``, ``count``, ``mean``, ``count_distinct``
    …) or ``size`` (rows per key, nulls included). ``sum`` counts an
    all-null group as 0 and returns int64 for boolean input."""
    spec = []
    for col, func, _ in aggs:
        if func == "size":
            spec.append(([], "count_all"))
        elif func == "sum":
            spec.append((col, "sum", pc.ScalarAggregateOptions(min_count=0)))
        else:
            spec.append((col, func))
    # fixed-width keys first: Arrow 16 splits the null group of a
    # string key that precedes an integer key into several groups
    order = sorted(keys, key=lambda k: not pa.types.is_primitive(t.schema.field(k).type))
    g = t.group_by(order, use_threads=False).aggregate(spec)
    # Arrow puts the aggregates and the keys at either end depending on
    # the version; pick each by position
    na = len(aggs)
    lead_keys = g.column_names[: len(keys)] == order
    kcols = g.columns[: len(keys)] if lead_keys else g.columns[na:]
    acols = g.columns[len(keys):] if lead_keys else g.columns[:na]
    cols, names = [kcols[order.index(k)] for k in keys], list(keys)
    for (col, func, name), c in zip(aggs, acols):
        if func == "sum" and pa.types.is_boolean(t.schema.field(col).type):
            c = c.cast(pa.int64())
        cols.append(c)
        names.append(name)
    return sort_by_keys(pa.Table.from_arrays(cols, names=names), list(keys))


def distinct_table(t: pa.Table, keys: list[str]) -> pa.Table:
    """In-process body of ``exchange_distinct``: the distinct rows of
    ``t``'s ``keys`` columns, sorted."""
    st, starts = sorted_runs(t.select(list(keys)), list(keys))
    return st.take(pa.array(starts[:-1]))


# how ``exchange_aggregate`` merges each function's per-batch partials
_MERGE = {"size": "sum", "count": "sum", "sum": "sum", "min": "min", "max": "max"}


def exchange_aggregate(
    ds: ray.data.Dataset,
    keys: str | list[str],
    aggs: list[tuple[str, str, str]],
    *,
    out_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Keyed aggregate through the hash exchange (SQL ``GROUP BY keys``):
    pass raw rows. Each batch is first combined map-side
    (``aggregate_table``, one partial row per key), then every reduce
    partition merges the partials with one ``Table.group_by``. Only the
    decomposable functions are accepted: ``size`` and ``count`` merge
    by sum, ``sum`` by sum, ``min`` by min and ``max`` by max; anything
    else raises ``ValueError``. Null keys form a group. ``keys`` routes
    as ``hash_exchange_map_groups``' ``key`` does (a single string
    column named bare routes by its crc32). Pass ``out_schema`` when
    the input can be empty, so the result is a typed empty table."""
    cols = [keys] if isinstance(keys, str) else list(keys)
    aggs = [tuple(a) for a in aggs]
    bad = sorted({f for _, f, _ in aggs} - set(_MERGE))
    if bad:
        raise ValueError(
            f"exchange_aggregate: {bad} do not merge from partials; "
            f"use one of {sorted(_MERGE)}"
        )
    merge = [(name, _MERGE[f], name) for _, f, name in aggs]
    partials = ds.map_batches(
        lambda b: aggregate_table(b, cols, aggs), batch_format="pyarrow"
    )
    return hash_exchange_map_groups(
        partials,
        lambda t: aggregate_table(t, cols, merge),
        key=keys,
        out_schema=out_schema,
    )


def exchange_distinct(ds: ray.data.Dataset, keys: str | list[str]) -> ray.data.Dataset:
    """Distinct rows of ``ds``'s ``keys`` columns through the hash
    exchange (SQL ``SELECT DISTINCT keys``); null keys are kept."""
    cols = [keys] if isinstance(keys, str) else list(keys)
    return hash_exchange_map_groups(
        ds.select_columns(cols), lambda t: distinct_table(t, cols), key=keys
    )
