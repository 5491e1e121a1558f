"""Fixed-memory Bloom filter over an id column — removes the last
driver-side linear structure in the near-duplicate pair family.

Every near-duplicate pair operator resolves its candidates through
``dedup.score_pairs``, which re-scans the corpus restricted to
"involved" ids (docs with at least one candidate pair). The cheap
mechanism is a broadcast id-set filter, but the driver then holds 8 B
per involved doc — linear in the duplicated-doc count, which on a
pathologically duplicated 100 TB corpus is unbounded. So past
``dedup._INVOLVED_IDS_LIMIT`` ids ``score_pairs`` uses this module's
bounded alternative: a Bloom bitmap of FIXED size (default 2^27 bits =
16 MB) built from the pair stream with per-batch combiners, broadcast
once via ``ray.put``.

False positives only ADMIT extra docs into the narrow re-scan — pairs
look up only their own ids, so results are identical (equivalence
pinned by tests); the FP rate only pads the re-scan cost (at 10 M
involved ids, 2^27 bits / 4 hashes ≈ 0.8% FP). False negatives are
impossible, so recall is unaffected.

Hashing: splitmix64 finalizer + Kirsch-Mitzenmacher double hashing
(public-domain constructions)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

_SEED1 = np.uint64(0x243F6A8885A308D3)  # pi digits — nothing up the sleeve
_SEED2 = np.uint64(0x13198A2E03707344)


def _mix64(x: np.ndarray, seed: np.uint64) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 wrap-around semantics)."""
    z = x + seed + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bit_indices(ids: np.ndarray, m_bits: int, n_hashes: int) -> np.ndarray:
    """k bit positions per id (double hashing: h1 + j*h2 mod m)."""
    u = ids.astype(np.uint64)
    h1 = _mix64(u, _SEED1)
    h2 = _mix64(u, _SEED2) | np.uint64(1)  # odd → full-period stride
    j = np.arange(n_hashes, dtype=np.uint64)
    return ((h1[:, None] + j[None, :] * h2[:, None]) % np.uint64(m_bits)).ravel()


def build_id_bloom(
    pairs: ray.data.Dataset,
    cols: list[str],
    *,
    m_bits: int = 1 << 27,
    n_hashes: int = 4,
) -> np.ndarray:
    """Bloom bitmap of every id appearing in any of ``cols``.

    Map side emits each batch's DISTINCT bit indices (a combiner — at
    most k per unique id, deduped per batch); the driver ORs them into
    the fixed bitmap. Driver bandwidth stays linear in involved ids
    (as the exact list was) but resident memory is ``m_bits/8`` bytes
    regardless of how duplicated the corpus is."""
    assert m_bits % 64 == 0

    def bits(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"_b": pa.array([], pa.int64())})
        ids = np.unique(
            np.concatenate(
                [t[c].to_numpy(zero_copy_only=False).astype(np.int64) for c in cols]
            )
        )
        idx = np.unique(_bit_indices(ids, m_bits, n_hashes))
        return pa.table({"_b": pa.array(idx.astype(np.int64), pa.int64())})

    bm = np.zeros(m_bits // 64, np.uint64)
    for b in pairs.map_batches(bits, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        i = b["_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        np.bitwise_or.at(bm, (i >> np.uint64(6)).astype(np.int64), np.uint64(1) << (i & np.uint64(63)))
    return bm


def bloom_contains(bm: np.ndarray, ids: np.ndarray, *, n_hashes: int = 4) -> np.ndarray:
    """Vectorized membership test (no false negatives)."""
    m_bits = len(bm) * 64
    idx = _bit_indices(ids, m_bits, n_hashes).reshape(len(ids), n_hashes)
    word = bm[(idx >> np.uint64(6)).astype(np.int64)]
    hit = (word >> (idx & np.uint64(63))) & np.uint64(1)
    return hit.all(axis=1)


def bloom_filter_ids(
    ds: ray.data.Dataset,
    bm: np.ndarray,
    *,
    id_col: str,
    n_hashes: int = 4,
) -> ray.data.Dataset:
    """Filter ``ds`` to rows whose ``id_col`` is (probably) in the
    bloom — the fixed-memory replacement for a broadcast ``pc.is_in``
    id-set filter. The bitmap ships ONCE via ``ray.put``; each task
    reads it zero-copy from the object store."""
    ref = ray.put(bm)

    def f(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        b = ray.get(ref)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(bloom_contains(b, ids, n_hashes=n_hashes)))

    return ds.map_batches(f, batch_format="pyarrow")
