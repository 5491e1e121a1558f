"""Publishing-side privacy operators — the release-gate counterparts
of the ingest-side PII scrub (`functions/scrub.py`, `functions/pii.py`).

Before a corpus (or its event logs) leaves the curation loop, two
standard operations run:

- **Pseudonymization**: stable keyed identifier replacement —
  ``md5(salt || id)`` — so longitudinal joins still work (same input →
  same token, across tables and runs with the same salt) but raw ids
  never ship. One Arrow-vectorized hash per batch, zero shuffle,
  SQL-mirrorable (``md5(salt || CAST(id AS VARCHAR))``).
- **k-anonymity audit**: every quasi-identifier combination must be
  shared by ≥ k rows; groups under k are the re-identification risk
  surface. Thin (qi…, n) partials + one keyed exchange — the report is
  the suppressed-group list with counts.

md5 here is a PSEUDONYMIZATION token, not a security boundary (a salt
leak allows brute-forcing small id spaces — documented trade; swap in
a keyed PRF offline if the threat model needs it).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages.exchange import exchange_aggregate


def pseudonymize(
    col: pa.Array | pa.ChunkedArray, salt: str
) -> pa.Array:
    """Stable keyed token per value: hex md5 of ``salt || str(value)``.
    NULL stays NULL (nothing to protect, nothing to join)."""
    import hashlib

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    s = pc.cast(col, pa.string())
    # hashlib per distinct value via dictionary-encode: cost scales
    # with batch-distinct ids, not rows
    dic = s.dictionary_encode()
    toks = [
        hashlib.md5((salt + v).encode("utf-8")).hexdigest()
        if v is not None
        else None
        for v in dic.dictionary.to_pylist()
    ]
    out = pc.take(pa.array(toks, pa.string()), dic.indices)
    return out


def k_anonymity_report(
    ds: ray.data.Dataset, qi_cols: list[str], k: int
) -> ray.data.Dataset:
    """Quasi-identifier groups with FEWER than ``k`` rows (the rows a
    release would need to suppress or generalize): ``exchange_aggregate``
    counts each group, then the under-k groups are kept. Output
    ``(*qi_cols, n)``."""
    out_schema = pa.schema(
        [(c, pa.string()) for c in qi_cols] + [("n", pa.int64())]
    )
    counts = exchange_aggregate(
        ds.select_columns(qi_cols), qi_cols, [(None, "size", "n")], out_schema=out_schema
    )
    return counts.map_batches(
        lambda t: t.filter(pc.less(t["n"], k)), batch_format="pyarrow"
    )
