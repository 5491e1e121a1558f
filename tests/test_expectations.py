"""Expectations suite: each check's failure path on a deliberately
dirty table, exact metrics, FK broadcast-limit refusal, batch-layout
invariance."""

from __future__ import annotations

import pyarrow as pa
import pytest

import ray.data

from fineweb2_ro_ray.stages import joins
from fineweb2_ro_ray.stages.expectations import (
    foreign_key,
    in_range,
    not_null,
    unique,
    validate,
)

DIRTY = pa.table(
    {
        "id": [1, 2, 2, 3, 3, 3, 4, 5],          # dup: 2×2, 3×3 -> extra 3
        "text": ["a", None, "c", None, "e", "f", "g", None],  # 3/8 null
        "n": [5, -1, 10, 99, 200, 7, None, 3],    # -1 and 200 out of [0,100]
        "fk": [10, 10, 11, 99, None, 12, 10, 98], # 99, 98 orphaned
    }
)
REF = pa.table({"k": [10, 11, 12, 13]})


def _run(nblocks: int):
    ds = ray.data.from_arrow(DIRTY).repartition(nblocks)
    ref = ray.data.from_arrow(REF)
    return validate(
        ds,
        [
            not_null("text", 0.25),
            unique("id"),
            in_range("n", 0, 100),
            foreign_key("fk", ref, "k"),
        ],
    )


@pytest.mark.parametrize("nblocks", [1, 4])
def test_dirty_table_metrics(nblocks):
    rep = _run(nblocks)
    rows = {(r.check, r.column): (r.metric, r.passed) for r in rep.itertuples()}
    assert rows[("not_null(max_frac=0.25)", "text")] == (3 / 8, False)
    assert rows[("unique", "id")] == (3.0, False)
    assert rows[("in_range[0, 100]", "n")] == (2.0, False)  # NULL n ok
    assert rows[("foreign_key", "fk")] == (2.0, False)      # NULL fk ok
    # order preserved as declared
    assert rep["check"].tolist()[0].startswith("not_null")


def test_clean_table_passes():
    clean = pa.table({"id": [1, 2], "v": [0, 100]})
    rep = validate(
        ray.data.from_arrow(clean), [unique("id"), in_range("v", 0, 100)]
    )
    assert rep.passed.all() and rep.metric.tolist() == [0.0, 0.0]


def test_fk_broadcast_limit_refusal(monkeypatch, caplog):
    """Past the broadcast bound the check refuses, and the reference's
    distinct values stop being pulled at the first block past it:
    fewer rows reach the driver than the reference's 100 values."""
    import logging

    big = ray.data.range(100).map_batches(
        lambda b: pa.table({"k": b["id"]}), batch_format="pyarrow"
    )
    monkeypatch.setattr(joins, "_BROADCAST_PAYLOAD_BYTES", 0)
    caplog.set_level(logging.INFO, logger="fineweb2_ro_ray")
    with pytest.raises(ValueError, match="broadcast limit.*stages.bloom"):
        validate(ray.data.from_arrow(DIRTY), [foreign_key("fk", big, "k")])
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("validate: ")]
    pulled = int(line.split(", ")[1].split(" rows")[0])
    assert 0 < pulled < 100, line
