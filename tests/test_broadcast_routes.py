"""One broadcast bound for every small-side router: each operator that
ships a small side to its workers pulls it through
``joins._pull_bounded`` (or, for the LM artifact, compares its on-disk
bytes) under ``joins._BROADCAST_PAYLOAD_BYTES`` and logs the route it
took. At the default bound every operator here broadcasts; at a bound
of 0 each logs the exchange route, and an operator with no exchange
route of its own refuses with an error that names one."""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from fineweb2_ro_ray.stages import joins

DOCS = pa.table(
    {
        "doc_id": pa.array(range(6), pa.int64()),
        "text": [
            "nav home about\nalpha beta gamma delta",
            "nav home about\nalpha beta gamma delta",
            "nav home about\nepsilon zeta eta theta",
            "iota kappa lambda mu",
            "alpha beta gamma delta epsilon",
            None,
        ],
    }
)


def _editdist(tmp_path):
    from fineweb2_ro_ray.stages.editdist import editdistance_pairs_distributed

    return editdistance_pairs_distributed(rd.from_arrow(DOCS), max_dist=4).to_pandas()


def _validate(tmp_path):
    from fineweb2_ro_ray.stages.expectations import foreign_key, validate

    ref = rd.range(100).map_batches(lambda b: pa.table({"k": b["id"]}), batch_format="pyarrow")
    return validate(rd.from_arrow(DOCS), [foreign_key("doc_id", ref, "k")])


def _broadcast_join(tmp_path):
    from fineweb2_ro_ray.stages.joins import broadcast_join

    right = rd.from_arrow(pa.table({"rk": pa.array([1, 3], pa.int64()), "rv": [7, 8]}))
    return broadcast_join(rd.from_arrow(DOCS), right, key="doc_id", right_key="rk").to_pandas()


def _semdedup(tmp_path):
    from fineweb2_ro_ray.stages.semdedup import semdedup_filter

    x = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(4), pa.int64()),
                "embedding": pa.array(list(x), pa.list_(pa.float64())),
            }
        )
    )
    return semdedup_filter(ds, x[:1], tau=0.95).to_pandas()


def _spans(tmp_path):
    from fineweb2_ro_ray.stages.spans import remove_duplicate_spans

    return remove_duplicate_spans(rd.from_arrow(DOCS), k=2).to_pandas()


def _boilerplate(tmp_path):
    from fineweb2_ro_ray.stages.boilerplate import remove_frequent_units

    return remove_frequent_units(rd.from_arrow(DOCS)).to_pandas()


def _lm_artifact(tmp_path):
    from fineweb2_ro_ray.stages.lm import save_lm_artifact, score_word_bigram_artifact

    path = str(tmp_path / "lm")
    save_lm_artifact(rd.from_arrow(DOCS), path, min_count=1, n_parts=2)
    return score_word_bigram_artifact(rd.from_arrow(DOCS), path).to_pandas()


# operator -> (its run, the error it refuses with past the bound, or
# None where it runs its own exchange route)
OPERATORS = {
    "editdistance_pairs_distributed": (_editdist, None),
    "validate": (_validate, ValueError),
    "broadcast_join": (_broadcast_join, ValueError),
    "semdedup_filter": (_semdedup, None),
    "remove_duplicate_spans": (_spans, None),
    "remove_frequent_units": (_boilerplate, None),
    "score_word_bigram_artifact": (_lm_artifact, NotImplementedError),
}


def _route_lines(caplog, op: str) -> list[str]:
    return [
        r.getMessage()
        for r in caplog.records
        if r.name == "fineweb2_ro_ray" and r.getMessage().startswith(f"{op}: ")
    ]


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_broadcast_routes_are_logged(ray_session, op, monkeypatch, caplog, tmp_path):
    run, refusal = OPERATORS[op]
    caplog.set_level(logging.INFO, logger="fineweb2_ro_ray")
    bound = joins._BROADCAST_PAYLOAD_BYTES
    run(tmp_path / "default")
    lines = _route_lines(caplog, op)
    assert lines and all(
        ln.startswith(f"{op}: broadcast route") and ln.endswith(f"bound {bound} bytes")
        for ln in lines
    ), lines

    monkeypatch.setattr(joins, "_BROADCAST_PAYLOAD_BYTES", 0)
    caplog.clear()
    if refusal is None:
        run(tmp_path / "zero")
    else:
        with pytest.raises(refusal):
            run(tmp_path / "zero")
    lines = _route_lines(caplog, op)
    assert lines and all(
        ln.startswith(f"{op}: exchange route") and ln.endswith("bound 0 bytes") for ln in lines
    ), lines


def test_the_bound_lives_in_joins_only(monkeypatch):
    """Forcing a route means patching ``joins``: a stale patch of the
    bound on ``dedup`` fails instead of silently forcing nothing."""
    from fineweb2_ro_ray.stages import dedup

    with pytest.raises(AttributeError):
        monkeypatch.setattr(dedup, "_BROADCAST_PAYLOAD_BYTES", 0)
