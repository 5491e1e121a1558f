"""Golden end-to-end tests: Ray Data pipeline vs the frozen pure-Python
oracle — the reference's golden-comparison pattern
(``/root/reference/small_model_inference/test.py:18-47``), joined on
``(conv_id, turn_idx)`` with keep/drop F1 >= 0.99 and byte-exact
scrubbed text (BASELINE.md acceptance gates)."""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

import ray.data

from fineweb2_ro_ray.pipelines.quality_filter import (
    annotate,
    filter_kept,
    read_transcripts,
    reassemble,
    run_flagship,
)
from fineweb2_ro_ray.schema import CONVERSATION_SCHEMA, LABELED_SCHEMA


def _labeled_df(golden_path) -> pd.DataFrame:
    ds = annotate(read_transcripts(golden_path), batch_size=1024)
    df = ds.to_pandas()
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def test_golden_f1_and_scrub(golden_path, golden_labeled):
    eng = _labeled_df(golden_path)
    orc = (
        golden_labeled.to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    assert len(eng) == len(orc)
    assert (eng["conv_id"].values == orc["conv_id"].values).all()
    assert (eng["turn_idx"].values == orc["turn_idx"].values).all()

    # keep/drop F1 (gate >= 0.99; engine is designed to hit 1.0)
    e, o = eng["keep"].values, orc["keep"].values
    tp = int((e & o).sum())
    fp = int((e & ~o).sum())
    fn = int((~e & o).sum())
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.99, f1

    # byte-exact scrubbed text + exact drop attribution
    assert (eng["scrubbed_text"].values == orc["scrubbed_text"].values).all()
    assert (eng["drop_reason"].values == orc["drop_reason"].values).all()
    assert (eng["lang"].values == orc["lang"].values).all()
    assert np.allclose(eng["ppl"].values, orc["ppl"].values, rtol=1e-9)
    assert (eng["pii_hits"].values == orc["pii_hits"].values).all()


def test_determinism_across_parallelism(golden_path):
    """Same input → bit-identical labels regardless of batch size /
    block layout (SURVEY.md §7.3 step 4)."""
    a = _labeled_df(golden_path)
    ds = read_transcripts(golden_path).repartition(13)
    b = annotate(ds, batch_size=333).to_pandas()
    b = b.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    for col in ["keep", "drop_reason", "scrubbed_text", "lang", "lang_score", "ppl"]:
        assert (a[col].values == b[col].values).all(), col


def test_reassembly_ordering(golden_path):
    """Input rows are shuffled on disk; reassembled conversation text
    must follow turn_idx order."""
    ds = annotate(read_transcripts(golden_path), batch_size=2048)
    conv = reassemble(ds).to_pandas().set_index("conv_id")

    # oracle-side: per-conv kept scrubbed_text joined in turn order
    eng = ds.to_pandas().sort_values(["conv_id", "turn_idx"])
    kept = eng[eng["keep"]]
    expected = kept.groupby("conv_id")["scrubbed_text"].apply("\n".join)
    sizes = eng.groupby("conv_id").size()

    assert (conv["n_turns"].sort_index().values == sizes.sort_index().values).all()
    for cid, text in expected.items():
        assert conv.loc[cid, "text"] == text
    # conversations with zero kept turns produce empty text + conv_keep False
    empty = conv[conv["n_kept"] == 0]
    assert (~empty["conv_keep"]).all()
    assert (empty["text"] == "").all()


def test_filter_kept_counts(golden_path, golden_labeled):
    ds = annotate(read_transcripts(golden_path))
    n_kept = filter_kept(ds).count()
    assert n_kept == int(golden_labeled.to_pandas()["keep"].sum())


def test_skewed_hot_conversation_reassembly():
    """A pathologically hot conversation (50k turns, ~1000x median) must
    reassemble correctly and in order — the skew case SURVEY.md §7.4
    calls out."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from fineweb2_ro_ray.pipelines.quality_filter import annotate, reassemble

    n_hot, n_small = 50_000, 40
    rng = np.random.default_rng(5)
    rows = {"conv_id": [], "turn_idx": [], "role": [], "text": [], "tool": [], "ts": []}
    for cid, n in [("hot", n_hot)] + [(f"c{i}", 3) for i in range(n_small)]:
        for ti in range(n):
            rows["conv_id"].append(cid)
            rows["turn_idx"].append(ti)
            rows["role"].append("user")
            rows["text"].append(f"și de la cu pentru este turn {ti} al conversației {cid}")
            rows["tool"].append("")
            rows["ts"].append(ti)
    t = pa.table(
        {
            "conv_id": pa.array(rows["conv_id"]),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "role": pa.array(rows["role"]),
            "text": pa.array(rows["text"]),
            "tool": pa.array(rows["tool"]),
            "ts": pa.array(rows["ts"], pa.timestamp("us")),
        }
    )
    perm = rng.permutation(t.num_rows)
    t = t.take(pa.array(perm))
    conv = reassemble(annotate(rd.from_arrow(t))).to_pandas().set_index("conv_id")
    assert conv.loc["hot", "n_turns"] == n_hot
    # order check: the hot conversation's text lines follow turn_idx order
    lines = conv.loc["hot", "text"].split("\n")
    idx = [int(ln.rsplit("turn ", 1)[1].split(" ")[0]) for ln in lines]
    assert idx == sorted(idx)
    assert len(conv) == n_small + 1


def test_reassemble_precombine_equivalence(assert_conversations):
    """The map-side dropped-turn combiner changes the exchange, not the
    answer: reassembly equals the by-definition conversation table of
    the per-turn annotations, including conversations that are fully
    dropped, fully kept, and split across many small batches."""
    import ray.data as rd

    from fineweb2_ro_ray.pipelines.quality_filter import annotate, reassemble
    from fineweb2_ro_ray.sources.synth import write_transcripts

    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        write_transcripts(d, 150, seed=21)
        ds = rd.read_parquet(d)
        # tiny batch size so conversations straddle batch boundaries and
        # several per-conv meta partials must merge on the reduce side
        ann = annotate(ds, batch_size=64).materialize()
        got = reassemble(ann).to_pandas()
        assert len(got) == 150
        assert (~got["conv_keep"]).any() and got["conv_keep"].any()
        assert_conversations(got, ann.to_pandas())


def test_flagship_has_exactly_one_shuffle(assert_conversations):
    """Plan-shape invariant: the flagship DAG contains exactly ONE
    all-to-all exchange (conversation reassembly), the raw hash
    exchange, which runs as raw tasks outside the Dataset plan — so the
    plan holds no Sort and no Repartition at all. A regression that
    sneaks a second shuffle into the hot path (an accidental sort,
    repartition or non-broadcast join) fails here before it burns a
    100 TB run."""
    import ray.data as rd

    from fineweb2_ro_ray.pipelines.quality_filter import annotate, reassemble
    from fineweb2_ro_ray.sources.synth import write_transcripts

    import tempfile
    with tempfile.TemporaryDirectory() as d:
        write_transcripts(d, 40, seed=5)
        ann = annotate(rd.read_parquet(d))
        out = reassemble(ann).materialize()
        stats = out.stats()
        assert "Sort" not in stats and "Repartition" not in stats, stats
        got = out.to_pandas()
        assert len(got) == 40
        assert_conversations(got, ann.to_pandas())


def test_pipeline_ends_are_the_declared_schemas(golden_path):
    """``annotate`` emits LABELED_SCHEMA (transcript columns, then the
    engine's columns in stage order) and the flagship emits
    CONVERSATION_SCHEMA, field for field and type for type."""
    ann = annotate(read_transcripts(golden_path)).materialize()
    assert ann.schema().base_schema.equals(LABELED_SCHEMA)
    conv = run_flagship(golden_path).materialize()
    assert conv.schema().base_schema.equals(CONVERSATION_SCHEMA)
    assert conv.count() == 800


def test_transcript_wirings_never_probe_a_lazy_input(golden_path, monkeypatch):
    """Building and running the lazy transcript compositions never asks
    Ray for a schema it would have to execute the plan to learn, and
    the entry query's wiring gives the same conversations as the lazy
    composition."""
    import pyarrow as pa

    import ray
    import ray.data as rd

    real = rd.Dataset.schema
    fetched: list = []

    def spy(self, fetch_if_missing=True):
        if fetch_if_missing:
            fetched.append(self)
        return real(self, fetch_if_missing)

    monkeypatch.setattr(rd.Dataset, "schema", spy)
    lazy = reassemble(annotate(read_transcripts(golden_path))).materialize()
    flagship = run_flagship(golden_path).materialize()
    assert fetched == []
    monkeypatch.undo()

    def table(ds):
        return pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by("conv_id")

    a, b = table(lazy), table(flagship)
    assert a.num_rows == 800 and a.equals(b)


def test_flagship_fuses_read_annotate_thin(golden_path, tmp_path, monkeypatch):
    """On a file of three row groups, ``run_flagship`` runs ONE fused
    read → annotate → thin operator with one task per row group, and
    leaves the process-global ``DataContext`` block size as it was."""
    import pyarrow.parquet as pq
    from ray.data import DataContext

    import fineweb2_ro_ray.stages.exchange as EX

    path = str(tmp_path / "three_groups.parquet")
    t = pq.read_table(golden_path)
    pq.write_table(t, path, row_group_size=-(-t.num_rows // 3))
    assert pq.read_metadata(path).num_row_groups == 3
    before = DataContext.get_current().target_max_block_size
    real = EX.hash_exchange_map_groups
    thin: list = []

    def spy(ds, *a, **kw):
        thin.append(ds)
        return real(ds, *a, **kw)

    monkeypatch.setattr(EX, "hash_exchange_map_groups", spy)
    assert run_flagship(path).count() == 800
    ops = [line for line in thin[0].stats().splitlines() if line.startswith("Operator ")]
    assert len(ops) == 1, ops
    assert re.match(
        r"Operator \d+ ReadRowGroup->MapBatches\(_annotate_block\)"
        r"->MapBatches\(_thin_dropped\): 3 tasks executed",
        ops[0],
    ), ops[0]
    assert DataContext.get_current().target_max_block_size == before
