"""Disk-segment exchange mode (Spark-ESS-style map output files):
output equality vs the object-store wiring on every shape the exchange
supports, file-format invariants (atomicity — no .tmp leftovers;
offset index consistency), empty-partition schema recovery, and fault
tolerance (SIGKILL of a split and of a reduce worker mid-run).

The segment mode exists to collapse the driver's transient slice-ref
matrix to M + P (no M x P term at any scale); locally it never
auto-enables — these tests force it via the ``segment_dir`` parameter
/ ``FW2_EXCHANGE_SEGMENT_DIR`` env and assert bit-equality with the
default wiring.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from fineweb2_ro_ray.stages import exchange
from fineweb2_ro_ray.stages.exchange import aggregate_table, hash_exchange_map_groups


def _mk_ds(n_rows: int = 5000, n_keys: int = 37, seed: int = 3) -> rd.Dataset:
    rng = np.random.default_rng(seed)
    t = pa.table(
        {
            "k": pa.array(
                [f"key-{i}" for i in rng.integers(0, n_keys, n_rows)]
            ),
            "g": pa.array(rng.integers(0, 5, n_rows).astype(np.int64)),
            "v": pa.array(rng.normal(size=n_rows)),
        }
    )
    return rd.from_arrow(t).repartition(40)


def _mk_aggs():
    def agg_pa(t: pa.Table) -> pa.Table:
        g = t.group_by("k").aggregate([("v", "sum"), ("v", "count")])
        return g.select(["k", "v_sum", "v_count"]).sort_by("k")

    def agg_kg(t: pa.Table) -> pa.Table:
        return aggregate_table(t, ["k", "g"], [("v", "sum", "v")])

    return agg_pa, agg_kg


def _collect(ds: rd.Dataset, by: list[str]) -> pd.DataFrame:
    return ds.to_pandas().sort_values(by).reset_index(drop=True)


def test_segment_equals_objectstore_all_shapes(ray_session, monkeypatch, tmp_path):
    monkeypatch.setenv("FW2_EXCHANGE_SPLIT_BYTES", "1")  # many map groups
    ds = _mk_ds()
    agg_pa, agg_kg = _mk_aggs()
    seg = str(tmp_path / "segs")

    # pyarrow body, pinned schema, single string key
    schema = pa.schema(
        [("k", pa.string()), ("v_sum", pa.float64()), ("v_count", pa.int64())]
    )
    base = _collect(
        hash_exchange_map_groups(
            ds, agg_pa, key="k", n_reducers=13, out_schema=schema,
        ),
        ["k"],
    )
    assert len(base) == 37
    got = _collect(
        hash_exchange_map_groups(
            ds, agg_pa, key="k", n_reducers=13, out_schema=schema,
            segment_dir=seg,
        ),
        ["k"],
    )
    pd.testing.assert_frame_equal(got, base)

    # multi-column body, NO pinned schema (row-count sync path), multi-col
    # key, empty partitions (n_reducers >> key cardinality)
    base2 = _collect(
        hash_exchange_map_groups(ds, agg_kg, key=["k", "g"], n_reducers=64),
        ["k", "g"],
    )
    got2 = _collect(
        hash_exchange_map_groups(
            ds, agg_kg, key=["k", "g"], n_reducers=64, segment_dir=seg
        ),
        ["k", "g"],
    )
    pd.testing.assert_frame_equal(got2, base2)

    # deferred mode too (byte-auto-sized reducers)
    got3 = _collect(
        hash_exchange_map_groups(
            ds, agg_kg, key=["k", "g"], segment_dir=seg
        ),
        ["k", "g"],
    )
    pd.testing.assert_frame_equal(got3, base2)

    # file invariants: every exchange left only seg-*.data(+.idx), no
    # .tmp orphans, and every .idx is a monotone int64 offset array
    # whose last entry equals the data file size
    for root, _dirs, files in os.walk(seg):
        for f in files:
            assert not f.startswith(".tmp-"), f"orphan tmp file {f}"
        for f in files:
            if f.endswith(".data"):
                idx = np.fromfile(
                    os.path.join(root, f + ".idx"), dtype="<i8"
                )
                assert (np.diff(idx) >= 0).all()
                assert idx[-1] == os.path.getsize(os.path.join(root, f))


def test_segment_env_var_switches_engine(ray_session, monkeypatch, tmp_path):
    """FW2_EXCHANGE_SEGMENT_DIR routes exchanges through segment files
    without any call-site change (the engine-wide switch)."""
    ds = _mk_ds(n_rows=800, n_keys=11)
    agg_pa, _ = _mk_aggs()
    schema = pa.schema(
        [("k", pa.string()), ("v_sum", pa.float64()), ("v_count", pa.int64())]
    )
    base = _collect(
        hash_exchange_map_groups(
            ds, agg_pa, key="k", n_reducers=5, out_schema=schema,
        ),
        ["k"],
    )
    monkeypatch.setenv("FW2_EXCHANGE_SEGMENT_DIR", str(tmp_path / "env_segs"))
    got = _collect(
        hash_exchange_map_groups(
            ds, agg_pa, key="k", n_reducers=5, out_schema=schema,
        ),
        ["k"],
    )
    pd.testing.assert_frame_equal(got, base)
    # segments were actually written
    sub = os.listdir(tmp_path / "env_segs")
    assert sub and any(s.startswith("exch-") for s in sub)


def test_segment_all_empty_partition_keeps_schema(ray_session, tmp_path):
    """A partition whose every slice is empty reconstructs a 0-row
    table with the TRUE schema from the segment's leading schema-only
    stream (unpinned-schema path)."""
    t = pa.table({"k": pa.array(["a", "a", "b"]), "v": [1.0, 2.0, 3.0]})
    ds = rd.from_arrow(t)

    def ident(t: pa.Table) -> pa.Table:
        return t

    out = hash_exchange_map_groups(
        ds, ident, key="k", n_reducers=32, segment_dir=str(tmp_path)
    )
    got = out.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    assert list(got["k"]) == ["a", "a", "b"]
    assert list(got["v"]) == [1.0, 2.0, 3.0]


def test_segment_fault_injection(ray_session, monkeypatch, tmp_path):
    """SIGKILL one split worker and (separately) one reduce worker
    mid-run: task retry reproduces the clean output exactly. A killed
    split leaves at most a .tmp orphan (never a half-visible segment);
    its retry writes a fresh uuid file."""
    monkeypatch.setenv("FW2_EXCHANGE_SPLIT_BYTES", "1")
    ds = _mk_ds(n_rows=2000, n_keys=23, seed=7)
    agg_pa, _ = _mk_aggs()
    schema = pa.schema(
        [("k", pa.string()), ("v_sum", pa.float64()), ("v_count", pa.int64())]
    )

    def run(seg: str) -> pd.DataFrame:
        return _collect(
            hash_exchange_map_groups(
                ds, agg_pa, key="k", n_reducers=9, out_schema=schema,
                segment_dir=seg,
            ),
            ["k"],
        )

    clean = run(str(tmp_path / "clean"))
    for stage in ("split", "reduce"):
        marker = str(tmp_path / f"fp-{stage}")
        monkeypatch.setattr(
            exchange, "_TEST_FAILPOINT", (stage, marker), raising=True
        )
        try:
            got = run(str(tmp_path / f"faulty-{stage}"))
        finally:
            monkeypatch.setattr(exchange, "_TEST_FAILPOINT", None, raising=True)
        assert os.path.exists(marker), f"failpoint for {stage} never fired"
        pd.testing.assert_frame_equal(got, clean)
    # no half-visible segment: every visible .data has a matching .idx
    for root, _dirs, files in os.walk(tmp_path):
        names = set(files)
        for f in files:
            if f.endswith(".data") and not f.startswith(".tmp-"):
                assert f + ".idx" in names


def test_segment_env_forced_flagship_identical(ray_session, monkeypatch, tmp_path):
    """FW2_EXCHANGE_SEGMENT_DIR routes EVERY wide op in the flagship
    through segment files; output must equal the default run."""
    import pandas as _pd

    from fineweb2_ro_ray.pipelines.quality_filter import (
        annotate,
        read_transcripts,
        reassemble,
    )
    from fineweb2_ro_ray.sources.synth import write_transcripts

    src = str(tmp_path / "in")
    write_transcripts(src, 150, seed=11)

    def run() -> _pd.DataFrame:
        out = reassemble(annotate(read_transcripts(src))).to_pandas()
        return out.sort_values("conv_id").reset_index(drop=True)

    clean = run()
    assert len(clean) == 150
    monkeypatch.setenv("FW2_EXCHANGE_SEGMENT_DIR", str(tmp_path / "segs"))
    monkeypatch.setenv("FW2_EXCHANGE_SPLIT_BYTES", "65536")
    _pd.testing.assert_frame_equal(run(), clean)


def test_segment_merge_parts_rule():
    """Auto rule: consolidate only past M > F; force/off/width envs."""
    from fineweb2_ro_ray.stages.exchange import _segment_merge_parts

    env = os.environ
    saved = {
        k: env.pop(k, None)
        for k in ("FW2_EXCHANGE_SEGMENT_MERGE", "FW2_EXCHANGE_SEGMENT_MERGE_PARTS")
    }
    try:
        assert _segment_merge_parts(10, 100, 64) == 0  # M <= F: off
        assert _segment_merge_parts(64, 100, 64) == 0
        assert _segment_merge_parts(65, 100, 64) == 64  # R defaults to F
        assert _segment_merge_parts(65, 9, 64) == 9  # R clamped to P
        env["FW2_EXCHANGE_SEGMENT_MERGE"] = "1"
        assert _segment_merge_parts(2, 100, 64) == 64  # forced at any M
        env["FW2_EXCHANGE_SEGMENT_MERGE_PARTS"] = "7"
        assert _segment_merge_parts(2, 100, 64) == 7
        env["FW2_EXCHANGE_SEGMENT_MERGE"] = "0"
        assert _segment_merge_parts(10**6, 10**5, 64) == 0  # disabled
    finally:
        for k, v in saved.items():
            env.pop(k, None)
            if v is not None:
                env[k] = v


def test_segment_pushmerge_equals_unmerged(ray_session, monkeypatch, tmp_path):
    """Forced push-merge consolidation (every R width, R > P included)
    is bit-equal to the unmerged segment wiring on every exchange
    shape, and actually writes merged (mseg-*) files that the reducers
    read instead of the map segments."""
    monkeypatch.setenv("FW2_EXCHANGE_SPLIT_BYTES", "1")  # many map groups
    ds = _mk_ds()
    agg_pa, agg_kg = _mk_aggs()
    schema = pa.schema(
        [("k", pa.string()), ("v_sum", pa.float64()), ("v_count", pa.int64())]
    )
    base = _collect(
        hash_exchange_map_groups(
            ds, agg_pa, key="k", n_reducers=13, out_schema=schema,
            segment_dir=str(tmp_path / "plain"),
        ),
        ["k"],
    )
    base2 = _collect(
        hash_exchange_map_groups(
            ds, agg_kg, key=["k", "g"], n_reducers=64,
            segment_dir=str(tmp_path / "plain"),
        ),
        ["k", "g"],
    )
    monkeypatch.setenv("FW2_EXCHANGE_SEGMENT_MERGE", "1")
    for r in ("1", "3", "64", "1000"):  # 1000 > any P here
        monkeypatch.setenv("FW2_EXCHANGE_SEGMENT_MERGE_PARTS", r)
        seg = str(tmp_path / f"merged-{r}")
        got = _collect(
            hash_exchange_map_groups(
                ds, agg_pa, key="k", n_reducers=13, out_schema=schema,
                segment_dir=seg,
            ),
            ["k"],
        )
        pd.testing.assert_frame_equal(got, base)
        got2 = _collect(
            hash_exchange_map_groups(
                ds, agg_kg, key=["k", "g"], n_reducers=64, segment_dir=seg
            ),
            ["k", "g"],
        )
        pd.testing.assert_frame_equal(got2, base2)
        files = [
            f
            for _root, _d, fs in os.walk(seg)
            for f in fs
            if f.endswith(".data")
        ]
        n_mseg = sum(f.startswith("mseg-") for f in files)
        # 2 exchanges ran; P=13 and P=64 -> ceil(P/min(R,P)) merged
        # files each (R clamps to P)
        assert n_mseg == -(-13 // min(int(r), 13)) + -(-64 // min(int(r), 64))
        # merged files carry offset indexes like any segment
        for _root, _d, fs in os.walk(seg):
            for f in fs:
                assert not f.startswith(".tmp-")
                if f.endswith(".data"):
                    assert f + ".idx" in fs


def test_segment_pushmerge_empty_partitions_and_schema(ray_session, monkeypatch, tmp_path):
    """All-empty partitions inside a merged range reconstruct the true
    schema from the merged file's prologue (unpinned-schema path)."""
    monkeypatch.setenv("FW2_EXCHANGE_SEGMENT_MERGE", "1")
    monkeypatch.setenv("FW2_EXCHANGE_SEGMENT_MERGE_PARTS", "5")
    t = pa.table({"k": pa.array(["a", "a", "b"]), "v": [1.0, 2.0, 3.0]})
    ds = rd.from_arrow(t)

    def ident(t: pa.Table) -> pa.Table:
        return t

    out = hash_exchange_map_groups(
        ds, ident, key="k", n_reducers=32, segment_dir=str(tmp_path)
    )
    got = out.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    assert list(got["k"]) == ["a", "a", "b"]
    assert list(got["v"]) == [1.0, 2.0, 3.0]


def test_segment_pushmerge_fault_injection(ray_session, monkeypatch, tmp_path):
    """SIGKILL one merger worker mid-consolidation: Ray's task retry
    re-reads the map segments and writes a fresh merged file; output is
    bit-identical and no half-visible merged file remains."""
    monkeypatch.setenv("FW2_EXCHANGE_SPLIT_BYTES", "1")
    monkeypatch.setenv("FW2_EXCHANGE_SEGMENT_MERGE", "1")
    monkeypatch.setenv("FW2_EXCHANGE_SEGMENT_MERGE_PARTS", "4")
    ds = _mk_ds(n_rows=2000, n_keys=23, seed=7)
    agg_pa, _ = _mk_aggs()
    schema = pa.schema(
        [("k", pa.string()), ("v_sum", pa.float64()), ("v_count", pa.int64())]
    )

    def run(seg: str) -> pd.DataFrame:
        return _collect(
            hash_exchange_map_groups(
                ds, agg_pa, key="k", n_reducers=9, out_schema=schema,
                segment_dir=seg,
            ),
            ["k"],
        )

    clean = run(str(tmp_path / "clean"))
    marker = str(tmp_path / "fp-segmerge")
    monkeypatch.setattr(
        exchange, "_TEST_FAILPOINT", ("segmerge", marker), raising=True
    )
    try:
        got = run(str(tmp_path / "faulty"))
    finally:
        monkeypatch.setattr(exchange, "_TEST_FAILPOINT", None, raising=True)
    assert os.path.exists(marker), "segmerge failpoint never fired"
    pd.testing.assert_frame_equal(got, clean)
    for root, _dirs, files in os.walk(tmp_path):
        names = set(files)
        for f in files:
            if f.endswith(".data") and not f.startswith(".tmp-"):
                assert f + ".idx" in names
