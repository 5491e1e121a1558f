"""The row-group transcript reader returns exactly what
``ray.data.read_parquet(path, schema=clean_parquet_schema(first),
columns=...)`` returns, for a file, a directory, a list of files, a
pandas-written file, a pruned column list and a row group of more than
4,096 rows; a zero-row file reads as one typed empty table. Its read
tasks are one per row group and yield at most 4,096 rows at a time."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from fineweb2_ro_ray.pipelines.quality_filter import read_transcripts
from fineweb2_ro_ray.schema import TRANSCRIPT_SCHEMA, clean_parquet_schema
from fineweb2_ro_ray.sources.rowgroups import RowGroupDatasource, list_parquet

KEY = [("conv_id", "ascending"), ("turn_idx", "ascending")]


def _blocks(ds: ray.data.Dataset) -> list[pa.Table]:
    return ray.get(ds.to_arrow_refs())


def _table(ds: ray.data.Dataset) -> pa.Table:
    t = pa.concat_tables(_blocks(ds))
    return t.sort_by(KEY) if t.num_rows else t


def _assert_parity(path, columns=None):
    files = list_parquet(path)
    want = _table(
        ray.data.read_parquet(
            path, schema=clean_parquet_schema(files[0], columns), columns=columns
        )
    )
    got_ds = read_transcripts(path, columns)
    blocks = _blocks(got_ds)
    assert all(b.schema.metadata is None for b in blocks)
    got = _table(got_ds)
    assert got.schema.equals(want.schema, check_metadata=True)
    assert got.equals(want)
    return got


@pytest.fixture(scope="module")
def shards(tmp_path_factory, golden_path):
    """The golden transcripts as three files of uneven row groups."""
    d = str(tmp_path_factory.mktemp("rg_shards"))
    t = pq.read_table(golden_path)
    cuts = [0, 3000, 6500, t.num_rows]
    for i in range(3):
        pq.write_table(
            t.slice(cuts[i], cuts[i + 1] - cuts[i]),
            os.path.join(d, f"part-{i}.parquet"),
            row_group_size=1000 + 700 * i,
        )
    return d


def test_single_file(golden_path):
    got = _assert_parity(golden_path)
    assert got.num_rows == pq.read_metadata(golden_path).num_rows


def test_directory_and_list(shards):
    files = list_parquet(shards)
    assert [os.path.basename(f) for f in files] == [f"part-{i}.parquet" for i in range(3)]
    a = _assert_parity(shards)
    b = _assert_parity(files)
    assert a.equals(b)
    n_groups = sum(pq.read_metadata(f).num_row_groups for f in files)
    assert RowGroupDatasource(shards).num_tasks == n_groups
    assert len(RowGroupDatasource(files).get_read_tasks(1)) == n_groups


def test_pruned_columns(shards):
    cols = ["conv_id", "turn_idx", "role", "text", "ts"]
    got = _assert_parity(shards, cols)
    assert got.column_names == cols


def test_pandas_written_file(tmp_path, golden_path):
    path = str(tmp_path / "pandas.parquet")
    pq.read_table(golden_path).slice(0, 500).to_pandas().to_parquet(path, index=False)
    assert b"pandas" in pq.read_schema(path).metadata
    _assert_parity(path)
    _assert_parity(path, ["conv_id", "turn_idx", "text"])


def test_large_row_group_yields_bounded_batches(golden_path):
    """The golden file is one row group of 8,916 rows: its one read task
    yields batches of 4,096, 4,096 and 724 rows."""
    assert pq.read_metadata(golden_path).num_row_groups == 1
    (task,) = RowGroupDatasource(golden_path).get_read_tasks(1)
    assert [b.num_rows for b in task()] == [4096, 4096, 724]
    _assert_parity(golden_path)


def test_zero_row_file(tmp_path):
    """Zero rows either way; Ray's own read yields a schema-less empty
    block here, the row-group read a typed empty table."""
    path = str(tmp_path / "empty.parquet")
    pq.write_table(TRANSCRIPT_SCHEMA.empty_table(), path)
    want = ray.data.read_parquet(path, schema=clean_parquet_schema(path))
    assert want.count() == 0
    ds = read_transcripts(path)
    (block,) = _blocks(ds)
    assert block.num_rows == 0
    assert block.schema.equals(TRANSCRIPT_SCHEMA, check_metadata=True)
    assert ds.schema().base_schema.equals(TRANSCRIPT_SCHEMA)


def test_no_parquet_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_transcripts(str(tmp_path))
