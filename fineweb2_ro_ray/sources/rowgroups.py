"""Row-group-granular Parquet source: one Ray read task per row group.

The reference's unit of parallelism and recovery is the input shard
(SURVEY.md §1.1, §4). Here it is the Parquet row group: the footers are
read once on the driver, and every row group becomes one ``ReadTask``
that yields its (pruned) columns in batches of at most
:data:`BATCH_ROWS` rows, cast to one declared metadata-free schema
(:func:`..schema.clean_parquet_schema`), so a pandas-written file's
``b'pandas'`` blob never reaches a block.

Ray fuses a read with the maps that follow it when they set no
``batch_size``: the flagship's read, annotate and thin steps run as one
task per row group, and the raw text block never passes through the
object store.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from ..schema import clean_parquet_schema

# rows per yielded batch: the annotate kernel's batch size
BATCH_ROWS = 4096


def list_parquet(path: str | list[str]) -> list[str]:
    """The Parquet files of a file, a directory (its ``*.parquet``
    files, sorted by name, not recursive) or a list of either."""
    files: list[str] = []
    for p in path if isinstance(path, list) else [path]:
        if os.path.isdir(p):
            files += [
                os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".parquet")
            ]
        else:
            files.append(p)
    return files


def _read_row_group(path: str, index: int, columns: list[str] | None, schema: pa.Schema):
    f = pq.ParquetFile(path)
    for rb in f.iter_batches(
        batch_size=BATCH_ROWS, row_groups=[index], columns=columns, use_threads=False
    ):
        yield pa.Table.from_batches([rb]).cast(schema)


class RowGroupDatasource(Datasource):
    """One read task per non-empty row group of ``path``'s Parquet
    files, in file then row-group order; a source with no rows at all
    reads as one typed empty table. ``files`` are the listed files;
    ``max_task_bytes`` is the largest row group's uncompressed size of
    the read columns, from the footers."""

    def __init__(self, path: str | list[str], columns: list[str] | None = None):
        self.files = list_parquet(path)
        self.schema = clean_parquet_schema(self.files, columns)
        self._columns = columns
        names = set(self.schema.names)
        self._groups: list[tuple[str, int, int, int]] = []  # file, index, rows, bytes
        for f in self.files:
            md = pq.read_metadata(f)
            for i in range(md.num_row_groups):
                rg = md.row_group(i)
                if rg.num_rows:
                    nbytes = sum(
                        c.total_uncompressed_size
                        for c in map(rg.column, range(rg.num_columns))
                        if c.path_in_schema.split(".")[0] in names
                    )
                    self._groups.append((f, i, rg.num_rows, nbytes))
        self.max_task_bytes = max((g[3] for g in self._groups), default=0)

    @property
    def num_tasks(self) -> int:
        return max(1, len(self._groups))

    def estimate_inmemory_data_size(self) -> int:
        return sum(g[3] for g in self._groups)

    def get_read_tasks(self, _parallelism: int) -> list[ReadTask]:
        schema = self.schema
        if not self._groups:
            return [
                ReadTask(
                    lambda: [schema.empty_table()],
                    BlockMetadata(num_rows=0, size_bytes=0, input_files=None, exec_stats=None),
                    schema=schema,
                )
            ]
        cols = self._columns
        return [
            ReadTask(
                lambda f=f, i=i: _read_row_group(f, i, cols, schema),
                BlockMetadata(num_rows=n, size_bytes=b, input_files=[f], exec_stats=None),
                schema=schema,
            )
            for f, i, n, b in self._groups
        ]


def read_row_groups(path: str | list[str], columns: list[str] | None = None) -> ray.data.Dataset:
    """Read ``path`` with :class:`RowGroupDatasource`.

    The block count is pinned to the task count, so Ray does not split
    a task's output to meet its default read parallelism. The Dataset's
    own context copy (never the process-global one) gets a per-task
    output bound of twice the largest row group (annotate adds a
    scrubbed copy of the text): the streaming executor assumes
    ``target_max_block_size`` (128 MiB by default) per task until a
    task's output size is known, which would launch one fused task at
    a time."""
    src = RowGroupDatasource(path, columns)
    ds = ray.data.read_datasource(src, override_num_blocks=src.num_tasks)
    if src.max_task_bytes:
        ds.context.target_max_block_size = 2 * src.max_task_bytes
    return ds
