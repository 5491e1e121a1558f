"""Integer fixed-point PageRank (stages/pagerank.py): distributed
result must equal a sequential dict-based reference implementing the
same floored recurrence, across block layouts; duplicate input edges
must collapse; dangling nodes keep updating from the base term."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from fineweb2_ro_ray.stages.pagerank import SCALE, pagerank


def _ref(edges: list[tuple[int, int]], n_iters: int) -> dict[int, int]:
    e = sorted(set(edges))
    nodes = sorted({s for s, _ in e} | {d for _, d in e})
    out: dict[int, list[int]] = {}
    for s, d in e:
        out.setdefault(s, []).append(d)
    r = {v: SCALE for v in nodes}
    base = 15 * SCALE // 100
    for _ in range(n_iters):
        nxt = {v: base for v in nodes}
        for s, dsts in out.items():
            c = (85 * r[s]) // (100 * len(dsts))
            for d in dsts:
                nxt[d] += c
        r = nxt
    return r


def _run(edges: list[tuple[int, int]], n_iters: int, parts: int) -> dict[int, int]:
    t = pa.table(
        {
            "src": pa.array([s for s, _ in edges], pa.int64()),
            "dst": pa.array([d for _, d in edges], pa.int64()),
        }
    )
    got = (
        pagerank(rd.from_arrow(t).repartition(parts), n_iters=n_iters)
        .to_pandas()
    )
    return dict(zip(got["id"].astype(int), got["r"].astype(int)))


def test_pagerank_matches_reference(ray_session):
    rng = np.random.default_rng(5)
    edges = [
        (int(s), int(d))
        for s, d in zip(rng.integers(0, 40, 300), rng.integers(0, 40, 300))
        if s != d
    ]
    edges += edges[:50]  # duplicates must collapse to distinct edges
    ref = _ref(edges, 3)
    for parts in (1, 9):
        assert _run(edges, 3, parts) == ref


def test_pagerank_dangling_and_sources(ray_session):
    # 1 -> 2 -> 3 (3 dangling), 4 isolated-as-source: 4 -> 2
    edges = [(1, 2), (2, 3), (4, 2)]
    ref = _ref(edges, 4)
    got = _run(edges, 4, 2)
    assert got == ref
    base = 15 * SCALE // 100
    # nodes with no in-edges settle at the base term
    assert got[1] == base and got[4] == base
    # dangling node 3 still accumulates from 2
    assert got[3] > base


def test_pagerank_zero_and_many_iterations(ray_session):
    """``n_iters=0`` returns every node at SCALE; a longer run still
    equals the reference. Output columns are ``(id, r)`` either way."""
    edges = [(1, 2), (2, 3), (3, 1), (3, 4), (5, 1), (4, 6)]
    t = pa.table(
        {
            "src": pa.array([s for s, _ in edges], pa.int64()),
            "dst": pa.array([d for _, d in edges], pa.int64()),
        }
    )
    got0 = pagerank(rd.from_arrow(t), n_iters=0).to_pandas()
    assert list(got0.columns) == ["id", "r"]
    assert dict(zip(got0["id"].astype(int), got0["r"].astype(int))) == {
        v: SCALE for v in range(1, 7)
    }
    assert _run(edges, 7, 3) == _ref(edges, 7)


def test_pagerank_joins_never_probe_a_lazy_side(ray_session, monkeypatch):
    """Every side pagerank hands to ``hash_join`` has a schema Ray knows
    without executing anything. A lazy side makes the join's schema
    probe run it to its first block and cancel the rest of its tasks."""
    from fineweb2_ro_ray.stages import joins

    real = joins._arrow_schema
    probed: list = []

    def checked(ds):
        probed.append(ds.schema(fetch_if_missing=False))
        return real(ds)

    monkeypatch.setattr(joins, "_arrow_schema", checked)
    edges = [(1, 2), (2, 3), (4, 2), (3, 1)]
    assert _run(edges, 2, 2) == _ref(edges, 2)
    assert probed and all(s is not None for s in probed)
