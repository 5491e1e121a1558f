"""Edit-distance near-dup pairs (stages/editdist.py): exact-DP kernel
parity against a reference Wagner-Fischer implementation, gram
extraction on sliced/unicode/empty arrays, and end-to-end candidate
completeness + value exactness vs per-pair brute force (the same
byte-level semantics DuckDB's ``levenshtein`` oracle grades)."""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from fineweb2_ro_ray.stages.editdist import (
    _banded_lev_batch,
    _doc_gram_rows,
    editdistance_pairs_distributed,
)


def _ref_lev(a: bytes, b: bytes) -> int:
    la, lb = len(a), len(b)
    d = np.zeros((la + 1, lb + 1), np.int64)
    d[:, 0] = np.arange(la + 1)
    d[0, :] = np.arange(lb + 1)
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            d[i, j] = min(
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
                d[i - 1, j - 1] + (a[i - 1] != b[j - 1]),
            )
    return int(d[la, lb])


def test_lev_kernel_exact_vs_reference():
    rng = np.random.default_rng(0)
    for _ in range(250):
        la, lb = rng.integers(0, 30, 2)
        a = bytes(rng.integers(97, 103, la).astype(np.uint8))
        b = bytes(rng.integers(97, 103, lb).astype(np.uint8))
        k = int(rng.integers(0, 20))
        true = _ref_lev(a, b)
        want = true if true <= k else -1
        assert _banded_lev_batch([a], [b], k)[0] == want


def test_gram_rows_sliced_unicode_empty():
    arr = pa.array(["hello world", "", "héllo", "ab", "hello world"]).slice(1, 4)
    row, grams, ngr, blen = _doc_gram_rows(arr, 3, 4)
    assert ngr.tolist() == [0, 4, 0, 9]
    assert blen.tolist() == [0, 6, 2, 11]  # "héllo" is 6 BYTES
    # every LOW-GRAM doc (n_grams <= qK = 12 here, which covers all
    # four) emits exactly TWO length-band sentinel keys, all negative
    sent_rows = row[grams < 0]
    assert sorted(set(sent_rows.tolist())) == [0, 1, 2, 3]
    assert np.bincount(sent_rows, minlength=4).tolist() == [2, 2, 2, 2]
    # a gram-rich doc (n_grams > qK) emits none
    r3, g3, n3, _ = _doc_gram_rows(
        pa.array([" ".join(f"w{i}" for i in range(40))]), 3, 4
    )
    assert n3[0] > 12 and not (g3 < 0).any()
    # docs within K bytes of length share a band key: "" (band 0) and
    # "ab" (band 0) share -1; "héllo" (blen 6, band 1) shares -2 with
    # both band-0 docs via their promoted key
    assert set(grams[row == 0]) & set(grams[row == 2])
    assert set(grams[row == 1]) & set(grams[row == 0])
    # grams of the same text are identical wherever the doc sits
    r2, g2, n2, _ = _doc_gram_rows(pa.array(["hello world"]), 3, 4)
    assert sorted(g2.tolist()) == sorted(grams[row == 3].tolist())


def _mutate(rng, t: str, n_ed: int) -> str:
    s = list(t)
    for _ in range(n_ed):
        op = rng.integers(0, 3)
        p = int(rng.integers(0, len(s)))
        if op == 0:
            s[p] = chr(97 + int(rng.integers(0, 26)))
        elif op == 1:
            s.insert(p, chr(97 + int(rng.integers(0, 26))))
        elif len(s) > 1:
            del s[p]
    return "".join(s)


def _mutated_corpus() -> tuple[list, list, list]:
    """(ids, texts, langs): 60 mutated copies of three base texts, then
    empty / sub-q-gram / null texts (the sentinel bucket)."""
    rng = np.random.default_rng(42)
    base = [
        "the quick brown fox jumps over the lazy dog " * 3,
        "pack my box with five dozen liquor jugs " * 3,
        "héllo wörld ünïcode tèxt with multi-byte chars " * 2,
    ]
    texts = [_mutate(rng, base[i % 3], int(rng.integers(0, 26))) for i in range(60)]
    langs = ["ab"[i % 2] for i in range(60)]
    texts += ["", "a", "ab", "", "xy", None]
    langs += ["a", "a", "a", "b", "b", "a"]
    return list(range(len(texts))), texts, langs


def _corpus_ds(ids, texts, langs=None):
    cols = {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())}
    if langs is not None:
        cols["lang"] = pa.array(langs)
    return rd.from_arrow(pa.table(cols))


def _pair_rows(out) -> list[tuple]:
    return sorted(map(tuple, out.to_pandas()[["doc_a", "doc_b", "dist"]].to_numpy().tolist()))


def test_editdist_pairs_end_to_end_vs_brute(ray_session):
    ids, texts, langs = _mutated_corpus()
    ds = _corpus_ds(ids, texts, langs).repartition(7)

    K = 12

    def brute(blocked: bool) -> list[tuple]:
        rows = [(i, (t or "").encode(), l) for i, t, l in zip(ids, texts, langs)]
        out = []
        for (i, a, la), (j, b, lb) in itertools.combinations(rows, 2):
            if blocked and la != lb:
                continue
            d = _banded_lev_batch([a], [b], K)[0]
            if d >= 0:
                out.append((min(i, j), max(i, j), int(d)))
        return sorted(out)

    for grp, blocked in ((None, False), ("lang", True)):
        got = editdistance_pairs_distributed(
            ds, max_dist=K, group_col=grp, q=3
        ).to_pandas()
        got_rows = sorted(
            map(tuple, got[["doc_a", "doc_b", "dist"]].to_numpy().tolist())
        )
        assert got_rows == brute(blocked), f"group_col={grp}"
    # zero-gram docs pair through the sentinel bucket: "" (60) and the
    # null text (65) are both lang "a", distance 0
    assert (60, 65, 0) in got_rows


def test_editdist_low_gram_disjoint_sets_regression(ray_session):
    """Review regression: two docs within distance K whose DISTINCT
    q-gram sets are both small (<= qK) and fully DISJOINT — the prefix
    filter alone can never produce this candidate, so it must come
    through the low-gram sentinel path. 'a'*19 has gram set {aaa};
    'aabaabaabaabaabaaba' has {aab, aba, baa}; ed = 6 <= K = 16."""
    a, b = "a" * 19, "aabaabaabaabaabaaba"
    assert _ref_lev(a.encode(), b.encode()) == 6
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([a, b], pa.string()),
            }
        )
    )
    got = editdistance_pairs_distributed(ds, max_dist=16, q=3).to_pandas()
    assert sorted(map(tuple, got.to_numpy().tolist())) == [(1, 2, 6)]

    # and a long repetitive pair (n_grams small despite length >> q+K)
    c, d = "ab" * 200, "ab" * 199 + "ba"
    ed = _ref_lev(c.encode(), d.encode())
    assert 0 < ed <= 16
    ds2 = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([7, 8], pa.int64()),
                "text": pa.array([c, d], pa.string()),
            }
        )
    )
    got2 = editdistance_pairs_distributed(ds2, max_dist=16, q=3).to_pandas()
    assert sorted(map(tuple, got2.to_numpy().tolist())) == [(7, 8, ed)]


def test_editdist_df_exchange_route_equals_broadcast(ray_session, monkeypatch, caplog):
    """The gram-df attach's exchange route (df attached on the gram key,
    then prefix selection on the doc key), forced by a broadcast bound
    of 0, gives the broadcast route's (doc_a, doc_b, dist) on the
    mutated corpus (null and empty texts included, with and without
    ``group_col``) and on the low-gram regression pairs."""
    import logging

    from fineweb2_ro_ray.stages import joins

    ids, texts, langs = _mutated_corpus()
    runs = [
        (_corpus_ds(ids, texts, langs).repartition(7), 12, grp) for grp in (None, "lang")
    ] + [
        (_corpus_ds([1, 2], ["a" * 19, "aabaabaabaabaabaaba"]), 16, None),
        (_corpus_ds([7, 8], ["ab" * 200, "ab" * 199 + "ba"]), 16, None),
    ]
    caplog.set_level(logging.INFO, logger="fineweb2_ro_ray")
    for ds, k, grp in runs:
        want = _pair_rows(editdistance_pairs_distributed(ds, max_dist=k, group_col=grp, q=3))
        with monkeypatch.context() as m:
            m.setattr(joins, "_BROADCAST_PAYLOAD_BYTES", 0)
            caplog.clear()
            got = _pair_rows(
                editdistance_pairs_distributed(ds, max_dist=k, group_col=grp, q=3)
            )
        assert any(
            r.getMessage().startswith("editdistance_pairs_distributed: exchange route")
            for r in caplog.records
        )
        assert got == want and want, (k, grp)
        if grp == "lang":  # the empty (60) and null (65) texts pair at 0
            assert (60, 65, 0) in got


def test_banded_lev_flat_equals_scalar_core():
    """Round-5 cross-pair banded DP (the verify kernel) is cell-exact
    vs the scalar reference over adversarial length/edit mixes,
    including band edges (k=1), empty strings, and identical pairs."""
    import numpy as np

    from fineweb2_ro_ray.stages.editdist import (
        _banded_lev_core,
        _banded_lev_flat,
    )

    rng = np.random.default_rng(1717)

    def rand_pair(maxlen, alpha=4):
        la, lb = rng.integers(0, maxlen, 2)
        a = rng.integers(97, 97 + alpha, la).astype(np.uint8)
        b = rng.integers(97, 97 + alpha, lb).astype(np.uint8)
        if rng.random() < 0.5 and la > 0:
            b = a.copy()
            for _ in range(int(rng.integers(0, 8))):
                if len(b) == 0:
                    break
                i = int(rng.integers(0, len(b)))
                op = int(rng.integers(0, 3))
                if op == 0:
                    b[i] = rng.integers(97, 97 + alpha)
                elif op == 1:
                    b = np.delete(b, i)
                else:
                    b = np.insert(b, i, rng.integers(97, 97 + alpha))
        return a, b

    for maxlen, k in [(30, 5), (200, 16), (200, 3), (5, 2), (600, 16), (50, 1)]:
        pairs = [rand_pair(maxlen) for _ in range(300)]
        pairs.append((np.zeros(0, np.uint8), np.zeros(0, np.uint8)))
        pairs.append((pairs[0][0], pairs[0][0].copy()))  # identical
        fa = np.concatenate([p[0] for p in pairs])
        fb = np.concatenate([p[1] for p in pairs])
        la = np.array([len(p[0]) for p in pairs], np.int64)
        lb = np.array([len(p[1]) for p in pairs], np.int64)
        got = _banded_lev_flat(fa, la, fb, lb, k)
        exp = np.array(
            [_banded_lev_core(p[0], p[1], k) for p in pairs], np.int64
        )
        assert np.array_equal(got, exp), (maxlen, k)


def test_banded_lev_flat_outlier_memory_bounded():
    """One ~200 KB pair among 4,096 short pairs: the verify works in
    chunks whose dense operands stay under ``_VERIFY_CHUNK_BYTES``, so
    the outlier does not pad every short pair to its length (4,097 x
    200 KB x 2 operands would be 1.6 GB). Values stay exact: the
    outlier returns its constructed distance, every short pair equals
    the scalar core."""
    import tracemalloc

    from fineweb2_ro_ray.stages import editdist as ed

    k = 16
    rng = np.random.default_rng(4242)
    shorts = []
    for _ in range(4096):
        a = rng.integers(97, 101, int(rng.integers(1, 120))).astype(np.uint8)
        b = a.copy()
        for _ in range(int(rng.integers(0, 4))):
            b[int(rng.integers(0, len(b)))] = rng.integers(97, 101)
        shorts.append((a, b))
    big = rng.integers(97, 123, 200_000).astype(np.uint8)
    # 7 deletions: the length gap makes 7 a lower bound, the deletions
    # an upper one
    near = np.delete(big, rng.choice(len(big), 7, replace=False))
    # 48 leading bytes that occur nowhere in ``big``: distance >= 48 > k
    far = big.copy()
    far[:48] = ord("0")

    def run(outlier):
        pairs = shorts[:1000] + [(big, outlier)] + shorts[1000:]
        fa = np.concatenate([p[0] for p in pairs])
        fb = np.concatenate([p[1] for p in pairs])
        la = np.array([len(p[0]) for p in pairs], np.int64)
        lb = np.array([len(p[1]) for p in pairs], np.int64)
        return ed._banded_lev_flat(fa, la, fb, lb, k)

    tracemalloc.start()
    try:
        got_far = run(far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got_far[1000] == -1
    assert peak <= 3 * ed._VERIFY_CHUNK_BYTES, peak

    got = run(near)
    assert got[1000] == 7
    want = np.array([ed._banded_lev_core(a, b, k) for a, b in shorts], np.int64)
    short_got = np.concatenate([got[:1000], got[1001:]])
    assert np.array_equal(short_got, want)
    assert np.array_equal(np.delete(got_far, 1000), want)
