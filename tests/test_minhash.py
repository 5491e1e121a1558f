"""One-permutation MinHash signatures (``stages.dedup.MinHasher``):
batch independence, estimator quality against exact shingle Jaccard,
8×8-band LSH recall, and degenerate inputs.

The classic scheme these are compared with computed ``num_perm``
universal hashes (a·x + b) mod (2^61 − 1) of every shingle's rolling
hash (k=5, seed 1717) and took each one's minimum; its numbers on the
fixture below are frozen as constants."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fineweb2_ro_ray.sources.synth import write_transcripts
from fineweb2_ro_ray.stages import dedup
from fineweb2_ro_ray.stages.dedup import MinHasher, char_shingle_jaccard

# classic scheme on the 2,000 pairs of ``perturbed_pairs`` (64 perms)
CLASSIC_MSE = 0.0026869
CLASSIC_RECALL_08 = 641 / 652  # 8×8-band collision rate at J >= 0.8
CLASSIC_FP_03 = 0  # colliding pairs among the 82 with J < 0.3


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("mh") / "in")
    write_transcripts(path, 300, seed=7)
    return pq.read_table(path, columns=["text"])["text"].to_pylist()


def perturbed_pairs(corpus: list) -> tuple[list[str], list[str]]:
    """2,000 (text, perturbed text) pairs: each base text of at least
    40 bytes has every word replaced, with a per-pair probability drawn
    from U(0, 0.25), by a word of the corpus."""
    texts = [t for t in corpus if t is not None and len(t.encode()) >= 40]
    rng = np.random.default_rng(7)
    vocab = sorted({w for t in texts[:500] for w in t.split()})
    base = [texts[i] for i in rng.choice(len(texts), 2000, replace=False)]
    other = []
    for t in base:
        words = t.split(" ")
        rate = rng.uniform(0.0, 0.25)
        edit = rng.random(len(words)) < rate
        repl = rng.integers(0, len(vocab), len(words))
        other.append(" ".join(vocab[r] if e else w for w, e, r in zip(words, edit, repl)))
    return base, other


@pytest.fixture(scope="module")
def pairs(corpus):
    """Signatures of both sides of every perturbed pair, and the pair's
    exact shingle Jaccard."""
    base, other = perturbed_pairs(corpus)
    jac = np.array([char_shingle_jaccard(a, b) for a, b in zip(base, other)])
    mh = MinHasher()
    return _sigs(mh, base), _sigs(mh, other), jac


def _sigs(mh: MinHasher, texts) -> np.ndarray:
    col = mh(pa.table({"text": pa.array(texts, pa.string())}))["minhash"]
    return dedup._sig_matrix(col)


def test_signature_depends_only_on_the_row(corpus, monkeypatch):
    mh = MinHasher()
    texts = corpus[:4096] + [None, "", "abc", "abcde"]
    whole = _sigs(mh, texts)
    assert whole.shape == (len(texts), 64)
    for i in range(0, len(texts), 97):
        assert (mh.signature(texts[i]) == whole[i]).all()
    # other slicings: Arrow slices with offsets, a chunked column
    arr = pa.array(texts, pa.string())
    for step, stop in ((1, 50), (7, len(texts)), (1000, len(texts))):
        for lo in range(0, stop, step):
            got = dedup._sig_matrix(mh(pa.table({"text": arr.slice(lo, step)}))["minhash"])
            assert (got == whole[lo : lo + step]).all()
    chunked = pa.chunked_array([arr.slice(0, 1234), arr.slice(1234)])
    assert (dedup._sig_matrix(mh(pa.table({"text": chunked}))["minhash"]) == whole).all()
    # kernel calls over a few rows each hash the same as one big call
    monkeypatch.setattr(dedup, "_CHUNK_BYTES", 1000)
    assert (_sigs(mh, texts) == whole).all()


def test_estimator_against_exact_jaccard(pairs):
    sa, sb, jac = pairs
    est = (sa == sb).mean(axis=1)
    assert abs(float((est - jac).mean())) <= 0.01
    assert float(((est - jac) ** 2).mean()) <= CLASSIC_MSE


def test_band_recall(pairs):
    sa, sb, jac = pairs
    hit = (sa.reshape(-1, 8, 8) == sb.reshape(-1, 8, 8)).all(axis=2).any(axis=1)
    assert (jac >= 0.8).sum() == 652 and (jac < 0.3).sum() == 82
    # One permutation samples a band's 8 bins without replacement from
    # the pair's shingle union, so on ~60-350-shingle turns a band
    # collides slightly less often than J^8: the expected recall here is
    # 0.971 against the classic 0.973. Measured over seeds 1717-1728 it
    # was 0.974 against 0.978, with seed-to-seed standard deviations of
    # 0.009 and 0.006; 0.02 is about two standard deviations of the
    # difference of two single-seed draws.
    assert hit[jac >= 0.8].mean() >= CLASSIC_RECALL_08 - 0.02
    assert hit[jac < 0.3].sum() <= CLASSIC_FP_03


def test_degenerate_texts():
    mh = MinHasher()
    texts = [None, "", "a", "abcd", "abcde", "abcdf", "ă"]
    sigs = _sigs(mh, texts)
    assert (sigs < dedup._EMPTY).all()  # densification filled every bin
    assert (sigs == _sigs(MinHasher(), texts)).all()  # deterministic
    for t, s in zip(texts, sigs):
        assert (mh.signature(t) == s).all()
        # one shingle (padded or not): every bin borrows its value
        assert len(set(s.tolist())) == 1
    assert (sigs[0] == sigs[1]).all()  # null text == empty text
    assert len({s[0] for s in sigs[1:].tolist()}) == len(texts) - 1
