"""KenLM-style n-gram perplexity — frozen byte-bigram LM, add-one smoothing.

The reference's quality scores come from learned models loaded once per
worker (JQL heads, ``/root/reference/ro_vs_eng/fineweb2_jql.py:13-45``);
no model files are shippable here, so the perplexity scorer is a frozen
byte-bigram language model whose counts are trained at import time from
an embedded, deterministically generated Romanian-like seed corpus.
Same interface: per-turn float score, lower = more natural Romanian.

Determinism (SURVEY.md §7.4): log-probs are float64 and each turn's
summation covers exactly its own byte pairs, so scores are stable to
within one pairwise-summation rounding (~1e-13 relative) across
engines; across *runs and parallelism levels of this engine* they are
bit-identical (same reduceat segments). Tests compare ppl with
rtol=1e-9; keep/drop and scrubbed text are compared exactly.

``ppl(text) = exp(-mean(log P(b_{i+1} | b_i)))`` over the UTF-8 bytes;
texts with < 2 bytes score 0.0.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .textstats import utf8_flat_view

_SEED_VOCAB = (
    "și de la cu pentru este sunt care nu se în pe un o ce mai din ale "
    "acest aceasta dar fi fost avea face timp zi an oameni lume țară oraș "
    "casă apă foc munte carte limbă frumos mare mic bun rău repede încet "
    "astăzi mâine ieri noi voi ei ele eu tu el ea datele modelul sistemul "
    "procesul rezultatul întrebarea răspunsul conversația agentul utilizatorul"
).split()


def _build_seed_corpus() -> bytes:
    """~60 KB of deterministic Romanian-like prose (seeded rng; no
    external data)."""
    rng = np.random.default_rng(1234)
    parts: list[str] = []
    for _ in range(700):
        n = int(rng.integers(5, 14))
        idx = rng.integers(0, len(_SEED_VOCAB), size=n)
        sent = " ".join(_SEED_VOCAB[i] for i in idx)
        sent = sent.capitalize() + "."
        parts.append(sent)
        if rng.random() < 0.1:
            parts.append("\n")
    return " ".join(parts).encode("utf-8")


def _train_logp() -> np.ndarray:
    corpus = np.frombuffer(_build_seed_corpus(), dtype=np.uint8)
    counts = np.zeros((256, 256), dtype=np.float64)
    np.add.at(counts, (corpus[:-1], corpus[1:]), 1.0)
    row = counts.sum(axis=1, keepdims=True)
    return np.log((counts + 1.0) / (row + 256.0))


LOGP = _train_logp()  # frozen at import; deterministic
_LOGP_FLAT = LOGP.reshape(-1)  # 1-D gather is ~20x faster than 2-D fancy indexing


def perplexity_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append a ``ppl`` float64 column — fully vectorized over the
    batch's UTF-8 bytes, read zero-copy from the Arrow string buffer."""
    flat, lens = utf8_flat_view(batch[text_col])
    n = len(lens)
    ppl = np.zeros(n, dtype=np.float64)
    if len(flat) >= 2:
        # gather log-probs for ALL adjacent byte pairs (including the
        # ones that span a row boundary) — a uint16 index build over the
        # raw buffer is ~2x cheaper than boolean-filtering two int32
        # copies first. Boundary pairs are excluded from every row's sum
        # by the segment layout below, so each row's result depends only
        # on its own bytes: bit-identical regardless of batch boundaries
        # / parallelism (same sequential reduceat order per row as the
        # filtered formulation it replaces).
        idx = (flat[:-1].astype(np.uint16) << 8) | flat[1:]
        lp = _LOGP_FLAT[idx]  # lp[i] == LOGP[flat[i], flat[i+1]]
        npairs = np.maximum(lens - 1, 0)
        valid = npairs >= 1
        sums = np.zeros(n, dtype=np.float64)
        if valid.any():
            # row r's own pairs are lp[s_r : s_r + npairs_r) where s_r is
            # its start byte offset. Interleave (start, end) offsets of
            # the VALID rows: even reduceat segments are the rows, odd
            # ones the discarded boundary gaps. Consecutive valid rows
            # are always separated by >=1 boundary pair, so no segment is
            # empty; the final end offset equals len(lp) exactly when the
            # last row is valid, and reduceat's implicit run-to-end
            # covers that segment.
            s = (np.cumsum(lens) - lens)[valid]
            e = s + npairs[valid]
            off = np.empty(2 * len(s), dtype=np.int64)
            off[0::2] = s
            off[1::2] = e
            if off[-1] >= len(lp):
                off = off[:-1]
            sums[valid] = np.add.reduceat(lp, off)[0::2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ppl = np.where(valid, np.exp(-(sums / np.maximum(npairs, 1))), 0.0)
    return batch.append_column("ppl", pa.array(ppl, pa.float64()))


class PerplexityScorer:
    """Callable wrapper of :func:`perplexity_batch`. The frozen log-prob
    table ``LOGP`` is module state, built once per worker process at
    import (reference pattern A1: load model once per GPU worker,
    ``/root/reference/ro_vs_eng/fineweb2_jql.py:29-45``)."""

    def __init__(self) -> None:
        self._logp = LOGP

    def __call__(self, batch: pa.Table) -> pa.Table:
        return perplexity_batch(batch)
