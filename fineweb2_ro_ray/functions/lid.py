"""Language identification — a frozen, deterministic n-gram/stopword model.

The reference consumes fastText lid.176 confidences produced upstream
(passenger column ``language_score``, ``/root/reference/fineweb/
fineweb2_download.py:21``); no network/model files exist in this
sandbox, so we implement the same *interface* — per-turn ``lang`` +
``lang_score`` — with a frozen lexicon model (SURVEY.md §7.1 ``lid.py``).

Model: count tokens (same canonical tokenization as textstats: split on
whitespace, lowercase, strip PUNCT) that belong to the Romanian vs
English marker lexicons; diacritic characters break ties toward
Romanian.  ``lang_score = hits(best) / n_tokens`` — one integer
division, bit-stable across engines.

Stateful-stage shape mirrors the reference's scorer pattern (load once
per worker, score batches): ``/root/reference/ro_vs_eng/fineweb2_jql.py:29-45``
→ here a Ray actor-pool ``map_batches`` callable class.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .textstats import PUNCT, _segment_sums, byte_stats

RO_LEXICON = frozenset(
    "și de la cu pentru este sunt care nu se în pe un o ce mai din ale "
    "dar fi fost să iar această acest aceasta oameni lume țară oraș casă "
    "apă foc munte carte limbă frumos mare mic bun rău repede încet astăzi "
    "mâine ieri noi voi ei ele eu tu el ea datele modelul sistemul procesul "
    "rezultatul întrebarea răspunsul conversația agentul utilizatorul "
    "am ai are avem aveți au era erau fie fiind având".split()
)
EN_LEXICON = frozenset(
    "the of and to in is you that it he was for on are as with his they "
    "i at be this have from or one had by word but not what all were we "
    "when your can said there use an each which she do how their if will "
    "up other about out many then them these so some her would make like".split()
)
DIACRITICS_PATTERN = r"[ăâîșțĂÂÎȘȚ]"


_RO_ARR = None
_EN_ARR = None


def _lexicons() -> tuple[pa.Array, pa.Array]:
    global _RO_ARR, _EN_ARR
    if _RO_ARR is None:
        _RO_ARR = pa.array(sorted(RO_LEXICON))
        _EN_ARR = pa.array(sorted(EN_LEXICON))
    return _RO_ARR, _EN_ARR


def lang_id_batch(
    batch: pa.Table, text_col: str = "text", shared: dict | None = None
) -> pa.Table:
    """Append ``lang`` (ro/en/und) and ``lang_score`` columns.

    Fast path: ``shared`` (the fused-actor route) carries the stats
    stage's dictionary-encoded tokenization — the lexicon lookups then
    run straight on the unique-token array, with no re-split and no
    re-encode."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")  # null text == empty turn

    ro_arr, en_arr = _lexicons()
    if shared is not None:
        ro_u = pc.is_in(shared["tok_dict"], value_set=ro_arr).to_numpy(zero_copy_only=False)
        en_u = pc.is_in(shared["tok_dict"], value_set=en_arr).to_numpy(zero_copy_only=False)
        tok_idx = shared["tok_idx"]
        raw_lens = shared["raw_lens"]
        ro_hits = _segment_sums(ro_u[tok_idx].astype(np.int64), raw_lens, "sum")
        en_hits = _segment_sums(en_u[tok_idx].astype(np.int64), raw_lens, "sum")
        return _lang_from_hits(batch, ro_hits, en_hits, shared["n_dia"], shared["n_words"])

    words = pc.utf8_split_whitespace(text)
    raw_lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(words)
    flat_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    toks = pc.utf8_trim(pc.utf8_lower(flat), PUNCT)
    n_words = _segment_sums((flat_len > 0).astype(np.int64), raw_lens, "sum")

    # both lexicon lookups run on UNIQUE tokens (dictionary encode),
    # results gathered back per instance — one hash pass replaces two
    # full is_in scans over every token instance
    dic = toks.dictionary_encode()
    ro_u = pc.is_in(dic.dictionary, value_set=ro_arr).to_numpy(zero_copy_only=False)
    en_u = pc.is_in(dic.dictionary, value_set=en_arr).to_numpy(zero_copy_only=False)
    tok_idx = dic.indices.to_numpy(zero_copy_only=False)
    ro_mask = ro_u[tok_idx]
    en_mask = en_u[tok_idx]
    ro_hits = _segment_sums(ro_mask.astype(np.int64), raw_lens, "sum")
    en_hits = _segment_sums(en_mask.astype(np.int64), raw_lens, "sum")
    # diacritic count from the single-pass byte kernel (== the
    # DIACRITICS_PATTERN regex count; property-tested)
    n_dia = byte_stats(text)["n_dia"]
    return _lang_from_hits(batch, ro_hits, en_hits, n_dia, n_words)


def _lang_from_hits(
    batch: pa.Table,
    ro_hits: np.ndarray,
    en_hits: np.ndarray,
    n_dia: np.ndarray,
    n_words: np.ndarray,
) -> pa.Table:
    best = np.maximum(ro_hits, en_hits)
    lang = np.where(
        best == 0,
        "und",
        np.where(
            ro_hits > en_hits, "ro", np.where(en_hits > ro_hits, "en", np.where(n_dia > 0, "ro", "en"))
        ),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(n_words > 0, best / np.maximum(n_words, 1), 0.0)
    score = np.where(best == 0, 0.0, score)

    return batch.append_column("lang", pa.array(lang.astype(object), pa.string())).append_column(
        "lang_score", pa.array(score, pa.float64())
    )


class LangIdScorer:
    """Callable wrapper of :func:`lang_id_batch`. The frozen lexicons are
    module state, materialized once per worker process (reference
    pattern: model loaded once per worker process,
    ``/root/reference/ro_vs_eng/fineweb2_jql.py:29-45``)."""

    def __init__(self) -> None:
        _lexicons()  # build the Arrow value sets once per process

    def __call__(self, batch: pa.Table, shared: dict | None = None) -> pa.Table:
        return lang_id_batch(batch, shared=shared)
