"""Vectorized per-turn text statistics (Gopher/C4-style heuristic inputs).

One batch function computes every rule input column in Arrow/numpy
kernels — no Python loop over rows except the dup-line fraction (few
lines per turn). Canonical definitions (pinned so the pure-Python
oracle in ``fineweb2_ro_ray/oracle.py`` can reproduce them bit-exactly):

- tokens     = ``text.split()`` (Python whitespace semantics; Arrow's
  ``utf8_split_whitespace`` keeps empty boundary tokens, so zero-length
  tokens are masked out)
- n_chars    = ``len(text)`` (codepoints)
- n_words    = number of tokens
- n_lines    = ``text.count("\\n") + 1``
- mean_word_len = sum(len(tok)) / n_words  (0.0 if no tokens)
- max_word_len  = max(len(tok))            (0 if no tokens)
- stopword_ratio = |{tok : tok.lower().strip(PUNCT) in STOPWORDS}| / n_words
- symbol_ratio   = count of chars matching ``[^0-9A-Za-zăâîșțĂÂÎȘȚ\\s]`` / n_chars
- dup_line_frac  = (L - distinct(L)) / L over non-empty stripped lines
  (0.0 when L == 0)

All ratios are a single IEEE division of exact integers, so results are
bit-identical across engines and parallelism levels (SURVEY.md §7.4).

Reference parity: these are the heuristic inputs of the FineWeb2
Gopher/C4 rule family the reference inherits from upstream (visible as
passenger columns, ``/root/reference/fineweb/fineweb2_download.py:14-24``)
plus the token-count stat pattern (``fineweb/tokenize_fineweb2.py:20-22``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PUNCT = ".,!?;:()[]{}\"'"
# explicit ASCII whitespace, NOT \s: RE2 (Arrow/DuckDB) treats \s as
# ASCII-only while Python re is Unicode-aware — an explicit class is the
# only definition all three engines agree on (found by property tests)
SYMBOL_PATTERN = r"[^0-9A-Za-zăâîșțĂÂÎȘȚ\t\n\f\r ]"

# Combined RO+EN stopword list for the stopword-ratio rule (C4-style
# "document must contain common words" heuristic).
RO_STOPWORDS = frozenset(
    "și de la cu pentru este sunt care nu se în pe un o ce mai din ale "
    "dar fi fost a al ai această acest să iar eu tu el ea noi voi ei ele".split()
)
EN_STOPWORDS = frozenset(
    "the of and a to in is you that it he was for on are as with his "
    "they i at be this have from or one had by word but not what all".split()
)
STOPWORDS = RO_STOPWORDS | EN_STOPWORDS


def _segment_sums(values: np.ndarray, lens: np.ndarray, how: str) -> np.ndarray:
    """Per-row reduction of a flattened token array. ``lens`` are tokens
    per row; rows with 0 tokens get 0 (np.reduceat misbehaves on empty
    segments, so they are zeroed explicitly)."""
    n = len(lens)
    out = np.zeros(n, dtype=values.dtype if how != "sum" else np.int64)
    if len(values) == 0:
        return out
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    # rows whose offset == len(values) (trailing run of 0-length rows)
    # are excluded rather than clamped: a clamp would shorten the
    # PREVIOUS row's reduceat segment. The last kept row's segment then
    # runs to the end of values — exactly its true extent, since every
    # excluded row is empty. Mid-array 0-length rows pick up a
    # neighbour's value via reduceat's empty-segment semantics and are
    # zeroed by the lens==0 mask below.
    ok = offsets < len(values)
    if how == "sum":
        out[ok] = np.add.reduceat(values.astype(np.int64, copy=False), offsets[ok])
    elif how == "max":
        out[ok] = np.maximum.reduceat(values, offsets[ok])
    else:
        raise ValueError(how)
    out[lens == 0] = 0
    return out


# --- single-pass UTF-8 byte kernel ------------------------------------------
# SYMBOL_PATTERN's complement (the "allowed" characters) is 1-byte ASCII
# plus ten 2-byte Romanian diacritics, so the symbol / newline /
# diacritic counts can all be derived from ONE classification pass over
# the batch's zero-copy Arrow string buffer, replacing three full RE2
# scans. ``bytes.translate`` (a C-speed 256-entry LUT) classifies every
# byte; the interesting classes are sparse in natural text, so per-row
# counts come from flatnonzero + searchsorted + bincount instead of
# dense reduceat arrays (this box is DRAM-bound — numpy fancy-index
# gathers over the full buffer measured 10x slower than translate).
#
# Byte classes: 0 = irrelevant (allowed ASCII, UTF-8 continuation
# bytes), 1 = newline, 2 = dia-lead candidate (0xC3/0xC4/0xC8 — the
# pair's trail byte decides diacritic vs symbol), 3 = symbol codepoint
# start (disallowed ASCII, or a non-ASCII lead byte that can't start a
# Romanian diacritic).
_CLS = np.full(256, 3, dtype=np.uint8)
_CLS[0x80:0xC0] = 0  # UTF-8 continuation bytes: not codepoint starts
for _c in b"0123456789 \t\f\r":
    _CLS[_c] = 0
_CLS[ord("A") : ord("Z") + 1] = 0
_CLS[ord("a") : ord("z") + 1] = 0
_CLS[0x0A] = 1  # newline (an allowed character, counted for n_lines)
for _c in (0xC3, 0xC4, 0xC8):
    _CLS[_c] = 2
_CLS_TABLE = _CLS.tobytes()

# 2-byte UTF-8 sequences of ăâîșțĂÂÎȘȚ, packed (lead<<8)|trail into a
# 64 KiB boolean LUT — gathered only at the sparse candidate positions.
_DIA_PAIR_LUT = np.zeros(1 << 16, dtype=bool)
for _ch in "ăâîșțĂÂÎȘȚ":
    _b = _ch.encode("utf-8")
    assert len(_b) == 2
    _DIA_PAIR_LUT[(_b[0] << 8) | _b[1]] = True


def utf8_flat_view(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (bytes, per-row byte lengths) view of a string array:
    an Arrow StringArray's data buffer IS the concatenated UTF-8
    payload, so no to_pylist/encode round-trip is needed. Nulls are
    filled with "" first (null text == empty turn)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = pc.fill_null(arr, "")
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], dtype=off_dtype)
    offsets = offsets[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    data = (
        np.frombuffer(buffers[2], dtype=np.uint8)
        if buffers[2] is not None
        else np.zeros(0, np.uint8)
    )
    flat = data[offsets[0] : offsets[-1]]
    lens = np.diff(offsets)
    return flat, lens


def byte_stats(text: pa.Array) -> dict[str, np.ndarray]:
    """Per-row ``n_newlines``, ``n_sym`` (codepoints matching
    SYMBOL_PATTERN) and ``n_dia`` (Romanian diacritics) from one
    classification pass over the UTF-8 bytes. Exactly equals the RE2
    count_substring/count_substring_regex results (property-tested
    against them)."""
    flat, lens = utf8_flat_view(text)
    n = len(lens)
    m = len(flat)
    zeros = lambda: np.zeros(n, dtype=np.int64)  # noqa: E731
    if m == 0:
        return {"n_newlines": zeros(), "n_sym": zeros(), "n_dia": zeros()}
    cls = np.frombuffer(flat.tobytes().translate(_CLS_TABLE), np.uint8)
    nz = np.flatnonzero(cls)  # sparse: newlines + dia candidates + symbols
    if len(nz) == 0:
        return {"n_newlines": zeros(), "n_sym": zeros(), "n_dia": zeros()}
    ends = np.cumsum(lens)

    def per_row(*position_arrays: np.ndarray) -> np.ndarray:
        # each array is SORTED byte positions; count per row = diff of
        # "how many positions fall before each row end" — searching the
        # few row ends into the big arrays, not vice versa
        out = np.zeros(n, dtype=np.int64)
        for pos in position_arrays:
            cum = np.searchsorted(pos, ends, side="left")
            out += np.diff(cum, prepend=0)
        return out

    c = cls[nz]
    nl_pos = nz[c == 1]
    cand = nz[c == 2]
    sym_pos = nz[c == 3]
    if len(cand):
        # pair check only at the sparse candidate positions
        trail = flat[np.minimum(cand + 1, m - 1)]
        ok = _DIA_PAIR_LUT[(flat[cand].astype(np.uint16) << 8) | trail]
        # a lead byte at its row's last byte (invalid UTF-8) can't pair
        # across rows: drop candidates whose trail position is a row end
        nxt = cand + 1
        b = np.searchsorted(ends, nxt, side="left")
        ok &= ~(ends[np.minimum(b, n - 1)] == nxt)
        n_dia = per_row(cand[ok])
        # a C3/C4/C8 lead that is NOT a Romanian diacritic is a symbol
        n_sym = per_row(sym_pos, cand[~ok])
    else:
        n_dia = zeros()
        n_sym = per_row(sym_pos)
    return {"n_newlines": per_row(nl_pos), "n_sym": n_sym, "n_dia": n_dia}


# --- fused tokenizer + classifier kernel -------------------------------------
# ``utf8_split_whitespace`` materializes a 1.5M-entry list-of-slices
# array per 4k-row batch and a second full pass computes per-token
# codepoint lengths — together the largest share of the stats stage.
# This kernel derives token SPANS, per-row word stats and the
# byte_stats counts from ONE ``bytes.translate`` classification pass,
# then compacts the token bytes with a single boolean gather so only
# the (cheap, hash-based) dictionary encode ever sees token strings.
#
# Whitespace must match Arrow's utf8_split_whitespace == Python
# ``str.split()`` EXACTLY (the canonical tokenization is pinned to
# Python semantics and property-tested against the oracle). Both use
# the same set, derived empirically over all codepoints:
#   1-byte: 09-0D, 1C-1F, 20
#   2-byte: U+0085 (C2 85), U+00A0 (C2 A0)
#   3-byte: U+1680, U+2000-200A, U+2028, U+2029, U+202F, U+205F, U+3000
_F_WS = 1  # whitespace byte (token separator; multi-byte ws set at runtime)
_F_NL = 2  # newline (0x0A)
_F_SYM = 4  # codepoint start that matches SYMBOL_PATTERN for certain
_F_DIA = 8  # C3/C4/C8 lead: trail byte decides diacritic vs symbol
_F_WSL = 16  # C2/E1/E2/E3 lead: always a symbol; trail(s) decide ws
_F_CONT = 32  # UTF-8 continuation byte (for codepoint-length math)

_FLAGS = np.zeros(256, dtype=np.uint8)
_FLAGS[:0x80] = _F_SYM  # default ASCII: symbol…
for _c in b"0123456789":
    _FLAGS[_c] = 0  # …unless allowed
_FLAGS[ord("A") : ord("Z") + 1] = 0
_FLAGS[ord("a") : ord("z") + 1] = 0
for _c in (0x09, 0x0C, 0x0D, 0x20):
    _FLAGS[_c] = _F_WS  # allowed whitespace: not a symbol
_FLAGS[0x0A] = _F_WS | _F_NL
for _c in (0x0B, 0x1C, 0x1D, 0x1E, 0x1F):
    _FLAGS[_c] = _F_WS | _F_SYM  # splits tokens AND counts as symbol
_FLAGS[0x80:0xC0] = _F_CONT
_FLAGS[0xC0:0x100] = _F_SYM  # non-ASCII codepoint starts: symbol…
for _c in (0xC3, 0xC4, 0xC8):
    _FLAGS[_c] = _F_DIA  # …or maybe a Romanian diacritic
for _c in (0xC2, 0xE1, 0xE2, 0xE3):
    _FLAGS[_c] = _F_SYM | _F_WSL  # …or maybe (also) whitespace
_FLAGS_TABLE = _FLAGS.tobytes()

# 3-byte whitespace sequences packed (b0<<16)|(b1<<8)|b2
_WS3_KEYS = np.sort(
    np.array(
        [int.from_bytes(chr(cp).encode("utf-8"), "big") for cp in
         [0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000]],
        dtype=np.uint32,
    )
)


def _byte_tokens(text: pa.Array) -> dict:
    """One-pass tokenize + classify. Returns per-row ``n_words``,
    ``sum_word_len``/``max_word_len`` (codepoints), the byte_stats
    counts (``n_newlines``/``n_sym``/``n_dia``) and ``tok_arr`` — the
    flat nonempty-token string array in row-major order (identical
    content to ``list_flatten(utf8_split_whitespace(text))`` minus the
    zero-length boundary tokens, which no consumer uses)."""
    flat, lens = utf8_flat_view(text)
    n = len(lens)
    m = len(flat)
    zeros = lambda: np.zeros(n, dtype=np.int64)  # noqa: E731
    out = {
        "n_words": zeros(),
        "sum_word_len": zeros(),
        "max_word_len": zeros(),
        "n_newlines": zeros(),
        "n_sym": zeros(),
        "n_dia": zeros(),
        "tok_arr": pa.array([], pa.string()),
    }
    if m == 0:
        return out
    ends = np.cumsum(lens)
    cls = np.frombuffer(flat.tobytes().translate(_FLAGS_TABLE), np.uint8)
    ws = (cls & _F_WS) > 0
    # ONE flatnonzero finds every non-plain byte (newline / symbol /
    # dia-candidate / ws-lead-candidate / continuation) — two separate
    # scans for special-vs-continuation measured ~17 ms slower per 4k
    # rows; per-kind subsets are cheap slices of the shared positions
    # != 0 first: numpy's nonzero has a fast path for bool input
    # (measured 2x over uint8) that pays for the extra compare pass
    special = np.flatnonzero((cls & (_F_NL | _F_SYM | _F_DIA | _F_CONT)) != 0)
    c = cls[special]

    def per_row(*position_arrays: np.ndarray) -> np.ndarray:
        outp = np.zeros(n, dtype=np.int64)
        for pos in position_arrays:
            cum = np.searchsorted(pos, ends, side="left")
            outp += np.diff(cum, prepend=0)
        return outp

    nl_pos = special[(c & _F_NL) > 0]
    cand = special[(c & _F_DIA) > 0]
    sym_pos = special[(c & _F_SYM) > 0]
    cont_pos = special[(c & _F_CONT) > 0]
    if len(cand):
        trail = flat[np.minimum(cand + 1, m - 1)]
        ok = _DIA_PAIR_LUT[(flat[cand].astype(np.uint16) << 8) | trail]
        # a lead at its row's last byte (invalid UTF-8) can't pair across rows
        row = np.searchsorted(ends, cand, side="right")
        ok &= ends[row] >= cand + 2
        n_dia = per_row(cand[ok])
        n_sym = per_row(sym_pos, cand[~ok])
    else:
        n_dia = zeros()
        n_sym = per_row(sym_pos)
    wsl = special[(c & _F_WSL) > 0]
    if len(wsl):
        row = np.searchsorted(ends, wsl, side="right")
        rend = ends[row]
        b0 = flat[wsl]
        b1 = flat[np.minimum(wsl + 1, m - 1)]
        b2 = flat[np.minimum(wsl + 2, m - 1)]
        two = (b0 == 0xC2) & ((b1 == 0x85) | (b1 == 0xA0)) & (rend >= wsl + 2)
        key = (
            (b0.astype(np.uint32) << 16) | (b1.astype(np.uint32) << 8) | b2
        )
        three = np.isin(key, _WS3_KEYS) & (rend >= wsl + 3)
        p2 = wsl[two]
        p3 = wsl[three]
        if len(p2):
            ws[p2] = True
            ws[p2 + 1] = True
        if len(p3):
            ws[p3] = True
            ws[p3 + 1] = True
            ws[p3 + 2] = True

    nws = ~ws
    prev_ws = np.empty(m, dtype=bool)
    prev_ws[0] = True
    prev_ws[1:] = ws[:-1]
    row_starts = ends - lens
    prev_ws[row_starts[row_starts < m]] = True  # rows never merge tokens
    starts = np.flatnonzero(nws & prev_ws)
    next_ws = np.empty(m, dtype=bool)
    next_ws[-1] = True
    next_ws[:-1] = ws[1:]
    last_bytes = ends[lens > 0] - 1
    next_ws[last_bytes] = True
    tok_last = np.flatnonzero(nws & next_ws)
    blens = tok_last - starts + 1

    nw = np.diff(np.searchsorted(starts, ends, side="left"), prepend=0)
    if len(cont_pos) and len(starts):
        # codepoint len = byte len − continuation bytes inside the span.
        # Search the (fewer) continuation positions into the token
        # starts — the reverse direction measured ~5x slower — and
        # bincount per token; continuation bytes of multi-byte
        # WHITESPACE/symbol chars fall outside every token span and are
        # masked out by the end-bound check.
        tok_of = np.searchsorted(starts, cont_pos, side="right") - 1
        inside = (tok_of >= 0) & (cont_pos <= tok_last[np.maximum(tok_of, 0)])
        ncont = np.bincount(tok_of[inside], minlength=len(starts))
        cp_lens = blens - ncont
    else:
        cp_lens = blens
    out["n_words"] = nw
    out["sum_word_len"] = _segment_sums(cp_lens, nw, "sum")
    out["max_word_len"] = _segment_sums(cp_lens, nw, "max")
    out["n_newlines"] = per_row(nl_pos)
    out["n_sym"] = n_sym
    out["n_dia"] = n_dia

    # compact the token bytes (every non-ws byte belongs to exactly one
    # token) with Arrow's SIMD filter kernel — ~2x the numpy boolean
    # gather; packbits converts the mask to an Arrow bitmap zero-copy-ish
    flat_arr = pa.Array.from_buffers(pa.uint8(), m, [None, pa.py_buffer(flat)])
    mask = pa.Array.from_buffers(
        pa.bool_(), m, [None, pa.py_buffer(np.packbits(nws, bitorder="little"))]
    )
    filtered = pc.filter(flat_arr, mask)
    data = filtered.buffers()[1]
    off = np.empty(len(blens) + 1, dtype=np.int64)
    off[0] = 0
    np.cumsum(blens, out=off[1:])
    if off[-1] < 2**31:
        out["tok_arr"] = pa.Array.from_buffers(
            pa.string(),
            len(blens),
            [None, pa.py_buffer(off.astype(np.int32)), data],
        )
    else:
        out["tok_arr"] = pa.Array.from_buffers(
            pa.large_string(), len(blens), [None, pa.py_buffer(off), data]
        )
    return out


_STOPWORDS_ARR = None  # built lazily (module import order safety)


def _stopword_set() -> "pa.Array":
    global _STOPWORDS_ARR
    if _STOPWORDS_ARR is None:
        _STOPWORDS_ARR = pa.array(sorted(STOPWORDS))
    return _STOPWORDS_ARR


def _dup_line_fracs(text: pa.Array, n_lines_np: np.ndarray) -> np.ndarray:
    """Only rows with >= 2 lines can have dup lines — materialize just
    those (usually a small fraction of the batch)."""
    out = np.zeros(len(text), dtype=np.float64)
    multi = np.flatnonzero(n_lines_np > 1)
    if len(multi):
        subset = text.take(pa.array(multi)).to_pylist()
        for j, t in zip(multi, subset):
            lines = [ln.strip() for ln in t.split("\n")]
            lines = [ln for ln in lines if ln]
            if lines:
                out[j] = (len(lines) - len(set(lines))) / len(lines)
    return out


def compute_text_stats(
    batch: pa.Table,
    text_col: str = "text",
    return_shared: bool = False,
) -> pa.Table | tuple[pa.Table, dict]:
    """Append the rule-input columns to ``batch`` (zero-copy for the
    untouched columns — the reference's column-accretion model,
    SURVEY.md §1.2).

    ``return_shared=True`` (the fused-actor path) instead returns
    ``(table, shared)`` where ``shared`` carries the tokenization
    intermediates in dictionary-encoded form — the downstream LID call
    reuses the unique-token array + indices directly, skipping both the
    per-instance token gather here and LID's re-dictionary-encode."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")  # null text == empty turn

    n_chars = pc.utf8_length(text).cast(pa.int64())
    nc = n_chars.to_numpy(zero_copy_only=False)
    # fused kernel: token spans, word stats and the byte_stats counts
    # from one classification pass (replaces utf8_split_whitespace +
    # per-token utf8_length + a separate byte_stats scan)
    bk = _byte_tokens(text)
    n_lines = pa.array(bk["n_newlines"] + 1, pa.int64())
    n_sym = bk["n_sym"]
    n_words = bk["n_words"]
    sum_word_len = bk["sum_word_len"]
    max_word_len = bk["max_word_len"]

    # lower+trim+lookup run on UNIQUE tokens only (dictionary encode):
    # natural text repeats tokens heavily, so this cuts the stopword
    # chain roughly in half (measured 62.6 → 35.1 ms on an 800k-token
    # batch); per-instance results come back via index gather
    dic = bk["tok_arr"].dictionary_encode()
    toks_u = pc.utf8_trim(pc.utf8_lower(dic.dictionary), PUNCT)
    stop_u = pc.is_in(toks_u, value_set=_stopword_set()).to_numpy(zero_copy_only=False)
    tok_idx = dic.indices.to_numpy(zero_copy_only=False)
    stop_mask = stop_u[tok_idx]
    n_stop = _segment_sums(stop_mask.astype(np.int64), n_words, "sum")

    with np.errstate(divide="ignore", invalid="ignore"):
        mean_word_len = np.where(n_words > 0, sum_word_len / np.maximum(n_words, 1), 0.0)
        stop_ratio = np.where(n_words > 0, n_stop / np.maximum(n_words, 1), 0.0)
        sym_ratio = np.where(nc > 0, n_sym / np.maximum(nc, 1), 0.0)

    dup = _dup_line_fracs(text, bk["n_newlines"] + 1)

    out = (
        batch.append_column("n_chars", n_chars)
        .append_column("n_words", pa.array(n_words, pa.int64()))
        .append_column("n_lines", n_lines)
        .append_column("mean_word_len", pa.array(mean_word_len, pa.float64()))
        .append_column("max_word_len", pa.array(max_word_len, pa.int64()))
        .append_column("stopword_ratio", pa.array(stop_ratio, pa.float64()))
        .append_column("symbol_ratio", pa.array(sym_ratio, pa.float64()))
        .append_column("dup_line_frac", pa.array(dup, pa.float64()))
    )
    if return_shared:
        shared = {
            "tok_dict": toks_u,  # trimmed/lowered UNIQUE raw tokens
            "tok_idx": tok_idx,  # per-instance index into tok_dict
            "raw_lens": n_words,  # tokens per row (nonempty only)
            "n_words": n_words,
            "n_dia": bk["n_dia"],
        }
        return out, shared
    return out
