"""PII + toxicity scrubbing with checksum validation.

Canonical, pinned application order (SURVEY.md §7.4 — exact per-turn
scrubbed-text equality requires one order): IBAN → CNP → EMAIL → PHONE
→ TOX.  Candidates are found by regex; IBAN and CNP candidates are only
replaced when their public checksum validates (near-miss invalid
identifiers planted by the synthesizer must survive), mirroring the
reference's "never fail a row, degrade to a sentinel" philosophy
(``/root/reference/fineweb/big_inference.py:109-115``).

Replacement tokens: ``<IBAN> <CNP> <EMAIL> <PHONE> <TOX>``.
Outputs: ``scrubbed_text`` (byte-exact reproducible), ``pii_hits``
(count of replaced PII spans), ``tox_hits`` (toxicity replacements).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from .pii import CNP_RE, EMAIL_RE, IBAN_RE, PHONE_RE, cnp_valid, iban_valid

TOX_TERMS = ["prostule", "idiotule", "naibii", "dracului", "tâmpitule"]
TOX_RE = re.compile(
    r"(?<![0-9A-Za-zăâîșțĂÂÎȘȚ])(?:" + "|".join(TOX_TERMS) + r")(?![0-9A-Za-zăâîșțĂÂÎȘȚ])",
    re.IGNORECASE,
)


def scrub_text(
    text: str,
    *,
    iban: bool = True,
    cnp: bool = True,
    email: bool = True,
    phone: bool = True,
    tox: bool = True,
) -> tuple[str, int, int]:
    """Scrub one turn. Returns (scrubbed_text, pii_hits, tox_hits).
    Pure function — shared semantics are re-derived independently by the
    oracle; this is the engine implementation.

    The keyword flags let the batched Scrubber skip regex families whose
    vectorized trigger did not fire on the row — a skipped family's
    ``re.sub`` would be a guaranteed no-op (each family's trigger is a
    substring superset of any possible match, including matches arising
    after earlier replacements: replacement tokens contain no digits or
    '@' and break character contiguity, so a later-pass match is always
    a contiguous substring of the ORIGINAL text)."""
    pii = 0

    def _iban(m: re.Match) -> str:
        nonlocal pii
        if iban_valid(m.group(0)):
            pii += 1
            return "<IBAN>"
        return m.group(0)

    def _cnp(m: re.Match) -> str:
        nonlocal pii
        if cnp_valid(m.group(0)):
            pii += 1
            return "<CNP>"
        return m.group(0)

    if iban:
        text = IBAN_RE.sub(_iban, text)
    if cnp:
        text = CNP_RE.sub(_cnp, text)
    if email:
        text, n = EMAIL_RE.subn("<EMAIL>", text)
        pii += n
    if phone:
        text, n = PHONE_RE.subn("<PHONE>", text)
        pii += n
    ntox = 0
    if tox:
        text, ntox = TOX_RE.subn("<TOX>", text)
    return text, pii, ntox


# RE2-safe (no lookarounds) over-matching trigger: a row that can
# possibly contain PII or a toxicity term matches; only those rows pay
# the Python-regex scrub. Evaluated as ONE vectorized Arrow kernel.
# PHONE_RE's bare-0 form is 07\d{2}..., so 07[0-9]{2} is still a
# guaranteed substring of every match (the +40/0040 forms carry their
# own literal) — the extra digit roughly halves false trigger rows.
_PHONE_TRIGGER = r"\+40|0040|07[0-9]{2}"
_TOX_TRIGGER = r"(?i:" + "|".join(TOX_TERMS) + r")"
_TRIGGER_RE2 = (
    r"@|RO[0-9]{2}[A-Z]{4}|[0-9]{13}|" + _PHONE_TRIGGER + r"|" + _TOX_TRIGGER
)


class Scrubber:
    """Batch scrubber. The regex packs are module state, compiled once
    per worker process (reference stateful-stage pattern, SURVEY.md
    §2.3). Fast path: a vectorized
    RE2 trigger (Arrow ``match_substring_regex``) selects candidate
    rows; clean rows pass through zero-copy."""

    def __init__(self, text_col: str = "text") -> None:
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch[self.text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.fill_null(text, "")
        n = len(text)
        hits = pc.match_substring_regex(text, _TRIGGER_RE2).to_numpy(zero_copy_only=False)
        pii = np.zeros(n, dtype=np.int32)
        tox = np.zeros(n, dtype=np.int32)
        idx = np.flatnonzero(hits)
        if len(idx) == 0:
            return (
                batch.append_column("scrubbed_text", text)
                .append_column("pii_hits", pa.array(pii, pa.int32()))
                .append_column("tox_hits", pa.array(tox, pa.int32()))
            )
        sub_arr = text.take(pa.array(idx))
        # per-family triggers on the (small) triggered subset: each row
        # then runs ONLY the regex families that can possibly match it —
        # typically one of five, cutting the Python re loop ~3-4x.
        f_iban = pc.match_substring(sub_arr, "RO").to_numpy(zero_copy_only=False)
        f_cnp = pc.match_substring_regex(sub_arr, r"[0-9]{13}").to_numpy(
            zero_copy_only=False
        )
        f_email = pc.match_substring(sub_arr, "@").to_numpy(zero_copy_only=False)
        f_phone = pc.match_substring_regex(sub_arr, _PHONE_TRIGGER).to_numpy(
            zero_copy_only=False
        )
        f_tox = pc.match_substring_regex(sub_arr, _TOX_TRIGGER).to_numpy(
            zero_copy_only=False
        )
        # EMAIL-ONLY fast path: rows where no other family trigger fired
        # are scrubbed entirely in Arrow — EMAIL_RE is RE2-safe and
        # property-tested byte-equal to Python re.subn on it, so these
        # rows never round-trip to Python strings. Typically the single
        # largest family (~40% of triggered rows on the synth corpus).
        email_only = f_email & ~(f_iban | f_cnp | f_phone | f_tox)
        eo = np.flatnonzero(email_only)
        rest = np.flatnonzero(~email_only)
        repl_all = np.empty(len(idx), dtype=object)
        if len(eo):
            sub_eo = sub_arr.take(pa.array(eo))
            repl_all[eo] = pc.replace_substring_regex(
                sub_eo, pattern=EMAIL_RE.pattern, replacement="<EMAIL>"
            ).to_numpy(zero_copy_only=False)
            pii[idx[eo]] = pc.count_substring_regex(
                sub_eo, EMAIL_RE.pattern
            ).to_numpy(zero_copy_only=False)
        subset = sub_arr.take(pa.array(rest)).to_pylist()
        for k, t in zip(rest, subset):
            s, p, x = scrub_text(
                t,
                iban=bool(f_iban[k]),
                cnp=bool(f_cnp[k]),
                email=bool(f_email[k]),
                phone=bool(f_phone[k]),
                tox=bool(f_tox[k]),
            )
            repl_all[k] = s
            pii[idx[k]] = p
            tox[idx[k]] = x
        # only trigger rows leave Arrow: clean rows are spliced through
        # replace_with_mask, never round-tripped to Python strings
        out = pc.replace_with_mask(text, pa.array(hits), pa.array(repl_all, pa.string()))
        return (
            batch.append_column("scrubbed_text", out)
            .append_column("pii_hits", pa.array(pii, pa.int32()))
            .append_column("tox_hits", pa.array(tox, pa.int32()))
        )
