"""Output checks. Each returns a list of problems; an empty list is a
pass. They compare engine output with the frozen pure-Python oracle
(``fineweb2_ro_ray.oracle``) or with exact invariants, and never depend
on the seed's particular values."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

TURN_KEY = ["conv_id", "turn_idx"]
EXACT_TURN_COLS = ["keep", "drop_reason", "scrubbed_text", "lang", "pii_hits"]
CONV_COLS = ["n_turns", "n_kept", "conv_keep", "text", "first_ts", "last_ts"]


def digest(df: pd.DataFrame, keys: list[str]) -> str:
    """Order-independent content digest: rows sorted by ``keys``, then
    one hash per row."""
    d = df.sort_values(keys, kind="mergesort").reset_index(drop=True)
    rows = pd.util.hash_pandas_object(d[sorted(d.columns)], index=False)
    return hashlib.sha256(rows.to_numpy().tobytes()).hexdigest()


def _mismatch(name: str, got: pd.Series, want: pd.Series) -> list[str]:
    bad = ~(got.to_numpy() == want.to_numpy())
    n = int(bad.sum())
    if not n:
        return []
    i = int(np.flatnonzero(bad)[0])
    return [f"{name}: {n} rows differ (first: {got.iloc[i]!r} != {want.iloc[i]!r})"]


def _align(got: pd.DataFrame, want: pd.DataFrame, keys: list[str]):
    """Both frames sorted by ``keys`` if they hold the same key set,
    else the problems that prevent a row-by-row comparison."""
    problems = []
    if got.duplicated(keys).any():
        problems.append(f"duplicated {keys} in output: {int(got.duplicated(keys).sum())}")
    gk = set(map(tuple, got[keys].itertuples(index=False)))
    wk = set(map(tuple, want[keys].itertuples(index=False)))
    if gk != wk:
        problems.append(
            f"key sets differ: {len(wk - gk)} missing, {len(gk - wk)} unexpected"
        )
    if problems:
        return None, None, problems
    g = got.sort_values(keys, kind="mergesort").reset_index(drop=True)
    w = want.sort_values(keys, kind="mergesort").reset_index(drop=True)
    return g, w, []


def expected_conversations(oracle: pd.DataFrame) -> pd.DataFrame:
    """The flagship's conversation table derived from per-turn oracle
    labels: turn and kept counts, kept turns' scrubbed text joined by
    newlines in ``turn_idx`` order, and the first/last turn's ts."""
    df = oracle.sort_values(TURN_KEY, kind="mergesort")
    g = df.groupby("conv_id", sort=True)
    n_turns = g.size()
    n_kept = g["keep"].sum().astype(np.int64)
    text = (
        df[df["keep"]]
        .groupby("conv_id", sort=True)["scrubbed_text"]
        .agg("\n".join)
        .reindex(n_turns.index, fill_value="")
    )
    return pd.DataFrame(
        {
            "conv_id": n_turns.index,
            "n_turns": n_turns.to_numpy(np.int64),
            "n_kept": n_kept.to_numpy(),
            "conv_keep": (n_kept > 0).to_numpy(),
            "text": text.to_numpy(),
            "first_ts": g["ts"].first().to_numpy(),
            "last_ts": g["ts"].last().to_numpy(),
        }
    )


def check_conversations(got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    g, w, problems = _align(got, want, ["conv_id"])
    if problems:
        return problems
    for c in CONV_COLS:
        problems += _mismatch(c, g[c], w[c])
    return problems


def check_turns(got: pd.DataFrame, oracle: pd.DataFrame) -> list[str]:
    """Per-turn labels against the oracle: exact on the label columns,
    ``ppl`` within rtol 1e-9."""
    g, w, problems = _align(got, oracle, TURN_KEY)
    if problems:
        return problems
    for c in EXACT_TURN_COLS:
        problems += _mismatch(c, g[c], w[c])
    if not np.allclose(g["ppl"], w["ppl"], rtol=1e-9, atol=0.0):
        bad = int((~np.isclose(g["ppl"], w["ppl"], rtol=1e-9, atol=0.0)).sum())
        problems.append(f"ppl: {bad} rows outside rtol 1e-9")
    return problems


def check_lineage(records: dict[int, dict], oracle: pd.DataFrame, n_groups: int) -> list[str]:
    """Manifest totals over the latest committed record of each group
    equal the oracle's row and kept counts."""
    problems = []
    if sorted(records) != list(range(n_groups)):
        problems.append(f"committed groups {sorted(records)} != 0..{n_groups - 1}")
    rows = sum(r.get("rows", 0) for r in records.values())
    kept = sum(r.get("kept", 0) for r in records.values())
    if rows != len(oracle):
        problems.append(f"manifest rows {rows} != {len(oracle)}")
    if kept != int(oracle["keep"].sum()):
        problems.append(f"manifest kept {kept} != {int(oracle['keep'].sum())}")
    errs = [r["metrics_error"] for r in records.values() if "metrics_error" in r]
    if errs:
        problems.append(f"lineage errors: {errs[:2]}")
    return problems


def check_resume(summary: dict, n_groups: int, before: str, after: str) -> list[str]:
    """A resume after losing one group re-runs exactly that group and
    reproduces the full run's output."""
    problems = []
    if summary.get("groups_skipped") != n_groups - 1 or summary.get("groups_run") != 1:
        problems.append(f"resume ran {summary}, expected 1 run / {n_groups - 1} skipped")
    if before != after:
        problems.append("output after resume differs from the full run")
    return problems


def check_neardup(out: pd.DataFrame, n_input: int) -> list[str]:
    """``keep_all`` near-dedup output invariants: one row per input doc,
    each cluster counted once by its kept row, and no two kept rows
    with the same text (identical texts always share a cluster)."""
    problems = []
    if len(out) != n_input:
        problems.append(f"{len(out)} rows != {n_input} input docs")
    dup = int(out["doc_id"].duplicated().sum())
    if dup:
        problems.append(f"{dup} duplicated doc_id")
    kept = out[out["kept"]]
    if int(kept["cluster_size"].sum()) != len(out):
        problems.append(
            f"sum(cluster_size) over kept {int(kept['cluster_size'].sum())} != {len(out)} rows"
        )
    if (out["cluster_size"] < 1).any():
        problems.append("cluster_size < 1")
    dup_text = int(kept["text"].duplicated().sum())
    if dup_text:
        problems.append(f"{dup_text} texts with more than one kept row")
    return problems
