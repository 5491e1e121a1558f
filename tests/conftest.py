from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

import ray

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def unit_table():
    return pq.read_table(os.path.join(FIXDIR, "transcripts_unit.parquet"))


@pytest.fixture(scope="session")
def golden_path():
    return os.path.join(FIXDIR, "transcripts_golden.parquet")


@pytest.fixture(scope="session")
def golden_labeled():
    return pq.read_table(os.path.join(FIXDIR, "transcripts_golden_labeled.parquet"))


def _expected_conversations(turns):
    """The flagship conversation table by definition, one conversation
    at a time: rows sorted by (conv_id, turn_idx); turn and kept counts;
    kept turns' ``scrubbed_text`` joined by newlines; first/last
    non-null ts. Independent of the engine's reassembly kernels."""
    import pandas as pd

    rows = []
    df = turns.sort_values(["conv_id", "turn_idx"], kind="mergesort")
    for cid, g in df.groupby("conv_id", sort=True):
        kept = g[g["keep"].astype(bool)]
        ts = g["ts"].dropna()
        rows.append({
            "conv_id": cid,
            "n_turns": len(g),
            "n_kept": len(kept),
            "conv_keep": len(kept) > 0,
            "text": "\n".join(kept["scrubbed_text"]),
            "first_ts": ts.iloc[0] if len(ts) else pd.NaT,
            "last_ts": ts.iloc[-1] if len(ts) else pd.NaT,
        })
    return pd.DataFrame(rows)


@pytest.fixture(scope="session")
def assert_conversations():
    """``check(got, turns)``: the reassembled conversation table ``got``
    equals the by-definition table of the per-turn ``turns``."""
    import pandas as pd

    def check(got, turns):
        want = _expected_conversations(turns)
        got = got.sort_values("conv_id", ignore_index=True)[list(want.columns)]
        for c in ("first_ts", "last_ts"):
            got[c] = pd.to_datetime(got[c]).astype("datetime64[ns]")
            want[c] = pd.to_datetime(want[c]).astype("datetime64[ns]")
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    return check
